"""Acceptance suite: one test per shipping criterion, each printing a
PASS line with its measured numbers when it succeeds."""

import itertools
import math
import random
import time


from conftest import assert_model_normalized, t
from oracles import (
    corpus_log_likelihood,
    enumerate_parses,
    max_stack_depth,
    pcfg_tree_exact_prob,
    random_tree,
    random_tree_over_yield,
)
from plcg.chart import sentence_probability, viterbi_parse
from plcg.cli import main
from plcg.corpus import generate_corpus
from plcg.derivation import derivation_events, replay
from plcg.evalb import score_corpus, score_pair
from plcg.induction import (
    induce_delta_model,
    induce_pcfg,
    induce_plcg,
    plcg_tree_log_prob,
)
from plcg.lc_parser import beam_parse, exhaustive_lc_parse
from plcg.transforms import binarize_corpus, binarize_pcfg, binarize_tree
from plcg.treebank import (
    PreprocessOptions,
    Tree,
    leaves,
    preprocess_corpus,
    to_pos_tree,
)

# Small tag-level fixture corpora over the terminals {a, b}; each induces a
# PCFG and a PLCG used for oracle-equivalence and beam checks.
FIXTURE_CORPORA = [
    ["(S a)", "(S a b)", "(S (S a) b)"],
    ["(S (A a) (B b))", "(S (B b) (A a))", "(S (A a) (A a))"],
    ["(S a (S b))", "(S a)", "(S b)"],
    ["(S (S a) b)", "(S a)", "(S b b)"],
    ["(S (NP a) (VP b))", "(S (NP a a) (VP b))", "(S (NP a) (VP b (NP a)))"],
    ["(S (X (Y a)) b)", "(S (X a) b)"],
    ["(S (A a) (B b) (C a))", "(S (A a) (B b))"],
    ["(S (A (A a) b))", "(S (A a))"],
    ["(S (NP (NP a) (NP a)) (VP b))", "(S (NP a) (VP b (NP a)))", "(S (NP a a) (VP b))"],
    ["(S a b a)", "(S a b)", "(S (S a b) a)"],
    ["(T b (S a))", "(T b (S a))", "(T b (S (S a) b))"],
]


def fixture_models():
    for texts in FIXTURE_CORPORA:
        trees = [t(x) for x in texts]
        yield trees, induce_pcfg(trees), induce_plcg(trees)


def preprocessed_tag_corpus(size, seed):
    trees = generate_corpus(size, seed)
    pre, _ = preprocess_corpus(trees, PreprocessOptions())
    return [to_pos_tree(x) for x in pre]


def test_criterion_1_normalization_suite():
    start = time.monotonic()
    checked = 0
    for seed in range(20):
        corpus = preprocessed_tag_corpus(40 + seed, seed)
        assert_model_normalized(induce_pcfg(corpus), tol=1e-9)
        assert_model_normalized(induce_plcg(corpus), tol=1e-9)
        assert_model_normalized(induce_delta_model(binarize_corpus(corpus)), tol=1e-9)
        checked += 3
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print("\n[PASS] criterion 1: %d models normalized to 1e-9 in %.2fs" % (checked, elapsed))


def test_criterion_2_derivation_round_trip():
    start = time.monotonic()
    rng = random.Random(2)
    for i in range(1000):
        tree = random_tree(rng, max_depth=8, max_branch=4)
        compose = i % 2 == 1
        assert replay(derivation_events(tree, compose=compose), tree.label) == tree
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print("\n[PASS] criterion 2: 1000 random trees replayed exactly in %.2fs" % elapsed)


def test_criterion_3_oracle_equivalence():
    start = time.monotonic()
    grammars = sequences = 0
    for trees, pcfg, plcg in fixture_models():
        grammars += 1
        for length in range(1, 7):
            for tags in itertools.product("ab", repeat=length):
                tags = list(tags)
                sequences += 1
                exact = exhaustive_lc_parse(tags, plcg)
                beamed = beam_parse(tags, plcg, k=10 ** 6)
                if exact:
                    assert beamed and beamed[0][0] == exact[0][0]
                    assert abs(beamed[0][1] - exact[0][1]) < 1e-9
                else:
                    assert beamed == []
                parses = enumerate_parses(tags, pcfg)
                best = viterbi_parse(tags, pcfg)
                if parses:
                    assert best is not None
                    assert abs(math.exp(best[1]) - parses[0][1]) < 1e-9
                else:
                    assert best is None
    elapsed = time.monotonic() - start
    assert grammars >= 10 and elapsed < 60.0
    print(
        "\n[PASS] criterion 3: beam=exhaustive and viterbi=enumeration on "
        "%d grammars x %d sequences in %.2fs" % (grammars, sequences // grammars, elapsed)
    )


def test_criterion_4_language_model_mass():
    start = time.monotonic()
    # Geometric PCFG: mass 1 - 2^-L over sentences of length <= L.
    geometric = induce_pcfg([t("(S a (S a))"), t("(S a)")])
    pcfg_total = 0.0
    for n in range(1, 11):
        pcfg_total += sentence_probability(["a"] * n, geometric)
        assert pcfg_total <= 1.0 + 1e-9
    assert abs(pcfg_total - 1.0) < 0.01

    plcg = induce_plcg([t(x) for x in FIXTURE_CORPORA[10]])
    plcg_total = 0.0
    for length in range(1, 11):
        for tags in itertools.product("ab", repeat=length):
            for _, lp in exhaustive_lc_parse(list(tags), plcg):
                plcg_total += math.exp(lp)
        assert plcg_total <= 1.0 + 1e-9
    assert abs(plcg_total - 1.0) < 0.01
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        "\n[PASS] criterion 4: sentence mass pcfg=%.6f plcg=%.6f by L=10 in %.2fs"
        % (pcfg_total, plcg_total, elapsed)
    )


def test_criterion_5_binarization():
    rng = random.Random(5)
    trees = [Tree("TOP", (random_tree(rng, max_depth=5),)) for _ in range(500)]
    model = induce_pcfg(trees)
    bin_model = binarize_pcfg(model)
    worst = 0.0
    for tree in trees:
        p = pcfg_tree_exact_prob(tree, model)
        pb = pcfg_tree_exact_prob(binarize_tree(tree), bin_model)
        assert p == pb  # exact rational equality, stronger than 1e-12
        worst = max(worst, abs(float(p) - float(pb)))
    assert worst <= 1e-12

    # Witness that the left-corner model is not preserved: binarization
    # merges the two distinct goal contexts below.
    witness = [t("(S A (NP P X1) C)"), t("(S A (PP (NP P X2) D2) D)")]
    nary = plcg_tree_log_prob(witness[0], induce_plcg(witness))
    bin_trees = binarize_corpus(witness)
    binned = plcg_tree_log_prob(bin_trees[0], induce_plcg(bin_trees))
    assert abs(nary - binned) > 1e-6
    print(
        "\n[PASS] criterion 5: pcfg probability preserved on 500 trees; "
        "plcg witness diverges by %.4f in log-prob" % abs(nary - binned)
    )


def test_criterion_6_conditioning_advantage():
    corpus = preprocessed_tag_corpus(1000, 42)
    train, held = corpus[:800], corpus[800:]
    pcfg = induce_pcfg(train)
    plcg = induce_plcg(train)
    ll_pcfg = corpus_log_likelihood(held, pcfg)
    ll_plcg = corpus_log_likelihood(held, plcg)
    assert ll_plcg > ll_pcfg + 1e-6

    golds, pcfg_out, plcg_out = [], [], []
    for tree in held:
        tags = leaves(tree)
        a = viterbi_parse(tags, pcfg)
        b = beam_parse(tags, plcg, k=2000)
        if a is not None and b:
            golds.append(tree)
            pcfg_out.append(a[0])
            plcg_out.append(b[0][0])
    assert len(golds) >= 100
    rep_pcfg, _ = score_corpus(golds, pcfg_out)
    rep_plcg, _ = score_corpus(golds, plcg_out)
    assert rep_plcg.labelled_precision >= rep_pcfg.labelled_precision
    assert rep_plcg.labelled_recall >= rep_pcfg.labelled_recall
    print(
        "\n[PASS] criterion 6: held-out LL %.2f (plcg) > %.2f (pcfg); "
        "LP %.3f>=%.3f LR %.3f>=%.3f"
        % (ll_plcg, ll_pcfg, rep_plcg.labelled_precision, rep_pcfg.labelled_precision,
           rep_plcg.labelled_recall, rep_pcfg.labelled_recall)
    )


def test_criterion_7_evaluator_ground_truth():
    penn_vp = t("(VP saw (NP the man) (PP with (NP a telescope)))")
    penn_np = t("(VP saw (NP (NP the man) (PP with (NP a telescope))))")
    nbar_vp = t("(VP saw (NP the (N1 man)) (PP with (NP a (N1 telescope))))")
    nbar_np = t("(VP saw (NP the (N1 man (PP with (NP a (N1 telescope))))))")

    def errors(gold, test):
        s = score_pair(gold, test)
        return s.lab_test - s.lab_matched, s.lab_gold - s.lab_matched, s.crossing

    assert errors(penn_np, penn_vp) == (0, 1, 0)
    assert errors(penn_vp, penn_np) == (1, 0, 0)
    assert errors(nbar_np, nbar_vp) == (1, 2, 1)
    assert errors(nbar_vp, nbar_np) == (2, 1, 1)

    rng = random.Random(7)
    for _ in range(200):
        words = ["w%d" % i for i in range(rng.randint(2, 8))]
        gold = random_tree_over_yield(rng, words)
        test = random_tree_over_yield(rng, words)
        s1, s2 = score_pair(gold, test), score_pair(test, gold)
        assert (s1.matched, s1.gold, s1.test) == (s2.matched, s2.test, s2.gold)
        assert (s1.lab_matched, s1.lab_gold, s1.lab_test) == (s2.lab_matched, s2.lab_test,
                                                              s2.lab_gold)
    print("\n[PASS] criterion 7: all four error-table cells exact; symmetry on 200 pairs")


def test_criterion_8_beam_monotonicity():
    fixtures = []
    for trees, _, plcg in fixture_models():
        for tree in trees[:2]:
            fixtures.append((plcg, leaves(tree)))
    fixtures = fixtures[:20]
    assert len(fixtures) == 20
    for model, tags in fixtures:
        prev = float("-inf")
        for k in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
            parses = beam_parse(tags, model, k=k)
            if parses:
                assert parses[0][1] >= prev - 1e-12
                prev = parses[0][1]
    print("\n[PASS] criterion 8: scores nondecreasing over k=1..1024 on 20 fixtures")


def test_criterion_9_stack_behavior(capsys, tmp_path):
    for n in range(5, 51):
        right = "(S a)"
        left = "(S a)"
        for _ in range(n):
            right = "(S a %s)" % right
            left = "(S %s a)" % left
        assert max_stack_depth(t(right), compose=True) <= 4
        assert max_stack_depth(t(left), compose=True) <= 4

    corpus = binarize_corpus(preprocessed_tag_corpus(200, 9))
    model = induce_delta_model(corpus)
    observed = set()
    for dist in model.delta_counts.values():
        observed |= set(dist)
    assert observed <= {-2, -1, 0, 1}

    trees_path = tmp_path / "trees.txt"
    trees_path.write_text("".join(str(x) + "\n" for x in generate_corpus(100, 9)))
    assert main(["stats", str(trees_path)]) == 0
    out = capsys.readouterr().out
    rows = out.splitlines()[1:]
    assert rows
    for row in rows:
        cells = [float(x.rstrip("%")) for x in row.split()[2:]]
        assert abs(sum(cells) - 100.0) < 0.5
    print(
        "\n[PASS] criterion 9: compose stack <= 4 on chains 5-50; deltas %s; "
        "%d stats rows sum to 100%%" % (sorted(observed), len(rows))
    )

