import itertools
import math
import random
from collections import defaultdict
from fractions import Fraction

import pytest

from conftest import assert_model_normalized, chain, t
from oracles import corpus_log_likelihood, pcfg_tree_exact_prob, random_tree
from plcg.corpus import generate_corpus
from plcg.grammar_types import ATTACH_RULE, DeltaModel, PcfgModel, PlcgModel, Rule
from plcg.induction import (
    delta_tree_log_prob,
    induce_delta_model,
    induce_pcfg,
    induce_plcg,
    pcfg_tree_log_prob,
    plcg_tree_log_prob,
)
from plcg.lc_parser import beam_parse
from plcg.transforms import binarize_corpus, binarize_tree
from plcg.treebank import (
    PreprocessOptions,
    Tree,
    UnaryMode,
    iter_local_trees,
    leaves,
    preprocess_corpus,
    to_pos_tree,
    write_trees,
)
from test_derivation import reference_move_events


# Counting oracle: relative-frequency induction as it was before events held
# raw labels.  It builds a MoveEvent, Move and Rule per move from the
# two-pass reference walk, and walks every tree twice for a delta model.

def reference_pcfg(trees):
    counts = defaultdict(int)
    for tree in trees:
        for lhs, rhs in iter_local_trees(tree):
            counts[Rule(lhs, rhs)] += 1
    return PcfgModel(dict(counts), trees[0].label)


def reference_plcg(trees):
    shift = defaultdict(lambda: defaultdict(int))
    att = defaultdict(lambda: [0, 0])
    proj = defaultdict(lambda: defaultdict(int))
    for tree in trees:
        for ev in reference_move_events(tree):
            mv = ev.move
            if mv.kind == "shift":
                shift[ev.gc][mv.symbol] += 1
            elif mv.kind == "attach":
                pair = att[(ev.lc, ev.gc)]
                pair[0] += 1
                pair[1] += 1
            else:
                att[(ev.lc, ev.gc)][1] += 1
                proj[(ev.lc, ev.gc)][mv.rule] += 1
    model = PlcgModel(
        shift_counts={gc: dict(d) for gc, d in shift.items()},
        attach_counts={gc: a for (_, gc), (a, _) in att.items() if a},
        proj_counts={k: dict(d) for k, d in proj.items()},
        start=trees[0].label,
    )
    # The model derives each decision point's total from the counts.
    assert model.att_counts == {k: (a, n) for k, (a, n) in att.items()}
    return model


def reference_delta(trees):
    shift = defaultdict(lambda: defaultdict(int))
    deltas = defaultdict(lambda: defaultdict(int))
    rules = defaultdict(lambda: defaultdict(int))
    for tree in trees:
        for ev in reference_move_events(tree, compose=True):
            mv = ev.move
            if mv.kind == "shift":
                shift[ev.gc][mv.symbol] += 1
                continue
            if mv.kind == "attach":
                delta, rule = -2, ATTACH_RULE
            else:
                delta, rule = len(mv.rule.rhs) - 1 - (2 if mv.compose else 0), mv.rule
            deltas[(ev.depth, ev.lc, ev.gc)][delta] += 1
            rules[(ev.lc, ev.gc, ev.depth, delta)][rule] += 1
    model = DeltaModel(
        rule_counts={k: dict(d) for k, d in rules.items()},
        shift_counts={gc: dict(d) for gc, d in shift.items()},
        start=trees[0].label,
    )
    # The model derives its delta table and its PLCG, which is the base
    # machine's count of the same trees.
    assert model.delta_counts == {k: dict(d) for k, d in deltas.items()}
    assert model.base == reference_plcg(trees)
    return model


def assert_same_models(trees):
    """Every model induced from ``trees`` equals the oracle's, and the delta
    model (from the binarized trees) carries the PLCG of those trees."""
    binarized = binarize_corpus(trees)
    assert induce_pcfg(trees) == reference_pcfg(trees)
    for form in (trees, binarized):
        assert induce_plcg(form) == reference_plcg(form)
    delta = induce_delta_model(binarized)
    assert delta == reference_delta(binarized)
    assert delta.base == induce_plcg(binarized)


class TestCountingOracle:
    @pytest.mark.parametrize("add_root,strip_empties,strip_function_tags,unary_mode",
                             list(itertools.product((True, False), (True, False),
                                                    (True, False), list(UnaryMode))))
    def test_generated_corpora(self, add_root, strip_empties, strip_function_tags,
                               unary_mode):
        opts = PreprocessOptions(add_root, strip_empties, strip_function_tags, unary_mode)
        trees, _ = preprocess_corpus(generate_corpus(200, seed=11, raw=True), opts)
        # Without a ROOT wrapper, folding can leave trees rooted in other
        # categories, and a model takes one root; count those rooted in S.
        trees = [to_pos_tree(tree) for tree in trees if tree.label in ("ROOT", "S")]
        assert len(trees) > 150
        assert_same_models(trees)

    def test_random_trees_with_unary_chains(self):
        rng = random.Random(12345)
        trees = [Tree("ROOT", (random_tree(rng, max_depth=5),)) for _ in range(200)]
        trees += [Tree("ROOT", (chain(n, right),)) for n in (0, 1, 5) for right in (True, False)]
        trees.append(t("(ROOT (S (S (S (NP (NP a))) b)))"))
        assert any(len(n.children) == 1 and n.children[0].children
                   for tree in trees for n in _nodes(tree))
        assert_same_models(trees)

    def test_single_node_tree(self):
        assert_same_models([Tree("a")])
        assert induce_plcg([Tree("a")]).att_counts == {("a", "a"): (1, 1)}


def _nodes(tree):
    todo = [tree]
    while todo:
        node = todo.pop()
        yield node
        todo += node.children


class TestPcfgInduction:
    def test_counts_by_hand(self):
        trees = [t("(S (A a) (B b))"), t("(S (A a) (A a))"), t("(S (A x))")]
        model = induce_pcfg(trees)
        assert model.counts[Rule("S", ("A", "B"))] == 1
        assert model.counts[Rule("S", ("A", "A"))] == 1
        assert model.counts[Rule("A", ("a",))] == 3
        assert model.prob(Rule("S", ("A", "B"))) == pytest.approx(1 / 3)
        assert model.prob(Rule("A", ("a",))) == pytest.approx(3 / 4)

    def test_single_tree_has_probability_one(self):
        tree = t("(S (NP (DT a) (NN b)) (VP (VB c)))")
        model = induce_pcfg([tree])
        assert pcfg_tree_log_prob(tree, model) == pytest.approx(0.0)
        assert pcfg_tree_exact_prob(tree, model) == Fraction(1)

    def test_unseen_rule_gets_zero(self):
        model = induce_pcfg([t("(S (A a) (B b))")])
        assert pcfg_tree_log_prob(t("(S (B b) (A a))"), model) == float("-inf")

    def test_empty_corpus_raises(self):
        with pytest.raises(ValueError):
            induce_pcfg([])

    def test_mixed_roots_raise(self):
        with pytest.raises(ValueError):
            induce_pcfg([t("(S (A a))"), t("(T (A a))")])

    def test_normalized(self):
        trees = [t("(S (A a) (B b))"), t("(S (A a) (A a))"), t("(S (B b))")]
        assert_model_normalized(induce_pcfg(trees))


class TestPlcgInduction:
    def test_attach_ratio_by_hand(self):
        # Two trees attach S directly, one projects S -> S b from the same
        # (S, S) context: attach probability 3/4.
        trees = [
            t("(T c (S a))"),
            t("(T c (S a))"),
            t("(T c (S (S a) b))"),
        ]
        model = induce_plcg(trees)
        assert model.p_att("S", "S") == pytest.approx(0.75)
        assert model.projections("S", "S")[Rule("S", ("S", "b"))] == pytest.approx(1.0)
        assert_model_normalized(model)

    def test_shift_distribution_by_hand(self):
        trees = [t("(S a)"), t("(S a)"), t("(S b)")]
        model = induce_plcg(trees)
        assert model.shift_dist("S") == pytest.approx({"a": 2 / 3, "b": 1 / 3})

    def test_goal_category_separates_contexts(self):
        # Subject NPs (goal S) are pronouns; object NPs (goal NP, via the
        # sought slot of VP -> VB NP) are DT NN.  The PCFG collapses both.
        trees = [
            t("(S (NP PRP) (VP VB (NP DT NN)))"),
            t("(S (NP PRP) (VP VB (NP DT NN)))"),
        ]
        plcg = induce_plcg(trees)
        pcfg = induce_pcfg(trees)
        assert plcg.projections("PRP", "S")[Rule("NP", ("PRP",))] == pytest.approx(1.0)
        assert plcg.projections("DT", "NP")[Rule("NP", ("DT", "NN"))] == pytest.approx(1.0)
        assert pcfg.prob(Rule("NP", ("PRP",))) == pytest.approx(0.5)

    def test_single_tree_has_probability_one(self):
        tree = t("(S (NP (DT a) (NN b)) (VP (VB c)))")
        model = induce_plcg([tree])
        assert plcg_tree_log_prob(tree, model) == pytest.approx(0.0)

    def test_unseen_structure_gets_zero(self):
        model = induce_plcg([t("(S (A a) (B b))")])
        assert plcg_tree_log_prob(t("(S (A a))"), model) == float("-inf")

    def test_projection_scores_include_attach_complement(self):
        trees = [
            t("(T c (S a))"),
            t("(T c (S a))"),
            t("(T c (S (S a) b))"),
        ]
        model = induce_plcg(trees)
        # The nested tree pays (1 - 3/4) at its (S, S) projection and 3/4
        # at the final attach from the same context: 3/16 overall.
        lp = plcg_tree_log_prob(t("(T c (S (S a) b))"), model)
        assert math.exp(lp) == pytest.approx(3 / 16)


class TestDeltaInduction:
    def trees(self):
        return binarize_corpus([
            t("(S (NP PRP) (VP VB (NP DT NN)))"),
            t("(S (NP PRP) (VP VB (NP NN NN)))"),
            t("(S (NP NN) (VP VB))"),
        ])

    def test_deltas_in_range(self):
        model = induce_delta_model(self.trees())
        for dist in model.delta_counts.values():
            assert set(dist) <= {-2, -1, 0, 1}

    def test_normalized(self):
        assert_model_normalized(induce_delta_model(self.trees()))

    def test_rejects_nary_rules(self):
        with pytest.raises(ValueError):
            induce_delta_model([t("(S a b c)")])

    def test_single_tree_has_probability_one(self):
        tree = binarize_corpus([t("(S (NP PRP) (VP VB (NP DT NN)))")])[0]
        model = induce_delta_model([tree])
        assert delta_tree_log_prob(tree, model) == pytest.approx(0.0)

    def test_unseen_depth_gets_zero(self):
        flat = binarize_corpus([t("(S a b)")])
        model = induce_delta_model(flat)
        deep = binarize_corpus([t("(S (S a b) b)")])[0]
        assert delta_tree_log_prob(deep, model) == float("-inf")


class TestCorpusLogLikelihood:
    def test_dispatch_matches_per_tree_scores(self):
        trees = [t("(S (A a) (B b))"), t("(S (A a) (A a))")]
        pcfg = induce_pcfg(trees)
        plcg = induce_plcg(trees)
        assert corpus_log_likelihood(trees, pcfg) == pytest.approx(
            sum(pcfg_tree_log_prob(x, pcfg) for x in trees)
        )
        assert corpus_log_likelihood(trees, plcg) == pytest.approx(
            sum(plcg_tree_log_prob(x, plcg) for x in trees)
        )

    def test_training_likelihood_plcg_vs_pcfg_on_shared_support(self):
        # With a single tree both models assign probability one.
        tree = t("(S (A a) (B b))")
        assert corpus_log_likelihood([tree], induce_pcfg([tree])) == pytest.approx(0.0)
        assert corpus_log_likelihood([tree], induce_plcg([tree])) == pytest.approx(0.0)


# Under every unary mode, a model's terminals are the corpus's tags: it
# parses each tag sequence of the trees it was induced from.
CONTRACT_CORPUS = write_trees(generate_corpus(500, seed=7, raw=True))


@pytest.mark.parametrize("kind", ["plcg", "delta"])
@pytest.mark.parametrize("mode", list(UnaryMode), ids=lambda m: m.value)
def test_every_unary_mode_parses_the_tags_of_its_training_corpus(kind, mode):
    # The training load of `plcg induce --model KIND --unary MODE`.
    opts = PreprocessOptions(unary_mode=mode, pos_tags=True, binarize=kind == "delta")
    trees, _ = preprocess_corpus(CONTRACT_CORPUS, opts)
    model = induce_plcg(trees) if kind == "plcg" else induce_delta_model(trees)
    tagged, _ = preprocess_corpus(CONTRACT_CORPUS, PreprocessOptions(pos_tags=True))
    missed = [leaves(tree) for tree in tagged if not beam_parse(leaves(tree), model, k=1000)]
    assert not missed, (len(missed), missed[0])


def test_beam_log_probs_equal_the_scorers_exactly():
    # The scorers walk the gold derivation; the beam scores the moves of its
    # compiled tables.  On sentences whose best parse is the gold tree the
    # two log-probs are the same float, not just close.
    trees, _ = preprocess_corpus(generate_corpus(500, seed=7), PreprocessOptions(pos_tags=True))
    plcg = induce_plcg(trees)
    delta = induce_delta_model(binarize_corpus(trees))
    for tree in trees[:60]:
        tags = leaves(tree)
        for model, want in ((plcg, plcg_tree_log_prob(tree, plcg)),
                            (delta, delta_tree_log_prob(binarize_tree(tree), delta))):
            (got, lp), = beam_parse(tags, model, k=100)
            assert got == tree and lp == want, (tags, type(model).__name__, lp, want)
