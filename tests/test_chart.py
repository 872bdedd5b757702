import functools
import gc
import itertools
import math
import random

import numpy as np
import pytest

from conftest import chain, t
from oracles import TooManyParsesError, UnaryCycleError, enumerate_parses, random_tree_over_yield
from plcg import _kernels, model_io
from plcg.chart import (
    _extract,
    compile_pcfg,
    sentence_probability,
    viterbi_parse,
)
from plcg.corpus import generate_corpus
from plcg.grammar_types import NEG_INF, PcfgModel, Rule
from plcg.induction import induce_pcfg, pcfg_tree_log_prob
from plcg.treebank import PreprocessOptions, Tree, leaves, preprocess_corpus, to_pos_tree


def model_from(counts, start="S"):
    return PcfgModel({Rule(l, tuple(r)): c for (l, r), c in counts.items()}, start)


PP_COUNTS = {
    ("S", ("NP", "VP")): 10,
    ("NP", ("N",)): 6,
    ("NP", ("NP", "PP")): 4,
    ("VP", ("V", "NP")): 7,
    ("VP", ("VP", "PP")): 3,
    ("PP", ("P", "NP")): 10,
}


@pytest.fixture
def pp_model():
    """Hand-set 2-way PP attachment ambiguity: high attach wins."""
    return model_from(PP_COUNTS)


class TestViterbi:
    def test_matches_enumeration_max(self, pp_model):
        tags = ["N", "V", "N", "P", "N"]
        best = viterbi_parse(tags, pp_model)
        assert best is not None
        tree, lp = best
        parses = enumerate_parses(tags, pp_model)
        assert len(parses) == 2
        assert math.exp(lp) == pytest.approx(parses[0][1])
        assert tree == parses[0][0]

    def test_higher_probability_attachment_chosen(self, pp_model):
        # NP attachment of the PP carries 4/10 vs VP attachment's 3/10.
        tree, _ = viterbi_parse(["N", "V", "N", "P", "N"], pp_model)
        assert t("(NP (NP N) (PP P (NP N)))") in tree.children[1].children

    def test_unknown_tag_is_no_parse(self, pp_model):
        assert viterbi_parse(["N", "XX"], pp_model) is None

    def test_uncovered_sequence_is_no_parse(self, pp_model):
        assert viterbi_parse(["P", "P"], pp_model) is None

    def test_empty_sequence_raises(self, pp_model):
        with pytest.raises(ValueError):
            viterbi_parse([], pp_model)

    def test_deterministic(self, pp_model):
        tags = ["N", "V", "N", "P", "N", "P", "N"]
        runs = {viterbi_parse(tags, pp_model) for _ in range(3)}
        assert len(runs) == 1

    def test_unary_rules_handled(self):
        model = model_from({
            ("S", ("A",)): 1,
            ("A", ("B", "B")): 1,
            ("B", ("b",)): 1,
        })
        tree, lp = viterbi_parse(["b", "b"], model)
        assert tree == t("(S (A (B b) (B b)))")
        assert lp == pytest.approx(0.0)

    def test_score_agrees_with_rule_product(self, pp_model):
        tags = ["N", "V", "N"]
        tree, lp = viterbi_parse(tags, pp_model)
        assert lp == pytest.approx(pcfg_tree_log_prob(tree, pp_model))

    def test_nary_rules_debinarized_in_output(self):
        trees = [t("(S (A a) (B b) (C c))")] * 3
        model = induce_pcfg(trees)
        tree, lp = viterbi_parse(["a", "b", "c"], model)
        assert tree == trees[0]
        assert lp == pytest.approx(0.0)


def test_tree_extraction_does_not_recurse():
    # Back-pointers and scores of the right-branching parse of 3,000 a's
    # under S -> a S | a; the tree is as deep as the sentence is long.
    g = compile_pcfg(model_from({("S", ("a", "S")): 1, ("S", ("a",)): 1}))
    n, s_id, a_id = 3000, g.sym_ids["S"], g.sym_ids["a"]
    r, u = g.bin_rules.index(Rule("S", ("a", "S"))), g.un_rules.index(Rule("S", ("a",)))
    back_op = {(i, i + 1, a_id): -1 for i in range(n)}
    back_op.update({(i, n, s_id): r for i in range(n - 1)})
    back_op[(n - 1, n, s_id)] = -2 - u
    best = {(i, i + 1, a_id): 0.0 for i in range(n)}
    best[(n - 1, n, s_id)] = g.un_lp[u]
    for i in range(n - 2, -1, -1):
        best[(i, n, s_id)] = g.bin_lp[r] + best[(i, i + 1, a_id)] + best[(i + 1, n, s_id)]
    tree = _extract(g, ["a"] * n, back_op, best, 0, n, s_id)
    assert tree == chain(n - 1, right=True)


@pytest.mark.parametrize("tags", [["S"], ["NP", "V", "N"], ["N", "V", "N", "PP"], ["N", "V", "VP@V"]])
def test_a_symbol_that_a_rule_rewrites_is_no_tag(tags):
    # Only the symbols that no rule of the binarized grammar rewrites are
    # terminals: a phrase label, or the binarized VP@V of V NP PP, in the
    # input makes the sentence uncovered, as it is for the left-corner beam.
    model = model_from({**PP_COUNTS, ("VP", ("V", "NP", "PP")): 2})
    assert viterbi_parse(tags, model) is None
    assert sentence_probability(tags, model) == 0.0
    assert enumerate_parses(tags, model) == []


class TestEnumeration:
    def test_exhaustive_over_short_inputs(self, pp_model):
        # Every parse found by brute force appears exactly once.
        tags = ["N", "V", "N", "P", "N"]
        parses = enumerate_parses(tags, pp_model)
        trees = [p[0] for p in parses]
        assert len(set(trees)) == len(trees)
        for tree, prob in parses:
            assert math.exp(pcfg_tree_log_prob(tree, pp_model)) == pytest.approx(prob)

    def test_sorted_by_probability(self, pp_model):
        parses = enumerate_parses(["N", "V", "N", "P", "N"], pp_model)
        probs = [p for _, p in parses]
        assert probs == sorted(probs, reverse=True)

    def test_no_parse_is_empty(self, pp_model):
        assert enumerate_parses(["P"], pp_model) == []

    def test_limit_enforced(self, pp_model):
        tags = ["N", "V"] + ["N", "P"] * 5 + ["N"]
        with pytest.raises(TooManyParsesError):
            enumerate_parses(tags, pp_model, limit=3)

    def test_unary_cycle_detected(self):
        model = model_from({
            ("S", ("A",)): 1,
            ("A", ("S",)): 1,
            ("S", ("x",)): 1,
        })
        with pytest.raises(UnaryCycleError):
            enumerate_parses(["x"], model)


class TestInside:
    def test_sum_equals_enumeration(self, pp_model):
        for n in (3, 5, 7):
            tags = ["N", "V"] + ["N", "P"] * ((n - 3) // 2) + ["N"]
            total = sum(p for _, p in enumerate_parses(tags, pp_model))
            assert sentence_probability(tags, pp_model) == pytest.approx(total, abs=1e-9)

    def test_no_parse_is_zero(self, pp_model):
        assert sentence_probability(["P", "P"], pp_model) == 0.0

    def test_proper_grammar_mass_bounded(self):
        # Geometric right-branching grammar: mass over lengths <= L
        # approaches one from below.
        model = model_from({
            ("S", ("a", "S")): 1,
            ("S", ("a",)): 1,
        })
        total = 0.0
        for n in range(1, 12):
            total += sentence_probability(["a"] * n, model)
            assert total <= 1.0 + 1e-9
        assert total == pytest.approx(1.0, abs=0.01)

    def test_viterbi_never_exceeds_inside(self, pp_model):
        for n in (3, 5):
            tags = ["N", "V"] + ["N", "P"] * ((n - 3) // 2) + ["N"]
            _, lp = viterbi_parse(tags, pp_model)
            assert math.exp(lp) <= sentence_probability(tags, pp_model) + 1e-12


def test_all_sequences_agree_with_enumeration(pp_model):
    for n in range(1, 5):
        for tags in itertools.product(["N", "V", "P"], repeat=n):
            parses = enumerate_parses(list(tags), pp_model)
            best = viterbi_parse(list(tags), pp_model)
            if not parses:
                assert best is None
            else:
                assert best is not None
                assert math.exp(best[1]) == pytest.approx(parses[0][1])


def scalar_viterbi_fill(n, term_ids, bin_lhs, bin_r1, bin_r2, bin_lp,
                        un_lhs, un_child, un_lp, best, back_op, back_split):
    """Reference for ``_kernels.viterbi_fill``: one rule and one split at a
    time, updating a cell only on a strict improvement."""
    n_bin = bin_lhs.shape[0]
    n_un = un_lhs.shape[0]
    for i in range(n):
        best[i, i + 1, term_ids[i]] = 0.0
    for length in range(1, n + 1):
        for i in range(n - length + 1):
            j = i + length
            if length > 1:
                for r in range(n_bin):
                    a, b, c = bin_lhs[r], bin_r1[r], bin_r2[r]
                    w = bin_lp[r]
                    for m in range(i + 1, j):
                        lb = best[i, m, b]
                        if lb == NEG_INF:
                            continue
                        rc = best[m, j, c]
                        if rc == NEG_INF:
                            continue
                        cand = w + lb + rc
                        if cand > best[i, j, a]:
                            best[i, j, a] = cand
                            back_op[i, j, a] = r
                            back_split[i, j, a] = m
            changed = True
            while changed:
                changed = False
                for u in range(n_un):
                    a, b = un_lhs[u], un_child[u]
                    lb = best[i, j, b]
                    if lb == NEG_INF:
                        continue
                    cand = un_lp[u] + lb
                    if cand > best[i, j, a]:
                        best[i, j, a] = cand
                        back_op[i, j, a] = -2 - u
                        back_split[i, j, a] = -1
                        changed = True


def fill_tables(fill, tags, g):
    """The kernel's (best, back_op), or with ``scalar_viterbi_fill`` the
    scalar loop's (best, back_op, back_split)."""
    n = len(tags)
    best = np.full((n + 1, n + 1, len(g.syms)), NEG_INF)
    tables = [best, np.full(best.shape, -1, dtype=np.int32)]
    terms = np.array([g.sym_ids[x] for x in tags], dtype=np.int64)
    if fill is scalar_viterbi_fill:
        tables.append(np.full(best.shape, -1, dtype=np.int64))
        fill(n, terms, g.bin_lhs, g.bin_r1, g.bin_r2, g.bin_lp,
             g.un_lhs, g.un_child, g.un_lp, *tables)
    else:
        fill(n, terms, g.viterbi_plan, g.bin_r1, g.bin_r2, g.bin_lp, *tables)
    return tables


def scalar_subtrees(g, tags, back_op, back_split):
    """The subtree of a cell (i, j, sym) from the scalar loop's back-pointers
    and splits, each cell's built once."""
    @functools.cache
    def subtree(i, j, sym):
        op = back_op[i, j, sym]
        if op == -1:
            return Tree(tags[i])
        if op <= -2:
            rule = g.un_rules[-2 - op]
            return Tree(rule.lhs, (subtree(i, j, g.sym_ids[rule.rhs[0]]),))
        rule, m = g.bin_rules[op], back_split[i, j, sym]
        b, c = (g.sym_ids[x] for x in rule.rhs)
        return Tree(rule.lhs, (subtree(i, m, b), subtree(m, j, c)))

    return subtree


def tie_model():
    # Two E rules of equal probability, and over "c c c" both splits score
    # log(1/2) + log(1/2) + log(1/2) exactly: four tied candidates for E.
    return model_from({
        ("E", ("F", "G")): 1, ("E", ("G", "F")): 1,
        ("F", ("c",)): 1, ("F", ("c", "c")): 1,
        ("G", ("c",)): 1, ("G", ("c", "c")): 1,
    }, start="E")


def unary_cycle_model():
    # A -> B -> A is a unary 2-cycle above the chain S -> A.
    return model_from({
        ("S", ("A",)): 2, ("S", ("S", "S")): 1,
        ("A", ("B",)): 1, ("A", ("a",)): 3,
        ("B", ("A",)): 1, ("B", ("b",)): 1,
    })


def generated_corpus_case():
    pre, _ = preprocess_corpus(generate_corpus(500, seed=7), PreprocessOptions())
    trees = [to_pos_tree(x) for x in pre]
    return induce_pcfg(trees), [leaves(x) for x in trees[:30]]


def long_sentence_case():
    # Random bracketings of 25-30 random tags: a dense grammar with unary
    # chains and cycles, whose long diagonals hold many spans.
    rng = random.Random(3)
    tags = ["DT", "NN", "VB", "IN", "JJ"]
    trees = [Tree("ROOT", (random_tree_over_yield(rng, rng.choices(tags, k=rng.randint(25, 30))),))
             for _ in range(40)]
    return induce_pcfg(trees), [leaves(x) for x in trees[:2]]


ORACLE_CASES = {
    "pp": lambda: (model_from(PP_COUNTS), [["N", "V", "N", "P", "N", "P", "N"],
                                          ["N", "V", "N"], ["P", "N"]]),
    "ties": lambda: (tie_model(), [["c", "c", "c"], ["c", "c"], ["c"] * 5]),
    "unary-cycle": lambda: (unary_cycle_model(), [["a"], ["b"], ["a", "b", "a"], ["b", "b"]]),
    "generated": generated_corpus_case,
    "no-unary": lambda: (model_from({
        ("S", ("A", "B")): 2, ("S", ("S", "B")): 1,
        ("A", ("a", "a")): 1, ("B", ("b", "b")): 1, ("B", ("B", "b")): 1,
    }), [["a", "a", "b", "b"], ["a", "a", "b", "b", "b", "b"], ["a", "b"]]),
    "no-binary": lambda: (model_from({("S", ("A",)): 1, ("A", ("a",)): 2, ("A", ("S",)): 1}),
                          [["a"]]),
    # Over "a b a" the spans of length 2 are X, which S -> X closes over,
    # and Y, which no unary rule has as its child.
    "mixed-diagonal": lambda: (model_from({
        ("S", ("X",)): 2, ("S", ("X", "a")): 1, ("S", ("a", "Y")): 1,
        ("X", ("a", "b")): 1, ("Y", ("b", "a")): 1,
    }), [["a", "b", "a"]]),
    "long": long_sentence_case,
    # Over "a b" the chains S M P and S M N Q tie at 1/2.  The sweep sets M
    # by M -> P in its first pass, before N -> Q scores N, and the second
    # pass's M -> N only ties, so M -> P stays.
    "unary-tie-order": lambda: (model_from({
        ("S", ("M",)): 1, ("M", ("N",)): 1, ("M", ("P",)): 1, ("N", ("Q",)): 1,
        ("P", ("a", "b")): 1, ("Q", ("a", "b")): 1,
    }), [["a", "b"]]),
}


class TestFillOracle:
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_tables_match_scalar_loop(self, case):
        model, sentences = ORACLE_CASES[case]()
        g = compile_pcfg(model)
        for tags in sentences:
            best, back_op = fill_tables(_kernels.viterbi_fill, tags, g)
            want_best, want_op, want_split = fill_tables(scalar_viterbi_fill, tags, g)
            assert np.array_equal(best, want_best), (case, tags, "best")
            assert np.array_equal(back_op, want_op), (case, tags, "back_op")
            # Each binary cell's subtree, its splits read from the scores.
            want_tree = scalar_subtrees(g, tags, want_op, want_split)
            for cell in zip(*np.nonzero(back_op >= 0)):
                cell = tuple(map(int, cell))
                assert _extract(g, tags, back_op, best, *cell) == want_tree(*cell), (case, tags, cell)

    def test_cases_have_the_shapes_they_cover(self):
        no_unary = compile_pcfg(ORACLE_CASES["no-unary"]()[0])
        assert no_unary.un_rules == [] and no_unary.bin_rules
        no_binary = compile_pcfg(ORACLE_CASES["no-binary"]()[0])
        assert no_binary.bin_rules == [] and no_binary.un_rules
        _, sentences = ORACLE_CASES["long"]()
        assert all(len(tags) >= 25 for tags in sentences)
        # One diagonal holds a span the unary closure runs on and one it skips.
        model, [tags] = ORACLE_CASES["mixed-diagonal"]()
        g = compile_pcfg(model)
        best, _, _ = fill_tables(scalar_viterbi_fill, tags, g)
        spans = np.arange(len(tags) - 1)
        fires = (best[spans, spans + 2][:, g.un_child] > NEG_INF).any(axis=1)
        assert fires.tolist() == [True, False]

    def test_ties_go_to_first_rule_then_first_split(self):
        tree, lp = viterbi_parse(["c", "c", "c"], tie_model())
        assert tree == t("(E (F c) (G c c))")
        assert lp == 3 * math.log(0.5)

    def test_unary_tie_keeps_the_sweeps_first_improvement(self):
        # Not M -> N, the lower rule index, nor the chain a topological
        # order of the unary rules would close first.
        model, [tags] = ORACLE_CASES["unary-tie-order"]()
        tree, lp = viterbi_parse(tags, model)
        assert tree == t("(S (M (P a b)))")
        assert lp == math.log(0.5)

    def test_each_grammar_fills_with_its_own_plan(self):
        # Two grammars whose compiled arrays have the same shapes, built
        # afresh and parsed in turn, so freed arrays' ids come back: a plan
        # cached by anything but the compiled grammar would serve one
        # grammar's tag cells and unary rules to the other.
        base = {("S", ("M",)): 1, ("N", ("Q",)): 1, ("N", ("a",)): 1, ("Q", ("a", "b")): 1,
                ("P", ("a", "b")): 1, ("P", ("a",)): 1}
        counts = [{**base, ("M", ("N",)): 3, ("M", ("P",)): 1},
                  {**base, ("M", ("N",)): 1, ("M", ("P",)): 3}]
        want = [t("(S (M (N (Q a b))))"), t("(S (M (P a b)))")]
        for step in range(10):
            model = model_from(counts[step % 2])
            assert viterbi_parse(["a", "b"], model)[0] == want[step % 2]
            g = model.compiled
            for tags in (["a", "b"], ["a"], ["a", "b", "a"]):
                best, back_op = fill_tables(_kernels.viterbi_fill, tags, g)
                want_best, want_op, _ = fill_tables(scalar_viterbi_fill, tags, g)
                assert np.array_equal(best, want_best), (step, tags, "best")
                assert np.array_equal(back_op, want_op), (step, tags, "back_op")
            del model, g
            gc.collect()


def two_cycle_model(num, den):
    # A -> B and B -> A each with probability p = num / den, so over "a"
    # the inside probability of A is (1 - p) / (1 - p^2).
    return model_from({
        ("A", ("B",)): num, ("A", ("a",)): den - num,
        ("B", ("A",)): num, ("B", ("b",)): den - num,
    }, start="A")


class TestInsideOracle:
    @pytest.mark.parametrize("case", ["pp", "ties", "generated", "no-unary", "mixed-diagonal"])
    def test_inside_equals_enumerated_mass(self, case):
        model, sentences = ORACLE_CASES[case]()
        for tags in sentences:
            total = sum(p for _, p in enumerate_parses(tags, model))
            assert sentence_probability(tags, model) == pytest.approx(total, rel=0, abs=1e-9)

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_viterbi_never_exceeds_inside(self, case):
        model, sentences = ORACLE_CASES[case]()
        for tags in sentences:
            best, inside = viterbi_parse(tags, model), sentence_probability(tags, model)
            if best is None:
                assert inside == 0.0, (case, tags)
            else:
                assert math.exp(best[1]) <= inside + 1e-12, (case, tags)

    @pytest.mark.parametrize("num, den", [(99, 100), (999, 1000)])
    def test_unary_two_cycle_matches_closed_form(self, num, den):
        p = num / den
        want = (1 - p) / (1 - p * p)
        assert sentence_probability(["a"], two_cycle_model(num, den)) == pytest.approx(want, rel=1e-12)

    def test_cyclic_no_binary_case_has_unit_mass(self):
        # S -> A and A -> S | a: I(A) = 2/3 + 1/3 I(A), so I(S) = I(A) = 1.
        model, [tags] = ORACLE_CASES["no-binary"]()
        assert sentence_probability(tags, model) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("rules, tags, want", [
        # A closed cycle that no span can score leaves S -> a alone.
        (["S\ta", "S\tA", "A\tB", "B\tA"], ["a"], 0.5),
        # X -> Y -> X leaks only through X's binary rule: I(X) = 1/2 + 1/2 I(X).
        (["S\tX", "X\tY", "X\ta\ta", "Y\tX"], ["a", "a"], 1.0),
    ])
    def test_model_file_cycles(self, rules, tags, want):
        head = "PLCG-MODEL\t%d\tpcfg\tS\n" % model_io.FORMAT_VERSION
        text = head + "".join("RULE\t%s\t1\n" % r for r in rules)
        assert sentence_probability(tags, model_io.loads(text)) == pytest.approx(want, rel=1e-12)


    def test_symbol_no_chain_reaches_adds_nothing(self):
        # No unary chain leads from S to B, yet the solve for R_U leaves
        # rounding noise of about 3e-17 at (S, B); read as a tag, B must
        # still give S nothing.
        model = model_from({("S", ("A",)): 2, ("S", ("x",)): 7, ("A", ("A",)): 1,
                            ("A", ("x",)): 8, ("B", ("A",)): 4})
        assert viterbi_parse(["B"], model) is None
        assert sentence_probability(["B"], model) == 0.0

@pytest.mark.parametrize("parse", [viterbi_parse, sentence_probability])
def test_chart_out_of_memory_names_the_length(parse, pp_model, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np, "full", no_memory)
    with pytest.raises(ValueError, match="a 3-tag sentence"):
        parse(["N", "V", "N"], pp_model)
