import pytest

from conftest import t
from oracles import pcfg_tree_exact_prob, random_tree
from plcg.grammar_types import Rule
from plcg.treebank import Tree
from plcg.induction import induce_pcfg, induce_plcg, plcg_tree_log_prob
from plcg.transforms import (
    ReservedSymbolError,
    binarize_corpus,
    binarize_pcfg,
    binarize_rule,
    binarize_tree,
    debinarize_tree,
    is_binarized_symbol,
)


class TestTreeBinarization:
    def test_binary_trees_unchanged(self):
        tree = t("(S (NP a) (VP b))")
        assert binarize_tree(tree) == tree

    def test_ternary_rule(self):
        tree = t("(VP VB NP PP)")
        assert binarize_tree(tree) == t("(VP VB (VP@VB NP PP))")

    def test_quaternary_rule(self):
        tree = t("(A w x y z)")
        assert binarize_tree(tree) == t("(A w (A@w x (A@w@x y z)))")

    def test_round_trip_random_trees(self, rng):
        for _ in range(1000):
            tree = random_tree(rng, max_depth=6)
            assert debinarize_tree(binarize_tree(tree)) == tree

    def test_reserved_separator_rejected(self):
        with pytest.raises(ReservedSymbolError):
            binarize_tree(t("(A@B x y z)"))

    def test_corpus_helper(self):
        trees = [t("(A x y z)"), t("(B x y)")]
        out = binarize_corpus(trees)
        assert all(len(n.rhs) <= 2 for tr in out for n in _rules(tr))


def _rules(tree):
    from plcg.treebank import iter_local_trees
    return [Rule(lhs, rhs) for lhs, rhs in iter_local_trees(tree)]


class TestRuleBinarization:
    def test_short_rules_pass_through(self):
        r = Rule("A", ("x", "y"))
        assert binarize_rule(r) == [r]

    def test_tail_merging(self):
        parts = binarize_rule(Rule("A", ("w", "x", "y", "z")))
        assert parts == [
            Rule("A", ("w", "A@w")),
            Rule("A@w", ("x", "A@w@x")),
            Rule("A@w@x", ("y", "z")),
        ]

    def test_rules_are_the_local_trees_of_the_binarized_tree(self, rng):
        for _ in range(300):
            rhs = tuple(rng.choice("abcXYZ") for _ in range(rng.randint(1, 7)))
            rule = Rule(rng.choice("SXY"), rhs)
            tree = binarize_tree(Tree(rule.lhs, tuple(Tree(x) for x in rhs)))
            assert binarize_rule(rule) == _rules(tree), rule

    @pytest.mark.parametrize("lhs, rhs, bad", [
        ("A@B", ("x", "y", "z"), "A@B"),
        ("A", ("x@1", "y", "z@2"), "x@1"),
        ("A", ("x", "y", "z@2"), "z@2"),
        ("A@B", ("x", "y@1", "z"), "A@B"),
    ])
    def test_reserved_separator_rejected_for_the_first_label(self, lhs, rhs, bad):
        with pytest.raises(ReservedSymbolError, match="label '%s' " % bad):
            binarize_rule(Rule(lhs, rhs))

    def test_is_binarized_symbol(self):
        assert is_binarized_symbol("A@w")
        assert not is_binarized_symbol("A")


class TestPcfgBinarization:
    def test_probability_preserved_exactly(self, rng):
        trees = [random_tree(rng, max_depth=5) for _ in range(60)]
        trees = [tr for tr in trees if tr.label == "S"]
        if len(trees) < 2:
            pytest.skip("rng produced too few S-rooted trees")
        model = induce_pcfg(trees)
        bin_model = binarize_pcfg(model)
        for tree in trees[:20]:
            assert pcfg_tree_exact_prob(tree, model) == pcfg_tree_exact_prob(
                binarize_tree(tree), bin_model
            )

    def test_counts_aggregate_across_shared_prefixes(self):
        # Two rules sharing mother and corner collapse onto one top rule.
        trees = [t("(A w x y)"), t("(A w x z)")]
        model = binarize_pcfg(induce_pcfg(trees))
        assert model.counts[Rule("A", ("w", "A@w"))] == 2
        assert model.counts[Rule("A@w", ("x", "y"))] == 1
        assert model.counts[Rule("A@w", ("x", "z"))] == 1

    def test_plcg_probability_not_preserved(self):
        # Binarization merges distinct left-corner contexts, so the
        # left-corner model is not invariant the way the PCFG is.
        trees = [
            t("(S A (NP P X1) C)"),
            t("(S A (PP (NP P X2) D2) D)"),
        ]
        nary = induce_plcg(trees)
        bin_trees = binarize_corpus(trees)
        bin_model = induce_plcg(bin_trees)
        p_nary = plcg_tree_log_prob(trees[0], nary)
        p_bin = plcg_tree_log_prob(bin_trees[0], bin_model)
        assert abs(p_nary - p_bin) > 1e-6
