import io

import pytest

from conftest import chain, t
from plcg.corpus import random_tree
from plcg.treebank import (
    PreprocessOptions,
    Tree,
    TreeReadError,
    UnaryMode,
    VacuousTreeError,
    fold_unaries,
    leaves,
    preprocess,
    preprocess_corpus,
    read_tree,
    read_trees,
    to_pos_tree,
    write_tree,
    write_trees,
)


class TestReading:
    def test_single_tree(self):
        tree = read_tree("(S (NP (DT the) (NN dog)) (VP (VB ran)))")
        assert tree.label == "S"
        assert leaves(tree) == ["the", "dog", "ran"]

    def test_multiple_trees(self):
        trees = read_trees("(A (B x))\n(A (C y))\n")
        assert [t.label for t in trees] == ["A", "A"]

    def test_file_like_source(self):
        trees = read_trees(io.StringIO("(A (B x) (C y))"))
        assert len(trees) == 1

    def test_unlabelled_wrapper_unwrapped(self):
        tree = read_tree("( (S (NP x) (VP y)) )")
        assert tree.label == "S"

    def test_whitespace_insensitive(self):
        a = read_tree("(S(NP x)(VP y))")
        b = read_tree("  ( S \n (NP x) \t (VP y) ) ")
        assert a == b

    def test_unbalanced_raises_with_offset(self):
        with pytest.raises(TreeReadError) as info:
            read_trees("(S (NP x)")
        assert info.value.offset >= 0

    def test_stray_close_raises(self):
        with pytest.raises(TreeReadError):
            read_trees(") (S x)")

    def test_empty_label_raises(self):
        with pytest.raises(TreeReadError):
            read_trees("(S ( (NP x) (VP y)))")

    def test_childless_node_raises(self):
        with pytest.raises(TreeReadError):
            read_trees("(S (NP))")

    def test_empty_input(self):
        assert read_trees("") == []


class TestWriting:
    def test_round_trip(self):
        text = "(S (NP (DT the) (NN dog)) (VP (VB ran)))"
        assert write_tree(read_tree(text)) == text

    def test_write_trees_inverse_of_read(self):
        trees = read_trees("(A (B x))\n(A (B x) (C y))\n")
        assert read_trees(write_trees(trees)) == trees

    def test_str_matches_write(self):
        tree = t("(A (B x))")
        assert str(tree) == write_tree(tree)


class TestNodeKinds:
    def test_leaf_and_preterminal(self):
        tree = t("(NP (DT the) (NN dog))")
        assert not tree.is_leaf and not tree.is_preterminal
        assert tree.children[0].is_preterminal
        assert tree.children[0].children[0].is_leaf

    def test_to_pos_tree(self):
        tree = t("(S (NP (DT the) (NN dog)) (VP (VB ran)))")
        assert write_tree(to_pos_tree(tree)) == "(S (NP DT NN) (VP VB))"

    def test_to_pos_tree_rejects_tag_level_trees(self):
        # (NP PRP) would become the leaf NP; VB beside (NP DT NN) shows the
        # tree is already at tag level.
        with pytest.raises(ValueError, match="VP mixes bare leaves"):
            to_pos_tree(t("(S (NP PRP) (VP VB (NP DT NN)))"))


class TestPreprocessing:
    def test_function_tags_stripped(self):
        tree = t("(S (NP-SBJ-1 (NN dog)) (VP=2 (VB ran)))")
        out = preprocess(tree, PreprocessOptions(add_root=False))
        assert out == t("(S (NP (NN dog)) (VP (VB ran)))")

    def test_marker_style_labels_survive_stripping(self):
        tree = t("(S (-LRB- x) (NN dog))")
        out = preprocess(tree, PreprocessOptions(add_root=False, strip_empties=False))
        assert out.children[0].label == "-LRB-"

    def test_empty_nodes_pruned(self):
        tree = t("(S (NP-SBJ (-NONE- *)) (VP (VB run)))")
        out = preprocess(tree, PreprocessOptions(add_root=False))
        assert out == t("(S (VP (VB run)))")

    def test_nonterminal_with_empty_yield_pruned(self):
        tree = t("(S (SBAR (WHNP (-NONE- 0))) (VP (VB go)))")
        out = preprocess(tree, PreprocessOptions(add_root=False))
        assert out == t("(S (VP (VB go)))")

    def test_vacuous_tree_raises(self):
        tree = t("(S (NP (-NONE- *)))")
        with pytest.raises(VacuousTreeError):
            preprocess(tree, PreprocessOptions())

    def test_preprocess_corpus_drops_vacuous(self):
        trees = [t("(S (NP (-NONE- *)))"), t("(S (VB go))")]
        out, dropped = preprocess_corpus(trees, PreprocessOptions())
        assert dropped == 1 and len(out) == 1

    def test_root_added(self):
        out = preprocess(t("(S (VB go))"), PreprocessOptions())
        assert out.label == "ROOT" and out.children[0].label == "S"

    def test_root_addition_idempotent(self):
        once = preprocess(t("(S (VB go))"), PreprocessOptions())
        twice = preprocess(once, PreprocessOptions())
        assert once == twice


class TestUnaryFolding:
    def test_fold_up_hoists_child(self):
        # Unary chains above preterminals fold away too (NP -> NNP).
        folded = fold_unaries(t("(X (S (NP (NNP a)) (VP (VB b))))"), UnaryMode.FOLD_UP)
        assert folded == t("(S (NNP a) (VB b))")

    def test_fold_down_keeps_parent_label(self):
        folded = fold_unaries(t("(X (S (NP (NNP a)) (VP (VB b))))"), UnaryMode.FOLD_DOWN)
        assert folded == t("(X (NP a) (VP b))")

    def test_fold_runs_to_fixpoint(self, rng):
        folded = fold_unaries(t("(A (B (C (D x) (E y))))"), UnaryMode.FOLD_UP)
        assert folded == t("(C (D x) (E y))")
        for _ in range(200):
            tree = random_tree(rng, max_branch=2)
            for mode in (UnaryMode.FOLD_UP, UnaryMode.FOLD_DOWN):
                once = fold_unaries(tree, mode)
                assert fold_unaries(once, mode) == once

    def test_preterminals_never_folded(self):
        tree = t("(NN dog)")
        assert fold_unaries(tree, UnaryMode.FOLD_UP) == tree

    def test_unary_above_preterminal_folds(self):
        assert fold_unaries(t("(NP (NN dog))"), UnaryMode.FOLD_UP) == t("(NN dog)")
        assert fold_unaries(t("(NP (NN dog))"), UnaryMode.FOLD_DOWN) == t("(NP dog)")

    def test_root_unary_branch_exempt(self):
        tree = t("(ROOT (S (NN a) (NN b)))")
        assert fold_unaries(tree, UnaryMode.FOLD_UP) == tree

    def test_keep_mode_is_identity(self):
        tree = t("(A (B (C x) (D y)))")
        assert fold_unaries(tree, UnaryMode.KEEP) == tree

    def test_accepts_mode_string(self):
        assert fold_unaries(t("(A (B (C x) (D y)))"), "fold_up") == t("(B (C x) (D y))")


def test_tree_is_hashable_and_frozen():
    a = t("(A (B x))")
    b = t("(A (B x))")
    assert a == b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        a.label = "C"


@pytest.mark.parametrize("right", [True, False])
def test_deep_trees_compare_and_hash_without_recursing(right):
    a, b = chain(3000, right), chain(3000, right)
    assert a == b and hash(a) == hash(b)
    assert a != chain(3000, right, leaf="b")


def test_pipeline_order_strip_then_fold_then_root():
    tree = t("(S-1 (NP (-NONE- *)) (VP (VB go)))")
    out = preprocess(tree, PreprocessOptions(unary_mode=UnaryMode.FOLD_UP))
    # Empty subject pruned, then S -> VP -> VB folds to the preterminal,
    # then ROOT wraps what is left.
    assert out == Tree("ROOT", (t("(VB go)"),))
