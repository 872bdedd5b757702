import dataclasses
import gc
import io
import itertools
import tracemalloc

import pytest

from conftest import chain, t
from oracles import VacuousTreeError, preprocess, random_tree, read_tree
from plcg.corpus import generate_corpus
from plcg.transforms import ReservedSymbolError, binarize_corpus
from plcg.treebank import (
    SEPARATOR,
    PreprocessOptions,
    Tree,
    TreeReadError,
    UnaryMode,
    _CHUNK,
    iter_local_trees,
    leaves,
    post_order,
    preprocess_corpus,
    read_trees,
    to_pos_tree,
    write_tree,
    write_trees,
)


# Reference oracles: the recursive reader and pipeline that read_trees,
# preprocess and to_pos_tree replaced.  They recurse once per level, so they
# serve only on shallow trees.

def _reference_tokens(text):
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            yield c, i
            i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "()":
                j += 1
            yield text[i:j], i
            i = j


def reference_read_trees(text):
    tokens = list(_reference_tokens(text))
    trees = []
    pos = 0

    def parse_node(at_top):
        nonlocal pos
        tok, off = tokens[pos]
        if tok == ")":
            raise TreeReadError("unexpected ')'", off)
        if tok != "(":
            pos += 1
            return Tree(tok)
        open_off = off
        pos += 1
        if pos >= len(tokens):
            raise TreeReadError("unbalanced brackets", len(text))
        label = None
        if tokens[pos][0] not in "()":
            label = tokens[pos][0]
            pos += 1
        children = []
        while True:
            if pos >= len(tokens):
                raise TreeReadError("unbalanced brackets", len(text))
            if tokens[pos][0] == ")":
                pos += 1
                break
            children.append(parse_node(False))
        if label is None:
            if at_top and len(children) == 1:
                return children[0]
            raise TreeReadError("empty label", open_off)
        if not children:
            raise TreeReadError("node %r has no children" % label, open_off)
        return Tree(label, tuple(children))

    while pos < len(tokens):
        trees.append(parse_node(True))
    return trees


def _reference_strip_function_tags(t):
    if t.is_leaf:
        return t
    label = t.label
    if label[0] not in "-=":
        for d in "-=":
            label = label.partition(d)[0]
    return Tree(label, tuple(_reference_strip_function_tags(c) for c in t.children))


def _reference_strip_empties(t):
    if t.is_leaf:
        return t
    if t.is_preterminal:
        return None if t.label == "-NONE-" else t
    kept = [c for c in map(_reference_strip_empties, t.children) if c is not None]
    return Tree(t.label, tuple(kept)) if kept else None


def _reference_fold_up(t):
    if t.is_leaf or t.is_preterminal:
        return t
    children = tuple(_reference_fold_up(c) for c in t.children)
    if len(children) == 1 and not children[0].is_leaf:
        return children[0]
    return Tree(t.label, children)


def reference_preprocess(t, opts):
    if opts.strip_function_tags:
        t = _reference_strip_function_tags(t)
    if opts.strip_empties:
        t = _reference_strip_empties(t)
        if t is None:
            raise VacuousTreeError("tree has no pronounced words after stripping")
    if opts.unary_mode is UnaryMode.FOLD_UP:
        if t.label == "ROOT" and len(t.children) == 1:
            t = Tree(t.label, (_reference_fold_up(t.children[0]),))
        else:
            t = _reference_fold_up(t)
    if opts.add_root and t.label != "ROOT":
        t = Tree("ROOT", (t,))
    return t


def reference_to_pos_tree(t):
    if t.is_leaf:
        return t
    if t.is_preterminal:
        return Tree(t.label)
    n_leaves = sum(c.is_leaf for c in t.children)
    if n_leaves and n_leaves < len(t.children):
        raise ValueError("%s mixes bare leaves with phrases; expected a word-level tree: %s"
                         % (t.label, write_tree(t)))
    return Tree(t.label, tuple(reference_to_pos_tree(c) for c in t.children))


def outcome(fn, *args):
    """A call's result, or its exception's type, message and offset."""
    try:
        return fn(*args)
    except ValueError as exc:  # TreeReadError and VacuousTreeError too
        return type(exc), str(exc), getattr(exc, "offset", None)


def annotate(rng, tree):
    """``tree`` with treebank noise added: function tags on phrase labels,
    ``-NONE-`` empties beside and under phrases, and a ``ROOT`` top now
    and then."""
    def walk(node, depth):
        if node.is_leaf or node.is_preterminal:
            return node
        kids = [walk(c, depth + 1) for c in node.children]
        for _ in range(rng.choice([0, 0, 1, 2])):
            empty = Tree("-NONE-", (Tree(rng.choice(["*", "0", "*T*-1"])),))
            if rng.random() < 0.5:
                empty = Tree(rng.choice(["NP-SBJ", "WHNP-1", "SBAR"]), (empty,))
            kids.insert(rng.randint(0, len(kids)), empty)
        label = node.label
        if rng.random() < 0.4:
            label += rng.choice(["-SBJ", "-TMP", "=2", "-LOC-1", "-PRD=3"])
        return Tree(label, tuple(kids))

    out = walk(tree, 0)
    if rng.random() < 0.15:
        out = Tree(rng.choice(["ROOT", "ROOT-1"]), (out,))
    return out


def oracle_trees(rng):
    trees = list(generate_corpus(40, seed=rng.randint(0, 99), raw=True))
    trees += [random_tree(rng, max_depth=5) for _ in range(40)]
    trees += [Tree("S", (Tree("-NONE-", (Tree("*"),)),)), t("(-NONE- *)"), Tree("w"),
              t("(ROOT (S (NP (-NONE- *)) (VP (VB go))))"), t("(S (-LRB- -LRB-) (NN x))")]
    return trees + [annotate(rng, tree) for tree in trees]


ALL_OPTIONS = [PreprocessOptions(add_root=r, strip_empties=e, strip_function_tags=f, unary_mode=m)
               for r, e, f, m in itertools.product((True, False), (True, False), (True, False),
                                                   UnaryMode)]

# Shapes the one-pass load must build as the separate passes do.
LOAD_SHAPES = [
    "(S (NP (PRP he)) (VP (VB ran)))", "(X (Y (NN a)))", "(X (Y (Z (NN a) (NN b))))",
    "(S (NP (-NONE- *) dog) (VP (VB ran)))", "(NP (-NONE- *) w)", "(-NONE- (-NONE- *) w)",
    "(S (NP a b c) (VP (VB x)))", "(NP a b)", "w", "ROOT", "(S (-NONE- *))", "(-NONE- *)",
    "( (S (NP (PRP he)) (VP (VB ran))) )", "( w )", "( (-NONE- *) )",
    "( (ROOT (S (NP (PRP he)) (VP (VB ran)))) )", "(ROOT (S (NP (PRP he)) (VP (VB ran))))",
    "(ROOT (S (NP (NN x))))", "(ROOT-1 (X (Y (NN a))))", "(ROOT (NN a))", "(ROOT a b)",
    "(X (Y (A a) (B b) (C c)))", "(X (Y (A a) (B b) (C c) (D d)))", "(A (B (C a b c)))",
    "(S (N@P (DT a)) (VP (VB b) (NP (DT c) (NN d) (NN e))))", "(S (NP (D@T a)) (VP (VB b)))",
    "(S (NP (DT a@b)) (VP (VB c)))", "(NP a@b c)", "a@b", "(X@Y (S (NP (NN a)) (VP (VB b))))",
    "(X@Y (Z (NN a)))", "(S (NP (DT a)) b)", "(S (NP PRP) (VP VB (NP DT NN)))",
    "(S (NP-SBJ=2 (-NONE- *T*-1)) (VP-TMP (VB go) (NP (NN x) (-NONE- 0))))",
    "(S " + "(X " * 1500 + "(NN a)" + ")" * 1501, "(S" + " (NN a)" * 1500 + ")",
]


def staged_load(text, opts, binarize):
    """The training load as separate passes over trees."""
    trees, dropped = preprocess_corpus(read_trees(text), opts)
    trees = [to_pos_tree(t) for t in trees]
    return (binarize_corpus(trees) if binarize else trees), dropped


def one_pass_load(text, opts, binarize):
    full = dataclasses.replace(opts, pos_tags=True, binarize=binarize)
    return preprocess_corpus(io.StringIO(text), full)


def load_outcome(load, text, opts, binarize):
    """The load's (trees, dropped), or its error with the dropped count it
    carries."""
    try:
        return load(text, opts, binarize)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "offset", None), getattr(exc, "dropped", None)


class TestOracles:
    """The one-pass reader, preprocessing and tag reduction against the
    recursive code they replaced."""

    def test_preprocess_matches_reference(self, rng):
        for tree in oracle_trees(rng):
            for opts in ALL_OPTIONS:
                assert outcome(preprocess, tree, opts) == outcome(
                    reference_preprocess, tree, opts), (write_tree(tree), opts)

    def test_to_pos_tree_matches_reference(self, rng):
        for tree in oracle_trees(rng):
            for mode in UnaryMode:
                pre = outcome(preprocess, tree, PreprocessOptions(unary_mode=mode))
                if isinstance(pre, Tree):
                    assert outcome(to_pos_tree, pre) == outcome(reference_to_pos_tree, pre)
            assert outcome(to_pos_tree, tree) == outcome(reference_to_pos_tree, tree)

    def test_leaves_and_local_trees_match_a_recursive_walk(self, rng):
        def walk(node):
            if node.is_leaf:
                return [node.label], []
            words, local = [], [(node.label, tuple(c.label for c in node.children))]
            for c in node.children:
                w, lt = walk(c)
                words += w
                local += lt
            return words, local

        for tree in oracle_trees(rng):
            assert (leaves(tree), list(iter_local_trees(tree))) == walk(tree)

    def test_reader_matches_reference(self, rng):
        texts = ["", "w", "(S a)", "( (S a) )", "( a )", "(S\t(NP x)\u00a0(VP y))\n\x1c(A b)",
                 "(S (NP x)\u2003(VP\x85y))",
                 "(S (NP x) ( (VP y)))"]
        for tree in oracle_trees(rng):
            text = write_tree(tree)
            texts += [text, "( %s )" % text, text.replace(" ", "\n  ").replace(")", " ) ")]
        for text in texts:
            assert outcome(read_trees, text) == outcome(reference_read_trees, text), text

    def test_one_pass_load_matches_the_separate_passes(self, rng):
        texts = LOAD_SHAPES + [write_tree(tree) for tree in oracle_trees(rng)]
        texts += [write_trees(generate_corpus(60, seed=seed, raw=True)) for seed in range(3)]
        texts.append("".join(text + "\n" for text in texts[:12]))
        for text, opts, binarize in itertools.product(texts, ALL_OPTIONS, (False, True)):
            want = load_outcome(staged_load, text, opts, binarize)
            if isinstance(want[0], type) and want[0] is not TreeReadError:
                # A tree a later pass refuses: the error carries the drops.
                want = want[:3] + (preprocess_corpus(read_trees(text), opts)[1],)
            got = load_outcome(one_pass_load, text, opts, binarize)
            assert got == want, (text[:200], opts, binarize)
            # The same pipeline over trees, in one walk per tree.
            full = dataclasses.replace(opts, pos_tags=True, binarize=binarize)
            if isinstance(want[0], list):
                assert preprocess_corpus(read_trees(text), full) == want

    @pytest.mark.parametrize("text", [
        # A word, which the reduction to tags drops.
        "(S (NP (DT a@b)) (VP (VB c) (NP (DT d) (NN e) (NN f))))",
        # A function tag, which is stripped.
        "(S (NP-A@B (DT a)) (VP (VB c) (NP (DT d) (NN e) (NN f))))",
        # A node over an empty element only, which is pruned.
        "(S (X@Y (-NONE- *)) (NP (DT a)) (VP (VB c) (NP (DT d) (NN e) (NN f))))",
    ])
    def test_load_of_a_separator_that_preprocessing_removes(self, text):
        for mode in UnaryMode:
            opts = PreprocessOptions(unary_mode=mode)
            want = staged_load(text, opts, True)
            assert one_pass_load(text, opts, True) == want, mode
            # The text without the @ takes the one pass and loads the same.
            assert one_pass_load(text.replace("@", "x"), opts, True) == want, mode

    def test_binarized_load_stays_in_the_one_pass(self, monkeypatch):
        # A fold hoists a binarized kid as it is, so under every unary mode
        # the load never runs the stages.
        texts = ["(X (Y (A a) (B b) (C c)))", "(X (Y (A a) (B b) (C c) (D d)))",
                 "(A (B (C a b c)))", write_trees(generate_corpus(200, seed=7, raw=True))]
        want = {mode: [staged_load(text, PreprocessOptions(unary_mode=mode), True)
                       for text in texts] for mode in UnaryMode}

        def staged(tree):
            raise AssertionError("the load ran the stages")

        monkeypatch.setattr("plcg.treebank.to_pos_tree", staged)
        monkeypatch.setattr("plcg.treebank.binarize_tree", staged)
        for mode in UnaryMode:
            opts = PreprocessOptions(unary_mode=mode)
            assert [one_pass_load(text, opts, True) for text in texts] == want[mode], mode

    def test_one_pass_load_reports_the_first_fault_of_the_first_pass(self):
        cases = [
            # A mixed tree before a read fault: the read error.
            ("(S (NP (DT a)) b)\n(S (-NONE- *))\n(S (X y)\n",
             (TreeReadError, "unbalanced brackets (at offset 42)", 42, None)),
            # An @ tree before a mixed tree: the mixed tree, in its word-level form.
            ("(S (N@P (DT a)) (VP (VB b)))\n(S (NP-SBJ (-NONE- *)))\n(S (NP (DT a)) (X b))\n"
             "(S-1 (NP (DT a)) b (-NONE- *))\n",
             (ValueError, "S mixes bare leaves with phrases; expected a word-level tree: "
              "(S (NP (DT a)) b)", None, 1)),
            # Two @ trees: the first label in pre-order of the first tree.
            ("(S (-NONE- *))\n(S (NP (D@T a)) (V@P (VB b)))\n(S (N@P (NN c)) (VP (VB d)))\n",
             (ReservedSymbolError, "label 'D@T' contains the reserved binarization "
              "separator '@'", None, 1)),
        ]
        for text, want in cases:
            assert load_outcome(one_pass_load, text, PreprocessOptions(), True) == want
            assert load_outcome(staged_load, text, PreprocessOptions(), True)[:3] == want[:3]

    def test_malformed_input_errors_match_reference(self, rng):
        for name, text in MALFORMED.items():
            got = outcome(read_trees, text)
            assert got[0] is TreeReadError, name
            assert got == outcome(reference_read_trees, text), name
        # Every cut, doubled and swapped bracket of a small file.
        text = write_trees(generate_corpus(4, seed=2, raw=True))
        marks = [i for i, c in enumerate(text) if c in "()"]
        variants = [text[:cut] for cut in range(0, len(text), 7)]
        for _ in range(200):
            i, j = rng.sample(marks, 2)
            variants.append(text[:i] + text[i] + text[i:])
            swapped = list(text)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            variants.append("".join(swapped))
        for variant in variants:
            assert outcome(read_trees, variant) == outcome(reference_read_trees, variant), variant


# Read faults, each named by the fault the reader reports.
MALFORMED = {
    "stray close": "(S a)\n) (S b)",
    "empty label": "(S ( (NP x) (VP y)))",
    "no children": "(S (NP x) (VP))",
    "truncated": "(S (NP x) (VP (VB y",
    "unwrapped pair": "( (S a) (S b) )",
}


class TestChunkedRead:
    """The reader splits a chunk of whole lines at a time, and keeps one
    string per symbol."""

    @pytest.fixture
    def texts(self, rng):
        texts = [write_trees(generate_corpus(60, seed=seed, raw=True)) for seed in range(3)]
        for tree in oracle_trees(rng)[::4]:
            text = write_tree(tree)
            # Trees split over lines, which a chunk may cut between.
            texts += [text + "\n", "(\n%s\n)\n" % text.replace(" ", "\n  "),
                      text.replace(")", "\n)\r\n")]
        return texts + ["", "\n\n", "(S\t(NP x)\u00a0(VP y))\n\x1c(A b)", "w\nv"]

    @staticmethod
    def loads(text):
        """Every read of ``text``: the plain read, and preprocessing of text
        and of a file, as separate stages and as the one-pass tag load."""
        out = [outcome(read_trees, text)]
        for opts in (PreprocessOptions(), PreprocessOptions(unary_mode=UnaryMode.FOLD_UP,
                                                            pos_tags=True, binarize=True)):
            out += [outcome(preprocess_corpus, text, opts),
                    outcome(preprocess_corpus, io.StringIO(text), opts)]
        return out

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_small_chunks_read_the_same(self, texts, chunk, monkeypatch):
        want = [self.loads(text) for text in texts]
        monkeypatch.setattr("plcg.treebank._CHUNK", chunk)
        for text, loads in zip(texts, want):
            assert self.loads(text) == loads, text[:200]
            assert outcome(read_trees, text) == outcome(reference_read_trees, text), text[:200]

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_read_errors_keep_their_offsets(self, chunk, monkeypatch):
        # Each fault alone, and after lines that fill the first chunks.
        lines = write_trees(generate_corpus(6, seed=2, raw=True))
        texts = [text for fault in MALFORMED.values() for text in (fault, lines + fault)]
        want = [outcome(reference_read_trees, text) for text in texts]
        assert all(w[0] is TreeReadError for w in want)
        assert all(outcome(read_trees, text) == w for text, w in zip(texts, want))
        monkeypatch.setattr("plcg.treebank._CHUNK", chunk)
        for text, w in zip(texts, want):
            assert outcome(read_trees, text) == w, text
            got = outcome(preprocess_corpus, io.StringIO(text), PreprocessOptions(pos_tags=True))
            assert got == w, text

    def test_one_string_per_symbol(self):
        text = write_trees(generate_corpus(40, seed=4, raw=True))
        text += "(S-1 (NP-SBJ (NN dog)) (NP (NN dog)) (NP=2 (NNS dogs)))\n(NP NN NN)\n(X (NP NN NN))\n"
        plain = read_trees(text)
        pre, _ = preprocess_corpus(text, PreprocessOptions())
        tags, _ = preprocess_corpus(io.StringIO(text), PreprocessOptions(pos_tags=True))
        binarized, _ = preprocess_corpus(text, PreprocessOptions(pos_tags=True, binarize=True))
        assert leaves(pre[-3]) == ["dog", "dog", "dogs"] and leaves(tags[-1]) == ["NN", "NN"]
        # Equal tail labels of one binarized load are one string too.
        assert any(SEPARATOR in node.label for tree in binarized for node in post_order(tree))
        for trees in (plain, pre, tags, binarized):
            shared = {}
            for tree in trees:
                for node in post_order(tree):
                    assert shared.setdefault(node.label, node.label) is node.label, node.label
        # NP-SBJ and NP=2, stripped, are the string of the plain NP.
        a, b, c = (c.label for c in pre[-3].children[0].children)
        assert a == "NP" and a is b is c
        # Equal words of one plain read are one leaf.
        shared = {}
        for tree in plain:
            for node in post_order(tree):
                if not node.children:
                    assert shared.setdefault(node.label, node) is node, node.label
        dogs = [np.children[0].children[0] for np in plain[-3].children]
        assert dogs[0] is dogs[1] and dogs[0] is not dogs[2]

    @pytest.mark.parametrize("load", [
        read_trees,
        lambda text: preprocess_corpus(text, PreprocessOptions(pos_tags=True, binarize=True)),
    ], ids=["read_trees", "tag-load"])
    def test_transient_memory_does_not_grow_with_the_text(self, load):
        # Memory that a read holds only while it runs: its tokens and tables.
        def transient(text):
            gc.collect()
            tracemalloc.start()
            try:
                out = load(text)
                retained, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert out
            return peak - retained

        text = write_trees(generate_corpus(100, seed=3, raw=True))
        text *= 2 * _CHUNK // len(text) + 1  # more than two chunks
        small, large = transient(text), transient(text * 4)
        assert large < 1.5 * small, (small, large)


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


def fold(tree, mode):
    """``tree`` with only its unary branches folded."""
    return preprocess(tree, PreprocessOptions(add_root=False, strip_empties=False,
                                              strip_function_tags=False, unary_mode=mode))


class TestUnaryFolding:
    def test_fold_up_hoists_child(self):
        # Unary chains above preterminals fold away too (NP -> NNP).
        folded = fold(t("(X (S (NP (NNP a)) (VP (VB b))))"), UnaryMode.FOLD_UP)
        assert folded == t("(S (NNP a) (VB b))")

    def test_fold_runs_to_fixpoint(self, rng):
        folded = fold(t("(A (B (C (D x) (E y))))"), UnaryMode.FOLD_UP)
        assert folded == t("(C (D x) (E y))")
        for _ in range(200):
            once = fold(random_tree(rng, max_branch=2), UnaryMode.FOLD_UP)
            assert fold(once, UnaryMode.FOLD_UP) == once

    def test_preterminals_never_folded(self):
        tree = t("(NN dog)")
        assert fold(tree, UnaryMode.FOLD_UP) == tree

    def test_unary_above_preterminal_folds(self):
        assert fold(t("(NP (NN dog))"), UnaryMode.FOLD_UP) == t("(NN dog)")

    def test_root_unary_branch_exempt(self):
        tree = t("(ROOT (S (NN a) (NN b)))")
        assert fold(tree, UnaryMode.FOLD_UP) == tree

    def test_keep_mode_is_identity(self):
        tree = t("(A (B (C x) (D y)))")
        assert fold(tree, UnaryMode.KEEP) == tree

    def test_accepts_mode_string(self):
        assert fold(t("(A (B (C x) (D y)))"), "fold_up") == t("(B (C x) (D y))")

    def test_folding_keeps_the_tag_yield(self, rng):
        # The model's terminals are the corpus's tags under every mode.
        for tree in oracle_trees(rng):
            outcomes = set()
            for mode in UnaryMode:
                out = outcome(preprocess, tree, PreprocessOptions(unary_mode=mode, pos_tags=True))
                outcomes.add(tuple(leaves(out)) if isinstance(out, Tree) else out[0])
            assert len(outcomes) == 1, write_tree(tree)


def test_tree_is_hashable_and_frozen():
    a = t("(A (B x))")
    b = t("(A (B x))")
    assert a == b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        a.label = "C"


def test_tree_construction_keeps_fields_frozen_eq_and_hash():
    leaf = Tree("x")
    a = Tree("A", (leaf, Tree("y")))
    assert (leaf.label, leaf.children) == ("x", ())
    assert Tree(label="A", children=(leaf, Tree("y"))) == a
    assert dataclasses.replace(a, label="B") == Tree("B", a.children)
    assert repr(leaf) == "Tree(label='x', children=())"
    for field in ("label", "children", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, field, "C")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(a, field)
    assert (a.label, a.children) == ("A", (leaf, Tree("y")))
    # Equality is structural, and hashing reads the pre-order (label, arity)
    # sequence.
    assert a != Tree("A", (leaf,)) and a != Tree("A", (leaf, Tree("z")))
    assert a != ("A", (leaf, Tree("y"))) and a.__eq__("A") is NotImplemented
    assert hash(a) == hash((("A", 2), ("x", 0), ("y", 0)))
    assert len({a, Tree("A", (Tree("x"), Tree("y"))), leaf}) == 2


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
