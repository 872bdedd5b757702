"""Bracketed-tree reading, writing, and treebank preprocessing.

Training input is built in one pass: ``preprocess_corpus`` over text or a
file applies the whole pipeline (function-tag stripping, empty pruning,
unary folding, ROOT wrapping and, if asked, reduction to tags and tail
binarization) to each node as its bracket closes, so raw and word-level
trees are never built.  The same per-node steps serve ``preprocess_corpus``
and ``to_pos_tree`` on trees.  The reader splits its tokens a chunk of whole
lines at a time, and keeps one string per symbol and one leaf per word."""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, replace
from enum import Enum
from operator import is_
from typing import Callable, Iterable, Iterator, Sequence, TextIO

EMPTY_MARKER = "-NONE-"
ROOT_LABEL = "ROOT"
FUNCTION_DELIMITERS = "-="
SEPARATOR = "@"  # reserved: joins a binarized node's tail labels


class TreeReadError(ValueError):
    """Malformed bracketed input; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__("%s (at offset %d)" % (message, offset))
        self.offset = offset


@dataclass(frozen=True, eq=False, init=False)
class Tree:
    """Labelled ordered tree.  A node with no children is a terminal leaf;
    a node whose single child is a leaf is a preterminal.  Equality and
    hashing walk the tree from an explicit stack, so depth is not bounded
    by the recursion limit."""

    __slots__ = ("label", "children")
    label: str
    children: tuple["Tree", ...]

    def __init__(self, label: str, children: tuple["Tree", ...] = ()):
        # Every layer builds trees node by node.  Setting the slots through
        # their descriptors skips the frozen dataclass's generic
        # object.__setattr__, and slots hold no instance dict; assignment
        # still raises FrozenInstanceError.
        _set_label(self, label)
        _set_children(self, children)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.label != b.label or len(a.children) != len(b.children):
                return False
            stack.extend(zip(a.children, b.children))
        return True

    def __hash__(self) -> int:
        # The pre-order (label, arity) sequence determines the tree.
        shape = []
        stack = [self]
        while stack:
            node = stack.pop()
            shape.append((node.label, len(node.children)))
            stack.extend(reversed(node.children))
        return hash(tuple(shape))

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def is_preterminal(self) -> bool:
        return len(self.children) == 1 and self.children[0].is_leaf

    def __str__(self) -> str:
        return write_tree(self)


_set_label = Tree.label.__set__
_set_children = Tree.children.__set__


class UnaryMode(str, Enum):
    KEEP = "keep"
    FOLD_UP = "fold_up"


@dataclass(frozen=True)
class PreprocessOptions:
    """A pipeline that is applied to each node as it is built: function-tag
    stripping, empty-node pruning, unary folding and ROOT wrapping, then,
    if asked, reduction of preterminals to tags and tail binarization."""

    add_root: bool = True
    strip_empties: bool = True
    strip_function_tags: bool = True
    unary_mode: UnaryMode = UnaryMode.KEEP
    pos_tags: bool = False
    binarize: bool = False


_TAGS = PreprocessOptions(add_root=False, strip_empties=False, strip_function_tags=False,
                          pos_tags=True)


_TOKEN = re.compile(r"[()]|[^\s()]+")
_CHUNK = 1 << 16  # characters of whole lines split into tokens at a time


def _token_offset(text: str, index: int) -> int:
    """Offset of the ``index``-th token.  Only errors need one, so the
    reader's tokens carry none."""
    return next(itertools.islice(_TOKEN.finditer(text), index, None)).start()


class _Symbols(dict):
    """One read's strings: ``symbols[s]`` is the first string seen equal to
    ``s``, so every occurrence of a symbol shares one string."""

    __slots__ = ()

    def __missing__(self, s: str) -> str:
        self[s] = s
        return s


class _Labels(dict):
    """One read's labels: ``labels[raw]`` is the final form of a raw label,
    stripped of function tags (when ``strip``) once per distinct raw label,
    and shared through ``symbols``, the read's strings."""

    __slots__ = ("strip", "symbols")

    def __init__(self, strip: bool):
        super().__init__()
        self.strip, self.symbols = strip, _Symbols()

    def __missing__(self, raw: str) -> str:
        label = raw
        # Labels starting with the delimiter (-NONE-, -LRB-, ...) stay intact.
        if self.strip and raw[0] not in FUNCTION_DELIMITERS:
            label = raw.partition("-")[0].partition("=")[0]
        label = self[raw] = self.symbols[label]
        return label


def read_trees(source: str | TextIO) -> list[Tree]:
    """Parse zero or more bracketed trees.  An outer unlabelled wrapper
    ``( ... )`` around a single tree is unwrapped.  One pass over the tokens
    builds the nodes on an explicit stack, so depth is not bounded by Python
    recursion."""
    return _read(source if isinstance(source, str) else source.read(), None)


def _read(text: str, opts: PreprocessOptions | None) -> list:
    """The top-level nodes of ``text``, each built as its bracket closes: as
    a plain Tree when ``opts`` is None, and else by ``_builder(opts)``'s
    steps, with words given as str.

    Tokens are split a chunk of whole lines at a time (no token spans a
    line), so the read holds the tokens of one chunk, not of the file.
    Every label, and every word the read keeps, is one string per symbol,
    and a plain read builds one leaf per distinct word: leaves are immutable.
    A tag load drops the word under each preterminal, so it interns words
    only where it keeps them, in a node over words alone."""
    plain = opts is None
    preterminal, close, _ = (None, None, None) if plain else _builder(opts)
    names = _Labels(not plain and opts.strip_function_tags)
    symbols = names.symbols
    keep_words = plain or not opts.pos_tags
    leaf_of: dict[str, Tree] = {}
    trees: list = []
    # Per open node: its label (None until read), the children list it
    # belongs to, and the token index of its "(".
    labels: list = []
    outer: list[list] = []
    opens: list[int] = []
    children = trees
    words = 0  # words among the children of open nodes
    at_label = False
    start = base = 0  # the chunk's first character and the index of its first token
    while start < len(text):
        end = text.find("\n", start + _CHUNK) + 1 or len(text)
        # The same tokens as _TOKEN finds: brackets and the runs between them.
        tokens = text[start:end].replace("(", " ( ").replace(")", " ) ").split()
        for i, tok in enumerate(tokens, base):
            if tok == "(":
                outer.append(children)
                children = []
                labels.append(None)
                opens.append(i)
                at_label = True
            elif tok == ")":
                at_label = False
                if not labels:
                    raise TreeReadError("unexpected ')'", _token_offset(text, i))
                label = labels.pop()
                opened = opens.pop()
                kids = children
                children = outer.pop()
                if label is None:
                    if not labels and len(kids) == 1:
                        children.append(kids[0])
                        continue
                    raise TreeReadError("empty label", _token_offset(text, opened))
                if not kids:
                    raise TreeReadError("node %r has no children" % label,
                                        _token_offset(text, opened))
                if plain:
                    children.append(Tree(label, tuple(kids)))
                elif len(kids) == 1 and kids[0].__class__ is str:
                    children.append(preterminal(label, kids[0], None))
                    words -= 1
                else:
                    n_words = sum(k.__class__ is str for k in kids) if words else 0
                    words -= n_words
                    if n_words and not keep_words:  # tag-level words, which a tag load keeps
                        kids = [symbols[k] if k.__class__ is str else k for k in kids]
                    # A tree's top node, possibly inside an unlabelled wrapper.
                    top = not labels or (len(labels) == 1 and labels[0] is None)
                    children.append(close(label, kids, n_words, None, top, symbols))
            elif at_label:
                labels[-1] = names[tok]
                at_label = False
            elif plain:
                leaf = leaf_of.get(tok)
                if leaf is None:
                    leaf = leaf_of[tok] = Tree(symbols[tok])
                children.append(leaf)
            else:
                children.append(symbols[tok] if keep_words else tok)
                words += 1
        start, base = end, base + len(tokens)
    if labels:
        raise TreeReadError("unbalanced brackets", len(text))
    return trees


def write_tree(t: Tree) -> str:
    """One-line bracketed form, written from an explicit stack so depth is
    not bounded by Python recursion."""
    parts: list[str] = []
    todo: list = [t]
    while todo:
        node = todo.pop()
        if isinstance(node, str):
            parts.append(node)
        elif not node.children:
            parts.append(node.label)
        else:
            parts.append("(" + node.label)
            todo.append(")")
            for c in reversed(node.children):
                todo.append(c)
                todo.append(" ")
    return "".join(parts)


def write_trees(trees: Iterable[Tree]) -> str:
    """Canonical one-line-per-tree form; inverse of read_trees."""
    return "".join(write_tree(t) + "\n" for t in trees)


def post_order(t: Tree) -> list[Tree]:
    """Every node of ``t``, each after the whole subtree of its left
    sibling and after its own children.  A bottom-up rebuild that pushes one
    result per node finds a node's child results as the last
    ``len(children)`` entries, left to right."""
    order = []
    todo = [t]
    while todo:
        node = todo.pop()
        order.append(node)
        todo += node.children
    order.reverse()
    return order


def first_node(t: Tree, test: Callable[[Tree], bool]) -> Tree | None:
    """The first node of ``t`` in pre-order for which ``test`` holds: the
    one a top-down recursive walk would meet first."""
    todo = [t]
    while todo:
        node = todo.pop()
        if test(node):
            return node
        todo += node.children[::-1]
    return None


class ReservedSymbolError(ValueError):
    pass


class _Rejected(Exception):
    """Words beside phrases under tag reduction: the stages, run one at a
    time, give the error."""


@functools.lru_cache(maxsize=None)
def _builder(opts: PreprocessOptions):
    """``(preterminal, close, finish)``: the steps that build each node in
    its final form, for the reader and ``_rebuild`` alike.  A node over one
    word is ``preterminal(label, word, node)``; any other is ``close(label,
    kids, words, node, top, symbols)``, where ``words`` of the kids are words
    (a str when read) and a pruned kid is None.  ``label`` is final: the
    caller strips function tags through a ``_Labels`` table.  ``node`` is the
    input Tree, whose unchanged preterminal is reused, or None; ``top`` marks
    a top node; the reader's ``symbols`` hold the tail labels it binarizes
    to.  ``finish(result)`` wraps a tree's top result in ROOT.

    Under fold_up a node with one child left that is not a word is
    replaced by that child, so one bottom-up pass reaches the fixpoint and
    no tag is relabelled; a top ``ROOT`` node does not fold.  Words beside
    phrases under tag reduction raise _Rejected, for the stages to report;
    ``preprocess_corpus`` leaves the separator to the stages."""
    strip_empties = opts.strip_empties
    fold = UnaryMode(opts.unary_mode) is UnaryMode.FOLD_UP
    tags, binarize = opts.pos_tags, opts.binarize

    def preterminal(label, word, node):
        if strip_empties and label == EMPTY_MARKER:
            return None
        if tags:
            return Tree(label)
        if node is None:
            return Tree(label, (Tree(word),))
        return node if label == node.label else Tree(label, node.children)

    def close(label, kids, words, node, top, symbols=None):
        if not all(kids):  # a kid was pruned
            kids = [k for k in kids if k is not None]
            if not kids:
                return None
            node = None
        if fold and not words and len(kids) == 1 and not (top and label == ROOT_LABEL):
            return kids[0]
        if words:
            if tags and words < len(kids):
                raise _Rejected
            if tags and len(kids) == 1:  # a preterminal once its empties are pruned
                return Tree(label)
            kids = [Tree(k) if k.__class__ is str else k for k in kids]
        if binarize and len(kids) > 2:
            return _tail_chain(label, kids, symbols)
        if (not tags and node is not None and label == node.label
                and all(map(is_, kids, node.children))):
            return node  # nothing below it changed
        return Tree(label, tuple(kids))

    def finish(v):
        if v.__class__ is str:  # a tree that is one word
            if opts.add_root and v != ROOT_LABEL:
                return preterminal(ROOT_LABEL, v, None)
            return Tree(v)
        return Tree(ROOT_LABEL, (v,)) if opts.add_root and v.label != ROOT_LABEL else v

    return preterminal, close, finish


_TAG_STEPS = _builder(_TAGS)


def _rebuild(t: Tree, steps, names: _Labels | None):
    """``_builder``'s steps over every node of ``t``, children first: the
    top node's result, or None when no pronounced word is left.  Each label
    is looked up in ``names``, or kept as it is when ``names`` is None."""
    preterminal, close, _ = steps
    if not t.children:
        return t.label
    # post_order(t) without the word under each preterminal, which the
    # preterminal step reads from its node.
    order = []
    todo = [t]
    while todo:
        node = todo.pop()
        order.append(node)
        kids = node.children
        if len(kids) != 1 or kids[0].children:
            todo += kids
    done: list = []
    words = 0  # words in done
    for node in reversed(order):
        kids = node.children
        if not kids:
            done.append(node)
            words += 1
            continue
        label = node.label if names is None else names[node.label]
        if len(kids) == 1 and not kids[0].children:
            done.append(preterminal(label, kids[0].label, node))
        else:
            n = len(kids)
            n_words = sum(not c.children for c in kids) if words else 0
            words -= n_words
            value = close(label, done[-n:], n_words, node, node is t)
            del done[-n:]
            done.append(value)
    return done[0]


def preprocess_corpus(
    source: Iterable[Tree] | str | TextIO, opts: PreprocessOptions
) -> tuple[list[Tree], int]:
    """Preprocess each tree, dropping vacuous ones; returns (trees, dropped).

    ``source`` is trees, or bracketed text or a file, which is then read and
    put through ``opts`` in one pass: each node is built once, as its
    bracket closes, and with ``opts.pos_tags`` a word under a preterminal is
    never built.  Binarizing trees, or text that holds the reserved
    separator, runs the stages one at a time instead, so that
    ``binarize_tree`` alone judges the separator.  A read error comes first;
    then a tree that ``to_pos_tree`` or ``binarize_tree`` refuses raises its
    error, which carries ``dropped``."""
    text = source if isinstance(source, str) else source.read() if hasattr(source, "read") else None
    trees = list(source) if text is None else None
    if not opts.binarize or (text is not None and SEPARATOR not in text):
        steps = _builder(opts)
        try:
            if text is None:
                names = _Labels(opts.strip_function_tags)
                out = [_rebuild(t, steps, names) for t in trees]
            else:
                out = _read(text, opts)
            kept = [steps[2](r) for r in out if r is not None]
            return kept, len(out) - len(kept)
        except _Rejected:
            pass
    # Run the stages one at a time over all the trees, so that the error is
    # the first stage's own, for the first tree it refuses.
    trees = trees if text is None else read_trees(text)
    out, dropped = preprocess_corpus(trees, replace(opts, pos_tags=False, binarize=False))
    try:
        out = [to_pos_tree(t) for t in out] if opts.pos_tags else out
        return [binarize_tree(t) for t in out] if opts.binarize else out, dropped
    except ValueError as exc:
        exc.dropped = dropped
        raise


def _tail_chain(label: str, kids: list[Tree], symbols: _Symbols | None = None) -> Tree:
    """``label`` over ``kids`` (n >= 3) as a right chain of n - 2 tail nodes
    ``label@k1``, ``label@k1@k2``, ..., built from the right.  With a read's
    ``symbols``, each tail label is the read's one string for it."""
    labels = [label]
    for c in kids[:-2]:
        tail = labels[-1] + SEPARATOR + c.label
        labels.append(tail if symbols is None else symbols[tail])
    tail = Tree(labels[-1], (kids[-2], kids[-1]))
    for i in range(len(kids) - 3, -1, -1):
        tail = Tree(labels[i], (kids[i], tail))
    return tail


def binarize_tree(t: Tree) -> Tree:
    """Tail-binarize every node of ``t`` in one bottom-up pass.  Each node
    with n >= 3 children becomes a right chain of n - 2 tail nodes, built
    from the right.  A label holding the separator raises
    ReservedSymbolError, for the first such node in pre-order."""
    done: list[Tree] = []
    for node in post_order(t):
        if SEPARATOR in node.label:
            bad = first_node(t, lambda nd: SEPARATOR in nd.label).label
            raise ReservedSymbolError("label %r contains the reserved binarization separator %r"
                                      % (bad, SEPARATOR))
        n = len(node.children)
        if not n:
            done.append(node)
            continue
        kids = done[-n:]
        del done[-n:]
        done.append(Tree(node.label, tuple(kids)) if n <= 2 else _tail_chain(node.label, kids))
    return done[0]


def binarize_corpus(trees: Sequence[Tree]) -> list[Tree]:
    return [binarize_tree(t) for t in trees]


def leaves(t: Tree) -> list[str]:
    out: list[str] = []
    todo = [t]
    while todo:
        node = todo.pop()
        kids = node.children
        if not kids:
            out.append(node.label)
        elif len(kids) == 1 and not kids[0].children:  # a preterminal: read its word
            out.append(kids[0].label)
        else:
            todo += kids[::-1]
    return out


def _mixes_leaves(node: Tree) -> bool:
    n_leaves = sum(not c.children for c in node.children)
    return 0 < n_leaves < len(node.children)


def to_pos_tree(t: Tree) -> Tree:
    """Replace every preterminal with a bare leaf carrying the tag, so that
    part-of-speech tags become the terminals.

    Expects word-level trees.  A node that mixes bare leaves with other
    children marks a tree already at tag level, whose unary phrases such as
    ``(NP PRP)`` would read as preterminals; it raises ValueError."""
    try:
        return _TAG_STEPS[2](_rebuild(t, _TAG_STEPS, None))
    except _Rejected:
        bad = first_node(t, _mixes_leaves)
        raise ValueError("%s mixes bare leaves with phrases; expected a word-level "
                         "tree: %s" % (bad.label, write_tree(bad))) from None


def iter_local_trees(t: Tree) -> Iterator[tuple[str, tuple[str, ...]]]:
    """(mother, child labels) for every non-leaf node, top-down."""
    todo = [t]
    while todo:
        node = todo.pop()
        if node.children:
            yield node.label, tuple(c.label for c in node.children)
            todo += node.children[::-1]


def check_sequence(trees: Sequence[Tree]) -> Sequence[Tree]:
    if not trees:
        raise ValueError("empty corpus")
    return trees
