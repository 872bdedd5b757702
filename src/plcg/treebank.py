"""Bracketed-tree reading, writing, and treebank preprocessing."""

from __future__ import annotations

import io
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence, TextIO

EMPTY_MARKER = "-NONE-"
ROOT_LABEL = "ROOT"
FUNCTION_DELIMITERS = "-="


class TreeReadError(ValueError):
    """Malformed bracketed input; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__("%s (at offset %d)" % (message, offset))
        self.offset = offset


class VacuousTreeError(ValueError):
    """Raised when preprocessing leaves a tree with an empty yield."""


@dataclass(frozen=True, eq=False)
class Tree:
    """Labelled ordered tree.  A node with no children is a terminal leaf;
    a node whose single child is a leaf is a preterminal.  Equality and
    hashing walk the tree from an explicit stack, so depth is not bounded
    by the recursion limit."""

    label: str
    children: tuple["Tree", ...] = ()

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


class UnaryMode(str, Enum):
    KEEP = "keep"
    FOLD_UP = "fold_up"
    FOLD_DOWN = "fold_down"


@dataclass(frozen=True)
class PreprocessOptions:
    add_root: bool = True
    strip_empties: bool = True
    strip_function_tags: bool = True
    unary_mode: UnaryMode = UnaryMode.KEEP


def _tokenize(text: str) -> Iterator[tuple[str, int]]:
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


def read_trees(source: str | TextIO) -> list[Tree]:
    """Parse zero or more bracketed trees.  An outer unlabelled wrapper
    ``( ... )`` around a single tree is unwrapped."""
    text = source if isinstance(source, str) else source.read()
    tokens = list(_tokenize(text))
    trees: list[Tree] = []
    pos = 0

    def parse_node(at_top: bool) -> Tree:
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
        label_tok, label_off = tokens[pos]
        label = None
        if label_tok not in "()":
            label = label_tok
            pos += 1
        children = []
        while True:
            if pos >= len(tokens):
                raise TreeReadError("unbalanced brackets", len(text))
            tok, off = tokens[pos]
            if tok == ")":
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


def _strip_function_tags(t: Tree) -> Tree:
    if t.is_leaf:
        return t
    label = t.label
    # Labels starting with the delimiter (-NONE-, -LRB-, ...) stay intact.
    if label[0] not in FUNCTION_DELIMITERS:
        for d in FUNCTION_DELIMITERS:
            head, _, _ = label.partition(d)
            label = head
    return Tree(label, tuple(_strip_function_tags(c) for c in t.children))


def _strip_empties(t: Tree) -> Tree | None:
    if t.is_leaf:
        return t
    if t.is_preterminal:
        return None if t.label == EMPTY_MARKER else t
    kept = []
    for c in t.children:
        sc = _strip_empties(c)
        if sc is not None:
            kept.append(sc)
    if not kept:
        return None
    return Tree(t.label, tuple(kept))


def _fold_once(t: Tree, mode: UnaryMode) -> Tree:
    if t.is_leaf or t.is_preterminal:
        return t
    children = tuple(_fold_once(c, mode) for c in t.children)
    if len(children) == 1 and not children[0].is_leaf:
        child = children[0]
        if mode is UnaryMode.FOLD_UP:
            return child
        if mode is UnaryMode.FOLD_DOWN:
            return Tree(t.label, child.children)
    return Tree(t.label, children)


def fold_unaries(t: Tree, mode: UnaryMode) -> Tree:
    """Eliminate unary branches by hoisting the child (fold_up) or relabelling
    it with the parent (fold_down).  One pass reaches the fixpoint, because
    it folds the children first.  The unary branch under an existing root
    wrapper is left alone."""
    if isinstance(mode, str):
        mode = UnaryMode(mode)
    if mode is UnaryMode.KEEP:
        return t
    if t.label == ROOT_LABEL and len(t.children) == 1:
        return Tree(t.label, (_fold_once(t.children[0], mode),))
    return _fold_once(t, mode)


def preprocess(t: Tree, opts: PreprocessOptions) -> Tree:
    """Apply the standard pipeline: function-tag stripping, empty-node
    removal, optional unary folding, and root wrapping."""
    if opts.strip_function_tags:
        t = _strip_function_tags(t)
    if opts.strip_empties:
        stripped = _strip_empties(t)
        if stripped is None:
            raise VacuousTreeError("tree has no pronounced words after stripping")
        t = stripped
    t = fold_unaries(t, opts.unary_mode)
    if opts.add_root and t.label != ROOT_LABEL:
        t = Tree(ROOT_LABEL, (t,))
    return t


def preprocess_corpus(
    trees: Iterable[Tree], opts: PreprocessOptions
) -> tuple[list[Tree], int]:
    """Preprocess each tree, dropping vacuous ones; returns (trees, dropped)."""
    out, dropped = [], 0
    for t in trees:
        try:
            out.append(preprocess(t, opts))
        except VacuousTreeError:
            dropped += 1
    return out, dropped


def leaves(t: Tree) -> list[str]:
    if t.is_leaf:
        return [t.label]
    out: list[str] = []
    for c in t.children:
        out.extend(leaves(c))
    return out


def to_pos_tree(t: Tree) -> Tree:
    """Replace every preterminal with a bare leaf carrying the tag, so that
    part-of-speech tags become the terminals.

    Expects word-level trees.  A node that mixes bare leaves with other
    children marks a tree already at tag level, whose unary phrases such as
    ``(NP PRP)`` would read as preterminals; it raises ValueError."""
    if t.is_leaf:
        return t
    if t.is_preterminal:
        return Tree(t.label)
    n_leaves = sum(c.is_leaf for c in t.children)
    if n_leaves and n_leaves < len(t.children):
        raise ValueError("%s mixes bare leaves with phrases; expected a word-level tree: %s"
                         % (t.label, write_tree(t)))
    return Tree(t.label, tuple(to_pos_tree(c) for c in t.children))


def read_tree(text: str) -> Tree:
    """Parse exactly one tree from a string; test/fixture convenience."""
    ts = read_trees(io.StringIO(text))
    if len(ts) != 1:
        raise TreeReadError("expected exactly one tree, found %d" % len(ts), 0)
    return ts[0]


def iter_local_trees(t: Tree) -> Iterator[tuple[str, tuple[str, ...]]]:
    """(mother, child labels) for every non-leaf node, top-down."""
    if t.is_leaf:
        return
    yield t.label, tuple(c.label for c in t.children)
    for c in t.children:
        yield from iter_local_trees(c)


def check_sequence(trees: Sequence[Tree]) -> Sequence[Tree]:
    if not trees:
        raise ValueError("empty corpus")
    return trees
