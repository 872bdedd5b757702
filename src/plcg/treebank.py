"""Bracketed-tree reading, writing, and treebank preprocessing."""

from __future__ import annotations

import io
import itertools
import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence, TextIO

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
    FOLD_DOWN = "fold_down"


@dataclass(frozen=True)
class PreprocessOptions:
    add_root: bool = True
    strip_empties: bool = True
    strip_function_tags: bool = True
    unary_mode: UnaryMode = UnaryMode.KEEP


_TOKEN = re.compile(r"[()]|[^\s()]+")


def _token_offset(text: str, index: int) -> int:
    """Offset of the ``index``-th token.  Only errors need one, so the
    reader's tokens carry none."""
    return next(itertools.islice(_TOKEN.finditer(text), index, None)).start()


def read_trees(source: str | TextIO) -> list[Tree]:
    """Parse zero or more bracketed trees.  An outer unlabelled wrapper
    ``( ... )`` around a single tree is unwrapped.  One pass over the tokens
    builds the nodes on an explicit stack, so depth is not bounded by Python
    recursion."""
    text = source if isinstance(source, str) else source.read()
    # The same tokens as _TOKEN finds: brackets and the runs between them.
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    trees: list[Tree] = []
    # Per open node: its label (None until read), the children list it
    # belongs to, and the token index of its "(".
    labels: list = []
    outer: list[list] = []
    opens: list[int] = []
    children = trees
    at_label = False
    for i, tok in enumerate(tokens):
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
            children.append(Tree(label, tuple(kids)))
        elif at_label:
            labels[-1] = tok
            at_label = False
        else:
            children.append(Tree(tok))
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


def _rebuild(t: Tree, strip_tags: bool, strip_empties: bool, mode: UnaryMode) -> Tree | None:
    """Function-tag stripping, empty-node removal and unary folding in one
    bottom-up pass; None when no pronounced word is left.

    A node folds (hoists its child for fold_up, takes its grandchildren for
    fold_down) when it has one child left and that child is not a leaf, so
    children fold before their parents and one pass reaches the fixpoint.
    A top ``ROOT`` node with one child does not fold."""
    fold = mode is not UnaryMode.KEEP
    up = mode is UnaryMode.FOLD_UP
    done: list = []
    nones = 0  # how many entries of done are None
    for node in post_order(t):
        kids = node.children
        if not kids:
            done.append(node)
            continue
        label = node.label
        # Labels starting with the delimiter (-NONE-, -LRB-, ...) stay intact.
        if strip_tags and label[0] not in FUNCTION_DELIMITERS:
            label = label.partition("-")[0].partition("=")[0]
        n = len(kids)
        if n == 1 and not kids[0].children:  # preterminal; its leaf is done[-1]
            if strip_empties and label == EMPTY_MARKER:
                done[-1] = None
                nones += 1
            elif label != node.label:
                done[-1] = Tree(label, kids)
            else:
                done[-1] = node
            continue
        new = done[-n:]
        del done[-n:]
        if nones:
            kept = [c for c in new if c is not None]
            nones -= n - len(kept)
            if not kept:
                done.append(None)
                nones += 1
                continue
            new = kept
        if (fold and len(new) == 1 and new[0].children
                and not (label == ROOT_LABEL and node is t)):
            done.append(new[0] if up else Tree(label, new[0].children))
        else:
            done.append(Tree(label, tuple(new)))
    return done[0]


def fold_unaries(t: Tree, mode: UnaryMode) -> Tree:
    """Eliminate unary branches by hoisting the child (fold_up) or relabelling
    it with the parent (fold_down).  One pass reaches the fixpoint, because
    it folds the children first.  The unary branch under an existing root
    wrapper is left alone."""
    mode = UnaryMode(mode)
    if mode is UnaryMode.KEEP:
        return t
    return _rebuild(t, False, False, mode)


def preprocess(t: Tree, opts: PreprocessOptions) -> Tree:
    """Apply the standard pipeline: function-tag stripping, empty-node
    removal, optional unary folding, and root wrapping."""
    out = _rebuild(t, opts.strip_function_tags, opts.strip_empties, UnaryMode(opts.unary_mode))
    if out is None:
        raise VacuousTreeError("tree has no pronounced words after stripping")
    if opts.add_root and out.label != ROOT_LABEL:
        out = Tree(ROOT_LABEL, (out,))
    return out


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
    out: list[str] = []
    todo = [t]
    while todo:
        node = todo.pop()
        if node.children:
            todo += node.children[::-1]
        else:
            out.append(node.label)
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
    done: list[Tree] = []
    for node in post_order(t):
        kids = node.children
        if not kids:
            done.append(node)
        elif len(kids) == 1 and not kids[0].children:
            done[-1] = Tree(node.label)
        else:
            n = len(kids)
            if not all(c.children for c in kids) and _mixes_leaves(node):
                bad = first_node(t, _mixes_leaves)
                raise ValueError("%s mixes bare leaves with phrases; expected a word-level "
                                 "tree: %s" % (bad.label, write_tree(bad)))
            new = tuple(done[-n:])
            del done[-n:]
            done.append(Tree(node.label, new))
    return done[0]


def read_tree(text: str) -> Tree:
    """Parse exactly one tree from a string; test/fixture convenience."""
    ts = read_trees(io.StringIO(text))
    if len(ts) != 1:
        raise TreeReadError("expected exactly one tree, found %d" % len(ts), 0)
    return ts[0]


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
