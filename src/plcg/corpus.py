"""Seeded synthetic corpora standing in for a licensed treebank.

The generator builds English-ish bracketed trees whose NP expansions differ
between subject and object position (goal-category conditioning has signal)
and whose two-noun strings are structurally ambiguous (nested in subject
position, flat in object position), so parsers can actually disagree.
"""

from __future__ import annotations

import random

from .treebank import Tree

_WORDS = {
    "PRP": ["he", "she", "it", "they"],
    "NNP": ["jones", "smith", "acme", "paris"],
    "DT": ["the", "a", "this"],
    "NN": ["man", "dog", "store", "owner", "deal"],
    "VB": ["saw", "made", "ran", "closed"],
    "IN": ["with", "in", "near"],
}


# Each row names a phrase label and its weighted child lists.  A child is a
# tag (drawing its word from _WORDS), a fixed (label, children) node, or the
# name of another row.  Subject and object NPs are separate rows: two nouns
# nest in subject position ([[store] owner]) and stay flat in object position.
_GRAMMAR = {
    "SUBJ": ("NP", [(40, ["PRP"]), (20, ["NNP"]), (15, ["DT", "NN"]),
                    (25, [("NP", ["NN"]), ("NP", ["NN"])])]),
    "OBJ": ("NP", [(40, ["DT", "NN"]), (20, ["NN"]), (10, ["PRP"]), (30, ["NN", "NN"])]),
    "VP": ("VP", [(55, ["VB", "OBJ"]), (20, ["VB"]), (25, ["VB", "OBJ", ("PP", ["IN", "OBJ"])])]),
}


def _weighted(rng: random.Random, options):
    x = rng.random() * sum(w for w, _ in options)
    for w, children in options:
        x -= w
        if x <= 0:
            return children
    return options[-1][1]


def _expand(rng: random.Random, symbol) -> Tree:
    """Draw one tree for ``symbol``: one weighted choice for a row, then its
    children left to right."""
    if isinstance(symbol, tuple):
        label, children = symbol
    elif symbol in _GRAMMAR:
        label, options = _GRAMMAR[symbol]
        children = _weighted(rng, options)
    else:
        return Tree(symbol, (Tree(rng.choice(_WORDS[symbol])),))
    return Tree(label, tuple(_expand(rng, child) for child in children))


def generate_tree(rng: random.Random, raw: bool = False) -> Tree:
    if rng.random() < 0.12:  # imperative: unary S -> VP
        vp = _expand(rng, "VP")
        return Tree("S", (Tree("NP-SBJ", (Tree("-NONE-", (Tree("*"),)),)), vp) if raw else (vp,))
    subj = _expand(rng, "SUBJ")
    if raw:
        subj = Tree("NP-SBJ", subj.children)
    return Tree("S", (subj, _expand(rng, "VP")))


def generate_corpus(size: int, seed: int, raw: bool = False) -> list[Tree]:
    rng = random.Random(seed)
    return [generate_tree(rng, raw=raw) for _ in range(size)]


_LABELS = ["S", "NP", "VP", "PP", "X", "Y"]
_TAGS = ["DT", "NN", "VB", "IN", "JJ"]
_TERMS = ["the", "cat", "sat", "on", "mat", "big"]


def random_tree(rng: random.Random, max_depth: int = 8, max_branch: int = 4) -> Tree:
    """Arbitrary well-formed tree for round-trip property tests; internal
    nodes may mix subtree and bare-terminal children."""

    def node(depth: int) -> Tree:
        if depth >= max_depth or rng.random() < 0.25:
            if rng.random() < 0.5:
                return Tree(rng.choice(_TAGS), (Tree(rng.choice(_TERMS)),))
            return Tree(rng.choice(_TERMS))
        n = rng.randint(1, max_branch)
        return Tree(rng.choice(_LABELS), tuple(node(depth + 1) for _ in range(n)))

    t = node(0)
    while t.is_leaf:  # roots must be non-leaves for derivations
        t = node(0)
    return t


def random_tree_over_yield(rng: random.Random, words: list[str]) -> Tree:
    """Random bracketing with random labels over a fixed terminal yield."""

    def build(lo: int, hi: int, depth: int) -> Tree:
        if hi - lo == 1:
            return Tree(words[lo])
        if depth > 6:
            return Tree(rng.choice(_LABELS), tuple(Tree(w) for w in words[lo:hi]))
        n_parts = rng.randint(1, min(3, hi - lo))
        cuts = sorted(rng.sample(range(lo + 1, hi), n_parts - 1)) if n_parts > 1 else []
        bounds = [lo, *cuts, hi]
        kids = tuple(build(bounds[i], bounds[i + 1], depth + 1) for i in range(len(bounds) - 1))
        if len(kids) == 1 and kids[0].is_leaf:
            return kids[0] if depth > 0 else Tree(rng.choice(_LABELS), kids)
        return Tree(rng.choice(_LABELS), kids)

    return Tree(rng.choice(_LABELS), (build(0, len(words), 0),)) if len(words) == 1 else build(0, len(words), 0)
