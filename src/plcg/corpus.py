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
