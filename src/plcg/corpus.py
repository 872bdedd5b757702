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


def _pre(rng: random.Random, tag: str) -> Tree:
    return Tree(tag, (Tree(rng.choice(_WORDS[tag])),))


def _weighted(rng: random.Random, options):
    total = sum(w for w, _ in options)
    x = rng.random() * total
    for w, make in options:
        x -= w
        if x <= 0:
            return make()
    return options[-1][1]()


def _np(rng: random.Random, subject: bool) -> Tree:
    def pronoun():
        return Tree("NP", (_pre(rng, "PRP"),))

    def name():
        return Tree("NP", (_pre(rng, "NNP"),))

    def det_noun():
        return Tree("NP", (_pre(rng, "DT"), _pre(rng, "NN")))

    def bare_noun():
        return Tree("NP", (_pre(rng, "NN"),))

    def nested_nouns():  # subject style: [[store] owner]
        return Tree("NP", (Tree("NP", (_pre(rng, "NN"),)), Tree("NP", (_pre(rng, "NN"),))))

    def flat_nouns():  # object style: flat compound
        return Tree("NP", (_pre(rng, "NN"), _pre(rng, "NN")))

    if subject:
        options = [(40, pronoun), (20, name), (15, det_noun), (25, nested_nouns)]
    else:
        options = [(40, det_noun), (20, bare_noun), (10, pronoun), (30, flat_nouns)]
    return _weighted(rng, options)


def _pp(rng: random.Random) -> Tree:
    return Tree("PP", (_pre(rng, "IN"), _np(rng, subject=False)))


def _vp(rng: random.Random) -> Tree:
    def transitive():
        return Tree("VP", (_pre(rng, "VB"), _np(rng, subject=False)))

    def intransitive():
        return Tree("VP", (_pre(rng, "VB"),))

    def with_pp():
        return Tree("VP", (_pre(rng, "VB"), _np(rng, subject=False), _pp(rng)))

    return _weighted(rng, [(55, transitive), (20, intransitive), (25, with_pp)])


def generate_tree(rng: random.Random, raw: bool = False) -> Tree:
    if rng.random() < 0.12:
        tree = Tree("S", (_vp(rng),))  # imperative: unary S -> VP
        if raw:
            tree = Tree("S", (Tree("NP-SBJ", (Tree("-NONE-", (Tree("*"),)),)), tree.children[0]))
    else:
        subj = _np(rng, subject=True)
        if raw:
            subj = Tree(subj.label + "-SBJ", subj.children)
        tree = Tree("S", (subj, _vp(rng)))
    return tree


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
