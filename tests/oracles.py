"""Reference oracles and seeded tree generators that only tests use.

The package holds what the command line and the benchmark run; the
references that tests compare it against live here, beside those tests.
Tests import this module as they import ``conftest``."""

from __future__ import annotations

import io
import math
import random
from collections import Counter
from fractions import Fraction
from typing import Sequence

from plcg.chart import _prologue
from plcg.derivation import derivation_events, stack_delta
from plcg.grammar_types import NEG_INF, DeltaModel, PcfgModel, Rule
from plcg.induction import delta_tree_log_prob, pcfg_tree_log_prob, plcg_tree_log_prob
from plcg.transforms import debinarize_tree
from plcg.treebank import (
    PreprocessOptions,
    Tree,
    TreeReadError,
    iter_local_trees,
    preprocess_corpus,
    read_trees,
    write_tree,
)


def read_tree(text: str) -> Tree:
    """Parse exactly one tree from a string."""
    ts = read_trees(io.StringIO(text))
    if len(ts) != 1:
        raise TreeReadError("expected exactly one tree, found %d" % len(ts), 0)
    return ts[0]


class VacuousTreeError(ValueError):
    """Raised when preprocessing leaves a tree with an empty yield."""


def preprocess(t: Tree, opts: PreprocessOptions) -> Tree:
    """Apply the pipeline ``opts`` to one tree in one bottom-up pass.  Raises
    VacuousTreeError when no pronounced word is left."""
    out, dropped = preprocess_corpus([t], opts)
    if dropped:
        raise VacuousTreeError("tree has no pronounced words after stripping")
    return out[0]


class TooManyParsesError(ValueError):
    pass


class UnaryCycleError(ValueError):
    pass


def enumerate_parses(
    tags: Sequence[str], model: PcfgModel, limit: int = 10000
) -> list[tuple[Tree, float]]:
    """All distinct parses with exact probabilities, for small grammars.
    Raises when the parse count exceeds ``limit`` or the grammar has a unary
    cycle over the input."""
    g, terms = _prologue(tags, model)
    if terms is None:
        return []
    n = len(tags)
    memo: dict[tuple[int, int, str], list[Tree]] = {}
    in_progress: set[tuple[int, int, str]] = set()

    def derive(i: int, j: int, sym: str) -> list[Tree]:
        key = (i, j, sym)
        if key in memo:
            return memo[key]
        if key in in_progress:
            raise UnaryCycleError("unary cycle at %s" % (key,))
        in_progress.add(key)
        out: list[Tree] = []
        if j == i + 1 and tags[i] == sym:
            out.append(Tree(sym))
        for r in g.un_rules:
            if r.lhs == sym:
                for sub in derive(i, j, r.rhs[0]):
                    out.append(Tree(sym, (sub,)))
        for r in g.bin_rules:
            if r.lhs != sym:
                continue
            for m in range(i + 1, j):
                for left in derive(i, m, r.rhs[0]):
                    for right in derive(m, j, r.rhs[1]):
                        out.append(Tree(sym, (left, right)))
        in_progress.discard(key)
        if len(out) > limit:
            raise TooManyParsesError("more than %d parses" % limit)
        memo[key] = out
        return out

    results = []
    for bt in derive(0, n, model.start):
        t = debinarize_tree(bt)
        lp = pcfg_tree_log_prob(t, model)
        results.append((t, math.exp(lp) if lp != NEG_INF else 0.0))
    results.sort(key=lambda pair: (-pair[1], write_tree(pair[0])))
    return results


def pcfg_tree_exact_prob(t: Tree, model: PcfgModel) -> Fraction:
    """The probability of ``t`` as an exact fraction of the model's counts."""
    totals: Counter = Counter()
    for rule, c in model.counts.items():
        totals[rule.lhs] += c
    p = Fraction(1)
    for lhs, rhs in iter_local_trees(t):
        c = model.counts.get(Rule(lhs, rhs), 0)
        p *= Fraction(c, totals[lhs]) if c else Fraction(0)
    return p


def corpus_log_likelihood(trees: Sequence[Tree], model) -> float:
    if isinstance(model, PcfgModel):
        return sum(pcfg_tree_log_prob(t, model) for t in trees)
    if isinstance(model, DeltaModel):
        return sum(delta_tree_log_prob(t, model) for t in trees)
    return sum(plcg_tree_log_prob(t, model) for t in trees)


def max_stack_depth(t: Tree, compose: bool = False) -> int:
    """Peak stack size over the gold derivation of ``t``."""
    depth = peak = 1
    for ev in derivation_events(t, compose=compose):
        depth += stack_delta(ev)
        peak = max(peak, depth)
    return peak


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
