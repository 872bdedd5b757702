"""Exhaustive chart parsing of tag sequences under a PCFG.

The model is binarized internally (probability-preserving tail merging),
parsed with a CKY-style chart, and the Viterbi tree is debinarized before
being returned.  No pruning: this module is the exactness baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .grammar_types import NEG_INF, PcfgModel, Rule
from .transforms import binarize_pcfg, debinarize_tree
from .treebank import Tree


@dataclass
class CompiledPcfg:
    """Binarized, integer-indexed form of a PCFG for the chart kernels.  Each
    fill's grammar-only work is done on first use and kept: the inside
    closure, and the Viterbi plan of each tag's closed cell, the unary
    children that make a span the binary step scores need closing, and the
    unary changes after which a sweep pass repeats."""

    sym_ids: dict[str, int]
    tag_ids: dict[str, int]  # the symbols no rule rewrites, which a tag may name
    syms: list[str]
    bin_rules: list[Rule]
    un_rules: list[Rule]
    bin_lhs: np.ndarray
    bin_r1: np.ndarray
    bin_r2: np.ndarray
    bin_lp: np.ndarray
    un_lhs: np.ndarray
    un_child: np.ndarray
    un_lp: np.ndarray
    start_id: int

    @cached_property
    def viterbi_plan(self) -> _kernels.ViterbiPlan:
        """The Viterbi fill's grammar-only work, built on first use."""
        return _kernels.viterbi_plan(len(self.syms), list(self.tag_ids.values()), self.bin_lhs,
                                     self.un_lhs, self.un_child, self.un_lp)

    @cached_property
    def unary_closure(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The inside fill's unary closure, solved on first use: the symbols
        from which a unary chain reaches one with a binary rule or no unary
        rule, on which I - P_U is invertible, the symbols that one of them
        reaches, and log R_U = log (I - P_U)^-1 from the first to the second."""
        n_syms = len(self.syms)
        step = np.zeros((n_syms, n_syms))
        step[self.un_lhs, self.un_child] = np.exp(self.un_lp)
        has_unary = np.bincount(self.un_lhs, minlength=n_syms) > 0
        unary = np.flatnonzero(has_unary)
        reach = np.eye(n_syms)[unary] + step[unary] > 0
        # After k squarings, reach covers every chain of up to 2^k steps.
        for _ in range(len(unary).bit_length()):
            reach = reach[:, unary].astype(float) @ reach > 0
        leaks = ~has_unary | (np.bincount(self.bin_lhs, minlength=n_syms) > 0)
        keep = reach[:, leaks].any(axis=1)
        syms, reach = unary[keep], reach[keep]
        rhs = step[syms]
        rhs[:, syms] = np.eye(len(syms))
        r_u = np.linalg.solve(np.eye(len(syms)) - step[np.ix_(syms, syms)], rhs)
        log_r_u = np.log(r_u, out=np.full_like(r_u, NEG_INF), where=reach & (r_u > 0))
        cols = np.flatnonzero((log_r_u > NEG_INF).any(axis=0))
        return syms, cols, log_r_u[:, cols]


def compile_pcfg(model: PcfgModel) -> CompiledPcfg:
    binarized = binarize_pcfg(model)
    syms = sorted(binarized.symbols | {binarized.start})
    ids = {s: i for i, s in enumerate(syms)}
    lhs = {r.lhs for r in binarized.rules}
    # Sorted by lhs, as symbol ids are: each lhs owns one run of binary
    # rules, which the kernels reduce over.
    bin_rules = sorted(r for r in binarized.rules if len(r.rhs) == 2)
    un_rules = sorted(r for r in binarized.rules if len(r.rhs) == 1)
    return CompiledPcfg(
        sym_ids=ids,
        tag_ids={s: i for s, i in ids.items() if s not in lhs},
        syms=syms,
        bin_rules=bin_rules,
        un_rules=un_rules,
        bin_lhs=np.array([ids[r.lhs] for r in bin_rules], dtype=np.int64),
        bin_r1=np.array([ids[r.rhs[0]] for r in bin_rules], dtype=np.int64),
        bin_r2=np.array([ids[r.rhs[1]] for r in bin_rules], dtype=np.int64),
        bin_lp=np.array([binarized.log_prob(r) for r in bin_rules]),
        un_lhs=np.array([ids[r.lhs] for r in un_rules], dtype=np.int64),
        un_child=np.array([ids[r.rhs[0]] for r in un_rules], dtype=np.int64),
        un_lp=np.array([binarized.log_prob(r) for r in un_rules]),
        start_id=ids[binarized.start],
    )


def _prologue(tags: Sequence[str], model: PcfgModel) -> tuple[CompiledPcfg, Optional[np.ndarray]]:
    """The compiled model, and the tags' ids in ``tag_ids``, or None if one is missing."""
    if not tags:
        raise ValueError("empty tag sequence")
    if model.compiled is None:
        model.compiled = compile_pcfg(model)
    g = model.compiled
    terms = [g.tag_ids.get(t) for t in tags]
    return g, None if None in terms else np.array(terms, dtype=np.int64)


def _too_long(n: int) -> ValueError:
    return ValueError("the chart of a %d-tag sentence does not fit in memory" % n)


def viterbi_parse(tags: Sequence[str], model: PcfgModel) -> Optional[tuple[Tree, float]]:
    """Highest-probability parse of the tag sequence, or None when the
    grammar does not cover it."""
    g, terms = _prologue(tags, model)
    if terms is None:
        return None
    n = len(tags)
    try:
        best = np.full((n + 1, n + 1, len(g.syms)), NEG_INF)
        back_op = np.full(best.shape, -1, dtype=np.int32)
        _kernels.viterbi_fill(n, terms, g.viterbi_plan, g.bin_r1, g.bin_r2, g.bin_lp, best, back_op)
    except MemoryError:
        raise _too_long(n) from None
    score = best[0, n, g.start_id]
    if score == NEG_INF:
        return None
    tree = _extract(g, tags, back_op, best, 0, n, g.start_id)
    return debinarize_tree(tree), float(score)


def _extract(g: CompiledPcfg, tags, back_op, best, i, j, sym) -> Tree:
    """The Viterbi tree of ``sym`` over ``i..j`` from the back-pointers,
    read from an explicit stack so a long sentence's tree does not meet the
    recursion limit.  A binary cell's split is the first ``m`` whose score,
    added in the fill's order, equals the cell's: the one the fill chose."""
    # Each entry's (op, label), parents before children and right children
    # before left ones; reversed, each node follows its children.
    order = []
    todo = [(i, j, sym)]
    while todo:
        i, j, sym = todo.pop()
        op = back_op[i, j, sym]
        if op == -1:
            order.append((op, tags[i]))
        elif op <= -2:
            rule = g.un_rules[-2 - op]
            order.append((op, rule.lhs))
            todo.append((i, j, g.sym_ids[rule.rhs[0]]))
        else:
            rule, w, score = g.bin_rules[op], g.bin_lp[op], best[i, j, sym]
            b, c = g.sym_ids[rule.rhs[0]], g.sym_ids[rule.rhs[1]]
            m = next(m for m in range(i + 1, j) if w + best[i, m, b] + best[m, j, c] == score)
            order.append((op, rule.lhs))
            todo += (i, m, b), (m, j, c)
    done: list[Tree] = []
    for op, label in reversed(order):
        if op == -1:
            done.append(Tree(label))
        elif op <= -2:
            done[-1] = Tree(label, (done[-1],))
        else:
            right = done.pop()
            done[-1] = Tree(label, (done[-1], right))
    return done[0]


def sentence_probability(tags: Sequence[str], model: PcfgModel) -> float:
    """Inside probability: the summed probability of all parses."""
    g, terms = _prologue(tags, model)
    if terms is None:
        return 0.0
    n = len(tags)
    try:
        inside = np.full((n + 1, n + 1, len(g.syms)), NEG_INF)
        _kernels.inside_fill(n, terms, g.viterbi_plan.runs, g.bin_r1, g.bin_r2, g.bin_lp,
                             *g.unary_closure, inside)
    except MemoryError:
        raise _too_long(n) from None
    lp = inside[0, n, g.start_id]
    return math.exp(lp) if lp != NEG_INF else 0.0
