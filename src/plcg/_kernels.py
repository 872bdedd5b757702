"""Chart-filling inner loops of ``plcg.chart`` over the integer-indexed
numpy arrays of a compiled PCFG.

Both fills work one span length at a time, and one gather scores every
binary rule at every split of every span of that length.  In the Viterbi
fill a tie goes to the first rule, then the first split, that reaches the
best score, and only the rule is kept: ``chart._extract`` finds the split
again from the scores.  Each tag's length-1 cell is closed under the unary
rules once per grammar, by ``viterbi_plan``; a longer span is closed only
where the binary step scored some unary rule's child, and another sweep
pass runs only after a change that a rule at or before the changing one
reads, since a pass after that would change nothing.  The inside fill
applies the unary closure R_U = (I - P_U)^-1, solved once per grammar, to
all spans of a length at once over the symbols R_U reaches from, so it is
exact on unary cycles.  The binary rules must be sorted by
lhs, so each lhs owns one run of rule indices.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

NEG_INF = float("-inf")


class ViterbiPlan(NamedTuple):
    """The Viterbi fill's grammar-only work, built by ``viterbi_plan``."""

    runs: tuple  # each binary lhs's run: its start index, lhs and length
    rule_ids: np.ndarray
    unary: list  # (lhs, child, log prob) of each unary rule
    repeat: list  # whether a change by each unary rule is read by it or an earlier one
    is_child: np.ndarray  # whether each symbol is some unary rule's child
    tag_row: np.ndarray  # each tag symbol's row of tag_best and tag_op
    tag_best: np.ndarray  # each tag's length-1 cell, closed under the unary rules
    tag_op: np.ndarray


def viterbi_plan(n_syms, tags, bin_lhs, un_lhs, un_child, un_lp):
    """The ``ViterbiPlan`` of a grammar over ``n_syms`` symbols, of which
    ``tags`` are the tags; ``repeat`` compares each rule with the first
    rule that reads its lhs as a child."""
    starts = np.flatnonzero(np.diff(bin_lhs, prepend=-1))
    runs = starts, bin_lhs[starts], np.diff(starts, append=bin_lhs.shape[0])
    unary = list(zip(un_lhs.tolist(), un_child.tolist(), un_lp.tolist()))
    first_reader = {b: u for u, (_, b, _) in reversed(list(enumerate(unary)))}
    repeat = [first_reader.get(a, u + 1) <= u for u, (a, _, _) in enumerate(unary)]
    tag_row, k = np.zeros(n_syms, dtype=np.int64), np.arange(len(tags))
    tag_row[tags] = k
    tag_best = np.full((len(tags), n_syms), NEG_INF)
    tag_best[k, tags] = 0.0
    tag_op = np.full(tag_best.shape, -1, dtype=np.int32)
    _close(tag_best, tag_op, (k,), unary, repeat)
    is_child = np.isin(np.arange(n_syms), un_child)
    return ViterbiPlan(runs, np.arange(bin_lhs.shape[0]), unary, repeat, is_child,
                       tag_row, tag_best, tag_op)


def _gather(chart, spans, length, bin_r1, bin_r2, bin_lp):
    """The (span, split, rule) scores of each span (i, i + length), i in
    ``spans``, added as ``(w + left) + right``.  ``take`` keeps the rule axis
    innermost in memory, so a reduction over the splits runs on whole rows."""
    mids = spans[:, None] + np.arange(1, length)
    left = chart[spans[:, None], mids].take(bin_r1, axis=2)
    return bin_lp + left + chart[mids, (spans + length)[:, None]].take(bin_r2, axis=2)


def viterbi_fill(n, term_ids, plan, bin_r1, bin_r2, bin_lp, best, back_op):
    """Fill the Viterbi chart in place, one span length at a time.

    back_op: >=0 binary rule index; -2-u for unary rule u; -1 terminal/none.
    Ties go to the first rule, then the first split, that reaches the best
    score, and a unary candidate ``w + child`` changes a cell only on a
    strict improvement.  The diagonal is copied from the plan's tag cells,
    closed once per grammar.  A longer span is closed only if the binary
    step scored a unary rule's child there, and ``_close`` repeats a pass
    only after a change that a rule at or before the changing one reads.
    """
    starts, run_lhs, run_sizes = plan.runs
    n_bin = plan.rule_ids.shape[0]
    rows = plan.tag_row[term_ids]
    best[np.arange(n), np.arange(1, n + 1)] = plan.tag_best[rows]
    back_op[np.arange(n), np.arange(1, n + 1)] = plan.tag_op[rows]
    if not n_bin:
        return
    for length in range(2, n + 1):
        spans = np.arange(n - length + 1)
        rule_best = _gather(best, spans, length, bin_r1, bin_r2, bin_lp).max(axis=1)
        lhs_best = np.maximum.reduceat(rule_best, starts, axis=1)
        hit = rule_best == np.repeat(lhs_best, run_sizes, axis=1)
        first = np.minimum.reduceat(np.where(hit, plan.rule_ids, n_bin), starts, axis=1)
        at, run = np.nonzero(lhs_best > NEG_INF)
        lhs = run_lhs[run]
        best[at, at + length, lhs] = lhs_best[at, run]
        back_op[at, at + length, lhs] = first[at, run]
        # A sweep over a span with no finite unary child changes nothing.
        fires = np.flatnonzero(np.bincount(at[plan.is_child[lhs]]))
        _close(best, back_op, (fires, fires + length), plan.unary, plan.repeat)


def _close(best, back_op, rows, unary, repeat):
    """Close each row of ``best[rows]`` under the unary rules, read and
    written at once, pass after pass in rule order on strict improvement
    only.  A change read only by later rules is seen in the same pass, so
    another pass runs only after one that ``repeat`` marks."""
    cells = []
    for k, row in enumerate(best[rows].tolist()):
        unary_op: dict[int, int] = {}
        again = True
        while again:
            again = False
            for u, (a, b, w) in enumerate(unary):
                cand = w + row[b]
                if cand > row[a]:
                    row[a] = cand
                    unary_op[a] = -2 - u
                    again = again or repeat[u]
        cells += [(k, a, row[a], op) for a, op in unary_op.items()]
    if cells:
        k, a, score, op = (np.array(x) for x in zip(*cells))
        at = tuple(index[k] for index in rows) + (a,)
        best[at] = score
        back_op[at] = op


def inside_fill(n, term_ids, runs, bin_r1, bin_r2, bin_lp, un_syms, un_cols, un_closure, inside):
    """Fill the inside chart (log probabilities) in place, one span length
    at a time; ``runs`` are the binary lhs runs of ``ViterbiPlan``, and row k
    of ``un_closure`` is log R_U from ``un_syms[k]`` to the symbols
    ``un_cols``, the only ones with a finite entry."""
    starts, run_lhs, _ = runs
    inside[np.arange(n), np.arange(1, n + 1), term_ids] = 0.0
    for length in range(1, n + 1):
        spans = np.arange(n - length + 1)
        at = (spans[:, None], (spans + length)[:, None])
        if length > 1 and bin_r1.shape[0]:
            cand = np.logaddexp.reduce(_gather(inside, spans, length, bin_r1, bin_r2, bin_lp), axis=1)
            inside[at + (run_lhs,)] = np.logaddexp.reduceat(cand, starts, axis=1)
        closed = un_closure + inside[at + (un_cols,)][:, None]
        inside[at + (un_syms,)] = np.logaddexp.reduce(closed, axis=2)
