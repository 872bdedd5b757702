"""Chart-filling inner loops of ``plcg.chart`` over the integer-indexed
numpy arrays of a compiled PCFG.

Both fills work one span length at a time, and one gather scores every
binary rule at every split of every span of that length.  In the Viterbi
fill a tie goes to the first rule, then the first split, that reaches the
best score, and only the rule is kept: ``chart._extract`` finds the split
again from the scores.  The unary closure then runs, one span at a time,
only on the spans where some unary rule's child is already scored.  The
inside fill applies the unary closure R_U = (I - P_U)^-1, solved once per
grammar, to all spans of a length at once over the symbols R_U reaches
from, so it is exact on unary cycles.  The binary rules must be sorted by
lhs, so each lhs owns one run of rule indices.
"""

from __future__ import annotations

import numpy as np

NEG_INF = float("-inf")


def _lhs_runs(bin_lhs):
    """Start index of each lhs's run of rules, its lhs and its length."""
    starts = np.flatnonzero(np.diff(bin_lhs, prepend=-1))
    return starts, bin_lhs[starts], np.diff(starts, append=bin_lhs.shape[0])


def _gather(chart, spans, length, bin_r1, bin_r2, bin_lp):
    """The (span, split, rule) scores of each span (i, i + length), i in
    ``spans``, added as ``(w + left) + right``.  ``take`` keeps the rule axis
    innermost in memory, so a reduction over the splits runs on whole rows."""
    mids = spans[:, None] + np.arange(1, length)
    left = chart[spans[:, None], mids].take(bin_r1, axis=2)
    return bin_lp + left + chart[mids, (spans + length)[:, None]].take(bin_r2, axis=2)


def viterbi_fill(n, term_ids, bin_lhs, bin_r1, bin_r2, bin_lp,
                 un_lhs, un_child, un_lp, best, back_op):
    """Fill the Viterbi chart in place, one span length at a time.

    back_op: >=0 binary rule index; -2-u for unary rule u; -1 terminal/none.
    Ties go to the first rule, then the first split, that reaches the best
    score, and a unary candidate ``w + child`` changes a cell only on a
    strict improvement.
    """
    n_bin = bin_lhs.shape[0]
    rule_ids = np.arange(n_bin)
    starts, run_lhs, run_sizes = _lhs_runs(bin_lhs)
    unary = list(zip(un_lhs.tolist(), un_child.tolist(), un_lp.tolist()))
    best[np.arange(n), np.arange(1, n + 1), term_ids] = 0.0
    for length in range(1, n + 1):
        spans = np.arange(n - length + 1)
        if length > 1 and n_bin:
            rule_best = _gather(best, spans, length, bin_r1, bin_r2, bin_lp).max(axis=1)
            lhs_best = np.maximum.reduceat(rule_best, starts, axis=1)
            hit = rule_best == np.repeat(lhs_best, run_sizes, axis=1)
            first = np.minimum.reduceat(np.where(hit, rule_ids, n_bin), starts, axis=1)
            at, run = np.nonzero(lhs_best > NEG_INF)
            lhs = run_lhs[run]
            best[at, at + length, lhs] = lhs_best[at, run]
            back_op[at, at + length, lhs] = first[at, run]
        if not unary:
            continue
        # A pass over a span with no finite unary child changes nothing.
        fires = (best[spans, spans + length][:, un_child] > NEG_INF).any(axis=1)
        for i in np.flatnonzero(fires).tolist():
            _unary_closure(best, back_op, i, i + length, unary)


def _unary_closure(best, back_op, i, j, unary):
    """Unary closure of span (i, j) to a fixpoint (strict improvement only)."""
    row = best[i, j].tolist()
    unary_op: dict[int, int] = {}
    changed = True
    while changed:
        changed = False
        for u, (a, b, w) in enumerate(unary):
            lb = row[b]
            if lb == NEG_INF:
                continue
            cand = w + lb
            if cand > row[a]:
                row[a] = cand
                unary_op[a] = -2 - u
                changed = True
    if unary_op:
        syms = list(unary_op)
        best[i, j, syms] = [row[a] for a in syms]
        back_op[i, j, syms] = list(unary_op.values())


def inside_fill(n, term_ids, bin_lhs, bin_r1, bin_r2, bin_lp, un_syms, un_cols, un_closure, inside):
    """Fill the inside chart (log probabilities) in place, one span length
    at a time; row k of ``un_closure`` is log R_U from ``un_syms[k]`` to the
    symbols ``un_cols``, the only ones with a finite entry."""
    starts, run_lhs, _ = _lhs_runs(bin_lhs)
    inside[np.arange(n), np.arange(1, n + 1), term_ids] = 0.0
    for length in range(1, n + 1):
        spans = np.arange(n - length + 1)
        at = (spans[:, None], (spans + length)[:, None])
        if length > 1 and bin_lhs.shape[0]:
            cand = np.logaddexp.reduce(_gather(inside, spans, length, bin_r1, bin_r2, bin_lp), axis=1)
            inside[at + (run_lhs,)] = np.logaddexp.reduceat(cand, starts, axis=1)
        closed = un_closure + inside[at + (un_cols,)][:, None]
        inside[at + (un_syms,)] = np.logaddexp.reduce(closed, axis=2)
