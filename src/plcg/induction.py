"""Relative-frequency estimation of PCFG, PLCG, and stack-delta models.

Induction counts independent events only (local trees; shifts, attaches
and projections; shifts and moves per stack change), and each model's
constructor derives the sums that its probabilities divide by."""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import Sequence

from .derivation import ATTACH, PROJECT, SHIFT, derivation_events, stack_delta
from .grammar_types import (
    ATTACH_RULE,
    NEG_INF,
    DeltaModel,
    PcfgModel,
    PlcgModel,
    Rule,
)
from .treebank import Tree, check_sequence, iter_local_trees


def _common_start(trees: Sequence[Tree]) -> str:
    roots = {t.label for t in trees}
    if len(roots) != 1:
        raise ValueError("corpus has multiple root categories: %s" % sorted(roots))
    return roots.pop()


def _rule_table(counts: dict) -> dict[Rule, int]:
    """A count table keyed by (lhs, rhs) label pairs, keyed by Rule: one
    Rule per distinct rule, in first-seen order."""
    return {Rule(lhs, rhs): c for (lhs, rhs), c in counts.items()}


def induce_pcfg(trees: Sequence[Tree]) -> PcfgModel:
    """Count local trees and normalize per mother category; no smoothing."""
    check_sequence(trees)
    counts: Counter = Counter()
    for t in trees:
        counts.update(iter_local_trees(t))
    return PcfgModel(_rule_table(counts), _common_start(trees))


# The (lhs, rhs) key of a bare terminal attach in the delta rule tables.
_ATTACH_KEY = (ATTACH_RULE.lhs, ATTACH_RULE.rhs)


def _count_derivations(trees: Sequence[Tree], compose: bool) -> PlcgModel | DeltaModel:
    """Count the gold derivations of ``trees``, one walk per tree: shifts,
    and then attaches and projections (the PLCG), or the composed machine's
    moves per stack change (the delta model).  The model derives every sum
    of these counts itself."""
    shift = defaultdict(lambda: defaultdict(int))
    attach = defaultdict(int)
    # Keyed (lc, gc) for the PLCG's projections, (lc, gc, depth, delta) for
    # the delta model's moves.
    moves = defaultdict(lambda: defaultdict(int))
    for t in trees:
        for ev in derivation_events(t, compose=compose):
            kind, lc, gc, depth, label, rhs, _ = ev
            if kind == SHIFT:
                shift[gc][label] += 1
            elif compose:
                if kind == PROJECT and len(rhs) > 2:
                    raise ValueError("delta model needs binary rules; saw %s -> %s"
                                     % (label, " ".join(rhs)))
                key = _ATTACH_KEY if kind == ATTACH else (label, rhs)
                moves[(lc, gc, depth, stack_delta(ev))][key] += 1
            elif kind == ATTACH:
                attach[gc] += 1
            else:
                moves[(lc, gc)][(label, rhs)] += 1
    shifts = {gc: dict(d) for gc, d in shift.items()}
    tables = {k: _rule_table(d) for k, d in moves.items()}
    if compose:
        return DeltaModel(tables, shifts, _common_start(trees))
    return PlcgModel(shifts, dict(attach), tables, _common_start(trees))


def induce_plcg(trees: Sequence[Tree]) -> PlcgModel:
    """Count shift/attach/project decisions over the gold LC derivations."""
    check_sequence(trees)
    return _count_derivations(trees, compose=False)


def induce_delta_model(trees: Sequence[Tree]) -> DeltaModel:
    """Stack-size conditioned model from composed-machine derivations; its
    base PLCG is the fold of the same moves.

    Expects binarized trees; the observable deltas are then -2..+1."""
    check_sequence(trees)
    return _count_derivations(trees, compose=True)


def pcfg_tree_log_prob(t: Tree, model: PcfgModel) -> float:
    lp = 0.0
    for lhs, rhs in iter_local_trees(t):
        p = model.prob(Rule(lhs, rhs))
        if p == 0.0:
            return NEG_INF
        lp += math.log(p)
    return lp


def plcg_tree_log_prob(t: Tree, model: PlcgModel) -> float:
    """Log probability of the unique LC derivation of ``t``.

    The attach complement is folded into projection scores: a projection at
    (lc, gc) costs (1 - P_att(lc, gc)) * P_lc(rule | lc, gc)."""
    lp = 0.0
    for kind, lc, gc, _, label, rhs, _ in derivation_events(t):
        if kind == SHIFT:
            p = model.p_shift(label, gc)
        elif kind == ATTACH:
            p = model.p_att(lc, gc)
        else:
            p = ((1.0 - model.p_att(lc, gc))
                 * model.projections(lc, gc).get(Rule(label, rhs), 0.0))
        if p == 0.0:
            return NEG_INF
        lp += math.log(p)
    return lp


def delta_tree_log_prob(t: Tree, model: DeltaModel) -> float:
    """Log probability of ``t`` under the stack-delta model (composed
    machine, binary rules)."""
    lp = 0.0
    for ev in derivation_events(t, compose=True):
        kind, lc, gc, depth, label, rhs, _ = ev
        if kind == SHIFT:
            p = model.base.p_shift(label, gc)
        else:
            delta = stack_delta(ev)
            rule = Rule(label, rhs) if kind == PROJECT else ATTACH_RULE
            p = (model.delta_dist(depth, lc, gc).get(delta, 0.0)
                 * model.rule_dist(lc, gc, depth, delta).get(rule, 0.0))
        if p == 0.0:
            return NEG_INF
        lp += math.log(p)
    return lp
