"""Relative-frequency estimation of PCFG, PLCG, and stack-delta models."""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from typing import Sequence

from .derivation import derivation_events, stack_delta
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


def induce_pcfg(trees: Sequence[Tree]) -> PcfgModel:
    """Count local trees and normalize per mother category; no smoothing."""
    check_sequence(trees)
    counts: dict[Rule, int] = defaultdict(int)
    for t in trees:
        for lhs, rhs in iter_local_trees(t):
            counts[Rule(lhs, rhs)] += 1
    return PcfgModel(dict(counts), _common_start(trees))


def induce_plcg(trees: Sequence[Tree]) -> PlcgModel:
    """Count shift/attach/project decisions over the gold LC derivations."""
    check_sequence(trees)
    shift: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    att: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0])
    proj: dict[tuple[str, str], dict[Rule, int]] = defaultdict(lambda: defaultdict(int))
    for t in trees:
        for ev in derivation_events(t):
            mv = ev.move
            if mv.kind == "shift":
                shift[ev.gc][mv.symbol] += 1
            elif mv.kind == "attach":
                pair = att[(ev.lc, ev.gc)]
                pair[0] += 1
                pair[1] += 1
            else:
                att[(ev.lc, ev.gc)][1] += 1
                proj[(ev.lc, ev.gc)][mv.rule] += 1
    return PlcgModel(
        shift_counts={gc: dict(d) for gc, d in shift.items()},
        att_counts={k: (a, n) for k, (a, n) in att.items()},
        proj_counts={k: dict(d) for k, d in proj.items()},
        start=_common_start(trees),
    )


def induce_delta_model(trees: Sequence[Tree]) -> DeltaModel:
    """Stack-size conditioned model from composed-machine derivations.

    Expects binarized trees; the observable deltas are then -2..+1."""
    check_sequence(trees)
    deltas: dict[tuple[int, str, str], dict[int, int]] = defaultdict(lambda: defaultdict(int))
    rules: dict[tuple[str, str, int, int], dict[Rule, int]] = defaultdict(lambda: defaultdict(int))
    for t in trees:
        for lhs, rhs in iter_local_trees(t):
            if len(rhs) > 2:
                raise ValueError("delta model needs binary rules; saw %s -> %s" % (lhs, " ".join(rhs)))
        for ev in derivation_events(t, compose=True):
            mv = ev.move
            if mv.kind == "shift":
                continue
            delta = stack_delta(mv)
            rule = mv.rule if mv.kind == "project" else ATTACH_RULE
            deltas[(ev.depth, ev.lc, ev.gc)][delta] += 1
            rules[(ev.lc, ev.gc, ev.depth, delta)][rule] += 1
    base = induce_plcg(trees)
    return DeltaModel(
        delta_counts={k: dict(d) for k, d in deltas.items()},
        rule_counts={k: dict(d) for k, d in rules.items()},
        base=base,
    )


def pcfg_tree_log_prob(t: Tree, model: PcfgModel) -> float:
    lp = 0.0
    for lhs, rhs in iter_local_trees(t):
        p = model.prob(Rule(lhs, rhs))
        if p == 0.0:
            return NEG_INF
        lp += math.log(p)
    return lp


def pcfg_tree_exact_prob(t: Tree, model: PcfgModel) -> Fraction:
    p = Fraction(1)
    for lhs, rhs in iter_local_trees(t):
        p *= model.exact_prob(Rule(lhs, rhs))
    return p


def plcg_tree_log_prob(t: Tree, model: PlcgModel) -> float:
    """Log probability of the unique LC derivation of ``t``.

    The attach complement is folded into projection scores: a projection at
    (lc, gc) costs (1 - P_att(lc, gc)) * P_lc(rule | lc, gc)."""
    lp = 0.0
    for ev in derivation_events(t):
        mv = ev.move
        if mv.kind == "shift":
            p = model.p_shift(mv.symbol, ev.gc)
        elif mv.kind == "attach":
            p = model.p_att(ev.lc, ev.gc)
        else:
            p = (1.0 - model.p_att(ev.lc, ev.gc)) * model.p_lc(mv.rule, ev.lc, ev.gc)
        if p == 0.0:
            return NEG_INF
        lp += math.log(p)
    return lp


def delta_tree_log_prob(t: Tree, model: DeltaModel) -> float:
    """Log probability of ``t`` under the stack-delta model (composed
    machine, binary rules)."""
    lp = 0.0
    for ev in derivation_events(t, compose=True):
        mv = ev.move
        if mv.kind == "shift":
            p = model.base.p_shift(mv.symbol, ev.gc)
        else:
            delta = stack_delta(mv)
            rule = mv.rule if mv.kind == "project" else ATTACH_RULE
            p = model.p_delta(delta, ev.depth, ev.lc, ev.gc) * model.rule_dist(
                ev.lc, ev.gc, ev.depth, delta
            ).get(rule, 0.0)
        if p == 0.0:
            return NEG_INF
        lp += math.log(p)
    return lp


def corpus_log_likelihood(trees: Sequence[Tree], model) -> float:
    if isinstance(model, PcfgModel):
        return sum(pcfg_tree_log_prob(t, model) for t in trees)
    if isinstance(model, DeltaModel):
        return sum(delta_tree_log_prob(t, model) for t in trees)
    return sum(plcg_tree_log_prob(t, model) for t in trees)
