"""Rule and model types shared across induction, parsing, and serialization.

All models store the raw counts of independent events.  The sums that
combine them (a PCFG's lhs totals, a decision point's attach plus
projection total, a delta model's counts per delta and its PLCG) are
derived once, by the model's constructor, so no model holds a sum that
disagrees with its parts.  The other probabilities (``p_shift``,
``projections``, ``shift_dist``, ``rule_dist``, ``delta_dist``) divide by
their count table's sum on every call; the parser reads them only to build
a move table, which it keeps.  No smoothing anywhere: unseen events keep
probability zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable

NEG_INF = float("-inf")


@dataclass(frozen=True, order=True)
class Rule:
    lhs: str
    rhs: tuple[str, ...]

    def __post_init__(self):
        if not self.rhs:
            raise ValueError("rule with empty right-hand side")

    def __str__(self) -> str:
        return "%s -> %s" % (self.lhs, " ".join(self.rhs))


def _prob(dist: dict | None, key) -> float:
    """Relative frequency of ``key`` in a count table; 0 when unseen."""
    c = dist.get(key, 0) if dist else 0
    return c / sum(dist.values()) if c else 0.0


def _normalize(dist: dict | None) -> dict:
    """A count table as relative frequencies; empty when there is none."""
    if not dist:
        return {}
    total = sum(dist.values())
    return {k: c / total for k, c in dist.items()}


@dataclass
class PcfgModel:
    """Relative-frequency PCFG: counts per local tree, conditioned on the
    mother category."""

    counts: dict[Rule, int]
    start: str
    # Chart form, built by chart.compile_pcfg on first use.
    compiled: Any = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self._lhs_totals: dict[str, int] = {}
        for rule, c in self.counts.items():
            self._lhs_totals[rule.lhs] = self._lhs_totals.get(rule.lhs, 0) + c

    @property
    def rules(self) -> Iterable[Rule]:
        return self.counts.keys()

    def prob(self, rule: Rule) -> float:
        c = self.counts.get(rule, 0)
        return c / self._lhs_totals[rule.lhs] if c else 0.0

    def log_prob(self, rule: Rule) -> float:
        p = self.prob(rule)
        return math.log(p) if p else NEG_INF

    @property
    def symbols(self) -> set[str]:
        syms = set(self._lhs_totals)
        for rule in self.counts:
            syms.update(rule.rhs)
        return syms


@dataclass
class PlcgModel:
    """The three conditional tables of a probabilistic left-corner grammar,
    stored as the counts of its events.

    shift_counts[gc][lc]: times terminal lc was shifted under goal gc.
    attach_counts[gc]: attaches of a completed gc to its goal gc.
    proj_counts[(lc, gc)][rule]: projections of rule from corner lc.

    Derived: att_counts[(lc, gc)] is (attach events, attach + project
    events), per decision point.
    """

    shift_counts: dict[str, dict[str, int]]
    attach_counts: dict[str, int]
    proj_counts: dict[tuple[str, str], dict[Rule, int]]
    start: str
    # Move tables per decision point, built by lc_parser on first use.
    move_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.att_counts = {(gc, gc): (c, c) for gc, c in self.attach_counts.items()}
        for key, dist in self.proj_counts.items():
            att = self.att_counts.get(key, (0, 0))[0]
            self.att_counts[key] = (att, att + sum(dist.values()))

    @property
    def base(self) -> PlcgModel:
        """The PLCG that scores shifts: the model itself."""
        return self

    def p_shift(self, lc: str, gc: str) -> float:
        return _prob(self.shift_counts.get(gc), lc)

    def p_att(self, lc: str, gc: str) -> float:
        att, total = self.att_counts.get((lc, gc), (0, 0))
        return att / total if att else 0.0

    def projections(self, lc: str, gc: str) -> dict[Rule, float]:
        return _normalize(self.proj_counts.get((lc, gc)))

    def shift_dist(self, gc: str) -> dict[str, float]:
        return _normalize(self.shift_counts.get(gc))


# Sentinel rule standing for a bare attach of a shifted terminal in the
# delta model (the only non-projection event at a decision point).
ATTACH_RULE = Rule("<attach>", ("<attach>",))


@dataclass
class DeltaModel:
    """Stack-size conditioned model (composed machine, binary rules).

    rule_counts[(lc, gc, depth, delta)][rule]: moves that change the stack
    size by delta; ATTACH_RULE records a bare terminal attach (delta -2).
    shift_counts[gc][lc]: shifts, as in the PLCG.
    Derived, in the order of a scan of rule_counts: delta_counts[(depth, lc,
    gc)][delta], the moves per delta, and base, the PLCG of the same
    derivations on the base machine, which scores the shifts.
    """

    rule_counts: dict[tuple[str, str, int, int], dict[Rule, int]]
    shift_counts: dict[str, dict[str, int]]
    start: str
    # Move tables per decision point, built by lc_parser on first use.
    move_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.delta_counts: dict[tuple[int, str, str], dict[int, int]] = {}
        attach: dict[str, int] = {}
        proj: dict[tuple[str, str], dict[Rule, int]] = {}
        for (lc, gc, depth, delta), dist in self.rule_counts.items():
            self.delta_counts.setdefault((depth, lc, gc), {})[delta] = sum(dist.values())
            for rule, c in dist.items():
                if rule != ATTACH_RULE:
                    row = proj.setdefault((lc, gc), {})
                    row[rule] = row.get(rule, 0) + c
                # ATTACH_RULE (one symbol, delta -2), or a composed projection:
                # on the base machine, a projection and an attach at (gc, gc).
                if delta == len(rule.rhs) - 3:
                    attach[gc] = attach.get(gc, 0) + c
        self.base = PlcgModel(self.shift_counts, attach, proj, self.start)

    def rule_dist(self, lc: str, gc: str, depth: int, delta: int) -> dict[Rule, float]:
        return _normalize(self.rule_counts.get((lc, gc, depth, delta)))

    def delta_dist(self, depth: int, lc: str, gc: str) -> dict[int, float]:
        return _normalize(self.delta_counts.get((depth, lc, gc)))


Model = PcfgModel | PlcgModel | DeltaModel
