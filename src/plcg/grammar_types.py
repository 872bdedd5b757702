"""Rule and model types shared across induction, parsing, and serialization.

All models store raw counts; probabilities are derived, so re-normalization
is checkable after a save/load round trip.  No smoothing anywhere: unseen
events keep probability zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
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

    def exact_prob(self, rule: Rule) -> Fraction:
        c = self.counts.get(rule, 0)
        return Fraction(c, self._lhs_totals[rule.lhs]) if c else Fraction(0)

    def log_prob(self, rule: Rule) -> float:
        p = self.prob(rule)
        return math.log(p) if p else NEG_INF

    @property
    def nonterminals(self) -> set[str]:
        return set(self._lhs_totals)

    @property
    def symbols(self) -> set[str]:
        syms = set(self._lhs_totals)
        for rule in self.counts:
            syms.update(rule.rhs)
        return syms


@dataclass
class PlcgModel:
    """The three conditional tables of a probabilistic left-corner grammar.

    shift_counts[gc][lc]: times terminal lc was shifted under goal gc.
    att_counts[(lc, gc)]: (attach events, attach + project events).
    proj_counts[(lc, gc)][rule]: projections of rule from corner lc.
    """

    shift_counts: dict[str, dict[str, int]]
    att_counts: dict[tuple[str, str], tuple[int, int]]
    proj_counts: dict[tuple[str, str], dict[Rule, int]]
    start: str
    # Move tables per decision point, built by lc_parser on first use.
    move_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def p_shift(self, lc: str, gc: str) -> float:
        return _prob(self.shift_counts.get(gc), lc)

    def p_att(self, lc: str, gc: str) -> float:
        if lc != gc:
            return 0.0
        att, total = self.att_counts.get((lc, gc), (0, 0))
        return att / total if total else 0.0

    def p_lc(self, rule: Rule, lc: str, gc: str) -> float:
        return _prob(self.proj_counts.get((lc, gc)), rule)

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

    delta_counts[(depth, lc, gc)][delta]: stack-size changes observed.
    rule_counts[(lc, gc, depth, delta)][rule]: rules given the delta;
    ATTACH_RULE records a bare terminal attach (delta -2).
    Shifts are still scored by the base model's shift table.
    """

    delta_counts: dict[tuple[int, str, str], dict[int, int]]
    rule_counts: dict[tuple[str, str, int, int], dict[Rule, int]]
    base: PlcgModel
    # Move tables per decision point, built by lc_parser on first use.
    move_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def start(self) -> str:
        return self.base.start

    def p_delta(self, delta: int, depth: int, lc: str, gc: str) -> float:
        return _prob(self.delta_counts.get((depth, lc, gc)), delta)

    def rule_dist(self, lc: str, gc: str, depth: int, delta: int) -> dict[Rule, float]:
        return _normalize(self.rule_counts.get((lc, gc, depth, delta)))

    def delta_dist(self, depth: int, lc: str, gc: str) -> dict[int, float]:
        return _normalize(self.delta_counts.get((depth, lc, gc)))


Model = PcfgModel | PlcgModel | DeltaModel
