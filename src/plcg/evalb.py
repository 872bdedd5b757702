"""PARSEVAL bracket scoring: precision/recall (labelled and not), the
unary-inclusive +1 variants, and crossing-bracket statistics.

Preterminal spans never count.  Unless a measure is marked +1, unary chains
over an identical span collapse to a single bracket keeping the outermost
label.  The ``ROOT`` wrapper that preprocessing adds is excluded as an
artifact.  None of the original PARSEVAL special-case tree normalizations
are applied.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .treebank import ROOT_LABEL, Tree, leaves

Bracket = tuple[int, int, str]


class YieldMismatchError(ValueError):
    def __init__(self, index: Optional[int] = None):
        where = "" if index is None else " at sentence %d" % index
        super().__init__("gold and test yields differ" + where)
        self.index = index


def brackets(t: Tree, include_unary: bool) -> Counter:
    """Multiset of (start, end, label) spans over terminal positions."""
    spans: list[tuple[int, int, str, int]] = []  # + tree depth for outermost-wins

    def walk(node: Tree, start: int, depth: int) -> int:
        if node.is_leaf:
            return start + 1
        end = start
        for c in node.children:
            end = walk(c, end, depth + 1)
        if node.is_preterminal:
            return end
        if depth == 0 and node.label == ROOT_LABEL:
            return end
        spans.append((start, end, node.label, depth))
        return end

    walk(t, 0, 0)
    if include_unary:
        return Counter((i, j, lab) for i, j, lab, _ in spans)
    outermost: dict[tuple[int, int], tuple[int, str]] = {}
    for i, j, lab, depth in spans:
        key = (i, j)
        if key not in outermost or depth < outermost[key][0]:
            outermost[key] = (depth, lab)
    return Counter((i, j, lab) for (i, j), (_, lab) in outermost.items())


def _crossing(test_spans: set[tuple[int, int]], gold_spans: set[tuple[int, int]]) -> int:
    count = 0
    for i, j in test_spans:
        for a, b in gold_spans:
            if a < i < b < j or i < a < j < b:
                count += 1
                break
    return count


def score(
    gold: Tree, test: Tree, labelled: bool, include_unary: bool,
) -> tuple[int, int, int, int]:
    """Per-sentence (matched, gold_count, test_count, crossing)."""
    if leaves(gold) != leaves(test):
        raise YieldMismatchError()
    gb = brackets(gold, include_unary)
    tb = brackets(test, include_unary)
    if not labelled:
        gb = Counter((i, j) for i, j, _ in gb.elements())
        tb = Counter((i, j) for i, j, _ in tb.elements())
    matched = sum((gb & tb).values())
    gold_spans = {(i, j) for i, j, _ in brackets(gold, False)}
    test_spans = {(i, j) for i, j, _ in brackets(test, False)}
    crossing = _crossing(test_spans, gold_spans)
    return matched, sum(gb.values()), sum(tb.values()), crossing


@dataclass
class SentenceScore:
    length: int
    matched: int
    gold: int
    test: int
    lab_matched: int
    lab_gold: int
    lab_test: int
    plus1_matched: int
    plus1_gold: int
    plus1_test: int
    crossing: int


def score_pair(gold: Tree, test: Tree) -> SentenceScore:
    m, g, t, cb = score(gold, test, labelled=False, include_unary=False)
    lm, lg, lt, _ = score(gold, test, labelled=True, include_unary=False)
    pm, pg, pt, _ = score(gold, test, labelled=True, include_unary=True)
    return SentenceScore(
        length=len(leaves(gold)),
        matched=m, gold=g, test=t,
        lab_matched=lm, lab_gold=lg, lab_test=lt,
        plus1_matched=pm, plus1_gold=pg, plus1_test=pt,
        crossing=cb,
    )


@dataclass
class EvalReport:
    precision: float
    recall: float
    labelled_precision: float
    labelled_recall: float
    labelled_precision_plus1: float
    labelled_recall_plus1: float
    avg_cbs: float
    noncrossing_accuracy: float
    zero_cb_rate: float
    sentence_count: int
    average_length: float

    def as_dict(self) -> dict[str, float]:
        return dict(vars(self))


def _ratio(num: int, den: int) -> float:
    return num / den if den else 1.0


def aggregate(scores: Sequence[SentenceScore]) -> EvalReport:
    """Micro-averaged report (summed numerators and denominators)."""
    if not scores:
        raise ValueError("no sentences to aggregate")
    total_cbs = sum(s.crossing for s in scores)
    total_test = sum(s.test for s in scores)
    return EvalReport(
        precision=_ratio(sum(s.matched for s in scores), total_test),
        recall=_ratio(sum(s.matched for s in scores), sum(s.gold for s in scores)),
        labelled_precision=_ratio(sum(s.lab_matched for s in scores), sum(s.lab_test for s in scores)),
        labelled_recall=_ratio(sum(s.lab_matched for s in scores), sum(s.lab_gold for s in scores)),
        labelled_precision_plus1=_ratio(sum(s.plus1_matched for s in scores), sum(s.plus1_test for s in scores)),
        labelled_recall_plus1=_ratio(sum(s.plus1_matched for s in scores), sum(s.plus1_gold for s in scores)),
        avg_cbs=total_cbs / len(scores),
        noncrossing_accuracy=1.0 - (total_cbs / total_test if total_test else 0.0),
        zero_cb_rate=sum(1 for s in scores if s.crossing == 0) / len(scores),
        sentence_count=len(scores),
        average_length=sum(s.length for s in scores) / len(scores),
    )


def score_corpus(
    golds: Sequence[Tree], tests: Sequence[Tree],
    max_length: Optional[int] = None,
) -> tuple[EvalReport, int]:
    """Aggregate report over aligned tree lists; returns (report, retained)."""
    if len(golds) != len(tests):
        raise ValueError("gold and test corpora differ in size")
    scores = []
    for idx, (g, t) in enumerate(zip(golds, tests)):
        if leaves(g) != leaves(t):
            raise YieldMismatchError(idx)
        if max_length is not None and len(leaves(g)) > max_length:
            continue
        scores.append(score_pair(g, t))
    return aggregate(scores), len(scores)
