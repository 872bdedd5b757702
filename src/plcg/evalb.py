"""PARSEVAL bracket scoring: precision/recall (labelled and not), the
unary-inclusive +1 variants, and crossing-bracket statistics.

Preterminal spans never count.  Unless a measure is marked +1, unary chains
over an identical span collapse to a single bracket keeping the outermost
label.  The ``ROOT`` wrapper that preprocessing adds is excluded as an
artifact.  None of the original PARSEVAL special-case tree normalizations
are applied.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .treebank import ROOT_LABEL, Tree, leaves


class YieldMismatchError(ValueError):
    def __init__(self, index: Optional[int] = None):
        where = "" if index is None else " at sentence %d" % index
        super().__init__("gold and test yields differ" + where)
        self.index = index


def brackets(t: Tree) -> Counter:
    """Multiset of (start, end, label) spans over terminal positions, unary
    chains included; ``_outermost`` collapses them."""
    starts: list[int] = []
    ends: list[int] = []
    labels: list[str] = []
    todo: list = [t]
    if t.label == ROOT_LABEL and not t.is_preterminal:  # the wrapper is not a bracket
        todo = list(t.children[::-1])
    pos = 0
    while todo:
        node = todo.pop()
        if node.__class__ is int:  # every leaf of span ``node`` is counted
            ends[node] = pos
            continue
        kids = node.children
        if not kids or (len(kids) == 1 and not kids[0].children):
            pos += 1  # a leaf, or a preterminal over one leaf
            continue
        todo.append(len(starts))
        starts.append(pos)
        ends.append(pos)
        labels.append(node.label)
        todo += kids[::-1]
    return Counter(zip(starts, ends, labels))


def _outermost(spans: Counter) -> dict[tuple[int, int], str]:
    """Each span's outermost label, from the unary-inclusive brackets of one
    tree.  Their keys keep first-seen order and spans come top-down, so a
    span's first key holds its outermost label."""
    outermost: dict[tuple[int, int], str] = {}
    for i, j, lab in spans:
        outermost.setdefault((i, j), lab)
    return outermost


def _crossing(test_spans: set[tuple[int, int]], gold_spans: set[tuple[int, int]]) -> int:
    """How many test spans cross some gold span.  Per position p,
    ``min_end[p]`` and ``max_start[p]`` are the least end and the greatest
    start of the gold spans that hold p strictly inside; (i, j) crosses a
    gold span that holds i and ends before j, or holds j and starts after i."""
    size = 1 + max(itertools.chain(*test_spans, *gold_spans), default=0)
    min_end, max_start = [size] * size, [-1] * size
    for a, b in gold_spans:
        for p in range(a + 1, b):
            if b < min_end[p]:
                min_end[p] = b
            if a > max_start[p]:
                max_start[p] = a
    return sum(min_end[i] < j or max_start[j] > i for i, j in test_spans)


def _matched(gold: Counter, test: Counter) -> int:
    return sum((gold & test).values())


class SentenceScore(NamedTuple):
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
    words = leaves(gold)
    if words != leaves(test):
        raise YieldMismatchError()
    return _score_pair(gold, test, len(words))


def _score_pair(gold: Tree, test: Tree, length: int) -> SentenceScore:
    """Every figure of one pair from one bracket walk per tree: the
    unary-inclusive brackets (+1), and from them the outermost labels only
    (unlabelled, labelled, crossing).  Each span has one outermost label, so
    the set sizes are the bracket counts."""
    g_all, t_all = brackets(gold), brackets(test)
    g_outer, t_outer = _outermost(g_all), _outermost(t_all)
    g_spans, t_spans = g_outer.keys(), t_outer.keys()
    return SentenceScore(
        length=length,
        matched=len(g_spans & t_spans), gold=len(g_spans), test=len(t_spans),
        lab_matched=len(g_outer.items() & t_outer.items()),
        lab_gold=len(g_outer), lab_test=len(t_outer),
        plus1_matched=_matched(g_all, t_all),
        plus1_gold=sum(g_all.values()), plus1_test=sum(t_all.values()),
        crossing=_crossing(t_spans, g_spans),
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


def _ratio(num: int, den: int) -> float:
    return num / den if den else 1.0


def aggregate(scores: Sequence[SentenceScore]) -> EvalReport:
    """Micro-averaged report (summed numerators and denominators)."""
    if not scores:
        raise ValueError("no sentences to aggregate")
    (length, matched, gold, test, lab_matched, lab_gold, lab_test,
     plus1_matched, plus1_gold, plus1_test, crossing) = map(sum, zip(*scores))
    n = len(scores)
    return EvalReport(
        precision=_ratio(matched, test),
        recall=_ratio(matched, gold),
        labelled_precision=_ratio(lab_matched, lab_test),
        labelled_recall=_ratio(lab_matched, lab_gold),
        labelled_precision_plus1=_ratio(plus1_matched, plus1_test),
        labelled_recall_plus1=_ratio(plus1_matched, plus1_gold),
        avg_cbs=crossing / n,
        noncrossing_accuracy=1.0 - (crossing / test if test else 0.0),
        zero_cb_rate=sum(1 for s in scores if s.crossing == 0) / n,
        sentence_count=n,
        average_length=length / n,
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
        words = leaves(g)
        if words != leaves(t):
            raise YieldMismatchError(idx)
        if max_length is not None and len(words) > max_length:
            continue
        scores.append(_score_pair(g, t, len(words)))
    return aggregate(scores), len(scores)
