import random
from collections import Counter

import pytest

from conftest import t
from oracles import preprocess, random_tree_over_yield
from plcg.corpus import generate_corpus
from plcg.evalb import (
    SentenceScore,
    YieldMismatchError,
    _crossing,
    _outermost,
    aggregate,
    brackets,
    score_corpus,
    score_pair,
)
from plcg.treebank import PreprocessOptions, UnaryMode, leaves

# Attachment-ambiguity fixtures: flat treebank style and N-bar style.
PENN_VP = t("(VP saw (NP the man) (PP with (NP a telescope)))")
PENN_NP = t("(VP saw (NP (NP the man) (PP with (NP a telescope))))")
NBAR_VP = t("(VP saw (NP the (N1 man)) (PP with (NP a (N1 telescope))))")
NBAR_NP = t("(VP saw (NP the (N1 man (PP with (NP a (N1 telescope))))))")


def outermost(tree):
    """The tree's brackets with each unary chain collapsed to its outermost
    label, as a multiset of (start, end, label) spans."""
    return Counter((i, j, lab) for (i, j), lab in _outermost(brackets(tree)).items())


class TestBrackets:
    def test_unary_chain_collapses_keeping_outermost(self):
        tree = t("(S (NP (DT the) (NN man)))")
        assert brackets(tree) == Counter({(0, 2, "S"): 1, (0, 2, "NP"): 1})
        assert outermost(tree) == Counter({(0, 2, "S"): 1})

    def test_single_preterminal_is_empty(self):
        assert brackets(t("(NN man)")) == Counter()

    def test_preterminal_spans_excluded(self):
        spans = brackets(t("(S (NP (DT a) (NN b)) (VP (VB c)))"))
        assert spans == Counter({(0, 3, "S"): 1, (0, 2, "NP"): 1, (2, 3, "VP"): 1})

    def test_root_wrapper_excluded(self):
        wrapped = t("(ROOT (S (NP (NN a)) (VP (VB b))))")
        bare = t("(S (NP (NN a)) (VP (VB b)))")
        assert brackets(wrapped) == brackets(bare)

    def test_duplicate_brackets_kept_as_multiset(self):
        tree = t("(NP (NP (NP (NN a) (NN b))) (NN c))")
        spans = brackets(tree)
        assert spans[(0, 2, "NP")] == 2


class TestErrorTable:
    """The four attachment-error cells: (precision errors, recall errors, CBs)."""

    def errors(self, gold, test):
        s = score_pair(gold, test)
        return s.lab_test - s.lab_matched, s.lab_gold - s.lab_matched, s.crossing

    def test_flat_style_vp_instead_of_np(self):
        assert self.errors(PENN_NP, PENN_VP) == (0, 1, 0)

    def test_flat_style_np_instead_of_vp(self):
        assert self.errors(PENN_VP, PENN_NP) == (1, 0, 0)

    def test_nbar_style_vp_instead_of_np(self):
        assert self.errors(NBAR_NP, NBAR_VP) == (1, 2, 1)

    def test_nbar_style_np_instead_of_vp(self):
        assert self.errors(NBAR_VP, NBAR_NP) == (2, 1, 1)


def counts(s):
    """(matched, gold, test) per measure: unlabelled, labelled, labelled +1."""
    return [(s.matched, s.gold, s.test), (s.lab_matched, s.lab_gold, s.lab_test),
            (s.plus1_matched, s.plus1_gold, s.plus1_test)]


class TestScore:
    def test_perfect_self_score(self):
        s = score_pair(PENN_NP, PENN_NP)
        assert all(m == g == tn for m, g, tn in counts(s)) and s.crossing == 0

    def test_unlabelled_ignores_labels(self):
        s = score_pair(t("(S (NP (NN a)) (VP (VB b)))"), t("(X (Y (NN a)) (Z (VB b)))"))
        # Spans (0,2), (0,1), (1,2) all match by position, none by label.
        assert s.matched == 3 and s.lab_matched == 0

    def test_yield_mismatch_raises(self):
        with pytest.raises(YieldMismatchError):
            score_pair(t("(S a)"), t("(S b)"))

    def test_unary_chain_that_repeats_a_label_over_one_span(self):
        # Both NP chains hold NP twice and X once over (0, 2); only the
        # outermost label differs.
        gold = t("(S (NP (X (NP (DT a) (NN b)))) (VP (VB c)))")
        test = t("(S (X (NP (NP (DT a) (NN b)))) (VP (VB c)))")
        assert brackets(gold) == brackets(test) == Counter(
            {(0, 3, "S"): 1, (0, 2, "NP"): 2, (0, 2, "X"): 1, (2, 3, "VP"): 1})
        assert outermost(gold) == Counter({(0, 3, "S"): 1, (0, 2, "NP"): 1, (2, 3, "VP"): 1})
        assert outermost(test) == Counter({(0, 3, "S"): 1, (0, 2, "X"): 1, (2, 3, "VP"): 1})
        s = score_pair(gold, test)
        assert s == reference_score_pair(gold, test)
        assert (s.matched, s.gold, s.test) == (3, 3, 3)
        assert (s.lab_matched, s.lab_gold, s.lab_test) == (2, 3, 3)
        assert (s.plus1_matched, s.plus1_gold, s.plus1_test) == (5, 5, 5)

    def test_symmetry_on_random_pairs(self, rng):
        for _ in range(200):
            words = ["w%d" % i for i in range(rng.randint(2, 9))]
            gold = random_tree_over_yield(rng, words)
            test = random_tree_over_yield(rng, words)
            swapped = [(m, tn, g) for m, g, tn in counts(score_pair(test, gold))]
            assert counts(score_pair(gold, test)) == swapped

    def test_unlabelled_matched_at_least_labelled(self, rng):
        for _ in range(50):
            words = ["w%d" % i for i in range(rng.randint(2, 7))]
            s = score_pair(random_tree_over_yield(rng, words), random_tree_over_yield(rng, words))
            assert s.matched >= s.lab_matched


class TestAggregate:
    def test_identical_corpora_are_perfect(self):
        report, retained = score_corpus([PENN_NP, NBAR_NP], [PENN_NP, NBAR_NP])
        assert retained == 2
        assert report.precision == report.recall == 1.0
        assert report.labelled_precision == report.labelled_recall == 1.0
        assert report.avg_cbs == 0.0 and report.zero_cb_rate == 1.0

    def test_micro_average_by_hand(self):
        # Sentence 1: flat-style NP-for-VP error, 4 matched of gold 4, test 5.
        # Sentence 2: N-bar-style VP-for-NP error, 3 matched of gold 5, test 4.
        report = aggregate([score_pair(PENN_VP, PENN_NP), score_pair(NBAR_NP, NBAR_VP)])
        assert report.labelled_precision == pytest.approx((4 + 3) / (5 + 4))
        assert report.labelled_recall == pytest.approx((4 + 3) / (4 + 5))
        assert report.avg_cbs == pytest.approx(0.5)
        assert report.zero_cb_rate == pytest.approx(0.5)
        assert report.noncrossing_accuracy == pytest.approx(1 - 1 / 9)

    def test_empty_aggregate_raises(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_max_length_filter(self):
        golds = [t("(S a b)"), t("(S a b c d)")]
        report, retained = score_corpus(golds, golds, max_length=3)
        assert retained == 1 and report.sentence_count == 1

    def test_misaligned_corpora_raise(self):
        with pytest.raises(ValueError):
            score_corpus([PENN_NP], [])

    def test_yield_mismatch_names_sentence(self):
        with pytest.raises(YieldMismatchError) as info:
            score_corpus([t("(S a)"), t("(S b)")], [t("(S a)"), t("(S c)")])
        assert info.value.index == 1


# Reference oracle: the recursive scorer that score_pair replaced, which
# scores each of its three measures by separate walks over both trees.

def _reference_leaves(tree):
    return [tree.label] if tree.is_leaf else [w for c in tree.children
                                              for w in _reference_leaves(c)]


def _reference_brackets(tree, include_unary):
    spans = []

    def walk(node, start, depth):
        if node.is_leaf:
            return start + 1
        end = start
        for c in node.children:
            end = walk(c, end, depth + 1)
        if not node.is_preterminal and not (depth == 0 and node.label == "ROOT"):
            spans.append((start, end, node.label, depth))
        return end

    walk(tree, 0, 0)
    if include_unary:
        return Counter((i, j, lab) for i, j, lab, _ in spans)
    outermost = {}
    for i, j, lab, depth in spans:
        if (i, j) not in outermost or depth < outermost[(i, j)][0]:
            outermost[(i, j)] = (depth, lab)
    return Counter((i, j, lab) for (i, j), (_, lab) in outermost.items())


def all_pairs_crossing(test_spans, gold_spans):
    """The crossing count by testing every test span against every gold span."""
    return sum(any(a < i < b < j or i < a < j < b for a, b in gold_spans)
               for i, j in test_spans)


def _reference_score(gold, test, labelled, include_unary):
    if _reference_leaves(gold) != _reference_leaves(test):
        raise YieldMismatchError()
    gb = _reference_brackets(gold, include_unary)
    tb = _reference_brackets(test, include_unary)
    if not labelled:
        gb = Counter((i, j) for i, j, _ in gb.elements())
        tb = Counter((i, j) for i, j, _ in tb.elements())
    gold_spans = {(i, j) for i, j, _ in _reference_brackets(gold, False)}
    test_spans = {(i, j) for i, j, _ in _reference_brackets(test, False)}
    crossing = all_pairs_crossing(test_spans, gold_spans)
    return sum((gb & tb).values()), sum(gb.values()), sum(tb.values()), crossing


def reference_score_pair(gold, test):
    m, g, tn, cb = _reference_score(gold, test, False, False)
    lm, lg, lt, _ = _reference_score(gold, test, True, False)
    pm, pg, pt, _ = _reference_score(gold, test, True, True)
    return SentenceScore(len(_reference_leaves(gold)), m, g, tn, lm, lg, lt, pm, pg, pt, cb)


def oracle_pairs(rng):
    """Gold/test pairs over equal yields: treebank trees under every unary
    mode, each against the others and against random bracketings, and
    random bracketings against each other."""
    pairs = []
    for tree in generate_corpus(12, seed=rng.randint(0, 99), raw=True):
        forms = [preprocess(tree, PreprocessOptions(add_root=r, unary_mode=m))
                 for m in UnaryMode for r in (True, False)]
        forms.append(random_tree_over_yield(rng, leaves(forms[0])))
        pairs += [(g, s) for g in forms for s in forms]
    for _ in range(150):
        words = ["w%d" % i for i in range(rng.randint(1, 12))]
        pairs.append((random_tree_over_yield(rng, words), random_tree_over_yield(rng, words)))
    return pairs


def test_score_pair_matches_reference(rng):
    for gold, test in oracle_pairs(rng):
        assert score_pair(gold, test) == reference_score_pair(gold, test), (gold, test)
    for gold, _ in oracle_pairs(rng):
        assert outermost(gold) == _reference_brackets(gold, False)
    for gold, _ in oracle_pairs(rng):
        assert brackets(gold) == _reference_brackets(gold, True)


def test_score_corpus_matches_reference(rng):
    golds, tests = zip(*oracle_pairs(rng))
    want = [reference_score_pair(g, s) for g, s in zip(golds, tests)]
    for max_length in (None, 4):
        kept = [s for s in want if max_length is None or s.length <= max_length]
        assert score_corpus(golds, tests, max_length) == (aggregate(kept), len(kept))


def test_score_pair_checks_yields():
    with pytest.raises(YieldMismatchError):
        score_pair(t("(S a b)"), t("(S a c)"))


def test_crossing_matches_all_pairs_on_random_span_sets(rng):
    def spans(n):
        return {tuple(sorted(rng.sample(range(n + 1), 2))) for _ in range(rng.randint(0, 12))}

    for _ in range(3000):
        n = rng.randint(1, 14)
        test_spans, gold_spans = spans(n), spans(rng.randint(1, 14))
        for a, b in ((test_spans, gold_spans), (test_spans, set()), (set(), gold_spans)):
            assert _crossing(a, b) == all_pairs_crossing(a, b), (a, b)
    # A gold tree whose only bracket is the ROOT wrapper has no spans.
    assert _crossing({(0, 2), (1, 3), (2, 5)}, set()) == 0
    assert _crossing(set(), set()) == 0
