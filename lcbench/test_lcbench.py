"""Tests of the benchmark's corpus generator, reference computations and
speed correction.

Run from the root of the checkout: ``python3 -m pytest lcbench -q``.
"""

import random
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import reference as ref  # noqa: E402
import speed  # noqa: E402
import treegen  # noqa: E402
from plcg.evalb import score_corpus  # noqa: E402
from plcg.induction import induce_delta_model, induce_pcfg, induce_plcg  # noqa: E402
from plcg.transforms import binarize_tree  # noqa: E402
from plcg.treebank import (  # noqa: E402
    PreprocessOptions, iter_local_trees, leaves, preprocess_corpus, read_trees,
    to_pos_tree, write_tree,
)


@pytest.fixture(scope="module")
def corpus():
    gen = treegen.generate_corpus(1500, 3)
    pre, dropped = preprocess_corpus(read_trees(treegen.format_corpus(gen)), PreprocessOptions())
    assert dropped == 0
    return gen, [to_pos_tree(t) for t in pre]


def test_output_is_deterministic_per_seed():
    a = treegen.format_corpus(treegen.generate_corpus(40, 7))
    assert a == treegen.format_corpus(treegen.generate_corpus(40, 7))
    assert a != treegen.format_corpus(treegen.generate_corpus(40, 8))


def test_raw_trees_need_preprocessing():
    text = treegen.format_corpus(treegen.generate_corpus(300, 5))
    assert "-NONE-" in text and "NP-SBJ" in text and "\n " in text
    assert text.startswith("( (")


def test_tags_and_categories(corpus):
    _, tag_trees = corpus
    tags, cats = set(), set()
    for t in tag_trees:
        tags.update(leaves(t))
        cats.update(lhs for lhs, _ in iter_local_trees(t))
    assert tags == set(treegen.TAGS) and len(tags) == 45
    assert cats - {"ROOT"} == set(treegen.CATEGORIES) and len(cats) == 26


def test_lengths_in_range(corpus):
    _, tag_trees = corpus
    lengths = [len(leaves(t)) for t in tag_trees]
    assert min(lengths) >= 10 and max(lengths) <= 40
    assert 14 < sum(lengths) / len(lengths) < 22


def test_rules_are_flat_with_unary_chains_but_no_self_loop(corpus):
    _, tag_trees = corpus
    rules = Counter(r for t in tag_trees for r in iter_local_trees(t))
    assert not [r for r in rules if r[1] == (r[0],)]
    assert max(len(rhs) for _, rhs in rules) >= 5
    phrasal = set(treegen.CATEGORIES)
    unary_phrasal = {(lhs, rhs[0]) for lhs, rhs in rules if len(rhs) == 1 and rhs[0] in phrasal}
    assert {("SBAR", "S"), ("S", "VP")} <= unary_phrasal


def test_np_shape_depends_on_position():
    rng = random.Random(11)
    gen = treegen._Gen(rng)
    def pronoun_share(subject):
        nps = [gen.np(0, subject) for _ in range(3000)]
        return sum(len(kids) == 1 and kids[0][0] == "PRP" for _, kids in nps) / len(nps)
    assert pronoun_share(True) > 3 * pronoun_share(False)


def test_length_window():
    rng = random.Random(2)
    assert all(20 <= treegen.n_words(treegen.generate(rng, 20, 24)) <= 24 for _ in range(30))


def test_reference_preprocessing_matches_program(corpus):
    gen, tag_trees = corpus
    own = [ref.fmt(ref.tag_tree(ref.preprocess(t))) for t in gen]
    assert own == [write_tree(t) for t in tag_trees]


def test_reference_binarization_matches_program(corpus):
    gen, tag_trees = corpus
    for g, t in zip(gen[:300], tag_trees):
        assert ref.fmt(ref.binarize(ref.tag_tree(ref.preprocess(g)))) == write_tree(binarize_tree(t))


def test_expected_totals_match_induced_counts(corpus):
    gen, tag_trees = corpus
    own = [ref.tag_tree(ref.preprocess(t)) for t in gen[:300]]
    trees = tag_trees[:300]
    assert ref.model_totals(induce_pcfg(trees)) == ref.expected_totals("pcfg", own)
    assert ref.model_totals(induce_plcg(trees)) == ref.expected_totals("plcg", own)
    binarized = [binarize_tree(t) for t in trees]
    assert ref.model_totals(induce_delta_model(binarized)) == ref.expected_totals(
        "delta", [ref.binarize(t) for t in own])


def test_bracket_scores_match_evalb(corpus):
    gen, _ = corpus
    rng = random.Random(4)
    golds = [ref.preprocess(t) for t in gen[:400]]
    tests = [ref.perturb(t, rng, treegen.CATEGORIES) for t in golds]
    assert all(ref.leaves(g) == ref.leaves(t) for g, t in zip(golds, tests))
    assert sum(g != t for g, t in zip(golds, tests)) > 200
    report, _ = score_corpus(read_trees("".join(ref.fmt(t) for t in golds)),
                             read_trees("".join(ref.fmt(t) for t in tests)))
    want = ref.bracket_scores(golds, tests)
    for key, value in want.items():
        assert getattr(report, key) == value, key
    assert want["labelled_recall"] < 0.95


def test_pcfg_counts_log_prob(corpus):
    gen, tag_trees = corpus
    own = [ref.tag_tree(ref.preprocess(t)) for t in gen]
    counts = ref.PcfgCounts(own)
    model = induce_pcfg(tag_trees)
    from plcg.induction import pcfg_tree_log_prob
    for o, t in zip(own[:50], tag_trees):
        assert counts.log_prob(o) == pytest.approx(pcfg_tree_log_prob(t, model), abs=1e-9)


def test_clock_scales_by_the_blocks_around_an_operation():
    clock = speed.Clock()
    ref_s = speed.REF_BLOCK_S
    # Far blocks ran at reference speed, the ones around the operation at
    # half speed: only the WINDOW blocks on each side count.
    far = [ref_s] * 10
    near = [2 * ref_s] * (2 * speed.WINDOW)
    clock.blocks = far + near + far
    clock.ops = [(0.010, 0.5, len(far) + speed.WINDOW)]
    assert clock.seconds(0) == pytest.approx(0.005)
    assert clock.wall(0) == 0.5


def test_clock_times_in_cpu_seconds():
    clock = speed.Clock()
    result, op = clock.time(sum, range(200000))
    assert result == sum(range(200000))
    assert len(clock.blocks) == 2 and clock.seconds(op) > 0
