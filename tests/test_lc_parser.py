import itertools
import math

import pytest

from conftest import t
from plcg.corpus import generate_corpus
from plcg.induction import (
    delta_tree_log_prob,
    induce_delta_model,
    induce_plcg,
    plcg_tree_log_prob,
)
from plcg.lc_parser import (
    FOUND,
    SOUGHT,
    MoveStore,
    ParserState,
    _closure,
    _shift_table,
    beam_parse,
    exhaustive_lc_parse,
    initial_state,
    shift_successor,
    successors,
)
from plcg.derivation import LcMove
from plcg.transforms import binarize_corpus
from plcg.treebank import PreprocessOptions, leaves, preprocess_corpus, to_pos_tree


@pytest.fixture
def nested_model():
    """Attach/project competition at (S, S) with probability 3/4 : 1/4."""
    return induce_plcg([
        t("(T c (S a))"),
        t("(T c (S a))"),
        t("(T c (S (S a) b))"),
    ])


@pytest.fixture
def ambiguous_corpus():
    return [
        t("(S (NP PRP) (VP VB (NP DT NN)))"),
        t("(S (NP PRP) (VP VB (NP NN NN)))"),
        t("(S (NP (NP NN) (NP NN)) (VP VB))"),
        t("(S (NP NN) (VP VB (NP NN)))"),
    ]


class TestMoveStore:
    def test_prefix_sharing(self):
        store = MoveStore()
        a = store.append(MoveStore.ROOT, LcMove.shift("a"))
        b = store.append(a, LcMove.attach())
        c = store.append(a, LcMove.shift("b"))
        assert store.sequence(b) == [LcMove.shift("a"), LcMove.attach()]
        assert store.sequence(c) == [LcMove.shift("a"), LcMove.shift("b")]
        assert len(store) == 3

    def test_root_is_empty(self):
        assert MoveStore().sequence(MoveStore.ROOT) == []


class TestSuccessors:
    def test_shift_forced_on_sought_top(self, nested_model):
        state = initial_state("T")
        assert state.needs_shift
        assert list(successors(state, nested_model, MoveStore())) == []

    def test_shift_scores_by_goal(self, nested_model):
        store = MoveStore()
        state = shift_successor(initial_state("T"), "c", nested_model, store)
        assert state is not None
        assert state.log_prob == pytest.approx(0.0)  # P_shift(c | T) = 1
        assert shift_successor(initial_state("T"), "b", nested_model, store) is None

    def test_successor_probabilities_sum_to_one(self, nested_model):
        # At the (S, S) decision point, attach (3/4) and the S -> S b
        # projection (1/4) must exhaust the mass.
        store = MoveStore()
        state = initial_state("T")
        state = shift_successor(state, "c", nested_model, store)
        for st in successors(state, nested_model, store):  # project T -> c S
            state = st
        state = shift_successor(state, "a", nested_model, store)
        (state,) = successors(state, nested_model, store)  # project S -> a
        branches = list(successors(state, nested_model, store))
        total = sum(math.exp(st.log_prob - state.log_prob) for st in branches)
        assert total == pytest.approx(1.0)
        probs = sorted(math.exp(st.log_prob - state.log_prob) for st in branches)
        assert probs == pytest.approx([0.25, 0.75])

        # Every decision point seen in training, for every variant.
        trees, _ = preprocess_corpus(generate_corpus(500, seed=7), PreprocessOptions())
        trees = [to_pos_tree(tree) for tree in trees]
        plcg = induce_plcg(trees)
        delta = induce_delta_model(binarize_corpus(trees))
        points = [("base", plcg, ((SOUGHT, gc), (FOUND, lc, False)))
                  for lc, gc in plcg.att_counts]
        points += [("compose", plcg, stack) for _, _, stack in points]
        # A spent corner: a compose projection onto its goal that did not attach.
        points += [("compose", plcg, ((SOUGHT, gc), (FOUND, lc, True)))
                   for lc, gc in plcg.proj_counts if lc == gc]
        points += [("delta", delta, ((SOUGHT, "X"),) * (depth - 1)
                    + ((SOUGHT, gc), (FOUND, lc, True)))
                   for depth, lc, gc in delta.delta_counts]
        assert {variant for variant, _, _ in points} == {"base", "compose", "delta"}
        for variant, model, stack in points:
            state = ParserState(stack, MoveStore.ROOT, 0.0)
            branches = successors(state, model, MoveStore(), variant)
            total = math.fsum(math.exp(st.log_prob) for st in branches)
            assert total == pytest.approx(1.0), (variant, stack)


class TestExhaustive:
    def test_single_parse_probability(self, nested_model):
        parses = exhaustive_lc_parse(["c", "a"], nested_model)
        assert len(parses) == 1
        tree, lp = parses[0]
        assert tree == t("(T c (S a))")
        assert math.exp(lp) == pytest.approx(0.75)

    def test_derivation_scores_match_tree_scorer(self, nested_model):
        for length in range(2, 6):
            for tags in itertools.product("abc", repeat=length):
                for tree, lp in exhaustive_lc_parse(list(tags), nested_model):
                    assert lp == pytest.approx(plcg_tree_log_prob(tree, nested_model))

    def test_total_mass_of_proper_model(self, nested_model):
        # The nested fixture is consistent: mass 3/4 * (1/4)^k over the
        # sentence family c a b^k sums to one.
        total = 0.0
        for k in range(0, 20):
            for tree, lp in exhaustive_lc_parse(["c", "a"] + ["b"] * k, nested_model):
                total += math.exp(lp)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_no_parse(self, nested_model):
        assert exhaustive_lc_parse(["b"], nested_model) == []


class TestBeam:
    def test_oracle_equivalence_big_beam(self, ambiguous_corpus):
        model = induce_plcg(ambiguous_corpus)
        for tree in ambiguous_corpus:
            tags = leaves(tree)
            exact = exhaustive_lc_parse(tags, model)
            beamed = beam_parse(tags, model, k=100000, n_best=1)
            assert beamed
            assert beamed[0][0] == exact[0][0]
            assert beamed[0][1] == pytest.approx(exact[0][1], abs=1e-9)

    def test_monotone_in_beam_width(self, ambiguous_corpus):
        model = induce_plcg(ambiguous_corpus)
        tags = ["NN", "NN", "VB"]
        prev = float("-inf")
        for k in (1, 2, 4, 16, 256):
            parses = beam_parse(tags, model, k=k)
            if parses:
                assert parses[0][1] >= prev - 1e-12
                prev = parses[0][1]

    def test_n_best_ranked_and_distinct(self, ambiguous_corpus):
        # One flat-subject tree added so NN NN VB is genuinely ambiguous.
        model = induce_plcg(ambiguous_corpus + [t("(S (NP NN NN) (VP VB))")])
        parses = beam_parse(["NN", "NN", "VB"], model, k=10000, n_best=5)
        assert len(parses) >= 2  # nested-subject vs flat reading
        scores = [lp for _, lp in parses]
        assert scores == sorted(scores, reverse=True)
        trees = [tree for tree, _ in parses]
        assert len(set(trees)) == len(trees)

    def test_slots_go_to_states_that_can_shift(self):
        # The 120 states holding a projected Xi outrank every state seeking
        # C; a beam that truncated before dropping them lost every parse.
        model = induce_plcg([t("(S (X%d A) C)" % i) for i in range(120)])
        exact = exhaustive_lc_parse(["A", "C"], model)
        assert len(exact) == 120
        best = beam_parse(["A", "C"], model, k=100)
        assert best and best[0][0] == exact[0][0]
        assert best[0][1] == pytest.approx(exact[0][1])

    def test_invalid_arguments(self, nested_model):
        with pytest.raises(ValueError):
            beam_parse([], nested_model, k=1)
        with pytest.raises(ValueError):
            beam_parse(["c"], nested_model, k=0)

    def test_no_parse_returns_empty(self, nested_model):
        assert beam_parse(["b", "b"], nested_model, k=64) == []


class TestLookahead:
    @pytest.mark.parametrize("variant", ["base", "compose", "delta"])
    def test_closure_builds_only_states_that_can_shift_next_tag(self, variant):
        trees, _ = preprocess_corpus(generate_corpus(500, seed=7), PreprocessOptions())
        trees = [to_pos_tree(tree) for tree in trees]
        if variant == "delta":
            model = induce_delta_model(binarize_corpus(trees))
            base = model.base
        else:
            model = base = induce_plcg(trees)
        dead = 0
        for tags in [leaves(tree) for tree in trees[:8]]:
            store = MoveStore()
            beam = [initial_state(model.start)]
            for tag in tags:
                shifts = _shift_table(base, tag)
                pool = _closure(beam, model, store, variant, 50, tag=tag)
                # Only the carried-in states, with the last tag found on top,
                # may fail to shift; every state built can still shift tag.
                for st in pool[len(beam):]:
                    assert st.stack and (st.stack[-1][0] == FOUND or st.stack[-1] in shifts)
                # The closure without lookahead builds dead states, and the
                # same shiftable states in the same order.
                full = _closure(beam, model, store, variant, 50)
                dead += sum(st.needs_shift and st.stack[-1] not in shifts for st in full)
                live = [st for st in pool if st.stack and st.stack[-1] in shifts]
                assert [(st.stack, st.log_prob) for st in live] == [
                    (st.stack, st.log_prob) for st in full if st.stack and st.stack[-1] in shifts]
                live.sort(key=lambda st: -st.log_prob)
                beam = [shift_successor(st, tag, model, store) for st in live[:20]]
            assert beam
        assert dead > 0


class TestComposeVariant:
    def test_per_tree_probability_matches_base(self, ambiguous_corpus):
        model = induce_plcg(ambiguous_corpus)
        for tree in ambiguous_corpus:
            tags = leaves(tree)
            base = dict(exhaustive_lc_parse(tags, model, variant="base"))
            comp = dict(exhaustive_lc_parse(tags, model, variant="compose"))
            assert set(base) == set(comp)
            for key in base:
                assert base[key] == pytest.approx(comp[key], abs=1e-9)

    def test_bounded_stack_on_right_branching(self, nested_model):
        parses = beam_parse(["c", "a"] + ["b"] * 0, nested_model, k=10, variant="compose")
        assert parses


class TestDeltaVariant:
    def test_matches_tree_scorer(self, ambiguous_corpus):
        trees = binarize_corpus(ambiguous_corpus)
        model = induce_delta_model(trees)
        for tree in trees:
            tags = leaves(tree)
            parses = exhaustive_lc_parse(tags, model, variant="delta")
            scored = {tr: lp for tr, lp in parses}
            assert tree in scored
            assert scored[tree] == pytest.approx(delta_tree_log_prob(tree, model))

    def test_beam_agrees_with_exhaustive(self, ambiguous_corpus):
        trees = binarize_corpus(ambiguous_corpus)
        model = induce_delta_model(trees)
        tags = ["NN", "NN", "VB"]
        exact = exhaustive_lc_parse(tags, model, variant="delta")
        beamed = beam_parse(tags, model, k=100000, variant="delta")
        assert beamed and exact
        assert beamed[0][1] == pytest.approx(exact[0][1], abs=1e-9)

    def test_variant_requires_delta_model(self, nested_model):
        with pytest.raises(TypeError):
            beam_parse(["c", "a"], nested_model, k=4, variant="delta")
