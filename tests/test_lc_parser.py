import itertools
import math
import random

import pytest

from conftest import t
from oracles import random_tree
from plcg import lc_parser
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
    ParserState,
    StackTable,
    TooManyDerivationsError,
    _closure,
    _complete_states,
    _shift_table,
    beam_parse,
    exhaustive_lc_parse,
    initial_state,
    move_list,
    recover_tree,
    shift_successor,
    successors,
)
from plcg.derivation import ATTACH, SHIFT, derivation_events
from plcg.model_io import dumps, loads
from plcg.transforms import binarize_corpus
from plcg.treebank import (
    PreprocessOptions,
    Tree,
    leaves,
    preprocess_corpus,
    to_pos_tree,
    write_tree,
)


@pytest.fixture
def nested_model():
    """Attach/project competition at (S, S) with probability 3/4 : 1/4."""
    return induce_plcg([
        t("(T c (S a))"),
        t("(T c (S a))"),
        t("(T c (S (S a) b))"),
    ])


@pytest.fixture
def np_loop_model():
    """One NP -> NP tree among six: every found NP can project NP again."""
    return induce_plcg([
        t("(S (NP DT NN) (VP VB (NP PRP)))"),
        t("(S (NP (NP DT NN)) (VP VB))"),
        t("(S (NP PRP) (VP VB))"),
        t("(S (NP DT NN) (VP VB (NP DT NN)))"),
        t("(S (NP PRP) (VP VB (NP PRP)))"),
        t("(S (NP DT NN) (VP VB))"),
    ])


def sample_models(variant):
    """Tag-level trees of ``generate_corpus(500, seed=7)`` and the model of
    ``variant`` trained on them, with its base PLCG."""
    trees, _ = preprocess_corpus(generate_corpus(500, seed=7), PreprocessOptions())
    trees = [to_pos_tree(tree) for tree in trees]
    if variant == "delta":
        model = induce_delta_model(binarize_corpus(trees))
        return trees, model, model.base
    model = induce_plcg(trees)
    return trees, model, model


def state_of(stacks, entries, moves=None, log_prob=0.0) -> ParserState:
    """A state whose stack holds ``entries``, bottom first, interned in
    ``stacks``."""
    stack = 0
    for entry in entries:
        stack = stacks.push(stack, entry)
    return ParserState(stack, moves, log_prob)


def stack_of(stacks, state) -> tuple:
    """The entries of ``state``'s stack, bottom first, read from ``stacks``."""
    out, stack = [], state.stack
    while stack:
        out.append(stacks.top[stack])
        stack = stacks.below[stack]
    return tuple(reversed(out))


def can_shift(stacks, state, shifts) -> bool:
    """Whether ``state`` exposes a sought entry of the shift table ``shifts``."""
    stack = stack_of(stacks, state)
    return bool(stack) and stack[-1] in shifts


def count_built_states(monkeypatch) -> list[int]:
    """Patch ``successors`` to record how many states each call builds."""
    built = []
    real = lc_parser.successors

    def counting(*args, **kwargs):
        out = real(*args, **kwargs)
        built.append(len(out))
        return out

    monkeypatch.setattr(lc_parser, "successors", counting)
    return built


@pytest.fixture
def attachment_corpus():
    """Attachment and compound ambiguity, so derivations meet on equal
    stacks."""
    return [
        t("(S (NP PRP) (VP VB (NP DT NN) (PP IN (NP DT NN))))"),
        t("(S (NP PRP) (VP VB (NP (NP DT NN) (PP IN (NP DT NN)))))"),
        t("(S (NP PRP) (VP (VP VB (NP DT NN)) (PP IN (NP DT NN))))"),
        t("(S (NP (NP NN) (NP NN)) (VP VB))"),
        t("(S (NP NN NN) (VP VB (NP NN)))"),
        t("(S (NP (NP DT NN) (PP IN (NP NN NN))) (VP VB))"),
    ]


# Two PP attachments: three readings under the attachment corpus.
TWO_PPS = ["PRP", "VB", "DT", "NN", "IN", "DT", "NN", "IN", "DT", "NN"]


@pytest.fixture
def ambiguous_corpus():
    return [
        t("(S (NP PRP) (VP VB (NP DT NN)))"),
        t("(S (NP PRP) (VP VB (NP NN NN)))"),
        t("(S (NP (NP NN) (NP NN)) (VP VB))"),
        t("(S (NP NN) (VP VB (NP NN)))"),
    ]


def reference_closure(states, model, stacks, tag=None):
    """The exhaustive closure as it was before it shared the beam's loop:
    every state in build order, complete ones among them, until no state is
    built, and TooManyDerivationsError once more than ``STATE_LIMIT`` are
    built."""
    top = stacks.top
    out = list(states)
    frontier = list(states)
    while frontier:
        nxt = []
        for st in frontier:
            if st.stack and top[st.stack][0] == FOUND:
                nxt.extend(lc_parser.successors(st, model, stacks, tag))
        out.extend(nxt)
        if len(out) > lc_parser.STATE_LIMIT:
            raise TooManyDerivationsError("state count exceeded %d" % lc_parser.STATE_LIMIT)
        frontier = nxt
    return out


def closure_pools(model, sentence, closure, width=20):
    """The states, as (stack, log-prob, moves), that ``closure`` returns at
    each word boundary of ``sentence`` and after its last tag, along a beam
    of the ``width`` best states that can shift each tag."""
    base = model.base
    stacks = StackTable()
    beam = [initial_state(model.start, stacks)]
    pools = []
    for tag in list(sentence) + [None]:
        pool = closure(beam, model, stacks, tag)
        pools.append([(stack_of(stacks, st), st.log_prob, move_list(st.moves)) for st in pool])
        if tag is not None:
            shifts = _shift_table(base, tag)
            live = sorted((st for st in pool if can_shift(stacks, st, shifts)),
                          key=lc_parser._rank)
            beam = [shift_successor(st, tag, shifts, stacks) for st in live[:width]]
    return pools


@pytest.fixture
def cyclic_model():
    """Random trees under a ROOT, with unary cycles (S -> S, NP -> PP -> NP,
    ...), and a three-tag sentence of theirs."""
    rng = random.Random(0)
    trees = [Tree("ROOT", (random_tree(rng),)) for _ in range(30)]
    return induce_plcg(trees), next(tags for tags in map(leaves, trees) if len(tags) == 3)


class TestMoveList:
    def test_prefix_sharing(self):
        shift_a = (SHIFT, None, "T", None, "a", None, False)
        shift_b = (SHIFT, None, "T", None, "b", None, False)
        attach = (ATTACH, "a", "a", None, None, None, False)
        a = (shift_a, None)
        b = (attach, a)
        c = (shift_b, a)
        assert move_list(b) == [shift_a, attach]
        assert move_list(c) == [shift_a, shift_b]
        assert b[1] is c[1]

    def test_empty_derivation(self):
        assert move_list(None) == []
        assert move_list(initial_state("T", StackTable()).moves) == []

    def test_successors_share_the_parent_derivation(self, nested_model):
        stacks = StackTable()
        state = shift_successor(initial_state("T", stacks), "c",
                                _shift_table(nested_model, "c"), stacks)
        (child,) = successors(state, nested_model, stacks)
        assert child.moves[1] is state.moves
        assert len(move_list(child.moves)) == 2

    def test_parser_moves_are_gold_events_without_depth(self):
        # The best PLCG parse of each beam-golden sentence: its moves are
        # the events of its tree's gold derivation, with depth blanked.
        trees, model, _ = sample_models("base")
        for tags in [leaves(tree) for tree in trees[:60]]:
            best = _complete_states(tags, model, None, 10)[0]
            moves = move_list(best.moves)
            tree = recover_tree(best.moves, model.start)
            assert moves == [ev[:3] + (None,) + ev[4:] for ev in derivation_events(tree)]


class TestSuccessors:
    def test_shift_forced_on_sought_top(self, nested_model):
        stacks = StackTable()
        state = initial_state("T", stacks)
        assert stack_of(stacks, state) == ((SOUGHT, "T"),)
        assert list(successors(state, nested_model, stacks)) == []

    def test_shift_scores_by_goal(self, nested_model):
        stacks = StackTable()
        state = shift_successor(initial_state("T", stacks), "c",
                                _shift_table(nested_model, "c"), stacks)
        assert state is not None
        assert state.log_prob == pytest.approx(0.0)  # P_shift(c | T) = 1
        assert shift_successor(initial_state("T", stacks), "b",
                               _shift_table(nested_model, "b"), stacks) is None

    def test_successor_probabilities_sum_to_one(self, nested_model):
        # At the (S, S) decision point, attach (3/4) and the S -> S b
        # projection (1/4) must exhaust the mass.
        stacks = StackTable()
        state = initial_state("T", stacks)
        state = shift_successor(state, "c", _shift_table(nested_model, "c"), stacks)
        for st in successors(state, nested_model, stacks):  # project T -> c S
            state = st
        state = shift_successor(state, "a", _shift_table(nested_model, "a"), stacks)
        (state,) = successors(state, nested_model, stacks)  # project S -> a
        branches = list(successors(state, nested_model, stacks))
        total = sum(math.exp(st.log_prob - state.log_prob) for st in branches)
        assert total == pytest.approx(1.0)
        probs = sorted(math.exp(st.log_prob - state.log_prob) for st in branches)
        assert probs == pytest.approx([0.25, 0.75])

        # Every decision point seen in training, for every variant.
        trees, _ = preprocess_corpus(generate_corpus(500, seed=7), PreprocessOptions())
        trees = [to_pos_tree(tree) for tree in trees]
        plcg = induce_plcg(trees)
        delta = induce_delta_model(binarize_corpus(trees))
        points = [("base", plcg, ((SOUGHT, gc), (FOUND, lc)))
                  for lc, gc in plcg.att_counts]
        points += [("delta", delta, ((SOUGHT, "X"),) * (depth - 1)
                    + ((SOUGHT, gc), (FOUND, lc)))
                   for depth, lc, gc in delta.delta_counts]
        assert {variant for variant, _, _ in points} == {"base", "delta"}
        stacks = StackTable()
        for variant, model, stack in points:
            branches = successors(state_of(stacks, stack), model, stacks)
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
    def test_oracle_equivalence_big_beam(self, nested_model, ambiguous_corpus):
        corpora = [ambiguous_corpus, ambiguous_corpus + [t("(S (NP NN NN) (VP VB))")]]
        plcgs = [induce_plcg(corpus) for corpus in corpora]
        deltas = [induce_delta_model(binarize_corpus(corpus)) for corpus in corpora]
        slots = induce_plcg([t("(S (X%d A) C)" % i) for i in range(120)])
        sentences = [leaves(tree) for tree in ambiguous_corpus] + [["NN", "NN", "VB"]]
        cases = [(nested_model, "base", list(tags))
                 for length in range(2, 6) for tags in itertools.product("abc", repeat=length)]
        cases += [(plcg, "base", tags) for plcg in plcgs for tags in sentences]
        cases += [(slots, "base", ["A", "C"])]
        cases += [(delta, "delta", tags) for delta in deltas for tags in sentences]
        parsed, ranked = 0, set()
        for model, variant, tags in cases:
            # The beam's list is the exhaustive one with each debinarized
            # tree at its best score.
            exact: dict = {}
            for tree, lp in exhaustive_lc_parse(tags, model, variant):
                exact.setdefault(write_tree(tree), lp)
            beamed = beam_parse(tags, model, k=100000, n_best=5, variant=variant)
            assert [(write_tree(tree), lp) for tree, lp in beamed] == list(exact.items())[:5]
            parsed += bool(exact)
            if len(beamed) > 1:
                ranked.add(variant)
        assert parsed >= 10
        assert ranked == {"base", "delta"}

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

    @pytest.mark.parametrize("variant", ["compose", "bsae", "Base"])
    def test_unknown_variant_raises(self, nested_model, variant):
        with pytest.raises(ValueError, match="unknown variant"):
            beam_parse(["c", "a"], nested_model, k=4, variant=variant)
        with pytest.raises(ValueError, match="unknown variant"):
            exhaustive_lc_parse(["c", "a"], nested_model, variant=variant)

    def test_no_parse_returns_empty(self, nested_model):
        assert beam_parse(["b", "b"], nested_model, k=64) == []


class TestExhaustiveClosure:
    # _closure without keep against the exhaustive loop it replaced.
    @staticmethod
    def assert_closures_agree(model, tags):
        """_closure's pools are the reference's with complete states moved
        last, each list in build order; returns those pools."""
        ref = [sorted(pool, key=lambda st: not st[0])
               for pool in closure_pools(model, tags, reference_closure)]
        assert closure_pools(model, tags, _closure) == ref
        return ref

    def test_same_states_as_the_reference_closure(self, nested_model):
        cases = []
        for variant in ("base", "delta"):
            trees, model, _ = sample_models(variant)
            cases += [(model, leaves(tree)) for tree in trees[:8]]
        cases += [(nested_model, tags) for length in range(2, 5)
                  for tags in itertools.product("abc", repeat=length)]
        states = complete = 0
        for model, tags in cases:
            pools = self.assert_closures_agree(model, tags)
            states += sum(map(len, pools))
            complete += sum(not st[0] for st in pools[-1])
        assert states > 500 and complete > 10

    def test_state_limit_is_passed_at_the_same_point(self, nested_model, cyclic_model,
                                                      monkeypatch):
        # At every limit up to past the states these parses hold, both
        # closures raise, or both do not, after building the same states.
        built = count_built_states(monkeypatch)
        raised = set()
        for model, tags in ((nested_model, ["c", "a", "b", "b", "b"]), cyclic_model):
            for limit in range(150):
                monkeypatch.setattr(lc_parser, "STATE_LIMIT", limit)
                outcomes = []
                for closure in (reference_closure, _closure):
                    built.clear()
                    try:
                        closure_pools(model, tags, closure)
                        outcomes.append((False, sum(built)))
                    except TooManyDerivationsError:
                        outcomes.append((True, sum(built)))
                assert outcomes[0] == outcomes[1], (tags, limit)
                raised.add(outcomes[0][0])
        assert raised == {False, True}


class TestLookahead:
    @pytest.mark.parametrize("variant", ["base", "delta"])
    def test_closure_builds_only_states_that_can_shift_next_tag(self, variant):
        trees, model, base = sample_models(variant)
        dead = 0
        for tags in [leaves(tree) for tree in trees[:8]]:
            stacks = StackTable()
            beam = [initial_state(model.start, stacks)]
            for tag in tags:
                shifts = _shift_table(base, tag)
                pool = _closure(beam, model, stacks, tag)
                # Only the carried-in states, with the last tag found on top,
                # may fail to shift; every state built can still shift tag.
                for st in pool[len(beam):]:
                    stack = stack_of(stacks, st)
                    assert stack and (stack[-1][0] == FOUND or stack[-1] in shifts)
                # The closure without lookahead builds dead states, and the
                # same shiftable states in the same order.
                full = _closure(beam, model, stacks)
                dead += sum(bool(stack) and stack[-1][0] == SOUGHT and stack[-1] not in shifts
                            for stack in (stack_of(stacks, st) for st in full))
                live = [st for st in pool if can_shift(stacks, st, shifts)]
                assert [(stack_of(stacks, st), st.log_prob) for st in live] == [
                    (stack_of(stacks, st), st.log_prob) for st in full
                    if can_shift(stacks, st, shifts)]
                live.sort(key=lambda st: -st.log_prob)
                beam = [shift_successor(st, tag, shifts, stacks) for st in live[:20]]
            assert beam
        assert dead > 0


class TestBounds:
    def test_state_limit_stops_exhaustive_parse(self, ambiguous_corpus, monkeypatch):
        model = induce_plcg(ambiguous_corpus)
        tags = ["NN", "NN", "VB"]
        assert exhaustive_lc_parse(tags, model)
        monkeypatch.setattr(lc_parser, "STATE_LIMIT", 3)
        with pytest.raises(TooManyDerivationsError):
            exhaustive_lc_parse(tags, model)
        # The beam keeps k states a boundary and is not bounded by it.
        assert beam_parse(tags, model, k=100)

    def test_unary_self_loop_makes_the_exhaustive_parse_raise(self, np_loop_model, monkeypatch):
        # The NP -> NP chain never ends, so the exhaustive parse has no
        # finite list of derivations: it raises instead of returning a
        # truncated one.  The limit is lowered to keep the test fast.
        model = np_loop_model
        gold = t("(S (NP DT NN) (VP VB (NP PRP)))")
        best = beam_parse(leaves(gold), model, k=100)
        assert best and best[0][0] == gold
        monkeypatch.setattr(lc_parser, "STATE_LIMIT", 2000)
        with pytest.raises(TooManyDerivationsError):
            exhaustive_lc_parse(leaves(gold), model)
        stacks = StackTable()
        found_np = state_of(stacks, ((SOUGHT, "S"), (FOUND, "NP")))
        with pytest.raises(TooManyDerivationsError):
            _closure([found_np], model, stacks, "VB")

    def test_deep_right_branching_chain_parses(self):
        # After the last tag, one closure attaches the chain's 60 levels in
        # a row, and ends by itself.
        text = "(S a)"
        for _ in range(59):
            text = "(S a %s)" % text
        gold = t(text)
        model = induce_plcg([gold])
        tags = leaves(gold)
        lp = plcg_tree_log_prob(gold, model)
        for n_best in (1, 3):
            parses = beam_parse(tags, model, k=100, n_best=n_best)
            assert [tree for tree, _ in parses] == [gold]
            assert parses[0][1] == pytest.approx(lp)
        [(tree, tree_lp)] = exhaustive_lc_parse(tags, model)
        assert tree == gold and tree_lp == pytest.approx(lp)

    def test_recombined_closure_leaves_unary_self_loop(self, np_loop_model, monkeypatch):
        # NP -> NP cannot beat the found NP it projects from, so the beam's
        # closure stops after the one projection that can shift VB.
        built = count_built_states(monkeypatch)
        stacks = StackTable()
        found_np = state_of(stacks, ((SOUGHT, "S"), (FOUND, "NP")))
        pool = _closure([found_np], np_loop_model, stacks, "VB", keep=1)
        assert max(len(move_list(st.moves)) for st in pool) == 1
        assert 0 < sum(built) < 5

    def test_cyclic_unaries_close(self, cyclic_model, monkeypatch):
        # The unrecombined closure did not finish this sentence in 40 s.
        model, tags = cyclic_model
        built = count_built_states(monkeypatch)
        parses = beam_parse(tags, model, k=100)
        assert parses
        tree, lp = parses[0]
        assert lp == pytest.approx(plcg_tree_log_prob(tree, model))
        assert 0 < sum(built) < 100000


class TestStackTable:
    def test_push_interns_and_unfolding_inverts(self):
        stacks = StackTable()
        entries = ((SOUGHT, "S"), (FOUND, "NP"), (SOUGHT, "VP"))
        state = state_of(stacks, entries)
        stack = state.stack
        assert stack_of(stacks, state) == entries
        assert state_of(stacks, ()).stack == 0 and stack_of(stacks, state_of(stacks, ())) == ()
        assert stacks.depth[stack] == 3
        assert state_of(stacks, entries).stack == stack
        assert state_of(stacks, entries[:2]).stack == stacks.below[stack]
        # A pop then the same push finds the same id; another entry does not.
        assert stacks.push(stacks.below[stack], (SOUGHT, "VP")) == stack
        other = ParserState(stacks.push(stacks.below[stack], (SOUGHT, "PP")), None, 0.0)
        assert other.stack != stack
        assert stack_of(stacks, other) == entries[:2] + ((SOUGHT, "PP"),)

    @pytest.mark.parametrize("variant", ["base", "delta"])
    def test_equal_stacks_get_one_id(self, variant, attachment_corpus):
        if variant == "delta":
            model = induce_delta_model(binarize_corpus(attachment_corpus))
            base = model.base
        else:
            model = base = induce_plcg(attachment_corpus)
        shared = 0
        for tags in [leaves(tree) for tree in attachment_corpus] + [TWO_PPS]:
            stacks = StackTable()
            beam = [initial_state(model.start, stacks)]
            for tag in tags:
                full = _closure(beam, model, stacks, tag)
                ids: dict = {}
                for st in full:
                    ids.setdefault(stack_of(stacks, st), set()).add(st.stack)
                assert all(len(group) == 1 for group in ids.values())
                assert len({st.stack for st in full}) == len(ids)
                shared += len(full) - len(ids)
                shifts = _shift_table(base, tag)
                live = sorted((st for st in full if can_shift(stacks, st, shifts)),
                              key=lambda st: -st.log_prob)
                beam = [shift_successor(st, tag, shifts, stacks) for st in live[:20]]
            assert beam
        # Some of those stacks were reached by more than one derivation.
        assert shared > 0

    @pytest.mark.parametrize("variant", ["base", "delta"])
    def test_unfolded_stacks_are_the_tuple_machine_stacks(self, variant):
        # The tuple machine: a successor's stack is ``stack[:-pop] + push``
        # for each row of the state's move table, and a shift's is the stack
        # with the found tag on top.
        trees, model, base = sample_models(variant)
        checked = 0
        for tags in [leaves(tree) for tree in trees[:8]]:
            stacks = StackTable()
            beam = [initial_state(model.start, stacks)]
            for tag in tags:
                pool = _closure(beam, model, stacks, tag)
                for st in pool:
                    stack = stack_of(stacks, st)
                    children = successors(st, model, stacks, tag)
                    if not stack or stack[-1][0] == SOUGHT:
                        assert children == []
                        continue
                    key = (stack[-1][1], stack[-2][1],
                           len(stack) - 1 if variant == "delta" else None, tag,
                           stack[-3] if len(stack) > 2 else None)
                    rows = model.move_tables[key]
                    assert [(stack_of(stacks, child), child.log_prob) for child in children] == [
                        (stack[:-pop] + push, st.log_prob + lp) for _, pop, push, lp in rows]
                    checked += len(children)
                shifts = _shift_table(base, tag)
                live = [st for st in pool if can_shift(stacks, st, shifts)]
                beam = [shift_successor(st, tag, shifts, stacks) for st in live[:20]]
                assert [stack_of(stacks, st) for st in beam] == [
                    stack_of(stacks, st) + ((FOUND, tag),) for st in live[:20]]
            assert beam
        assert checked > 0

    @pytest.mark.parametrize("variant", ["base", "delta"])
    def test_parse_does_not_depend_on_earlier_parses(self, variant, attachment_corpus):
        corpus = attachment_corpus
        model = induce_delta_model(binarize_corpus(corpus)) if variant == "delta" \
            else induce_plcg(corpus)
        text = dumps(model)
        first = [leaves(tree) for tree in corpus] + [TWO_PPS]
        for second in ([leaves(tree) for tree in corpus[::-1]]
                       + [TWO_PPS, ["NN", "NN", "NN", "VB", "NN", "NN", "IN", "NN", "NN"]]):
            for n_best in (1, 3):
                used = loads(text)
                for tags in first:
                    beam_parse(tags, used, k=10, n_best=n_best, variant=variant)
                fresh = loads(text)
                again = beam_parse(second, used, k=10, n_best=n_best, variant=variant)
                assert again == beam_parse(second, fresh, k=10, n_best=n_best, variant=variant)
                # The move tables hold entries, never a parse's stack ids;
                # a delta model's shift tables live on its base.
                pairs = [(fresh, used)] + ([(fresh.base, used.base)] if variant == "delta" else [])
                for new, old in pairs:
                    assert new.move_tables
                    for key, table in new.move_tables.items():
                        assert old.move_tables[key] == table


class TestRecombination:
    def test_closure_keeps_the_best_states_and_the_earlier_on_ties(self, nested_model):
        # Equal sought stacks, carried in out of order; none can expand.
        lps = [-2.0, -1.0, -3.0, -0.5, -1.0, -0.7]
        stacks = StackTable()
        states = [state_of(stacks, ((SOUGHT, "T"),), i, lp) for i, lp in enumerate(lps)]
        for keep, marks in ((1, [3]), (2, [3, 5]), (3, [3, 5, 1]), (5, [3, 5, 1, 4, 0])):
            held = _closure(states, nested_model, stacks, keep=keep)
            assert sorted(st.moves for st in held) == sorted(marks)

    @pytest.mark.parametrize("keep, expanded", [(1, [2]), (2, [1, 2]), (None, [0, 1, 2])])
    def test_a_state_pushed_out_in_its_round_is_not_expanded(
            self, nested_model, monkeypatch, keep, expanded):
        # Found corners on one stack, offered worst first: with ``keep``
        # held, each pushes the worst out before any of them expands.
        stacks = StackTable()
        states = [state_of(stacks, ((SOUGHT, "T"), (FOUND, "c")), i, lp)
                  for i, lp in enumerate([-3.0, -2.0, -1.0])]
        calls = []
        real = lc_parser.successors

        def recording(state, *args, **kwargs):
            calls.append(state.moves)
            return real(state, *args, **kwargs)

        monkeypatch.setattr(lc_parser, "successors", recording)
        held = _closure(states, nested_model, stacks, keep=keep)
        assert [mark for mark in calls if mark in (0, 1, 2)] == expanded
        assert [st.moves for st in held if st.moves in (0, 1, 2)] == expanded

    def test_ties_across_stacks_go_to_the_earlier_built_state(self, nested_model):
        # X' beats X on stack A and ties Y, built before it on stack B; the
        # beam's stable sort must rank Y first.  None can expand.
        a, b = ((SOUGHT, "A"),), ((SOUGHT, "B"),)
        stacks = StackTable()
        states = [state_of(stacks, a, 0, -2.0), state_of(stacks, b, 1, -1.0),
                  state_of(stacks, a, 2, -1.0)]
        for keep, marks in ((1, [1, 2]), (3, [1, 2, 0])):
            held = _closure(states, nested_model, stacks, keep=keep)
            assert [st.moves for st in sorted(held, key=lc_parser._rank)] == marks

    @pytest.mark.parametrize("variant", ["base", "delta"])
    def test_closure_holds_the_best_states_of_every_stack(self, variant, attachment_corpus):
        trees, model, base = sample_models(variant)
        cases = [(model, base, [leaves(tree) for tree in trees[:8]])]
        if variant == "delta":
            model = induce_delta_model(binarize_corpus(attachment_corpus))
            base = model.base
        else:
            model = base = induce_plcg(attachment_corpus)
        cases.append((model, base, [leaves(tree) for tree in attachment_corpus] + [TWO_PPS]))
        shared = 0
        for model, base, sentences in cases:
            for tags in sentences:
                stacks = StackTable()
                beam = [initial_state(model.start, stacks)]
                for tag in tags:
                    full = _closure(beam, model, stacks, tag)
                    scores: dict = {}
                    for st in full:
                        scores.setdefault(stack_of(stacks, st), []).append(st.log_prob)
                    shared += len(full) - len(scores)
                    # keep=1 is the 1-best beam's; keep=3 an n-best one's.
                    for keep in (1, 3):
                        held: dict = {}
                        for st in _closure(beam, model, stacks, tag, keep=keep):
                            held.setdefault(stack_of(stacks, st), []).append(st.log_prob)
                        assert held.keys() == scores.keys()
                        for stack, lps in scores.items():
                            best = sorted(lps, reverse=True)[:keep]
                            assert sorted(held[stack], reverse=True) == best
                    shifts = _shift_table(base, tag)
                    live = sorted((st for st in full if can_shift(stacks, st, shifts)),
                                  key=lambda st: -st.log_prob)
                    beam = [shift_successor(st, tag, shifts, stacks) for st in live[:20]]
                assert beam
        assert shared > 0


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

    def test_n_best_counts_trees_not_derivations(self):
        # A sought X takes (X a) by a composed projection, or by a projection
        # and an attach, so each tree below has two derivations, and the
        # best two complete derivations of "a a" are one tree.
        model = induce_delta_model(binarize_corpus([
            t("(S (X a) X)"), t("(S a (X a))"), t("(S a (X (X a) X))")]))
        shared = 0
        for length in range(1, 4):
            for tags in itertools.product(["a", "X"], repeat=length):
                derivations = exhaustive_lc_parse(list(tags), model, "delta")
                exact: dict = {}
                for tree, lp in derivations:
                    exact.setdefault(write_tree(tree), lp)
                shared += len(derivations) - len(exact)
                for n_best in (1, 2, 3):
                    beamed = beam_parse(list(tags), model, k=1000, n_best=n_best,
                                        variant="delta")
                    assert [(write_tree(tree), lp) for tree, lp in beamed] == \
                        list(exact.items())[:n_best]
        assert shared > 0
        assert len(beam_parse(["a", "a"], model, k=1000, n_best=2, variant="delta")) == 2

    def test_variant_requires_delta_model(self, nested_model):
        with pytest.raises(TypeError):
            beam_parse(["c", "a"], nested_model, k=4, variant="delta")

    def test_variant_must_name_the_models_machine(self, ambiguous_corpus):
        model = induce_delta_model(binarize_corpus(ambiguous_corpus))
        tags = ["NN", "NN", "VB"]
        with pytest.raises(TypeError):
            beam_parse(tags, model, k=4, variant="base")
        with pytest.raises(TypeError):
            exhaustive_lc_parse(tags, model, variant="base")
        assert beam_parse(tags, model, k=4, variant="delta") == beam_parse(tags, model, k=4)
