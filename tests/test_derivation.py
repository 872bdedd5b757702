import random
from typing import NamedTuple, Optional

import pytest

from conftest import chain, t
from oracles import max_stack_depth, random_tree
from plcg.derivation import (
    ATTACH,
    PROJECT,
    SHIFT,
    ReplayError,
    derivation_events,
    replay,
    stack_delta,
)
from plcg.grammar_types import Rule
from plcg.transforms import binarize_tree


class Move(NamedTuple):
    """The oracle's own move record: shift(symbol), project(rule), attach."""

    kind: str
    symbol: Optional[str] = None
    rule: Optional[Rule] = None
    compose: bool = False


class Event(NamedTuple):
    """A move of derivation_events with its fields named."""

    kind: str
    lc: Optional[str]
    gc: str
    depth: Optional[int]
    label: Optional[str]
    rhs: Optional[tuple[str, ...]]
    compose: bool


class MoveEvent(NamedTuple):
    """A move with its context, in the event shape derivation_events had
    before events held raw labels."""

    move: Move
    lc: Optional[str]
    gc: str
    depth: int


def reference_move_events(t, compose=False):
    """Oracle for derivation_events, walked in two passes: list the moves by
    recursion over the tree, then run a symbolic stack over them to recover
    each move's (left corner, goal, depth) context.  Yields a MoveEvent, with
    a new Move and Rule, per move."""
    moves = []

    def derive(node):
        if node.is_leaf:
            moves.append(Move("shift", symbol=node.label))
            moves.append(Move("attach"))
            return
        spine = [node]
        while not spine[-1].children[0].is_leaf:
            spine.append(spine[-1].children[0])
        moves.append(Move("shift", symbol=spine[-1].children[0].label))
        for nd in reversed(spine):
            rule = Rule(nd.label, tuple(c.label for c in nd.children))
            moves.append(Move("project", rule=rule, compose=compose and nd is node))
            for sibling in nd.children[1:]:
                derive(sibling)
        if not compose:
            moves.append(Move("attach"))

    derive(t)
    stack = [("s", t.label)]
    for mv in moves:
        if mv.kind == "shift":
            gc = stack[-1][1]
            yield MoveEvent(mv, None, gc, len(stack))
            stack.append(("f", mv.symbol))
        elif mv.kind == "project":
            lc = stack[-1][1]
            gc = stack[-2][1]
            yield MoveEvent(mv, lc, gc, len(stack) - 1)
            stack.pop()
            if mv.compose:
                stack.pop()
            else:
                stack.append(("f", mv.rule.lhs))
            for sym in reversed(mv.rule.rhs[1:]):
                stack.append(("s", sym))
        else:  # attach
            lc = stack[-1][1]
            gc = stack[-2][1]
            yield MoveEvent(mv, lc, gc, len(stack) - 1)
            stack.pop()
            stack.pop()


def reference_events(t, compose=False):
    """The oracle's events in derivation_events' flat shape."""
    for mv, lc, gc, depth in reference_move_events(t, compose):
        if mv.kind == "shift":
            yield (SHIFT, None, gc, depth, mv.symbol, None, False)
        elif mv.kind == "project":
            yield (PROJECT, lc, gc, depth, mv.rule.lhs, mv.rule.rhs, mv.compose)
        else:
            yield (ATTACH, lc, gc, depth, None, None, False)


def events(t, compose=False):
    """derivation_events with named fields."""
    return [Event(*ev) for ev in derivation_events(t, compose=compose)]


class TestDerivation:
    def test_single_preterminal(self):
        assert list(derivation_events(t("(NN dog)"))) == [
            (SHIFT, None, "NN", 1, "dog", None, False),
            (PROJECT, "dog", "NN", 1, "NN", ("dog",), False),
            (ATTACH, "NN", "NN", 1, None, None, False),
        ]

    def test_binary_tree_move_order(self):
        moves = events(t("(S (NP a) (VP b))"))
        kinds = [(m.kind, m.label, m.rhs) for m in moves]
        assert kinds == [
            ("shift", "a", None),
            ("project", "NP", ("a",)),
            ("project", "S", ("NP", "VP")),
            ("shift", "b", None),
            ("project", "VP", ("b",)),
            ("attach", None, None),
            ("attach", None, None),
        ]

    def test_bare_leaf_goal_is_shift_attach(self):
        assert list(derivation_events(t("(S a b)"))) == [
            (SHIFT, None, "S", 1, "a", None, False),
            (PROJECT, "a", "S", 1, "S", ("a", "b"), False),
            (SHIFT, None, "b", 3, "b", None, False),
            (ATTACH, "b", "b", 3, None, None, False),
            (ATTACH, "S", "S", 1, None, None, False),
        ]

    def test_compose_marks_goal_filling_projections(self):
        # Every subtree's topmost projection fills its goal and composes;
        # spine-internal projections (NP -> a under goal S) do not.
        moves = events(t("(S (NP a) (VP b))"), compose=True)
        composed = [m.label for m in moves if m.kind == "project" and m.compose]
        assert composed == ["S", "VP"]

    def test_compose_has_no_trailing_attach(self):
        base = [m.kind for m in events(t("(S (NP a) (VP b))"))]
        comp = [m.kind for m in events(t("(S (NP a) (VP b))"), compose=True)]
        assert base.count(ATTACH) == comp.count(ATTACH) + 2


class TestReplay:
    def test_round_trip_simple(self):
        tree = t("(S (NP (DT a) (NN b)) (VP (VB c)))")
        assert replay(derivation_events(tree), tree.label) == tree

    def test_round_trip_compose(self):
        tree = t("(S (NP (DT a) (NN b)) (VP (VB c) (NP (NN d))))")
        assert replay(derivation_events(tree, compose=True), tree.label) == tree

    def test_round_trip_random_trees(self, rng):
        for _ in range(200):
            tree = random_tree(rng)
            for compose in (False, True):
                assert replay(derivation_events(tree, compose=compose), tree.label) == tree

    def test_wrong_start_raises(self):
        tree = t("(S (NP a) (VP b))")
        with pytest.raises(ReplayError):
            replay(derivation_events(tree), "NP")

    def test_truncated_derivation_raises(self):
        moves = list(derivation_events(t("(S (NP a) (VP b))")))
        # The index counts the moves read, from a list or an iterator.
        for truncated in (moves[:-1], iter(moves[:-1])):
            with pytest.raises(ReplayError, match="incomplete") as exc:
                replay(truncated, "S")
            assert exc.value.index == len(moves) - 1
        with pytest.raises(ReplayError, match="incomplete") as exc:
            replay([], "S")
        assert exc.value.index == 0

    @pytest.mark.parametrize("moves, index, message", [
        ([(PROJECT, None, "S", None, "S", ("a",), False)], 0, "projection without a left corner"),
        ([(SHIFT, None, "S", None, "a", None, False),
          (PROJECT, None, "S", None, "S", ("b", "a"), False)], 1, "left corner a does not start"),
        ([(SHIFT, None, "S", None, "a", None, False),
          (PROJECT, None, "S", None, "NP", ("a",), True)], 1, "NP does not fill goal S"),
        ([(ATTACH, None, "S", None, None, None, False)], 0, "found item over a goal"),
        ([("swap", None, "S", None, None, None, False)], 0, "unknown move kind 'swap'"),
    ], ids=["project-without-corner", "corner-not-first", "compose-wrong-goal",
            "attach-without-found", "unknown-kind"])
    def test_impossible_move_raises(self, moves, index, message):
        with pytest.raises(ReplayError, match=message) as exc:
            replay(moves, "S")
        assert exc.value.index == index

    def test_shift_onto_found_raises(self):
        with pytest.raises(ReplayError) as exc:
            replay([(SHIFT, None, "S", None, "a", None, False),
                    (SHIFT, None, "S", None, "b", None, False)], "S")
        assert exc.value.index == 1


class TestEvents:
    def test_goal_conditioning_of_shifts(self):
        tree = t("(S (NP a) (VP b))")
        shifts = [ev for ev in events(tree) if ev.kind == "shift"]
        assert [(ev.label, ev.gc) for ev in shifts] == [("a", "S"), ("b", "VP")]

    def test_projection_context(self):
        tree = t("(S (NP a) (VP b))")
        projs = [ev for ev in events(tree) if ev.kind == "project"]
        assert [(ev.lc, ev.gc, ev.label) for ev in projs] == [
            ("a", "S", "NP"),
            ("NP", "S", "S"),
            ("b", "VP", "VP"),
        ]

    def test_attach_context_matches_goal(self):
        tree = t("(S (NP a) (VP b))")
        for ev in events(tree):
            if ev.kind == "attach":
                assert ev.lc == ev.gc

    def test_events_equal_reference_walk(self, rng):
        trees = [t("(S (NP (DT a) (NN b)) (VP c))"), t("(S a b)"), t("(NN dog)")]
        trees += [random_tree(rng) for _ in range(200)]
        for tree in trees:
            for form in (tree, binarize_tree(tree)):
                for compose in (False, True):
                    assert list(derivation_events(form, compose=compose)) == list(
                        reference_events(form, compose=compose)
                    )

    def test_deep_chains_do_not_recurse(self):
        for right, composed_attaches in ((True, 0), (False, 3000)):
            tree = chain(3000, right)
            for compose, attaches in ((False, 3001), (True, composed_attaches)):
                kinds = [ev.kind for ev in events(tree, compose=compose)]
                counts = (kinds.count("shift"), kinds.count("project"), kinds.count("attach"))
                assert counts == (3001, 3001, attaches)
                assert replay(derivation_events(tree, compose=compose), tree.label) == tree
            assert max_stack_depth(tree, compose=True) <= 4

    def test_depth_tracks_stack(self, rng):
        # Depth at each decision plus the cumulative deltas must agree.
        for _ in range(50):
            tree = binarize_tree(random_tree(rng, max_depth=5))
            depth = 1
            for ev in events(tree, compose=True):
                if ev.kind == "shift":
                    assert ev.depth == depth
                else:
                    assert ev.depth == depth - 1
                depth += stack_delta(ev)
            assert depth == 0


class TestStackDelta:
    def test_elementary_deltas(self):
        def project(rhs, compose=False):
            return Event(PROJECT, rhs[0], "S", 1, "A", rhs, compose)

        assert stack_delta(Event(SHIFT, None, "S", 1, "a", None, False)) == 1
        assert stack_delta(Event(ATTACH, "a", "a", 1, None, None, False)) == -2
        assert stack_delta(project(("a",))) == 0
        assert stack_delta(project(("a", "B"))) == 1
        assert stack_delta(project(("a",), compose=True)) == -2
        assert stack_delta(project(("a", "B"), compose=True)) == -1

    def test_compose_bounds_stack_on_right_branching(self):
        text = "(S a)"
        for _ in range(30):
            text = "(S a %s)" % text
        tree = t(text)
        assert max_stack_depth(tree, compose=True) <= 4
        assert max_stack_depth(tree, compose=False) > 10

    def test_compose_bounds_stack_on_left_branching(self):
        text = "(S a)"
        for _ in range(30):
            text = "(S %s a)" % text
        tree = t(text)
        assert max_stack_depth(tree, compose=True) <= 4
