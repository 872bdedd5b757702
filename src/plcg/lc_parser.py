"""Probabilistic left-corner beam parser over tag sequences.

One stack machine serves every variant.  At each decision point (a found
corner on top, its goal beneath) it reads the model's move table: one
(move, entries popped, entries pushed, log-prob) per successor, built on
first use and kept on the model.  The variants differ only in the tables:
  base    - attach decided when a completed corner sits on its goal.
  compose - attach decided at projection time (bounded stack on pure
            left/right branching input).
  delta   - compose machine scored by the stack-size conditioned model,
            with tables keyed by stack depth as well.

One beam per word boundary: states that have consumed i words compete,
attach/project moves are expanded to a fixpoint within the boundary, and
the k best states that can shift the next tag shift it.  The expansion
looks one tag ahead: it reads tables filtered by the next tag, so it builds
only the states that can still shift that tag.  Move lists are held in a
prefix-sharing store so states are cheap to branch.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from .derivation import LcMove, replay
from .grammar_types import ATTACH_RULE, DeltaModel, PlcgModel
from .transforms import debinarize_tree, is_binarized_symbol
from .treebank import Tree, write_tree


class MoveStore:
    """Prefix-sharing store of move sequences: each handle points at a node
    holding (move, parent handle)."""

    ROOT = -1

    def __init__(self):
        self._moves: list[LcMove] = []
        self._parents: list[int] = []

    def append(self, handle: int, move: LcMove) -> int:
        self._moves.append(move)
        self._parents.append(handle)
        return len(self._moves) - 1

    def sequence(self, handle: int) -> list[LcMove]:
        out = []
        while handle != MoveStore.ROOT:
            out.append(self._moves[handle])
            handle = self._parents[handle]
        out.reverse()
        return out

    def __len__(self) -> int:
        return len(self._moves)


# Stack entries: ("s", category) sought, ("f", category, spent) found, where
# spent marks a corner whose attach decision was already taken (compose).
SOUGHT, FOUND = "s", "f"


class ParserState(NamedTuple):
    stack: tuple
    moves: int  # handle into the shared MoveStore
    log_prob: float

    @property
    def complete(self) -> bool:
        return not self.stack

    @property
    def needs_shift(self) -> bool:
        return bool(self.stack) and self.stack[-1][0] == SOUGHT


def initial_state(start: str) -> ParserState:
    return ParserState(((SOUGHT, start),), MoveStore.ROOT, 0.0)


_ATTACH = LcMove.attach()


def _project(rule, compose: bool, spent: bool, lp: float) -> tuple:
    """Table entry projecting ``rule`` from the corner on top: onto the goal
    beneath when composing, else as a found corner."""
    soughts = tuple((SOUGHT, sym) for sym in reversed(rule.rhs[1:]))
    if compose:
        return (LcMove.project(rule, compose=True), 2, soughts, lp)
    return (LcMove.project(rule), 1, ((FOUND, rule.lhs, spent),) + soughts, lp)


def _lc_moves(model: PlcgModel, compose: bool, lc: str, gc: str, spent: bool) -> list:
    """Base and compose moves at (lc, gc): the attach complement folded into
    every projection; under compose, a projection onto the goal splits on
    the attach decision the base machine would take once it completes."""
    out = []
    p_att = 0.0 if spent else model.p_att(lc, gc)
    if p_att > 0.0:
        out.append((_ATTACH, 2, (), math.log(p_att)))
    for rule, p_rule in model.projections(lc, gc).items():
        if not model.is_possible_corner(rule.lhs, gc):
            continue
        p = (1.0 - p_att) * p_rule
        if p == 0.0:
            continue
        if compose and rule.lhs == gc:
            p_att_new = model.p_att(rule.lhs, gc)
            if p_att_new > 0.0:
                out.append(_project(rule, True, True, math.log(p * p_att_new)))
            if p_att_new < 1.0:
                out.append(_project(rule, False, True, math.log(p * (1.0 - p_att_new))))
        else:
            out.append(_project(rule, False, False, math.log(p)))
    return out


def _delta_moves(model: DeltaModel, lc: str, gc: str, depth: int) -> list:
    """Composed-machine moves at (lc, gc) over ``depth`` entries, scored
    P(delta | depth, lc, gc) * P(rule | lc, gc, depth, delta); deltas -2 and
    -1 attach at projection time."""
    out = []
    for delta, p_delta in model.delta_dist(depth, lc, gc).items():
        for rule, p_rule in model.rule_dist(lc, gc, depth, delta).items():
            p = p_delta * p_rule
            if p == 0.0:
                continue
            composed = delta in (-2, -1)
            if rule == ATTACH_RULE:
                out.append((_ATTACH, 2, (), math.log(p)))
            elif not composed or rule.lhs == gc:
                out.append(_project(rule, composed, True, math.log(p)))
    return out


def _compile_moves(
    model: PlcgModel | DeltaModel, variant: str, lc: str, gc: str, ctx,
    tag: Optional[str], below: Optional[tuple],
) -> list:
    """One decision point's table; base and compose read a delta model's
    base.  With the next ``tag``, only the entries that leave on top a found
    corner or a sought category that can shift ``tag``.  A move that pushes
    nothing pops the corner and its goal and leaves ``below`` on top (None
    for an empty stack)."""
    base = model.base if isinstance(model, DeltaModel) else model
    if variant == "delta":
        table = _delta_moves(model, lc, gc, ctx)
    else:
        table = _lc_moves(base, variant == "compose", lc, gc, ctx)
    if tag is None:
        return table
    shifts = _shift_table(base, tag)
    out = []
    for entry in table:
        top = entry[2][-1] if entry[2] else below
        if top is not None and (top[0] == FOUND or top in shifts):
            out.append(entry)
    return out


def _shift_table(model: PlcgModel, tag: str) -> dict:
    """Shift move and log-prob of ``tag`` per sought entry that can take it."""
    key = ("shift", tag)
    table = model.move_tables.get(key)
    if table is None:
        table = model.move_tables[key] = {}
        for gc in model.shift_counts:
            p = model.p_shift(tag, gc)
            if p:
                table[(SOUGHT, gc)] = (LcMove.shift(tag), math.log(p))
    return table


def shift_successor(
    state: ParserState, tag: str, model: PlcgModel | DeltaModel, store: MoveStore
) -> Optional[ParserState]:
    """The single forced shift when a sought category is exposed."""
    base = model.base if isinstance(model, DeltaModel) else model
    entry = _shift_table(base, tag).get(state.stack[-1])
    if entry is None:
        return None
    move, lp = entry
    return ParserState(state.stack + ((FOUND, tag, False),),
                       store.append(state.moves, move), state.log_prob + lp)


def successors(
    state: ParserState, model: PlcgModel | DeltaModel, store: MoveStore, variant: str = "base",
    tag: Optional[str] = None,
) -> list[ParserState]:
    """Attach/project successors of a state whose top is a found corner.

    Probability increments over all successors sum to one at any context
    seen in training.  With the next ``tag``, only the successors that can
    still shift it."""
    stack = state.stack
    if not stack or stack[-1][0] == SOUGHT:
        return []
    # The decision point: spent flag for base/compose, stack depth for delta;
    # with a next tag, also the entry beneath the goal, which moves that push
    # nothing expose.
    _, lc, spent = stack[-1]
    below = stack[-3] if tag is not None and len(stack) > 2 else None
    key = (variant, lc, stack[-2][1], len(stack) - 1 if variant == "delta" else spent,
           tag, below)
    table = model.move_tables.get(key)
    if table is None:
        table = model.move_tables[key] = _compile_moves(model, *key)
    handle, log_prob, append = state.moves, state.log_prob, store.append
    return [ParserState(stack[:-pop] + push, append(handle, move), log_prob + lp)
            for move, pop, push, lp in table]


def _closure(
    states: list[ParserState], model, store: MoveStore, variant: str,
    max_nonshift: int, state_limit: Optional[int] = None, tag: Optional[str] = None,
) -> list[ParserState]:
    """Expand attach/project moves to a fixpoint within a word boundary.
    With the next ``tag``, build only the states that can still shift it."""
    out = list(states)
    frontier = list(states)
    rounds = 0
    while frontier and rounds < max_nonshift:
        nxt: list[ParserState] = []
        for st in frontier:
            if st.stack and st.stack[-1][0] == FOUND:
                nxt.extend(successors(st, model, store, variant, tag))
        out.extend(nxt)
        if state_limit is not None and len(out) > state_limit:
            raise TooManyDerivationsError("state count exceeded %d" % state_limit)
        frontier = nxt
        rounds += 1
    return out


class TooManyDerivationsError(ValueError):
    pass


class IncompleteDerivationError(ValueError):
    pass


def _rank(state: ParserState) -> tuple:
    return (-state.log_prob, state.moves)


def _complete_states(
    tags: Sequence[str], model, store: MoveStore, variant: str, max_nonshift: int,
    k: Optional[int] = None, state_limit: Optional[int] = None,
) -> list[ParserState]:
    """Complete states over ``tags``, best first.  With ``k``, only the ``k``
    best states that can shift the next tag survive each word boundary."""
    if not tags:
        raise ValueError("empty tag sequence")
    if variant == "delta" and not isinstance(model, DeltaModel):
        raise TypeError("delta variant needs a DeltaModel")
    base = model.base if isinstance(model, DeltaModel) else model
    beam = [initial_state(model.start)]
    for tag in tags:
        pool = _closure(beam, model, store, variant, max_nonshift, state_limit, tag)
        # The closure built only states that can still shift the tag; found
        # corners on top, carried in or built on the way, are dropped here.
        shifts = _shift_table(base, tag)
        pool = [st for st in pool if st.stack and st.stack[-1] in shifts]
        if k is not None:
            pool.sort(key=_rank)
            del pool[k:]
        beam = [shift_successor(st, tag, model, store) for st in pool]
        if not beam:
            return []
    final = _closure(beam, model, store, variant, max_nonshift, state_limit)
    return sorted((st for st in final if st.complete), key=_rank)


def beam_parse(
    tags: Sequence[str],
    model: PlcgModel | DeltaModel,
    k: int,
    n_best: int = 1,
    variant: str = "base",
    max_nonshift: int = 50,
) -> list[tuple[Tree, float]]:
    """Up to ``n_best`` complete parses, best first.  Not guaranteed optimal
    unless ``k`` exceeds the number of reachable states."""
    if k < 1 or n_best < 1:
        raise ValueError("k and n_best must be >= 1")
    store = MoveStore()
    complete = _complete_states(tags, model, store, variant, max_nonshift, k=k)
    # Distinct derivations of one tree only arise through binarization;
    # after debinarizing, keep the best score per tree.
    out: list[tuple[Tree, float]] = []
    seen: set[str] = set()
    for st in complete:
        tree = recover_tree(st.moves, model.start, store)
        key = write_tree(tree)
        if key not in seen:
            seen.add(key)
            out.append((tree, st.log_prob))
            if len(out) == n_best:
                break
    return out


def exhaustive_lc_parse(
    tags: Sequence[str],
    model: PlcgModel | DeltaModel,
    variant: str = "base",
    max_nonshift: int = 50,
    state_limit: int = 200000,
) -> list[tuple[Tree, float]]:
    """Every complete derivation with its probability; oracle for small
    fixtures.  Each tree of the model appears through exactly one
    derivation (before binarization)."""
    store = MoveStore()
    complete = _complete_states(tags, model, store, variant, max_nonshift,
                                state_limit=state_limit)
    return [(recover_tree(st.moves, model.start, store), st.log_prob) for st in complete]


def recover_tree(handle: int, start: str, store: MoveStore) -> Tree:
    """Replay a stored derivation into a tree, undoing binarization when the
    moves mention introduced symbols."""
    moves = store.sequence(handle)
    try:
        tree = replay(moves, start)
    except Exception as exc:
        raise IncompleteDerivationError(str(exc)) from exc
    if any(mv.rule is not None and is_binarized_symbol(mv.rule.lhs) for mv in moves):
        tree = debinarize_tree(tree)
    return tree

