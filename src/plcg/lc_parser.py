"""Probabilistic left-corner beam parser over tag sequences.

One stack machine serves both models.  At each decision point (a found
corner on top, its goal beneath) it reads the model's move table: one
(move, entries popped, entries pushed, log-prob) per successor, built on
first use and kept on the model.  A move is the tuple
:func:`~plcg.derivation.derivation_events` yields for the gold derivation,
with ``depth`` None, since tables are shared across depths; ``replay``
rebuilds a tree from either.  The model's type picks the tables:
  PlcgModel  - attach decided when a completed corner sits on its goal.
  DeltaModel - attach decided at projection time (the composed machine),
               scored by the stack-size conditioned model, with tables
               keyed by stack depth as well.

One beam per word boundary: states that have consumed i words compete,
attach/project moves are expanded to a fixpoint within the boundary, and
the k best states that can shift the next tag shift it.  The exhaustive
parse runs the same closure with no cap per stack and no k.  Every move is
conditioned on the stack alone, so states with equal stacks have equal
futures: the beam recombines them, holding and expanding only the best
``n_best`` derivations per stack (Huang & Chiang 2005), so the k states
are at most ``n_best`` per stack, and for one best parse the k best
distinct stacks.  The expansion looks one tag ahead: it reads tables
filtered by the next tag, so it builds only the states that can still shift
that tag.  A state holds its derivation as a shared-tail pair (last move,
earlier moves), so branching a state copies no moves, and its stack as an
int, interned in a ``StackTable`` that lives for one parse: a push is one
dict probe, a pop one list read, and recombining stacks compares ints.
States are kept in build order and sorted stably, so a tie goes to the
earlier-built state.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from .derivation import ATTACH, PROJECT, SHIFT, replay
from .grammar_types import ATTACH_RULE, DeltaModel, PlcgModel
from .transforms import debinarize_tree, is_binarized_symbol
from .treebank import Tree, write_tree

# States an exhaustive parse may build in one closure.
STATE_LIMIT = 200000
VARIANTS = ("base", "delta")


def move_list(moves: Optional[tuple]) -> list[tuple]:
    """The moves of a shared-tail derivation, first to last."""
    out = []
    while moves is not None:
        move, moves = moves
        out.append(move)
    out.reverse()
    return out


# Stack entries: ("s", category) sought, ("f", category) found.
SOUGHT, FOUND = "s", "f"


class StackTable:
    """The stacks of one parse, hash-consed: id 0 is the empty stack, and id
    i > 0 is entry ``top[i]`` pushed on stack ``below[i]``, ``depth[i]``
    entries deep.  Equal stacks get one id, so ``stack[-3]`` is
    ``top[below[below[i]]]`` and a stack is compared and hashed as an int.
    Ids mean nothing outside their table; a parse makes its own, and no id
    reaches the model's move tables."""

    __slots__ = ("top", "below", "depth", "ids")

    def __init__(self):
        self.top: list = [None]
        self.below: list[int] = [0]
        self.depth: list[int] = [0]
        self.ids: dict = {}  # (entry, id beneath) -> id

    def push(self, stack: int, entry: tuple) -> int:
        """The id of ``entry`` pushed on stack ``stack``."""
        n = len(self.top)
        pushed = self.ids.setdefault((entry, stack), n)
        if pushed == n:
            self.top.append(entry)
            self.below.append(stack)
            self.depth.append(self.depth[stack] + 1)
        return pushed


class ParserState(NamedTuple):
    stack: int  # id in the parse's StackTable
    moves: Optional[tuple]  # (last move, earlier moves); None when empty
    log_prob: float


# Builds a ParserState without NamedTuple's Python-level __new__.
_new = tuple.__new__


def initial_state(start: str, stacks: StackTable) -> ParserState:
    """The state seeking ``start``, its stack interned in ``stacks``."""
    return ParserState(stacks.push(0, (SOUGHT, start)), None, 0.0)


def _project(lc: str, gc: str, rule, compose: bool, lp: float) -> tuple:
    """Table entry projecting ``rule`` from the corner ``lc`` on top: onto
    the goal ``gc`` beneath when composing, else as a found corner."""
    move = (PROJECT, lc, gc, None, rule.lhs, rule.rhs, compose)
    soughts = tuple((SOUGHT, sym) for sym in reversed(rule.rhs[1:]))
    if compose:
        return (move, 2, soughts, lp)
    return (move, 1, ((FOUND, rule.lhs),) + soughts, lp)


def _lc_moves(model: PlcgModel, lc: str, gc: str) -> list:
    """Base moves at (lc, gc), with the attach complement folded into every
    projection."""
    out = []
    p_att = model.p_att(lc, gc)
    if p_att > 0.0:
        out.append(((ATTACH, lc, gc, None, None, None, False), 2, (), math.log(p_att)))
    for rule, p_rule in model.projections(lc, gc).items():
        p = (1.0 - p_att) * p_rule
        if p != 0.0:
            out.append(_project(lc, gc, rule, False, math.log(p)))
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
            if rule == ATTACH_RULE:
                out.append(((ATTACH, lc, gc, None, None, None, False), 2, (), math.log(p)))
            else:
                out.append(_project(lc, gc, rule, delta in (-2, -1), math.log(p)))
    return out


def _compile_moves(
    model: PlcgModel | DeltaModel, lc: str, gc: str,
    depth: Optional[int], tag: Optional[str], below: Optional[tuple],
) -> list:
    """One decision point's table, the delta model's or the PLCG's.  With
    the next ``tag``, only the entries that leave on top a found corner or a
    sought category that can shift ``tag``.  A move that pushes nothing pops
    the corner and its goal and leaves ``below`` on top (None for an empty
    stack)."""
    table = (_delta_moves(model, lc, gc, depth) if isinstance(model, DeltaModel)
             else _lc_moves(model, lc, gc))
    if tag is None:
        return table
    shifts = _shift_table(model.base, tag)
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
                table[(SOUGHT, gc)] = ((SHIFT, None, gc, None, tag, None, False), math.log(p))
    return table


def shift_successor(
    state: ParserState, tag: str, shifts: dict, stacks: StackTable,
) -> Optional[ParserState]:
    """The single forced shift of ``tag`` when a sought category is exposed,
    read from ``tag``'s shift table ``shifts``; the new stack is interned in
    ``stacks``, the table holding the state's."""
    stack = state.stack
    entry = shifts.get(stacks.top[stack])
    if entry is None:
        return None
    move, lp = entry
    return _new(ParserState, (stacks.push(stack, (FOUND, tag)), (move, state.moves),
                              state.log_prob + lp))


def successors(
    state: ParserState, model: PlcgModel | DeltaModel, stacks: StackTable,
    tag: Optional[str] = None,
) -> list[ParserState]:
    """Attach/project successors of a state whose top is a found corner,
    their stacks interned in ``stacks``, the table holding the state's.

    Probability increments over all successors sum to one at any context
    seen in training.  With the next ``tag``, only the successors that can
    still shift it."""
    stack = state.stack
    top = stacks.top
    corner = top[stack]
    if not stack or corner[0] == SOUGHT:
        return []
    below = stacks.below
    goal = below[stack]
    beneath = below[goal]
    depth = stacks.depth
    # The decision point, with the stack depth for a delta model; with a
    # next tag, also the entry beneath the goal, which moves that push
    # nothing expose (None for an empty stack).
    key = (corner[1], top[goal][1], depth[stack] - 1 if isinstance(model, DeltaModel) else None,
           tag, top[beneath] if tag is not None else None)
    table = model.move_tables.get(key)
    if table is None:
        table = model.move_tables[key] = _compile_moves(model, *key)
    moves, log_prob = state.moves, state.log_prob
    ids = stacks.ids
    out = []
    for move, pop, push, lp in table:
        # StackTable.push, inlined.
        pushed = goal if pop == 1 else beneath
        for entry in push:
            n = len(top)
            parent, pushed = pushed, ids.setdefault((entry, pushed), n)
            if pushed == n:
                top.append(entry)
                below.append(parent)
                depth.append(depth[parent] + 1)
        out.append(_new(ParserState, (pushed, (move, moves), log_prob + lp)))
    return out


def _closure(
    states: list[ParserState], model, stacks: StackTable,
    tag: Optional[str] = None, keep: Optional[int] = None,
) -> list[ParserState]:
    """Expand attach/project moves within a word boundary until no state is
    offered.  Stacks live in ``stacks``.  With the next ``tag``, build only
    the states that can still shift it.

    One loop serves every capacity per stack: ``keep`` 1 for the 1-best
    beam, ``n_best`` for an n-best list, and None, no cap, for the
    exhaustive parse.  A state enters only if it beats the worst one held
    for its stack, the earlier one winning a tie; a state pushed out leaves
    an empty slot, so one pushed out before its turn is not expanded.  No
    move makes an expandable stack deeper, and probabilities are at most
    one, so a unary cycle cannot beat the state it started from: with
    ``keep`` the loop ends on any grammar.  Every complete state is held:
    an n-best list needs them all, because a tree can have more than one
    derivation (binarized nodes, or delta's composed projection against a
    projection and an attach).  Without ``keep``, raise
    TooManyDerivationsError past ``STATE_LIMIT`` states, as a unary cycle
    always does.  Held states are returned in the order they entered,
    complete ones last."""
    top = stacks.top
    # Stack id -> the index in ``entered`` of the one state offered for it,
    # or, once another is offered, the indices of its held states, best first.
    held: dict = {}
    entered: list = []  # states in entry order, None once pushed out
    complete: list[ParserState] = []
    setdefault = held.setdefault
    offered = states
    while offered:
        start = len(entered)
        for st in offered:
            stack = st.stack
            if not stack:
                complete.append(st)
                continue
            n = len(entered)
            group = setdefault(stack, n)
            if group != n:  # offered before
                if type(group) is int:
                    group = held[stack] = [group]
                lp = st.log_prob
                if len(group) == keep:
                    if lp <= entered[group[-1]].log_prob:
                        continue
                    entered[group.pop()] = None
                i = len(group)
                while i and entered[group[i - 1]].log_prob < lp:
                    i -= 1
                group.insert(i, n)
            entered.append(st)
        if keep is None and len(entered) + len(complete) > STATE_LIMIT:
            raise TooManyDerivationsError("state count exceeded %d" % STATE_LIMIT)
        offered = []
        for st in entered[start:]:
            if st is not None and top[st.stack][0] == FOUND:
                offered += successors(st, model, stacks, tag)
    return list(filter(None, entered)) + complete


class TooManyDerivationsError(ValueError):
    pass


def _rank(state: ParserState) -> float:
    """Sort key, best first; sorts are stable, so states in build order keep
    the earlier-built one first on a tie."""
    return -state.log_prob


def _complete_states(
    tags: Sequence[str], model, variant: Optional[str], k: Optional[int] = None, n_best: int = 1,
) -> list[ParserState]:
    """Complete states over ``tags``, best first.  With ``k``, the closures
    hold the ``n_best`` best states per stack, and only the ``k`` best
    states that can shift the next tag survive each word boundary; without,
    every derivation is kept, and a closure past ``STATE_LIMIT`` states
    raises.  The parse's stacks live in one StackTable, dropped when it
    returns."""
    if not tags:
        raise ValueError("empty tag sequence")
    base = model.base
    if variant not in (None,) + VARIANTS:
        raise ValueError("unknown variant %r (expected one of %s)" % (variant, ", ".join(VARIANTS)))
    if variant not in (None, "base" if base is model else "delta"):
        raise TypeError("variant %r does not match a %s" % (variant, type(model).__name__))
    keep = None if k is None else n_best
    stacks = StackTable()
    top = stacks.top
    beam = [initial_state(model.start, stacks)]
    for tag in tags:
        pool = _closure(beam, model, stacks, tag, keep)
        # The closure built only states that can still shift the tag; found
        # corners on top, carried in or built on the way, are dropped here.
        shifts = _shift_table(base, tag)
        pool = [st for st in pool if top[st.stack] in shifts]
        if k is not None:
            pool.sort(key=_rank)
            del pool[k:]
        beam = [shift_successor(st, tag, shifts, stacks) for st in pool]
        if not beam:
            return []
    final = _closure(beam, model, stacks, keep=keep)
    return sorted((st for st in final if not st.stack), key=_rank)


def beam_parse(
    tags: Sequence[str],
    model: PlcgModel | DeltaModel,
    k: int,
    n_best: int = 1,
    variant: Optional[str] = None,
) -> list[tuple[Tree, float]]:
    """Up to ``n_best`` complete parses, best first, under the model's own
    machine, which ``variant`` must name if given.  At each word boundary
    the beam keeps the ``k`` best states, at most ``n_best`` per stack, so
    with ``n_best`` 1 the ``k`` best distinct stacks.  Not guaranteed
    optimal unless ``k`` exceeds the number of reachable stacks times
    ``n_best``."""
    if k < 1 or n_best < 1:
        raise ValueError("k and n_best must be >= 1")
    complete = _complete_states(tags, model, variant, k, n_best)
    # Binarized nodes and delta's composed projections give one tree more
    # than one derivation; keep the best score per debinarized tree.
    out: list[tuple[Tree, float]] = []
    seen: set[str] = set()
    for st in complete:
        tree = recover_tree(st.moves, model.start)
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
    variant: Optional[str] = None,
) -> list[tuple[Tree, float]]:
    """Every complete derivation with its log-probability, under the model's own
    machine; oracle for small fixtures.  Each tree of the model appears
    through exactly one derivation (before binarization).  Exact, or raises
    TooManyDerivationsError when a closure holds more than ``STATE_LIMIT``
    states, as on any unary cycle."""
    complete = _complete_states(tags, model, variant)
    return [(recover_tree(st.moves, model.start), st.log_prob) for st in complete]


def recover_tree(moves: Optional[tuple], start: str) -> Tree:
    """Replay a state's derivation into a tree, undoing binarization when the
    moves mention introduced symbols."""
    moves = move_list(moves)
    tree = replay(moves, start)
    if any(mv[0] == PROJECT and is_binarized_symbol(mv[4]) for mv in moves):
        tree = debinarize_tree(tree)
    return tree

