"""Left-corner derivations of trees and their replay on the stack machine.

The machine keeps a stack of found constituents and sought ("minus") goal
categories.  A shift is forced exactly when a sought category is on top.
With the compose flag, the attach decision is taken at projection time and
the matching goal is popped immediately, which bounds the stack on purely
left- or right-branching input.

A move is one flat tuple ``(kind, lc, gc, depth, label, rhs, compose)``:

- ``kind`` is :data:`SHIFT`, :data:`PROJECT` or :data:`ATTACH`;
- ``lc``, ``gc`` and ``depth`` are the move's context: the left corner
  (None for shifts), the goal, and the stack entries beneath the corner
  (for shifts, the full stack size);
- ``label`` is the shifted symbol or the projected node's label, and
  ``rhs`` the projected node's tuple of child labels (both None for an
  attach, ``rhs`` None for a shift);
- ``compose`` is true for a projection that fills its goal at once.

:func:`derivation_events` is the one walk from a tree to its gold moves: a
loop over an explicit machine stack, so tree depth is not bounded by Python
recursion.  Events hold raw labels, so a walk builds no
:class:`~plcg.grammar_types.Rule`: induction counts on ``(label, rhs)``
keys.  :func:`replay` is its inverse: it runs a move sequence on the same
machine and rebuilds the tree.  The parser's moves are the same tuples,
with ``depth`` None.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .treebank import Tree

SHIFT, PROJECT, ATTACH = "shift", "project", "attach"


class ReplayError(ValueError):
    def __init__(self, index: int, message: str):
        super().__init__("move %d: %s" % (index, message))
        self.index = index


class _Node:
    __slots__ = ("label", "children", "tree")

    def __init__(self, label: str):
        self.label = label
        self.children: list["_Node"] = []

    def freeze(self) -> Tree:
        """The tree below this node, built children first over a
        breadth-first list, so depth is not bounded by Python recursion."""
        order = [self]
        for node in order:
            order.extend(node.children)
        for node in reversed(order):
            node.tree = Tree(node.label, tuple([c.tree for c in node.children]))
        return self.tree


def replay(moves: Iterable[tuple], start: str) -> Tree:
    """Run a complete derivation, a sequence of move tuples, on the stack
    machine and rebuild the tree.  Only each move's kind, label, rhs and
    compose flag are read, so
    ``replay(derivation_events(t, compose), t.label) == t``."""
    holder = _Node("")
    # Entries: ("s", category, parent node) or ("f", node).  A found entry
    # goes onto a sought one (a shift) or in place of the found entry it
    # projects from, so each sits directly on a sought entry: the goal that
    # a composed projection or an attach fills.
    stack: list[tuple] = [("s", start, holder)]
    i = -1
    for i, (kind, _, _, _, label, rhs, compose) in enumerate(moves):
        if kind == SHIFT:
            if not stack or stack[-1][0] != "s":
                raise ReplayError(i, "shift without a sought category on top")
            stack.append(("f", _Node(label)))
        elif kind == PROJECT:
            if not stack or stack[-1][0] != "f":
                raise ReplayError(i, "projection without a left corner")
            corner = stack.pop()[1]
            if corner.label != rhs[0]:
                raise ReplayError(i, "left corner %s does not start %s -> %s"
                                  % (corner.label, label, " ".join(rhs)))
            node = _Node(label)
            node.children.append(corner)
            if compose:
                _, cat, parent = stack.pop()
                if cat != label:
                    raise ReplayError(i, "%s does not fill goal %s" % (label, cat))
                parent.children.append(node)
            else:
                stack.append(("f", node))
            for sym in reversed(rhs[1:]):
                stack.append(("s", sym, node))
        elif kind == ATTACH:
            if not stack or stack[-1][0] != "f":
                raise ReplayError(i, "attach needs a found item over a goal")
            found = stack.pop()[1]
            _, cat, parent = stack.pop()
            if found.label != cat:
                raise ReplayError(i, "%s does not fill goal %s" % (found.label, cat))
            parent.children.append(found)
        else:
            raise ReplayError(i, "unknown move kind %r" % kind)
    if stack:
        raise ReplayError(i + 1, "incomplete derivation: %d entries left" % len(stack))
    # The holder's one sought entry is gone, so it was filled exactly once.
    return holder.children[0].freeze()


def derivation_events(t: Tree, compose: bool = False) -> Iterator[tuple]:
    """Walk the gold derivation of ``t`` on the stack machine, yielding each
    move as a tuple, with the (left corner, goal, stack depth) context it is
    taken in."""
    # The machine stack.  A sought entry is the subtree still to derive; a
    # found entry (spine, i) is the corner spine[i] on the left spine of its
    # goal spine[0], which is the sought entry beneath it.
    stack: list = [t]
    while stack:
        top = stack[-1]
        if top.__class__ is not tuple:
            spine = [top]
            while spine[-1].children:
                spine.append(spine[-1].children[0])
            yield (SHIFT, None, top.label, len(stack), spine[-1].label, None, False)
            stack.append((spine, len(spine) - 1))
            continue
        spine, i = stack.pop()
        goal = spine[0].label
        if i == 0:
            yield (ATTACH, goal, goal, len(stack), None, None, False)
            stack.pop()
            continue
        node = spine[i - 1]
        kids = node.children
        composed = compose and i == 1
        yield (PROJECT, spine[i].label, goal, len(stack), node.label,
               tuple([c.label for c in kids]), composed)
        if composed:
            stack.pop()
        else:
            stack.append((spine, i - 1))
        stack.extend(reversed(kids[1:]))


def stack_delta(ev: tuple) -> int:
    """Net stack-size change of an event's move on the machine it was
    walked on (binary rules, composed machine: between -2 and +1)."""
    kind, _, _, _, _, rhs, composed = ev
    if kind == SHIFT:
        return 1
    if kind == ATTACH:
        return -2
    return len(rhs) - (3 if composed else 1)
