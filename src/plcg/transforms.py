"""Tail-merging binarization and its inverse.

``A -> X1 X2 ... Xn`` (n >= 3) becomes ``A -> X1 A@X1`` and
``A@X1 -> X2 ... Xn``, recursively, so n-ary rules sharing mother and left
corner collapse to a single top rule.  The ``@`` separator is reserved,
which makes debinarization a pure label test.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

from .grammar_types import PcfgModel, Rule
from .treebank import Tree, first_node, post_order

SEPARATOR = "@"


class ReservedSymbolError(ValueError):
    pass


def _check_label(label: str) -> str:
    if SEPARATOR in label:
        raise ReservedSymbolError(
            "label %r contains the reserved binarization separator %r" % (label, SEPARATOR)
        )
    return label


def binarize_tree(t: Tree) -> Tree:
    """Tail-binarize every node of ``t`` in one bottom-up pass.  Each node
    with n >= 3 children becomes a right chain of n - 2 tail nodes, built
    from the right."""
    done: list[Tree] = []
    for node in post_order(t):
        if SEPARATOR in node.label:  # report the first in pre-order
            _check_label(first_node(t, lambda nd: SEPARATOR in nd.label).label)
        n = len(node.children)
        if not n:
            done.append(node)
            continue
        kids = done[-n:]
        del done[-n:]
        if n <= 2:
            done.append(Tree(node.label, tuple(kids)))
            continue
        labels = [node.label]
        for c in kids[:-2]:
            labels.append(labels[-1] + SEPARATOR + c.label)
        tail = Tree(labels[-1], (kids[-2], kids[-1]))
        for i in range(n - 3, -1, -1):
            tail = Tree(labels[i], (kids[i], tail))
        done.append(tail)
    return done[0]


def debinarize_tree(t: Tree) -> Tree:
    """Splice every non-leaf ``@`` node into its parent, bottom-up."""
    done: list[Tree] = []
    for node in post_order(t):
        n = len(node.children)
        if not n:
            done.append(node)
            continue
        children: list[Tree] = []
        for dc in done[-n:]:
            if dc.children and SEPARATOR in dc.label:
                children.extend(dc.children)
            else:
                children.append(dc)
        del done[-n:]
        done.append(Tree(node.label, tuple(children)))
    return done[0]


def binarize_corpus(trees: Sequence[Tree]) -> list[Tree]:
    return [binarize_tree(t) for t in trees]


def binarize_rule(rule: Rule) -> list[Rule]:
    if len(rule.rhs) <= 2:
        return [rule]
    _check_label(rule.lhs)
    for sym in rule.rhs:
        _check_label(sym)
    out = []
    lhs, rhs = rule.lhs, list(rule.rhs)
    while len(rhs) > 2:
        tail = lhs + SEPARATOR + rhs[0]
        out.append(Rule(lhs, (rhs[0], tail)))
        lhs, rhs = tail, rhs[1:]
    out.append(Rule(lhs, tuple(rhs)))
    return out


def binarize_pcfg(model: PcfgModel) -> PcfgModel:
    """Count-level binarization; the resulting PCFG assigns every tree the
    same probability as the n-ary model assigns its debinarized form."""
    counts: dict[Rule, int] = defaultdict(int)
    for rule, c in model.counts.items():
        for part in binarize_rule(rule):
            counts[part] += c
    return PcfgModel(dict(counts), model.start)


def is_binarized_symbol(label: str) -> bool:
    return SEPARATOR in label
