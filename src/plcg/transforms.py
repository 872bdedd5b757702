"""Tail-merging binarization and its inverse.

``A -> X1 X2 ... Xn`` (n >= 3) becomes ``A -> X1 A@X1`` and
``A@X1 -> X2 ... Xn``, recursively, so n-ary rules sharing mother and left
corner collapse to a single top rule.  The ``@`` separator is reserved,
which makes debinarization a pure label test.  Trees are binarized in
``treebank``, whose training load binarizes each node as it reads it; a
rule is binarized as a tree of depth one.
"""

from __future__ import annotations

from collections import defaultdict

from .grammar_types import PcfgModel, Rule
from .treebank import (
    SEPARATOR,
    ReservedSymbolError,
    Tree,
    binarize_corpus,
    binarize_tree,
    iter_local_trees,
    post_order,
)


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


def binarize_rule(rule: Rule) -> list[Rule]:
    """The rules of ``rule``'s tail chain: the local trees, top-down, of
    ``binarize_tree`` over the rule as a tree of depth one.  A label holding
    the separator raises ReservedSymbolError, for the first such label."""
    if len(rule.rhs) <= 2:
        return [rule]
    chain = binarize_tree(Tree(rule.lhs, tuple(map(Tree, rule.rhs))))
    return [Rule(lhs, rhs) for lhs, rhs in iter_local_trees(chain)]


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
