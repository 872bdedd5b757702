import random

import pytest

from oracles import read_tree
from plcg.treebank import Tree


@pytest.fixture
def rng():
    return random.Random(12345)


def t(text: str) -> Tree:
    """Shorthand for building a tree from bracket notation in tests."""
    return read_tree(text)


def chain(depth, right, leaf="a"):
    """An S chain ``depth`` levels above (S leaf), branching right or left."""
    node = Tree("S", (Tree(leaf),))
    for _ in range(depth):
        node = Tree("S", (Tree("a"), node) if right else (node, Tree("a")))
    return node


def assert_model_normalized(model, tol=1e-9):
    """Check every conditional distribution of a model sums to one."""
    from plcg.grammar_types import DeltaModel, PcfgModel

    if isinstance(model, PcfgModel):
        for lhs in {r.lhs for r in model.rules}:
            total = sum(model.prob(r) for r in model.rules if r.lhs == lhs)
            assert abs(total - 1.0) < tol, lhs
        return
    base = model.base
    for gc in base.shift_counts:
        assert abs(sum(base.shift_dist(gc).values()) - 1.0) < tol, gc
    for (lc, gc) in base.att_counts:
        p_att = base.p_att(lc, gc)
        total = p_att + (1.0 - p_att) * sum(base.projections(lc, gc).values())
        assert abs(total - 1.0) < tol, (lc, gc)
    for (lc, gc) in base.proj_counts:
        assert abs(sum(base.projections(lc, gc).values()) - 1.0) < tol, (lc, gc)
    if isinstance(model, DeltaModel):
        for key in model.delta_counts:
            depth, lc, gc = key
            assert abs(sum(model.delta_dist(depth, lc, gc).values()) - 1.0) < tol, key
        for (lc, gc, depth, delta) in model.rule_counts:
            assert abs(sum(model.rule_dist(lc, gc, depth, delta).values()) - 1.0) < tol
