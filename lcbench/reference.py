"""Computations the benchmark makes apart from the program under test.

Trees here are plain tuples: a node is ``(label, children)`` with a tuple of
children, a leaf is a string.  A word-level preterminal is
``(tag, (word,))``; in a tag-level tree the tags themselves are the leaves.
The functions follow the program's documented conventions (preprocessing
order, tail-merging binarization, PARSEVAL bracket rules) so that their
results can be compared with the program's outputs exactly.
"""

from __future__ import annotations

import math
import random
from collections import Counter

from plcg.grammar_types import DeltaModel, PcfgModel

EMPTY = "-NONE-"
ROOT = "ROOT"


def from_generator(node):
    """Generator tuples (lists, ``(tag, word)``) to the tuple form above."""
    label, kids = node
    if isinstance(kids, str):
        return (label, (kids,))
    return (label, tuple(from_generator(k) for k in kids))


def _strip_label(label: str) -> str:
    if label[0] in "-=":
        return label
    for d in "-=":
        label = label.partition(d)[0]
    return label


def preprocess(node):
    """Function tags cut, empty elements and emptied phrases dropped, ROOT
    added: the program's default pipeline (unaries kept)."""
    def walk(t):
        label, kids = t
        if isinstance(kids[0], str):
            return None if label == EMPTY else (_strip_label(label), kids)
        kept = tuple(k for k in (walk(c) for c in kids) if k is not None)
        return (_strip_label(label), kept) if kept else None
    t = walk(from_generator(node))
    return t if t[0] == ROOT else (ROOT, (t,))


def is_preterminal(t) -> bool:
    return not isinstance(t, str) and len(t[1]) == 1 and isinstance(t[1][0], str)


def tag_tree(t):
    """Word-level tree to tag-level: each preterminal becomes its tag."""
    if is_preterminal(t):
        return t[0]
    return (t[0], tuple(tag_tree(c) for c in t[1]))


def leaves(t) -> list[str]:
    if isinstance(t, str):
        return [t]
    out: list[str] = []
    for c in t[1]:
        out.extend(leaves(c))
    return out


def lexicalize(t, words):
    """Tag-level tree to word-level, giving the i-th tag the i-th word."""
    it = iter(words)
    def walk(n):
        if isinstance(n, str):
            return (n, (next(it),))
        return (n[0], tuple(walk(c) for c in n[1]))
    return walk(t)


def fmt(t) -> str:
    """The bracket notation the program writes."""
    if isinstance(t, str):
        return t
    return "(%s %s)" % (t[0], " ".join(fmt(c) for c in t[1]))


def from_program(tree):
    """A program ``Tree`` to the tuple form."""
    if tree.is_leaf:
        return tree.label
    return (tree.label, tuple(from_program(c) for c in tree.children))


def local_trees(t):
    """(mother, child labels) of every internal node."""
    if isinstance(t, str):
        return
    yield t[0], tuple(c if isinstance(c, str) else c[0] for c in t[1])
    for c in t[1]:
        yield from local_trees(c)


def binarize(t):
    """Tail merging: ``A -> X1 X2 ... Xn`` becomes ``A -> X1 A@X1`` with
    ``A@X1 -> X2 ... Xn``, repeated until every node is at most binary."""
    if isinstance(t, str):
        return t
    kids = tuple(binarize(c) for c in t[1])
    label = t[0]
    def build(lab, ks):
        if len(ks) <= 2:
            return (lab, ks)
        head = ks[0]
        tail = lab + "@" + (head if isinstance(head, str) else head[0])
        return (lab, (head, build(tail, ks[1:])))
    return build(label, kids)


class PcfgCounts:
    """Relative-frequency PCFG counted from tag-level trees."""

    def __init__(self, trees):
        self.rules = Counter()
        for t in trees:
            self.rules.update(local_trees(t))
        self.lhs = Counter()
        for (lhs, _), c in self.rules.items():
            self.lhs[lhs] += c

    def log_prob(self, t) -> float:
        lp = 0.0
        for rule in local_trees(t):
            c = self.rules.get(rule, 0)
            if not c:
                return -math.inf
            lp += math.log(c / self.lhs[rule[0]])
        return lp


def shape_totals(trees) -> dict[str, int]:
    """Event totals that the tree shapes fix.

    In a left-corner derivation every internal node is projected once and
    every leaf shifted once; the root and every non-first child are
    derived as goals, and each such goal ends with one attach (base
    machine).  The composed machine attaches only goals that are leaves.
    """
    out = Counter()
    def walk(t, is_goal):
        if isinstance(t, str):
            out["leaves"] += 1
            out["leaf_goals"] += is_goal
            return
        out["internal"] += 1
        out["goals"] += is_goal
        for i, c in enumerate(t[1]):
            walk(c, i > 0)
    for t in trees:
        walk(t, True)
    return dict(out)


def model_totals(model) -> dict[str, int]:
    """The same totals read off an induced model's count tables."""
    if isinstance(model, PcfgModel):
        return {"rules": sum(model.counts.values())}
    base = model.base if isinstance(model, DeltaModel) else model
    out = {
        "shifts": sum(sum(d.values()) for d in base.shift_counts.values()),
        "projections": sum(sum(d.values()) for d in base.proj_counts.values()),
        "attaches": sum(a for a, _ in base.att_counts.values()),
        "decisions": sum(n for _, n in base.att_counts.values()),
    }
    if isinstance(model, DeltaModel):
        out["delta_events"] = sum(sum(d.values()) for d in model.delta_counts.values())
        out["delta_rule_events"] = sum(sum(d.values()) for d in model.rule_counts.values())
    return out


def expected_totals(kind: str, trees) -> dict[str, int]:
    """What :func:`model_totals` must give for ``trees`` (binarized for
    the delta model)."""
    s = shape_totals(trees)
    if kind == "pcfg":
        return {"rules": s["internal"]}
    out = {
        "shifts": s["leaves"],
        "projections": s["internal"],
        "attaches": s["goals"] + s["leaf_goals"],
        "decisions": s["goals"] + s["leaf_goals"] + s["internal"],
    }
    if kind == "delta":
        out["delta_events"] = out["delta_rule_events"] = s["internal"] + s["leaf_goals"]
    return out


def normalization_errors(model, tol: float = 1e-9) -> list[str]:
    """Conditional tables of a loaded model whose mass is not 1."""
    bad = []
    if isinstance(model, PcfgModel):
        mass = Counter()
        for rule in model.rules:
            mass[rule.lhs] += model.prob(rule)
        bad += ["rule %s" % k for k, v in mass.items() if abs(v - 1.0) > tol]
        return bad
    base = model.base if isinstance(model, DeltaModel) else model
    for gc in base.shift_counts:
        if abs(sum(base.shift_dist(gc).values()) - 1.0) > tol:
            bad.append("shift %s" % gc)
    for key in base.proj_counts:
        if abs(sum(base.projections(*key).values()) - 1.0) > tol:
            bad.append("projection %s" % (key,))
    if isinstance(model, DeltaModel):
        for key in model.delta_counts:
            if abs(sum(model.delta_dist(*key).values()) - 1.0) > tol:
                bad.append("delta %s" % (key,))
        for key in model.rule_counts:
            if abs(sum(model.rule_dist(*key).values()) - 1.0) > tol:
                bad.append("delta rule %s" % (key,))
    return bad


def labelled_brackets(t) -> Counter:
    """PARSEVAL brackets of a word-level tree: preterminals and the top
    ROOT never count, and a unary chain over one span keeps its outermost
    label."""
    spans: dict[tuple[int, int], str] = {}
    def walk(n, start, depth):
        if isinstance(n, str):
            return start + 1
        end = start
        for c in n[1]:
            end = walk(c, end, depth + 1)
        if not is_preterminal(n) and not (depth == 0 and n[0] == ROOT):
            spans[(start, end)] = n[0]  # children first, so outer overwrites
        return end
    walk(t, 0, 0)
    return Counter((i, j, lab) for (i, j), lab in spans.items())


def bracket_scores(golds, tests) -> dict[str, float]:
    """Micro-averaged labelled and unlabelled precision and recall."""
    m = lm = g = s = 0
    for gold, test in zip(golds, tests):
        gb, tb = labelled_brackets(gold), labelled_brackets(test)
        lm += sum((gb & tb).values())
        gu = Counter((i, j) for i, j, _ in gb.elements())
        tu = Counter((i, j) for i, j, _ in tb.elements())
        m += sum((gu & tu).values())
        g += sum(gb.values())
        s += sum(tb.values())
    ratio = lambda a, b: a / b if b else 1.0
    return {
        "precision": ratio(m, s), "recall": ratio(m, g),
        "labelled_precision": ratio(lm, s), "labelled_recall": ratio(lm, g),
    }


def f1(p: float, r: float) -> float:
    return 2 * p * r / (p + r) if p + r else 0.0


def perturb(t, rng: random.Random, labels):
    """A copy of a word-level tree with up to three bracket edits: relabel a
    phrase, dissolve it into its parent, or group two adjacent children."""
    def phrases(n, path=()):
        if isinstance(n, str) or is_preterminal(n):
            return []
        out = [path] if path else []
        for i, c in enumerate(n[1]):
            out += phrases(c, path + (i,))
        return out

    def edit(n, path, op):
        if path:
            i = path[0]
            kids = list(n[1])
            if len(path) == 1 and op == "dissolve":
                kids[i:i + 1] = list(kids[i][1])
            else:
                kids[i] = edit(kids[i], path[1:], op)
            return (n[0], tuple(kids))
        if op == "relabel":
            return (rng.choice([x for x in labels if x != n[0]]), n[1])
        # group: wrap two adjacent children in a new phrase
        i = rng.randrange(len(n[1]) - 1)
        grouped = (rng.choice(labels), n[1][i:i + 2])
        return (n[0], n[1][:i] + (grouped,) + n[1][i + 2:])

    for _ in range(rng.randrange(4)):
        paths = phrases(t)
        if not paths:
            break
        path = rng.choice(paths)
        node = t
        for i in path:
            node = node[1][i]
        ops = ["relabel", "dissolve"] + (["group"] if len(node[1]) > 2 else [])
        t = edit(t, path, rng.choice(ops))
    return t
