"""Model files: versioned header, then one tab-separated record per line.

Record kinds:
  RULE  <lhs> <rhs...> <count>                            (pcfg)
  SHIFT <gc> <lc> <count>                                 (plcg, delta)
  ATT   <gc> <count>                                      (plcg)
  PROJ  <gc> <lc> <lhs> <rhs...> <count>                  (plcg)
  DPROJ <depth> <delta> <lc> <gc> <lhs> <rhs...> <count>  (delta)

Each record is the count of one event; probabilities and every sum they
divide by (a decision point's attach + projection total, a delta model's
counts per delta and its PLCG) are derived on load by the model, so no file
can hold a sum that disagrees with its parts.  Every count is at least 1,
and the rule of a PROJ or DPROJ record (other than <attach>) starts with its
<lc>.  A DPROJ record is a move of the composed machine: its delta is the
move's stack change (-2 for <attach>, whose lc is its gc; len(rhs) - 1 for a
projection, len(rhs) - 3 for a composed one, whose lhs is its gc), its rule
has at most two symbols, and its depth is odd and at least 1 (a corner sits
on its goal and on a found and a sought entry per goal below).  The start
symbol is the <lhs> of some RULE (pcfg) or the <gc> of some SHIFT (plcg,
delta), since every parse begins there.  A file holds only its own kind's
records, SHIFT and ATT records have exactly the fields shown, and no record
repeats the key (the fields before its count) of another.  Records are
emitted sorted: saving is deterministic and round-trips byte-exactly.
Version 1 files, which also stored the sums, are refused: the model must be
induced again.
"""

from __future__ import annotations

from pathlib import Path

from .grammar_types import ATTACH_RULE, DeltaModel, Model, PcfgModel, PlcgModel, Rule

FORMAT_VERSION = 2
_HEADER = "PLCG-MODEL"
_RECORDS = {"pcfg": {"RULE"}, "plcg": {"SHIFT", "ATT", "PROJ"}, "delta": {"SHIFT", "DPROJ"}}
_FIELDS = {"SHIFT": 4, "ATT": 3}  # the records of fixed length


class ModelFormatError(ValueError):
    pass


def model_kind(model: Model) -> str:
    if isinstance(model, PcfgModel):
        return "pcfg"
    if isinstance(model, DeltaModel):
        return "delta"
    return "plcg"


def dumps(model: Model) -> str:
    kind = model_kind(model)
    recs: list[str] = []
    if kind == "pcfg":
        for rule, c in model.counts.items():
            recs.append("RULE\t%s\t%s\t%d" % (rule.lhs, "\t".join(rule.rhs), c))
    else:
        for gc, dist in model.shift_counts.items():
            for lc, c in dist.items():
                recs.append("SHIFT\t%s\t%s\t%d" % (gc, lc, c))
    if kind == "plcg":
        for gc, c in model.attach_counts.items():
            recs.append("ATT\t%s\t%d" % (gc, c))
        for (lc, gc), dist in model.proj_counts.items():
            for rule, c in dist.items():
                recs.append(
                    "PROJ\t%s\t%s\t%s\t%s\t%d" % (gc, lc, rule.lhs, "\t".join(rule.rhs), c)
                )
    elif kind == "delta":
        for (lc, gc, depth, delta), dist in model.rule_counts.items():
            for rule, c in dist.items():
                body = (rule.lhs,) + (() if rule == ATTACH_RULE else rule.rhs)
                recs.append("DPROJ\t%d\t%d\t%s\t%s\t%s\t%d"
                            % (depth, delta, lc, gc, "\t".join(body), c))
    recs.sort()
    header = "%s\t%d\t%s\t%s" % (_HEADER, FORMAT_VERSION, kind, model.start)
    return "".join(line + "\n" for line in [header] + recs)


def _count(field: str) -> int:
    c = int(field)
    if c < 1:
        raise ValueError("count %d below 1" % c)
    return c


def _projection(lc: str, lhs: str, rhs: list[str]) -> Rule:
    if not rhs or rhs[0] != lc:
        raise ValueError("rule %s -> %s does not start with left corner %s"
                         % (lhs, " ".join(rhs), lc))
    return Rule(lhs, tuple(rhs))


def loads(text: str) -> Model:
    lines = text.splitlines()
    if not lines:
        raise ModelFormatError("empty model file")
    head = lines[0].split("\t")
    if len(head) != 4 or head[0] != _HEADER:
        raise ModelFormatError("bad header: %r" % lines[0])
    if not head[1].isdecimal() or int(head[1]) != FORMAT_VERSION:
        raise ModelFormatError("unsupported format version %s (this program reads version %d;"
                               " induce the model again with plcg induce)"
                               % (head[1], FORMAT_VERSION))
    kind, start = head[2], head[3]
    if kind not in _RECORDS:
        raise ModelFormatError("unknown model kind %r" % kind)

    rule_counts: dict[Rule, int] = {}
    shift: dict[str, dict[str, int]] = {}
    attach: dict[str, int] = {}
    proj: dict[tuple[str, str], dict[Rule, int]] = {}
    drules: dict[tuple[str, str, int, int], dict[Rule, int]] = {}

    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split("\t")
        tag = fields[0]
        try:
            if tag not in _RECORDS[kind]:
                raise ValueError("no %r record in a %s model" % (tag, kind))
            if len(fields) != _FIELDS.get(tag, len(fields)):
                raise ValueError("%d fields, not %d" % (len(fields), _FIELDS[tag]))
            # Each record stores one value under one key of one table.
            if tag == "RULE":
                table, key = rule_counts, Rule(fields[1], tuple(fields[2:-1]))
            elif tag == "SHIFT":
                table, key = shift.setdefault(fields[1], {}), fields[2]
            elif tag == "ATT":
                table, key = attach, fields[1]
            elif tag == "PROJ":
                gc, lc = fields[1], fields[2]
                table, key = proj.setdefault((lc, gc), {}), _projection(lc, fields[3], fields[4:-1])
            else:  # DPROJ
                depth, delta, lc, gc = int(fields[1]), int(fields[2]), fields[3], fields[4]
                if depth < 1 or depth % 2 == 0:
                    raise ValueError("no corner of the composed machine is at depth %d" % depth)
                body = fields[5:-1]
                if body == [ATTACH_RULE.lhs]:
                    rule, ok = ATTACH_RULE, delta == -2 and lc == gc
                else:
                    rule, n = _projection(lc, body[0], body[1:]), len(body) - 1
                    ok = n <= 2 and (delta == n - 1 or delta == n - 3 and body[0] == gc)
                if not ok:
                    raise ValueError("%s under goal %s is no move with delta %d" % (rule, gc, delta))
                table, key = drules.setdefault((lc, gc, depth, delta), {}), rule
            if key in table:
                raise ValueError("repeats the key of an earlier record")
            table[key] = _count(fields[-1])
        except (IndexError, ValueError) as exc:
            raise ModelFormatError("malformed line %d: %r (%s)" % (lineno, line, exc)) from exc

    if kind == "pcfg" and all(rule.lhs != start for rule in rule_counts):
        raise ModelFormatError("start symbol %r is the lhs of no RULE record" % start)
    if kind != "pcfg" and start not in shift:
        raise ModelFormatError("start symbol %r is the goal of no SHIFT record" % start)
    if kind == "pcfg":
        return PcfgModel(rule_counts, start)
    if kind == "plcg":
        return PlcgModel(shift, attach, proj, start)
    return DeltaModel(drules, shift, start)


def save_model(model: Model, path: str | Path) -> None:
    Path(path).write_text(dumps(model), encoding="utf-8")


def load_model(path: str | Path) -> Model:
    return loads(Path(path).read_text(encoding="utf-8"))
