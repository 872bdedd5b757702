"""Model files: versioned header, then one tab-separated record per line.

Record kinds:
  RULE  <lhs> <rhs...> <count>                      (PCFG)
  SHIFT <gc> <lc> <count>                           (PLCG / delta)
  ATT   <lc> <gc> <attach_count> <total_count>      (PLCG / delta)
  PROJ  <gc> <lc> <lhs> <rhs...> <count>            (PLCG / delta)
  DELTA <depth> <lc> <gc> <delta> <count>           (delta)
  DPROJ <depth> <delta> <lc> <gc> <lhs> <rhs...> <count>  (delta)

Counts are stored, probabilities re-derived on load, so normalization stays
checkable.  Every count is at least 1, an ATT record has
0 <= attach_count <= total_count with total_count >= 1 (and attach_count 0
unless lc = gc), and the rule of a PROJ or DPROJ record (other than
<attach>) starts with its <lc>.  A DPROJ record is a move of the composed
machine: its delta is the move's stack change (-2 for <attach>, whose lc is
its gc; len(rhs) - 1 for a projection, len(rhs) - 3 for a composed one,
whose lhs is its gc), and its rule has at most two symbols.  The start
symbol is the <lhs> of some RULE (pcfg) or the <gc> of some SHIFT (plcg,
delta), since every parse begins there.  A file holds only its own kind's
records, SHIFT, ATT and DELTA records have exactly the fields shown, and no
record repeats the key (the fields before its counts) of another.  Records are
emitted sorted: saving is deterministic and round-trips byte-exactly.
"""

from __future__ import annotations

from pathlib import Path

from .grammar_types import ATTACH_RULE, DeltaModel, Model, PcfgModel, PlcgModel, Rule

FORMAT_VERSION = 1
_HEADER = "PLCG-MODEL"
_RECORDS = {"pcfg": {"RULE"}, "plcg": {"SHIFT", "ATT", "PROJ"},
            "delta": {"SHIFT", "ATT", "PROJ", "DELTA", "DPROJ"}}
_FIELDS = {"SHIFT": 4, "ATT": 5, "DELTA": 6}  # the records of fixed length


class ModelFormatError(ValueError):
    pass


def model_kind(model: Model) -> str:
    if isinstance(model, PcfgModel):
        return "pcfg"
    if isinstance(model, DeltaModel):
        return "delta"
    return "plcg"


def _attach_token(rule: Rule) -> list[str]:
    if rule == ATTACH_RULE:
        return [rule.lhs]
    return [rule.lhs, *rule.rhs]


def _plcg_records(model: PlcgModel) -> list[str]:
    recs = []
    for gc, dist in model.shift_counts.items():
        for lc, c in dist.items():
            recs.append("SHIFT\t%s\t%s\t%d" % (gc, lc, c))
    for (lc, gc), (att, total) in model.att_counts.items():
        recs.append("ATT\t%s\t%s\t%d\t%d" % (lc, gc, att, total))
    for (lc, gc), dist in model.proj_counts.items():
        for rule, c in dist.items():
            recs.append(
                "PROJ\t%s\t%s\t%s\t%s\t%d" % (gc, lc, rule.lhs, "\t".join(rule.rhs), c)
            )
    return recs


def dumps(model: Model) -> str:
    kind = model_kind(model)
    recs: list[str] = []
    if kind == "pcfg":
        for rule, c in model.counts.items():
            recs.append("RULE\t%s\t%s\t%d" % (rule.lhs, "\t".join(rule.rhs), c))
    elif kind == "plcg":
        recs = _plcg_records(model)
    else:
        recs = _plcg_records(model.base)
        for (depth, lc, gc), dist in model.delta_counts.items():
            for delta, c in dist.items():
                recs.append("DELTA\t%d\t%s\t%s\t%d\t%d" % (depth, lc, gc, delta, c))
        for (lc, gc, depth, delta), dist in model.rule_counts.items():
            for rule, c in dist.items():
                recs.append(
                    "DPROJ\t%d\t%d\t%s\t%s\t%s\t%d"
                    % (depth, delta, lc, gc, "\t".join(_attach_token(rule)), c)
                )
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
        raise ModelFormatError("unsupported format version %s" % head[1])
    kind, start = head[2], head[3]
    if kind not in _RECORDS:
        raise ModelFormatError("unknown model kind %r" % kind)

    rule_counts: dict[Rule, int] = {}
    shift: dict[str, dict[str, int]] = {}
    att: dict[tuple[str, str], tuple[int, int]] = {}
    proj: dict[tuple[str, str], dict[Rule, int]] = {}
    dcounts: dict[tuple[int, str, str], dict[int, int]] = {}
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
                attach, total = int(fields[3]), int(fields[4])
                if not 0 <= attach <= total or total < 1 or attach and fields[1] != fields[2]:
                    raise ValueError("attach count %d of %d at %s under goal %s"
                                     % (attach, total, fields[1], fields[2]))
                table, key = att, (fields[1], fields[2])
            elif tag == "PROJ":
                gc, lc = fields[1], fields[2]
                table, key = proj.setdefault((lc, gc), {}), _projection(lc, fields[3], fields[4:-1])
            elif tag == "DELTA":
                depth, lc, gc = int(fields[1]), fields[2], fields[3]
                table, key = dcounts.setdefault((depth, lc, gc), {}), int(fields[4])
            else:  # DPROJ
                depth, delta, lc, gc = int(fields[1]), int(fields[2]), fields[3], fields[4]
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
            table[key] = (attach, total) if tag == "ATT" else _count(fields[-1])
        except (IndexError, ValueError) as exc:
            raise ModelFormatError("malformed line %d: %r (%s)" % (lineno, line, exc)) from exc

    if kind == "pcfg" and all(rule.lhs != start for rule in rule_counts):
        raise ModelFormatError("start symbol %r is the lhs of no RULE record" % start)
    if kind != "pcfg" and start not in shift:
        raise ModelFormatError("start symbol %r is the goal of no SHIFT record" % start)
    if kind == "pcfg":
        return PcfgModel(rule_counts, start)
    base = PlcgModel(shift, att, proj, start)
    if kind == "plcg":
        return base
    return DeltaModel(dcounts, drules, base)


def save_model(model: Model, path: str | Path) -> None:
    Path(path).write_text(dumps(model), encoding="utf-8")


def load_model(path: str | Path) -> Model:
    return loads(Path(path).read_text(encoding="utf-8"))
