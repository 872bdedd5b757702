import math
from pathlib import Path

import pytest

from conftest import assert_model_normalized, t
from plcg.cli import main
from plcg.grammar_types import ATTACH_RULE, DeltaModel, PcfgModel, PlcgModel
from plcg.induction import induce_delta_model, induce_pcfg, induce_plcg
from plcg.lc_parser import _delta_moves, _lc_moves
from plcg.model_io import (
    FORMAT_VERSION,
    ModelFormatError,
    dumps,
    load_model,
    loads,
    model_kind,
    save_model,
)
from plcg.transforms import binarize_corpus


# Every parse begins with a shift under the start symbol, so a plcg or delta
# model must hold one.
START_SHIFT = "SHIFT\tS\tA\t1\n"
GOLDEN = Path(__file__).resolve().parent / "data" / "induce_golden"


def header(kind, start="S"):
    return "PLCG-MODEL\t%d\t%s\t%s\n" % (FORMAT_VERSION, kind, start)


def corpus():
    return [
        t("(S (NP PRP) (VP VB (NP DT NN)))"),
        t("(S (NP NN) (VP VB))"),
        t("(S (NP PRP) (VP VB))"),
    ]


class TestRoundTrip:
    def test_pcfg_byte_exact(self):
        model = induce_pcfg(corpus())
        text = dumps(model)
        assert dumps(loads(text)) == text

    def test_plcg_byte_exact(self):
        model = induce_plcg(corpus())
        text = dumps(model)
        assert dumps(loads(text)) == text

    def test_delta_byte_exact(self):
        model = induce_delta_model(binarize_corpus(corpus()))
        text = dumps(model)
        assert dumps(loads(text)) == text

    def test_pcfg_counts_preserved(self):
        model = induce_pcfg(corpus())
        loaded = loads(dumps(model))
        assert isinstance(loaded, PcfgModel)
        assert loaded.counts == model.counts and loaded.start == model.start

    def test_plcg_tables_preserved(self):
        model = induce_plcg(corpus())
        loaded = loads(dumps(model))
        assert isinstance(loaded, PlcgModel)
        assert loaded.shift_counts == model.shift_counts
        assert loaded.att_counts == model.att_counts
        assert loaded.proj_counts == model.proj_counts

    def test_delta_tables_preserved(self):
        model = induce_delta_model(binarize_corpus(corpus()))
        loaded = loads(dumps(model))
        assert isinstance(loaded, DeltaModel)
        assert loaded.delta_counts == model.delta_counts
        assert loaded.rule_counts == model.rule_counts
        assert loaded.shift_counts == model.shift_counts
        assert loaded.base == model.base

    def test_attach_sentinel_round_trips(self):
        model = induce_delta_model(binarize_corpus(corpus()))
        assert any(
            ATTACH_RULE in dist for dist in model.rule_counts.values()
        )
        loaded = loads(dumps(model))
        assert any(ATTACH_RULE in dist for dist in loaded.rule_counts.values())

    def test_file_round_trip(self, tmp_path):
        model = induce_plcg(corpus())
        path = tmp_path / "model.plcg"
        save_model(model, path)
        assert dumps(load_model(path)) == dumps(model)


class TestFormatErrors:
    def test_empty_file(self):
        with pytest.raises(ModelFormatError):
            loads("")

    def test_bad_header(self):
        with pytest.raises(ModelFormatError):
            loads("SOMETHING\t1\tpcfg\tS\n")

    def test_version_mismatch(self):
        text = dumps(induce_pcfg(corpus())).replace(header("pcfg"), "PLCG-MODEL\t99\tpcfg\tS\n", 1)
        with pytest.raises(ModelFormatError):
            loads(text)

    def test_unknown_kind(self):
        with pytest.raises(ModelFormatError):
            loads(header("mystery"))

    def test_unknown_record(self):
        with pytest.raises(ModelFormatError):
            loads(header("pcfg") + "BOGUS\tA\tB\t1\n")

    def test_malformed_count(self):
        with pytest.raises(ModelFormatError):
            loads(header("pcfg") + "RULE\tS\tA\tnot-a-number\n")

    def test_truncated_record(self):
        with pytest.raises(ModelFormatError):
            loads(header("plcg") + "ATT\tS\n")

    def test_version_not_an_integer(self):
        for version in ("one", "1.0", "", "-1"):
            with pytest.raises(ModelFormatError, match="format version"):
                loads("PLCG-MODEL\t%s\tpcfg\tS\nRULE\tS\tA\t1\n" % version)

    @pytest.mark.parametrize("kind, record", [
        ("pcfg", "RULE\tS\tA\t%s"),
        ("plcg", "SHIFT\tS\tA\t%s"),
        ("plcg", "ATT\tS\t%s"),
        ("plcg", "PROJ\tS\tA\tS\tA\t%s"),
        ("delta", "DPROJ\t1\t-2\tA\tS\tS\tA\t%s"),
    ], ids=["RULE", "SHIFT", "ATT", "PROJ", "DPROJ"])
    def test_count_below_one(self, kind, record):
        head = header(kind)
        start = "SHIFT\tS\tB\t1\n"  # a start record whose key no case repeats
        assert loads(head + record % "2" + "\n" + (start if kind != "pcfg" else ""))
        for count in ("0", "-5"):
            with pytest.raises(ModelFormatError, match="below 1"):
                loads(head + record % count + "\n")

    @pytest.mark.parametrize("kind, record", [
        # Trailing fields on a fixed-length record.
        ("plcg", "SHIFT\tS\tNN\t3\t7"),
        ("plcg", "ATT\tS\t1\t2"),
        # A record of another model kind, or of version 1 only.
        ("plcg", "RULE\tS\tA\t1"),
        ("plcg", "DELTA\t1\tA\tS\t-1\t2"),
        ("plcg", "DPROJ\t1\t-2\tS\tS\t<attach>\t1"),
        ("pcfg", "SHIFT\tS\tA\t1"),
        ("delta", "RULE\tS\tA\t1"),
        ("delta", "ATT\tS\t1"),
        ("delta", "PROJ\tS\tA\tS\tA\t1"),
        ("delta", "DELTA\t1\tA\tS\t0\t1"),
        # A key that an earlier record holds, with a count of its own.
        ("plcg", "SHIFT\tS\tA\t5"),
        ("pcfg", "RULE\tS\tA\t5"),
        ("plcg", "ATT\tS\t5"),
        ("plcg", "PROJ\tS\tA\tS\tA\t5"),
        ("delta", "DPROJ\t01\t0\tA\tS\tS\tA\t5"),
        # A depth at which no corner of the composed machine sits.
        ("delta", "DPROJ\t2\t0\tA\tS\tS\tA\t1"),
        ("delta", "DPROJ\t0\t0\tA\tS\tS\tA\t1"),
        ("delta", "DPROJ\t-3\t0\tA\tS\tS\tA\t1"),
    ], ids=["SHIFT-extra", "ATT-extra", "RULE-in-plcg", "DELTA-in-plcg",
            "DPROJ-in-plcg", "SHIFT-in-pcfg", "RULE-in-delta", "ATT-in-delta",
            "PROJ-in-delta", "DELTA-in-delta", "SHIFT-again", "RULE-again", "ATT-again",
            "PROJ-again", "DPROJ-again", "DPROJ-depth-2", "DPROJ-depth-0",
            "DPROJ-depth--3"])
    def test_record_that_does_not_belong_is_malformed(self, kind, record, tmp_path, capsys):
        # Each of these loaded: the trailing field or the other kind's record
        # was ignored, and the last of two records for one key won.
        good = {"pcfg": "RULE\tS\tA\t1\n",
                "plcg": START_SHIFT + "ATT\tS\t1\nPROJ\tS\tA\tS\tA\t1\n",
                "delta": START_SHIFT + "DPROJ\t1\t0\tA\tS\tS\tA\t1\n"}
        text = header(kind) + good[kind]
        assert loads(text)
        lineno = len(text.splitlines()) + 1
        with pytest.raises(ModelFormatError, match="malformed line %d" % lineno):
            loads(text + record + "\n")
        path = tmp_path / "model"
        path.write_text(text + record + "\n")
        tags = tmp_path / "tags.txt"
        tags.write_text("A\n")
        assert main(["parse", str(path), str(tags)]) == 2
        assert "malformed line %d" % lineno in capsys.readouterr().err

    def test_impossible_attach_counts(self):
        # A total is the attach count plus the projections' counts, so it is
        # never stored and can never fall below the attach count.
        head = header("plcg")
        for att, proj in ((1, 0), (3, 27)):
            text = head + "ATT\tS\t%d\n" % att + START_SHIFT
            if proj:
                text += "PROJ\tS\tS\tS\tS\tA\t%d\n" % proj
            assert loads(text).att_counts == {("S", "S"): (att, att + proj)}
        for att, total in ((35, 30), (-1, 30), (0, 0), (1, 0), (-2, -1)):
            with pytest.raises(ModelFormatError, match="malformed line 2"):
                loads(head + "ATT\tS\tS\t%d\t%d\n" % (att, total))
        for att in (0, -1):
            with pytest.raises(ModelFormatError, match="below 1"):
                loads(head + "ATT\tS\t%d\n" % att)

    def test_projection_must_start_with_its_left_corner(self, tmp_path, capsys):
        # A rule that does not start with the record's corner can never be
        # used, so such a model would lose parses without a word.
        trees = tmp_path / "trees.mrg"
        trees.write_text("(S (NP (DT the) (NN dog)) (VP (VB saw) (NP (PRP it))))\n"
                         "(S (NP (PRP it)) (VP (VB go)))\n")
        tags = tmp_path / "tags.txt"
        tags.write_text("DT NN VB PRP\n")
        for kind, good, bad in (
            ("plcg", "PROJ\tROOT\tDT\tNP\tDT\tNN\t1", "PROJ\tROOT\tDT\tS\tNP\tVP\t1"),
            ("delta", "DPROJ\t1\t1\tDT\tROOT\tNP\tDT\tNN\t1",
             "DPROJ\t1\t1\tDT\tROOT\tS\tNP\tVP\t1"),
        ):
            model = tmp_path / ("model." + kind)
            argv = ["induce", str(trees), str(model), "--model", kind]
            assert main(argv + (["--binarize"] if kind == "delta" else [])) == 0
            text = model.read_text()
            assert good + "\n" in text
            assert main(["parse", str(model), str(tags)]) == 0
            assert "-NOPARSE-" not in capsys.readouterr().out
            model.write_text(text.replace(good + "\n", bad + "\n"))
            lineno = text.splitlines().index(good) + 1
            with pytest.raises(ModelFormatError, match="malformed line %d" % lineno):
                load_model(model)
            assert main(["parse", str(model), str(tags)]) == 2
            assert "does not start with left corner DT" in capsys.readouterr().err
        assert loads(header("delta") + "DPROJ\t1\t-2\tS\tS\t<attach>\t1\n" + START_SHIFT)
        for kind, record in (("plcg", "PROJ\tS\tA\tS\tB\tA\t1"), ("plcg", "PROJ\tS\tA\tS\t1"),
                             ("delta", "DPROJ\t1\t-2\tA\tS\tS\tB\t1"),
                             ("delta", "DPROJ\t1\t-2\tA\tS\tS\t1")):
            with pytest.raises(ModelFormatError, match="malformed line 2.*left corner"):
                loads(header(kind) + record + "\n")

    def test_start_symbol_must_begin_a_record(self, tmp_path, capsys):
        # No parse can begin from such a start symbol, so the model would
        # print -NOPARSE- for every sentence and exit 0.
        tags = tmp_path / "tags.txt"
        tags.write_text("PRP VB\n")
        models = {"pcfg": induce_pcfg(corpus()), "plcg": induce_plcg(corpus()),
                  "delta": induce_delta_model(binarize_corpus(corpus()))}
        for kind, model in models.items():
            text = dumps(model)
            head, rest = text.split("\n", 1)
            assert head.endswith("\tS")
            record = "lhs of no RULE" if kind == "pcfg" else "goal of no SHIFT"
            for start in ("PRP", "XX", ""):
                bad = head[:-1] + start + "\n" + rest
                with pytest.raises(ModelFormatError, match="start symbol %r is the %s record"
                                   % (start, record)):
                    loads(bad)
                path = tmp_path / ("model." + kind)
                path.write_text(bad)
                assert main(["parse", str(path), str(tags)]) == 2
                assert "start symbol" in capsys.readouterr().err
                # A broken record is still reported by its line.
                with pytest.raises(ModelFormatError, match="malformed line 2"):
                    loads(bad.replace("\n", "\nSHIFT\n", 1))
            # Another symbol that begins a record loads.
            assert loads(head[:-1] + "NP\n" + rest).start == "NP"


class TestImpossibleRecords:
    # Records no induction writes: each would let the beam score moves that
    # the model's own tree scorer gives probability zero, or ignore counts.
    # A DPROJ delta is the move's stack change: -2 for <attach>, whose lc is
    # its gc, len(rhs) - 1 for a projection, len(rhs) - 3 for a composed one,
    # whose lhs is its gc; rules have at most two symbols.
    HEAD = header("delta")

    def test_swapped_projection_deltas(self, tmp_path, capsys):
        # Swapped, these two records gave the beam (S (NP a b) (VP c)) at
        # -1.386, exit 0, for a tree delta_tree_log_prob scores -inf.
        model = induce_delta_model([t("(S (NP a b) (VP c))"), t("(S (NP a) (VP c d))")])
        text = dumps(model)
        binary, unary = "DPROJ\t1\t1\ta\tS\tNP\ta\tb\t1", "DPROJ\t1\t0\ta\tS\tNP\ta\t1"
        assert {binary, unary} <= set(text.splitlines())
        swapped = (binary.replace("\t1\ta", "\t0\ta"), unary.replace("\t0\ta", "\t1\ta"))
        tags = tmp_path / "tags.txt"
        tags.write_text("a b c\n")
        path = tmp_path / "model.delta"
        path.write_text(text)
        assert main(["parse", str(path), str(tags)]) == 0
        assert "(S (NP a b) (VP c))" in capsys.readouterr().out
        for bad in (text.replace(binary, swapped[0]), text.replace(unary, swapped[1]),
                    text.replace(binary, swapped[0]).replace(unary, swapped[1])):
            assert bad != text
            with pytest.raises(ModelFormatError, match="no move with delta"):
                loads(bad)
            path.write_text(bad)
            assert main(["parse", str(path), str(tags)]) == 2
            assert "no move with delta" in capsys.readouterr().err

    @pytest.mark.parametrize("record", [
        "DPROJ\t1\t1\ta\tS\tNP\ta\t1",
        "DPROJ\t1\t0\ta\tS\tNP\ta\tb\t1",
        "DPROJ\t1\t-1\ta\tS\tS\ta\t1",
        "DPROJ\t1\t-2\ta\tS\tS\ta\tb\t1",
        "DPROJ\t1\t2\ta\tS\tS\ta\t1",
    ], ids=["unary+1", "binary0", "unary-1", "binary-2", "unary+2"])
    def test_delta_must_be_the_stack_change(self, record):
        with pytest.raises(ModelFormatError, match="malformed line 2.*no move with delta"):
            loads(self.HEAD + record + "\n" + START_SHIFT)

    @pytest.mark.parametrize("record", [
        "DPROJ\t1\t-2\ta\tS\tNP\ta\t1",
        "DPROJ\t1\t-1\tNP\tS\tVP\tNP\tVP\t1",
    ], ids=["unary", "binary"])
    def test_composed_projection_must_fill_its_goal(self, record):
        with pytest.raises(ModelFormatError, match="malformed line 2.*no move with delta"):
            loads(self.HEAD + record + "\n" + START_SHIFT)

    @pytest.mark.parametrize("record", [
        "DPROJ\t1\t0\ta\tS\tS\ta\tb\tc\t1",
        "DPROJ\t1\t2\ta\tS\tNP\ta\tb\tc\t1",
    ], ids=["composed", "plain"])
    def test_rules_are_at_most_binary(self, record):
        # A composed ternary rule's delta, 0, would read as a plain unary's.
        with pytest.raises(ModelFormatError, match="malformed line 2.*no move with delta"):
            loads(self.HEAD + record + "\n" + START_SHIFT)

    @pytest.mark.parametrize("record", [
        "DPROJ\t1\t-2\ta\tS\t<attach>\t1",
        "DPROJ\t1\t-1\tS\tS\t<attach>\t1",
        "DPROJ\t1\t0\tS\tS\t<attach>\t1",
    ], ids=["lc!=gc", "delta-1", "delta0"])
    def test_attach_is_of_a_corner_to_its_own_goal(self, record):
        with pytest.raises(ModelFormatError, match="malformed line 2.*no move with delta"):
            loads(self.HEAD + record + "\n" + START_SHIFT)

    @pytest.mark.parametrize("kind", ["plcg", "delta"])
    def test_attach_count_only_where_lc_is_gc(self, kind):
        # p_att is 0 wherever lc != gc, so such a count was ignored.  An ATT
        # record names only the goal, and a delta model's attaches are its
        # <attach> moves (tested above), so no record names another corner.
        for record in ("ATT\ta\tS\t1", "ATT\ta\tS\t1\t2", "ATT\ta\tS\t0\t2"):
            with pytest.raises(ModelFormatError, match="malformed line 2"):
                loads(header(kind) + record + "\n" + START_SHIFT)
        if kind == "plcg":
            model = loads(header(kind) + "ATT\tS\t2\n" + START_SHIFT)
            assert model.att_counts == {("S", "S"): (2, 2)} and model.p_att("a", "S") == 0

    def test_every_possible_move_loads(self):
        records = ["DPROJ\t1\t0\ta\tS\tNP\ta\t1", "DPROJ\t1\t1\ta\tS\tNP\ta\tb\t1",
                   "DPROJ\t1\t-2\ta\tS\tS\ta\t1", "DPROJ\t1\t-1\ta\tS\tS\ta\tb\t1",
                   "DPROJ\t1\t-2\tS\tS\t<attach>\t1"]
        model = loads(self.HEAD + "\n".join(records) + "\n" + START_SHIFT)
        assert sum(map(len, model.rule_counts.values())) == 5
        # The base machine attaches the <attach> move and both composed
        # projections at (S, S).
        assert model.base.attach_counts == {"S": 3}


def test_model_kind():
    assert model_kind(induce_pcfg(corpus())) == "pcfg"
    assert model_kind(induce_plcg(corpus())) == "plcg"
    assert model_kind(induce_delta_model(binarize_corpus(corpus()))) == "delta"


def test_records_sorted_for_determinism():
    text = dumps(induce_plcg(corpus()))
    lines = text.splitlines()[1:]
    assert lines == sorted(lines)


def test_files_hold_only_event_counts():
    # No stored total: a plcg file holds SHIFT, ATT <gc> <count> and PROJ
    # records, a delta file SHIFT and DPROJ records.
    for kind, tags in (("plcg", {"SHIFT", "ATT", "PROJ"}), ("delta", {"SHIFT", "DPROJ"})):
        lines = (GOLDEN / ("model." + kind)).read_text().splitlines()
        assert lines[0] + "\n" == header(kind, "ROOT")
        assert {line.split("\t")[0] for line in lines[1:]} == tags
        assert all(len(line.split("\t")) == 3 for line in lines if line.startswith("ATT\t"))


def record_edits(text):
    """``text`` with each record deleted, and with each record's last count
    doubled."""
    lines = text.splitlines(keepends=True)
    for i in range(1, len(lines)):
        fields = lines[i].rstrip("\n").split("\t")
        doubled = "\t".join(fields[:-1] + [str(2 * int(fields[-1]))]) + "\n"
        for edit in ([], [doubled]):
            yield "".join(lines[:i] + edit + lines[i + 1:])


def move_masses(model):
    """The total probability of the moves at each decision point that the
    model has counts for."""
    if isinstance(model, DeltaModel):
        tables = [_delta_moves(model, lc, gc, depth) for lc, gc, depth, _ in model.rule_counts]
    else:
        points = set(model.att_counts) | set(model.proj_counts)
        tables = [_lc_moves(model, lc, gc) for lc, gc in points]
    return [math.fsum(math.exp(entry[-1]) for entry in table) for table in tables]


def assert_sums_hold(model):
    """Each total that a model divides by is the sum of the counts it totals."""
    base = model.base
    assert set(base.proj_counts) <= set(base.att_counts)
    for key, (att, total) in base.att_counts.items():
        assert total == att + sum(base.proj_counts.get(key, {}).values()), key
    if isinstance(model, DeltaModel):
        sums = {}
        for (lc, gc, depth, delta), dist in model.rule_counts.items():
            sums.setdefault((depth, lc, gc), {})[delta] = sum(dist.values())
        assert model.delta_counts == sums


@pytest.mark.parametrize("kind", ["plcg", "delta"])
def test_an_edited_record_never_loads_a_broken_model(kind):
    # When files stored totals beside their parts, an edit changed
    # probabilities in silence: a tenfold attach total parsed every sentence
    # at a lower log-prob, and a deleted DELTA record left its decision
    # point with no moves.  Each edit now loads a normalized model or is
    # refused.
    loaded = 0
    for text in record_edits((GOLDEN / ("model." + kind)).read_text()):
        try:
            model = loads(text)
        except ModelFormatError:
            continue
        loaded += 1
        assert_model_normalized(model)
        assert_sums_hold(model)
        for mass in move_masses(model):
            assert abs(mass - 1.0) < 1e-9, text
    assert loaded


def test_version_1_file_is_refused(tmp_path, capsys):
    # Version 1 files stored sums beside their counts.  The number tells the
    # formats apart: a version-1 reader would load a version-2 delta file
    # with no moves.
    tags = tmp_path / "tags.txt"
    tags.write_text("PRP VB\n")
    for kind in ("pcfg", "plcg", "delta"):
        text = (GOLDEN / ("model." + kind)).read_text()
        v1 = text.replace(header(kind, "ROOT"), "PLCG-MODEL\t1\t%s\tROOT\n" % kind, 1)
        assert v1 != text
        path = tmp_path / ("model." + kind)
        path.write_text(v1)
        assert main(["parse", str(path), str(tags)]) == 2
        err = capsys.readouterr().err
        assert "unsupported format version 1 " in err and "induce the model again" in err
