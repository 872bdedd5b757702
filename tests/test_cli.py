import math

import pytest

from plcg.cli import main
from plcg.induction import induce_plcg
from plcg.lc_parser import beam_parse
from plcg.treebank import (
    PreprocessOptions,
    leaves,
    preprocess_corpus,
    read_trees,
    to_pos_tree,
    write_tree,
)


@pytest.fixture
def workspace(tmp_path):
    """A corpus file plus matching tag and gold files."""
    corpus = tmp_path / "corpus.txt"
    assert main(["gen-corpus", str(corpus), "--size", "120", "--seed", "3"]) == 0
    trees = read_trees(corpus.read_text())
    pre, _ = preprocess_corpus(trees, PreprocessOptions())
    tag_trees = [to_pos_tree(t) for t in pre[:30]]
    tags = tmp_path / "tags.txt"
    tags.write_text("".join(" ".join(leaves(t)) + "\n" for t in tag_trees))
    gold = tmp_path / "gold.txt"
    gold.write_text("".join(write_tree(t) + "\n" for t in tag_trees))
    return tmp_path


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenCorpus:
    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["gen-corpus", str(a), "--size", "50", "--seed", "9"])
        main(["gen-corpus", str(b), "--size", "50", "--seed", "9"])
        assert a.read_text() == b.read_text()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["gen-corpus", str(a), "--size", "50", "--seed", "1"])
        main(["gen-corpus", str(b), "--size", "50", "--seed", "2"])
        assert a.read_text() != b.read_text()

    def test_raw_mode_has_annotations(self, tmp_path):
        out = tmp_path / "raw.txt"
        main(["gen-corpus", str(out), "--size", "200", "--seed", "5", "--raw"])
        text = out.read_text()
        assert "-NONE-" in text and "-SBJ" in text

    def test_stdout_target(self, capsys):
        code, out, _ = run(capsys, ["gen-corpus", "-", "--size", "3", "--seed", "1"])
        assert code == 0 and out.count("(S") >= 3


class TestInduce:
    def test_writes_model_and_report(self, workspace, capsys):
        model_path = workspace / "m.plcg"
        code, out, err = run(
            capsys, ["induce", str(workspace / "corpus.txt"), str(model_path)]
        )
        assert code == 0
        assert model_path.read_text().startswith("PLCG-MODEL\t1\tplcg\tROOT\n")
        assert "top rules:" in out and "ROOT -> S" in out

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        code, _, err = run(capsys, ["induce", str(tmp_path / "nope.txt"), str(tmp_path / "m")])
        assert code == 2 and "error" in err

    def test_empty_corpus_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        code, _, _ = run(capsys, ["induce", str(empty), str(tmp_path / "m")])
        assert code == 2

    def test_deep_nesting_is_data_error(self, tmp_path, capsys):
        deep = tmp_path / "deep.txt"
        deep.write_text("(S " + "(X " * 1500 + "(NN a)" + ")" * 1501 + "\n")
        code, _, err = run(capsys, ["induce", str(deep), str(tmp_path / "m")])
        assert code == 2 and "error" in err and "nested too deeply" in err
        assert "Traceback" not in err

    def test_delta_requires_binarize(self, workspace, capsys):
        code, _, err = run(
            capsys,
            ["induce", str(workspace / "corpus.txt"), str(workspace / "m"), "--model", "delta"],
        )
        assert code == 1 and "--binarize" in err

    def test_delta_with_binarize(self, workspace, capsys):
        code, _, _ = run(
            capsys,
            ["induce", str(workspace / "corpus.txt"), str(workspace / "m.delta"),
             "--model", "delta", "--binarize", "--unary", "fold_up"],
        )
        assert code == 0
        assert (workspace / "m.delta").read_text().startswith("PLCG-MODEL\t1\tdelta")


class TestParse:
    def induce(self, workspace, capsys, kind="plcg", extra=()):
        path = workspace / ("m.%s" % kind)
        argv = ["induce", str(workspace / "corpus.txt"), str(path), "--model", kind]
        assert main(argv + list(extra)) == 0
        capsys.readouterr()
        return path

    def test_output_line_per_sentence(self, workspace, capsys):
        model = self.induce(workspace, capsys)
        code, out, err = run(
            capsys, ["parse", str(model), str(workspace / "tags.txt"), "--beam", "200"]
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 30
        assert all("\t" in line or line == "-NOPARSE-" for line in lines)
        assert "parsed" in err

    def test_matches_in_process_parses(self, workspace, capsys):
        model = self.induce(workspace, capsys)
        code, out, _ = run(
            capsys, ["parse", str(model), str(workspace / "tags.txt"), "--beam", "400"]
        )
        assert code == 0
        trees = read_trees((workspace / "corpus.txt").read_text())
        pre, _ = preprocess_corpus(trees, PreprocessOptions())
        plcg = induce_plcg([to_pos_tree(t) for t in pre])
        for line, tag_line in zip(out.splitlines(), (workspace / "tags.txt").read_text().splitlines()):
            expect = beam_parse(tag_line.split(), plcg, k=400)
            tree_text, lp_text = line.split("\t")
            assert tree_text == write_tree(expect[0][0])
            assert math.isclose(float(lp_text), expect[0][1], abs_tol=5e-7)

    def test_delta_model_runs_base_and_compose(self, workspace, capsys):
        # Those variants read the delta model's PLCG tables, which are the
        # ones `induce --model plcg --binarize` estimates.
        delta = self.induce(workspace, capsys, "delta", ["--binarize"])
        plcg = self.induce(workspace, capsys, "plcg", ["--binarize"])
        tags = str(workspace / "tags.txt")
        for variant in ("base", "compose"):
            code, from_delta, _ = run(capsys, ["parse", str(delta), tags, "--variant", variant])
            assert code == 0 and "\t" in from_delta
            code, from_plcg, _ = run(capsys, ["parse", str(plcg), tags, "--variant", variant])
            assert code == 0 and from_delta == from_plcg

    def test_uncovered_tag_gives_noparse(self, workspace, capsys):
        model = self.induce(workspace, capsys)
        bad = workspace / "bad.txt"
        bad.write_text("XX YY\n")
        code, out, _ = run(capsys, ["parse", str(model), str(bad)])
        assert code == 0 and out.strip() == "-NOPARSE-"

    def test_engines_agree_on_best_tree(self, tmp_path, capsys):
        # Unambiguous corpus: both scoring models must return the gold tree.
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(
            "(S (NP PRP) (VP VB (NP DT NN)))\n"
            "(S (NP PRP) (VP VB (NP DT NN)))\n"
            "(S (NP DT NN) (VP VB))\n"
        )
        tags = tmp_path / "tags.txt"
        tags.write_text("PRP VB DT NN\nDT NN VB\n")
        for kind in ("plcg", "pcfg"):
            assert main(["induce", str(corpus), str(tmp_path / kind), "--model", kind]) == 0
        capsys.readouterr()
        code, lc_out, _ = run(capsys, ["parse", str(tmp_path / "plcg"), str(tags), "--beam", "5000"])
        assert code == 0
        code, cky_out, _ = run(capsys, ["parse", str(tmp_path / "pcfg"), str(tags)])
        assert code == 0
        lc_trees = [line.split("\t")[0] for line in lc_out.splitlines()]
        cky_trees = [line.split("\t")[0] for line in cky_out.splitlines()]
        assert lc_trees == cky_trees

    def test_n_best_blocks(self, workspace, capsys):
        model = self.induce(workspace, capsys)
        code, out, _ = run(
            capsys,
            ["parse", str(model), str(workspace / "tags.txt"), "--n-best", "3", "--beam", "500"],
        )
        assert code == 0
        first_block = out.split("\n\n")[0].splitlines()
        assert first_block[0].startswith("1\t")

    def test_engine_model_mismatch_is_usage_error(self, workspace, capsys):
        model = self.induce(workspace, capsys, "plcg")
        code, _, _ = run(
            capsys, ["parse", str(model), str(workspace / "tags.txt"), "--engine", "pcfg"]
        )
        assert code == 1

    def test_bad_beam_is_usage_error(self, workspace, capsys):
        model = self.induce(workspace, capsys)
        code, _, _ = run(
            capsys, ["parse", str(model), str(workspace / "tags.txt"), "--beam", "0"]
        )
        assert code == 1


class TestEvalCommand:
    def test_perfect_on_identical_files(self, workspace, capsys):
        code, out, _ = run(
            capsys, ["eval", str(workspace / "gold.txt"), str(workspace / "gold.txt")]
        )
        assert code == 0
        rows = {line[:28].strip(): line[28:].strip() for line in out.splitlines() if line}
        assert rows["Labelled Precision"] == "100.0%"
        assert rows["Average CBs"] == "0.00"
        assert "labelled_recall=1.0" in out

    def test_max_length_reports_retained(self, workspace, capsys):
        code, out, _ = run(
            capsys,
            ["eval", str(workspace / "gold.txt"), str(workspace / "gold.txt"),
             "--max-length", "3"],
        )
        assert code == 0 and "retained=" in out and "cutoff" in out

    def test_misaligned_is_data_error(self, workspace, capsys, tmp_path):
        short = tmp_path / "short.txt"
        short.write_text("(S a)\n")
        code, _, _ = run(capsys, ["eval", str(workspace / "gold.txt"), str(short)])
        assert code == 2


class TestStats:
    def test_rows_sum_to_hundred(self, workspace, capsys):
        code, out, _ = run(capsys, ["stats", str(workspace / "corpus.txt")])
        assert code == 0
        rows = out.splitlines()[1:]
        assert rows
        for row in rows:
            cells = [float(x.rstrip("%")) for x in row.split()[2:]]
            assert sum(cells) == pytest.approx(100.0, abs=0.5)


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 1
