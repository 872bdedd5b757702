import ast
import math
import os
import re
import subprocess
import sys
import tokenize
from collections import defaultdict
from pathlib import Path

import pytest

import plcg
from plcg import chart
from plcg.cli import main
from plcg.derivation import PROJECT, derivation_events, stack_delta
from plcg.corpus import generate_corpus
from plcg.induction import induce_delta_model, induce_plcg
from plcg.lc_parser import beam_parse
from plcg.model_io import FORMAT_VERSION
from plcg.transforms import binarize_corpus
from plcg.treebank import (
    PreprocessOptions,
    Tree,
    leaves,
    post_order,
    preprocess_corpus,
    read_trees,
    to_pos_tree,
    write_tree,
    write_trees,
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
        assert model_path.read_text().startswith(
            "PLCG-MODEL\t%d\tplcg\tROOT\n" % FORMAT_VERSION)
        assert "top rules:" in out and "ROOT -> S" in out

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        code, _, err = run(capsys, ["induce", str(tmp_path / "nope.txt"), str(tmp_path / "m")])
        assert code == 2 and "error" in err

    def test_empty_corpus_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        code, _, _ = run(capsys, ["induce", str(empty), str(tmp_path / "m")])
        assert code == 2

    def test_tag_level_tree_is_data_error(self, tmp_path, capsys):
        # (NP PRP) would read as a preterminal; VB next to a phrase gives the
        # tag level away.
        tagged = tmp_path / "tagged.txt"
        tagged.write_text("(S (NP PRP) (VP VB (NP DT NN)))\n")
        code, _, err = run(capsys, ["induce", str(tagged), str(tmp_path / "m")])
        assert code == 2 and "word-level" in err

    @pytest.mark.parametrize("kind", ["plcg", "delta"])
    def test_builds_each_training_node_once(self, tmp_path, capsys, monkeypatch, kind):
        # Reading, preprocessing, tag reduction and (for delta) binarization
        # are one pass: every Tree built is a node of the training trees, and
        # no word under a preterminal is built at all.
        corpus = tmp_path / "raw.mrg"
        corpus.write_text(write_trees(generate_corpus(80, seed=4, raw=True))
                          + "( (S (NP (PRP he)) (VP (VB ran))) )\n(NP a b c)\n")
        trees = [to_pos_tree(t) for t in preprocess_corpus(read_trees(corpus.read_text()),
                                                           PreprocessOptions())[0]]
        nodes = sum(len(post_order(t)) for t in (binarize_corpus(trees) if kind == "delta"
                                                  else trees))
        built = []
        init = Tree.__init__
        monkeypatch.setattr(Tree, "__init__", lambda self, *a: built.append(init(self, *a)))
        assert main(["induce", str(corpus), str(tmp_path / "m"), "--model", kind]) == 0
        monkeypatch.undo()
        assert len(built) == nodes

    def test_delta_binarizes_without_being_asked(self, workspace, capsys):
        # The delta model is defined over binarized trees, so --binarize
        # changes nothing for it.
        outputs = []
        for extra in ([], ["--binarize"]):
            path = workspace / ("m%d.delta" % len(extra))
            argv = ["induce", str(workspace / "corpus.txt"), str(path), "--model", "delta"]
            code, out, _ = run(capsys, argv + extra)
            assert code == 0
            outputs.append((path.read_bytes(), out))
        assert outputs[0] == outputs[1]
        assert b"@" in outputs[0][0]  # binarized symbols

    def test_delta_with_binarize(self, workspace, capsys):
        code, _, _ = run(
            capsys,
            ["induce", str(workspace / "corpus.txt"), str(workspace / "m.delta"),
             "--model", "delta", "--binarize", "--unary", "fold_up"],
        )
        assert code == 0
        assert (workspace / "m.delta").read_text().startswith(
            "PLCG-MODEL\t%d\tdelta" % FORMAT_VERSION)

    def test_fold_down_is_not_a_unary_mode(self, workspace, capsys):
        # Relabelling the tag under a unary phrase, as in (NP (PRP he)) to
        # the leaf NP, would give a model terminals that are not tags.
        argv = ["induce", str(workspace / "corpus.txt"), str(workspace / "m.plcg"),
                "--unary", "fold_down"]
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        captured = capsys.readouterr()
        assert exit_.value.code == 1 and captured.out == ""
        assert "invalid choice: 'fold_down'" in captured.err
        assert "Traceback" not in captured.err and not (workspace / "m.plcg").exists()


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

    def test_delta_base_variant_is_the_binarized_plcg(self, workspace):
        # A delta model's PLCG, `model.base`, is the one `induce --model
        # plcg --binarize` estimates; parsing it caches tables on that PLCG
        # only.
        trees = read_trees((workspace / "corpus.txt").read_text())
        pre, _ = preprocess_corpus(trees, PreprocessOptions())
        binarized = binarize_corpus([to_pos_tree(t) for t in pre])
        delta, plcg = induce_delta_model(binarized), induce_plcg(binarized)
        parsed = 0
        for line in (workspace / "tags.txt").read_text().splitlines():
            tags = line.split()
            expect = beam_parse(tags, plcg, k=20)
            assert beam_parse(tags, delta.base, k=20, variant="base") == expect
            assert beam_parse(tags, delta.base, k=20) == expect
            parsed += bool(expect)
        assert parsed and not delta.move_tables and delta.base.move_tables

    def test_variant_is_not_an_option(self, workspace, capsys):
        # The model kind picks the machine.
        for kind in ("plcg", "delta", "pcfg"):
            model = self.induce(workspace, capsys, kind)
            argv = ["parse", str(model), str(workspace / "tags.txt"), "--variant", "base"]
            with pytest.raises(SystemExit) as exit_:
                main(argv)
            captured = capsys.readouterr()
            assert exit_.value.code == 1 and captured.out == ""
            assert "unrecognized arguments: --variant base" in captured.err

    def test_uncovered_tag_gives_noparse(self, workspace, capsys):
        model = self.induce(workspace, capsys)
        bad = workspace / "bad.txt"
        bad.write_text("XX YY\n")
        code, out, _ = run(capsys, ["parse", str(model), str(bad)])
        assert code == 0 and out.strip() == "-NOPARSE-"

    def test_a_sentence_ends_only_at_a_line_end(self, workspace, capsys):
        # str.splitlines() also breaks at form feed, U+0085 and U+2028,
        # which a tag file, like the tree reader, reads as spaces.
        model = self.induce(workspace, capsys)
        lines = (workspace / "tags.txt").read_text().splitlines()[:3]
        plain, odd = workspace / "plain.txt", workspace / "odd.txt"
        plain.write_text("".join(line + "\n" for line in lines))
        odd.write_text("".join(line.replace(" ", sep, 1) + "\n"
                               for line, sep in zip(lines, "\x0c\x85\u2028")), encoding="utf-8")
        code, out, err = run(capsys, ["parse", str(model), str(odd)])
        assert code == 0 and len(out.splitlines()) == 3 and err.startswith("parsed 3/3 ")
        assert (code, out, err) == run(capsys, ["parse", str(model), str(plain)])

    @pytest.mark.parametrize("kind", ["plcg", "pcfg"])
    def test_summary_without_a_parse_has_no_mean(self, workspace, capsys, kind):
        # No sentence parses, so there is no mean log-prob to report.
        model = self.induce(workspace, capsys, kind)
        bad = workspace / "bad.txt"
        bad.write_text("XX YY\nYY\n")
        code, out, err = run(capsys, ["parse", str(model), str(bad)])
        assert code == 0 and out == "-NOPARSE-\n-NOPARSE-\n"
        assert err == "parsed 0/2 sentences (2 no-parse)\n"
        # One parse is enough for the mean.
        bad.write_text("XX YY\n" + (workspace / "tags.txt").read_text().splitlines()[0] + "\n")
        code, out, err = run(capsys, ["parse", str(model), str(bad)])
        lp = float(out.splitlines()[1].split("\t")[1])
        assert err == "parsed 1/2 sentences (1 no-parse), mean log-prob %.6f\n" % lp

    def test_engines_agree_on_best_tree(self, tmp_path, capsys):
        # Unambiguous corpus: both scoring models must return the gold tree.
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(
            "(S (NP (PRP he)) (VP (VB saw) (NP (DT the) (NN dog))))\n"
            "(S (NP (PRP she)) (VP (VB made) (NP (DT a) (NN deal))))\n"
            "(S (NP (DT the) (NN man)) (VP (VB ran)))\n"
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
        assert lc_trees == cky_trees == [
            "(ROOT (S (NP PRP) (VP VB (NP DT NN))))",
            "(ROOT (S (NP DT NN) (VP VB)))",
        ]

    def test_n_best_blocks(self, workspace, capsys):
        model = self.induce(workspace, capsys)
        code, out, _ = run(
            capsys,
            ["parse", str(model), str(workspace / "tags.txt"), "--n-best", "3", "--beam", "500"],
        )
        assert code == 0
        first_block = out.split("\n\n")[0].splitlines()
        assert first_block[0].startswith("1\t")

    def test_n_best_no_parse_block_ends_in_a_blank_line(self, workspace, capsys):
        # Each sentence's block ends in a blank line, so splitting the output
        # on blank lines gives one block per sentence.
        model = self.induce(workspace, capsys)
        tags = workspace / "t3.txt"
        tags.write_text("PRP VB\nXX YY\nPRP VB\n")
        code, out, _ = run(capsys, ["parse", str(model), str(tags), "--n-best", "3"])
        assert code == 0 and out.endswith("\n\n")
        blocks = out[:-2].split("\n\n")
        assert len(blocks) == 3 and blocks[1] == "-NOPARSE-"
        assert blocks[0] == blocks[2] and blocks[0].startswith("1\t")

    def test_engine_model_mismatch_is_usage_error(self, workspace, capsys):
        # The model kind picks the engine; flags it does not take are errors.
        models = {kind: self.induce(workspace, capsys, kind) for kind in ("plcg", "pcfg")}
        for kind, flags in [("pcfg", ["--n-best", "2"]),
                            ("pcfg", ["--beam", "1"])]:
            argv = ["parse", str(models[kind]), str(workspace / "tags.txt")] + flags
            code, out, err = run(capsys, argv)
            assert code == 1 and flags[0] in err and out == "", (kind, flags)

    def test_impossible_model_counts_are_data_errors(self, workspace, capsys):
        # A zero or negative shift count once ended in a ZeroDivisionError.
        # An attach count is a count too; its total, which could once exceed
        # it, is no longer stored.
        text = self.induce(workspace, capsys).read_text()
        shift = next(line for line in text.splitlines() if line.startswith("SHIFT\t"))
        att = next(line for line in text.splitlines() if line.startswith("ATT\t"))
        cases = [(line, line.rsplit("\t", 1)[0] + "\t" + count)
                 for line in (shift, att) for count in ("0", "-5")]
        for line, replacement in cases:
            broken = workspace / "broken.plcg"
            broken.write_text(text.replace(line, replacement, 1))
            code, out, err = run(capsys, ["parse", str(broken), str(workspace / "tags.txt")])
            assert code == 2 and "malformed line" in err, replacement
            assert "Traceback" not in err and out == ""

    def test_chart_out_of_memory_is_data_error(self, workspace, capsys, monkeypatch):
        # A chart that does not fit in memory names the sentence's length
        # and exits with the data code, not a numpy traceback.
        model = self.induce(workspace, capsys, "pcfg")

        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(chart.np, "full", no_memory)
        code, out, err = run(capsys, ["parse", str(model), str(workspace / "tags.txt")])
        n = len((workspace / "tags.txt").read_text().splitlines()[0].split())
        assert code == 2 and "a %d-tag sentence" % n in err, err
        assert "Traceback" not in err and out == ""

    def test_bad_beam_is_usage_error(self, workspace, capsys):
        model = self.induce(workspace, capsys)
        tags, gold, out = (str(workspace / name) for name in ("tags.txt", "gold.txt", "out"))
        for argv in (["parse", str(model), tags, "--beam", "0"],
                     ["parse", str(model), tags, "--n-best", "0"],
                     ["gen-corpus", out, "--size", "0"],
                     ["eval", gold, gold, "--max-length", "0"],
                     ["induce", gold, out, "--top-rules", "-1"]):
            code, _, err = run(capsys, argv)
            assert code == 1 and "%s must be >= " % argv[-2] in err, argv


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


def stats_rows(table):
    """The rows ``plcg stats`` prints for a {size: {delta: count}} table."""
    rows = []
    for size in sorted(table):
        total = sum(table[size].values())
        cells = tuple(100.0 * table[size].get(d, 0) / total for d in (-1, 0, 1))
        rows.append("%-6d %8d %7.1f%% %7.1f%% %7.1f%%" % (size, total, *cells))
    return rows


class TestStats:
    @pytest.mark.parametrize("seed", [1, 4, 11])
    def test_rows_are_the_delta_counts_per_depth(self, tmp_path, capsys, seed):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(write_trees(generate_corpus(150, seed=seed, raw=True)))
        opts = PreprocessOptions(unary_mode="fold_up", pos_tags=True, binarize=True)
        trees, _ = preprocess_corpus(corpus.read_text(), opts)
        # The delta model's counts, delta -2 left out, summed per depth ...
        table = defaultdict(lambda: defaultdict(int))
        for (depth, _, _), row in induce_delta_model(trees).delta_counts.items():
            for delta, count in row.items():
                if delta != -2:
                    table[depth][delta] += count
        # ... are the composed projections' deltas, counted walk by walk.
        walked = defaultdict(lambda: defaultdict(int))
        for tree in trees:
            for ev in derivation_events(tree, compose=True):
                if ev[0] == PROJECT and stack_delta(ev) != -2:
                    walked[ev[3]][stack_delta(ev)] += 1
        assert table == walked and table
        code, out, _ = run(capsys, ["stats", str(corpus)])
        assert code == 0
        assert out.splitlines()[1:] == stats_rows(table)

    def test_no_usable_tree_prints_the_header_only(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("(S (-NONE- *))\n")
        code, out, err = run(capsys, ["stats", str(empty)])
        assert code == 0
        assert out.splitlines() == ["%-6s %8s %8s %8s %8s" % ("size", "total", "-1", "0", "+1")]
        assert "(no projection events)" in err

    def test_rows_sum_to_hundred(self, workspace, capsys):
        code, out, _ = run(capsys, ["stats", str(workspace / "corpus.txt")])
        assert code == 0
        rows = out.splitlines()[1:]
        assert rows
        for row in rows:
            cells = [float(x.rstrip("%")) for x in row.split()[2:]]
            assert sum(cells) == pytest.approx(100.0, abs=0.5)


def test_deep_and_wide_trees_go_through(tmp_path, capsys):
    # Reading, preprocessing, binarization, derivations and scoring walk
    # trees from explicit stacks, so neither a 1,500-level chain nor a
    # 1,500-child node meets the recursion limit.
    shapes = {"deep": "(S " + "(X " * 1500 + "(NN a)" + ")" * 1501 + "\n",
              "wide": "(S" + " (NN a)" * 1500 + ")\n"}
    for shape, text in shapes.items():
        trees = tmp_path / (shape + ".txt")
        trees.write_text(text)
        model = str(tmp_path / "m")
        for argv in (["induce", str(trees), model, "--model", "pcfg"],
                     ["induce", str(trees), model, "--model", "plcg"],
                     ["induce", str(trees), model, "--model", "delta", "--binarize"],
                     ["eval", str(trees), str(trees)],
                     ["stats", str(trees)]):
            code, out, err = run(capsys, argv)
            assert code == 0, (shape, argv, err)
            if argv[0] == "eval":
                assert "labelled_recall=1.0" in out


def test_leading_bom_is_ignored(workspace, capsys):
    # A UTF-8 byte order mark before a tree or tag file is not read as a
    # word: the files give the same model bytes, parses and eval report.
    for name in ("corpus.txt", "tags.txt", "gold.txt"):
        (workspace / ("bom-" + name)).write_bytes(b"\xef\xbb\xbf" + (workspace / name).read_bytes())
    results = []
    for prefix in ("", "bom-"):
        corpus, tags, gold = (str(workspace / (prefix + name))
                              for name in ("corpus.txt", "tags.txt", "gold.txt"))
        model = workspace / (prefix + "m.plcg")
        code, induced, _ = run(capsys, ["induce", corpus, str(model)])
        assert code == 0
        parsed = run(capsys, ["parse", str(model), tags])
        (workspace / (prefix + "test.txt")).write_text(
            "".join(line.split("\t")[0] + "\n" for line in parsed[1].splitlines()))
        report = run(capsys, ["eval", gold, str(workspace / (prefix + "test.txt"))])
        results.append((induced, model.read_bytes(), parsed[:2], report))
    assert results[0] == results[1]


def test_every_module_is_imported_by_the_cli():
    # A module that the command line does not import is one nothing calls.
    # The package's __init__ re-exports every module, so it is skipped: an
    # empty package object stands in for it.
    package = Path(plcg.__file__).parent
    expected = {"plcg." + p.stem for p in package.glob("*.py")} - {"plcg.__init__", "plcg.__main__"}
    script = (
        "import sys, types\n"
        "pkg = types.ModuleType('plcg')\n"
        "pkg.__path__ = [%r]\n"
        "sys.modules['plcg'] = pkg\n"
        "import plcg.cli\n"
        "print('\\n'.join(sys.modules))\n" % str(package)
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, timeout=60).stdout.split()
    assert "plcg.cli" in out
    assert expected - set(out) == set()


def _name_tokens(path):
    """(line, name) of each NAME token of a Python file: its names in code,
    not in strings or comments."""
    with tokenize.open(path) as f:
        return [(tok.start[0], tok.string) for tok in tokenize.generate_tokens(f.readline)
                if tok.type == tokenize.NAME]


def test_every_public_name_is_used():
    # A public top-level function or class, or a public method or property
    # of a public class, that only its own definition names is one nothing
    # calls; the references that only tests use live in tests/oracles.py.
    # A use is a name in code: in its own module off the definition line, in
    # another module (the re-exporting __init__ aside) or in the benchmark,
    # or a whole word in the CI workflow, which is YAML around shell.
    package = Path(plcg.__file__).parent
    root = Path(__file__).resolve().parent.parent
    sources = {p.stem: p for p in package.glob("*.py") if p.stem != "__init__"}
    tokens = {module: _name_tokens(p) for module, p in sources.items()}
    bench = list((root / "lcbench").glob("*.py"))
    # A name the benchmark defines itself (a def or class at any depth, as
    # reference.py's preprocess) is its own, so it does not count as a use.
    own = {node.name for p in bench for node in ast.walk(ast.parse(p.read_text()))
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    outside = {name for p in bench for _, name in _name_tokens(p)} - own
    workflow = (root / ".github" / "workflows" / "tier1.yml").read_text()
    # Entry points of the documented API that the pipeline does not call:
    # sentence_probability, the inside probability that language-model
    # measurements need, and score_pair, score_corpus for one gold/test pair.
    allowed = {"chart.sentence_probability", "evalb.score_pair"}
    unused = set()
    for module, path in sources.items():
        others = outside | {name for m, toks in tokens.items() if m != module
                            for _, name in toks}
        defs = []
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            defs.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                defs += [("%s.%s" % (node.name, f.name), f) for f in node.body
                         if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
        for qualname, node in defs:
            used = (any(name == node.name and line != node.lineno for line, name in tokens[module])
                    or node.name in others or re.search(r"\b%s\b" % node.name, workflow))
            if not used:
                unused.add("%s.%s" % (module, qualname))
    assert unused - allowed == set()


@pytest.mark.parametrize("command", ["eval", "gen-corpus", "induce"])
def test_closed_stdout_pipe_exits_zero(workspace, command):
    # The reader closes the pipe before the command writes, so every write
    # to stdout fails: eval writes its report at the final flush, gen-corpus
    # writes 300 KB while it runs, and induce prints its report as well.
    argv = {"eval": ["eval", "gold.txt", "gold.txt"],
            "gen-corpus": ["gen-corpus", "-", "--size", "5000"],
            "induce": ["induce", "corpus.txt", "model.plcg"]}[command]
    src = str(Path(plcg.__file__).resolve().parent.parent)
    proc = subprocess.Popen([sys.executable, "-m", "plcg", *argv], cwd=workspace,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": src})
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 0, err
    assert "error" not in err and "Traceback" not in err and "Exception" not in err


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 1
