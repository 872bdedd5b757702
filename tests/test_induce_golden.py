"""Induction's output, pinned: ``tests/data/induce_golden/`` holds the model
files and stdout of ``plcg induce`` for pcfg, plcg and delta, and the stdout
of ``plcg stats``, all on ``generate_corpus(500, seed=7, raw=True)``.  A
change to the derivation walk or the counters that should leave models
byte-identical must leave these files as they are.

Rewrite the files (only on a change meant to alter outputs) with
``PYTHONPATH=src python tests/test_induce_golden.py``."""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

from plcg.cli import main
from plcg.corpus import generate_corpus
from plcg.treebank import write_trees

GOLDEN = Path(__file__).resolve().parent / "data" / "induce_golden"
KINDS = ("pcfg", "plcg", "delta")


def golden_outputs(workdir: Path) -> dict[str, bytes]:
    """File name -> bytes: ``model.<kind>`` and ``induce-<kind>.out`` per
    model kind, and ``stats.out``."""
    corpus = workdir / "corpus.mrg"
    corpus.write_text(write_trees(generate_corpus(500, seed=7, raw=True)), encoding="utf-8")
    out = {}
    runs = [("induce-%s.out" % kind, ["induce", str(corpus), str(workdir / ("model." + kind)),
                                     "--model", kind]) for kind in KINDS]
    runs.append(("stats.out", ["stats", str(corpus)]))
    for name, argv in runs:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 0, argv
        out[name] = stdout.getvalue().encode("utf-8")
    for kind in KINDS:
        out["model." + kind] = (workdir / ("model." + kind)).read_bytes()
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return golden_outputs(tmp_path_factory.mktemp("induce_golden"))


@pytest.mark.parametrize("name", ["model.%s" % k for k in KINDS]
                         + ["induce-%s.out" % k for k in KINDS] + ["stats.out"])
def test_output_matches_golden_file(name, outputs):
    assert outputs[name] == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in golden_outputs(Path(tmp)).items():
            (GOLDEN / name).write_bytes(data)
