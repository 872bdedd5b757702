"""The benchmark tracer patches program functions by name.  These tests fail
when a rename or removal would break ``lcbench/run.py --trace 1``, or would
leave its per-layer counters at zero."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PATH_SETUP = "import sys; sys.path[:0] = %r\n" % [str(ROOT / "lcbench"), str(ROOT / "src")]


def run_fresh(code):
    proc = subprocess.run([sys.executable, "-c", PATH_SETUP + code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_tracer_installs_on_the_program():
    run_fresh("import tracer; tracer.install(tracer.Tracer())\n")


def test_traced_beam_parse_counts_states_and_shifts():
    # Exact counts on 20 generated sentences and 3 with attachment ambiguity,
    # at k=3: a closure that stopped calling the patched functions, or that
    # built states the beam built none of before, would move them.
    out = run_fresh(
        "import json, tracer\n"
        "from plcg import lc_parser\n"
        "from plcg.corpus import generate_corpus\n"
        "from plcg.induction import induce_delta_model, induce_plcg\n"
        "from plcg.transforms import binarize_corpus\n"
        "from plcg.treebank import PreprocessOptions, leaves, preprocess_corpus, read_trees,"
        " to_pos_tree\n"
        "trees, _ = preprocess_corpus(generate_corpus(200, seed=3), PreprocessOptions())\n"
        "trees = [to_pos_tree(tree) for tree in trees] + read_trees(\n"
        "    '(ROOT (S (NP PRP) (VP VB (NP DT NN) (PP IN (NP DT NN)))))'\n"
        "    '(ROOT (S (NP PRP) (VP VB (NP (NP DT NN) (PP IN (NP DT NN))))))'\n"
        "    '(ROOT (S (NP PRP) (VP (VP VB (NP DT NN)) (PP IN (NP DT NN)))))')\n"
        "sentences = [leaves(tree) for tree in trees[:20] + trees[-3:]]\n"
        "models = {'base': induce_plcg(trees),"
        " 'delta': induce_delta_model(binarize_corpus(trees))}\n"
        "tr = tracer.Tracer(); tracer.install(tr)\n"
        "out = {}\n"
        "for variant, model in models.items():\n"
        "    tr.counts.clear()\n"
        "    phase = tr.open_phase(variant)\n"
        "    for tags in sentences:\n"
        "        assert lc_parser.beam_parse(tags, model, k=3, variant=variant)\n"
        "    tr.close_phase(phase)\n"
        "    out[variant] = {name: v for (_, name), v in tr.counts.items()}\n"
        "print(json.dumps({'counts': out, 'spans': [tr.names[i] for i in tr.name_id]}))\n"
    )
    traced = json.loads(out)
    counts = {variant: (c["lc_parser.states"], c["lc_parser.shift_calls"])
              for variant, c in traced["counts"].items()}
    assert counts == {"base": (708, 208), "delta": (362, 182)}
    # Tree recovery and replay are timed only while they are called by name.
    assert {"lc_parser.recover_tree", "derivation.replay"} <= set(traced["spans"])


def test_traced_chart_parse_counts_rule_span_ops():
    # The tracer reads the fill kernel's first argument as the sentence
    # length and its fourth as one entry per binary rule; a renamed kernel,
    # or reordered arguments, would zero or change the count.
    out = run_fresh(
        "import json, tracer\n"
        "from plcg import chart\n"
        "from plcg.induction import induce_pcfg\n"
        "from plcg.treebank import read_trees\n"
        "model = induce_pcfg(read_trees('(S (NP DT NN) (VP VB (NP PRP)))'))\n"
        "n_bin = chart.compile_pcfg(model).bin_lhs.shape[0]\n"
        "tr = tracer.Tracer(); tracer.install(tr)\n"
        "phase = tr.open_phase('round')\n"
        "assert chart.viterbi_parse(['DT', 'NN', 'VB', 'PRP'], model)\n"
        "tr.close_phase(phase)\n"
        "print(json.dumps({'counts': {name: v for (_, name), v in tr.counts.items()},\n"
        "                  'spans': [tr.names[i] for i in tr.name_id], 'n_bin': n_bin}))\n"
    )
    traced = json.loads(out)
    n, n_bin = 4, traced["n_bin"]
    assert n_bin == 3
    assert traced["counts"]["chart.rule_span_ops"] == n_bin * (n ** 3 - n) // 6
    assert "chart.viterbi_fill" in traced["spans"]


def test_traced_induce_and_eval_count_trees_and_brackets(tmp_path):
    # The reader, preprocessing and scoring are timed only while cli calls
    # them by these names; a rename would zero their per-layer metrics.
    trees = tmp_path / "trees.mrg"
    trees.write_text("(S (NP-SBJ (DT the) (NN dog)) (VP (VB saw) (NP (PRP it))))\n"
                     "(S (NP-SBJ (-NONE- *)) (VP (VB go)))\n")
    out = run_fresh(
        "import contextlib, io, json, tracer\n"
        "from plcg import cli\n"
        "tr = tracer.Tracer(); tracer.install(tr)\n"
        "phase = tr.open_phase('round')\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    assert cli.main(['induce', %r, %r]) == 0\n"
        "    assert cli.main(['eval', %r, %r]) == 0\n"
        "tr.close_phase(phase)\n"
        "print(json.dumps({'counts': {name: v for (_, name), v in tr.counts.items()},\n"
        "                  'spans': [tr.names[i] for i in tr.name_id]}))\n"
        % (str(trees), str(tmp_path / "m.plcg"), str(trees), str(trees))
    )
    traced = json.loads(out)
    assert traced["counts"]["treebank.trees"] > 0
    # Induction walks each tree through the module-level derivation_events.
    assert traced["counts"]["derivation.events"] > 0
    assert traced["counts"]["evalb.brackets"] > 0
    assert {"treebank.read_trees", "treebank.preprocess_corpus",
            "evalb.score_corpus"} <= set(traced["spans"])
