"""Treebank-shaped benchmark of plcg: induce, beam parsing, chart parsing and
eval, end to end (``--trace 0``) or per layer (``--trace 1``).

Usage, from the root of a source checkout:

    python3 lcbench/run.py --workload lc-beam --seed 1 --seconds 16 --trace 0
    python3 lcbench/run.py --workload all --seed 1 --seconds 16 --trace 0

``--corpus-seed`` (default 1) makes the training trees and the held-out
sentences; ``--seed`` makes the gold/test pairs, the induce slice and the
parse order.  The program is imported from ``src/`` of the same checkout.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).  Run
outputs (input files, models, parses, spans) go to
``lcbench/out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# One thread per process: numpy must see these before it is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

END_TO_END = {
    "setup_s": "s",
    "parse_sents_per_s": "sentences/s",
    "parse_p50_ms": "ms",
    "parse_p90_ms": "ms",
    "labelled_f1": "ratio",
    "induce_pcfg_trees_per_s": "trees/s",
    "induce_plcg_trees_per_s": "trees/s",
    "induce_delta_trees_per_s": "trees/s",
    "eval_sents_per_s": "sentences/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "lc_parser.successors_s": "s", "lc_parser.states": "count",
    "lc_parser.beam_self_s": "s", "lc_parser.shift_s": "s",
    "lc_parser.recover_s": "s", "lc_parser.shift_calls": "count",
    "lc_parser.slot_use": "ratio",
    "derivation.replay_s": "s", "transforms.debinarize_s": "s",
    "chart.fill_s": "s", "chart.extract_s": "s", "chart.rule_span_ops": "count",
    "chart.compile_s": "s",
    "treebank.read_s": "s", "treebank.preprocess_s": "s", "treebank.trees": "count",
    "derivation.events": "count", "derivation.events_s": "s",
    "induction.induce_s": "s", "transforms.binarize_s": "s",
    "model_io.save_s": "s", "model_io.load_s": "s", "model_io.bytes": "count",
    "cli.induce_s": "s", "evalb.score_s": "s", "evalb.brackets": "count",
    "cli.eval_s": "s", "trace.overhead": "ratio",
}

WORKLOAD_NAMES = ("lc-beam", "delta-beam", "pcfg-chart", "train-eval")


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and make sure that is
    where plcg comes from; exit 2 without a result otherwise."""
    if not (SRC / "plcg" / "__init__.py").is_file():
        sys.exit("lcbench: no program sources at %s" % SRC)
    sys.path.insert(0, str(SRC))
    import plcg
    if Path(plcg.__file__).resolve().parent != (SRC / "plcg").resolve():
        sys.exit("lcbench: plcg imported from %s, not %s" % (plcg.__file__, SRC))


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    code = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name,
                "--corpus-seed", str(args.corpus_seed), "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("%s: %s" % (name, lines[-1] if lines else "(no result)"))
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--corpus-seed", type=int, default=1)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    import_program()
    if args.workload == "all":
        return run_all(args)

    import tracer as tracing
    from workloads import CheckFailed, Workload

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    out_dir = HERE / "out" / args.workload
    work = Workload(args.workload, args.corpus_seed, args.seed, args.seconds, str(out_dir),
                    tracer)
    correct = True
    try:
        work.run()
    except CheckFailed as exc:
        print("lcbench: check failed: %s" % exc, file=sys.stderr)
        correct = False
    if not correct:
        values, units = {}, {}
    elif args.trace:
        values, units = work.layer, PER_LAYER
    else:
        values, units = work.metrics, END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    for name, m in metrics.items():
        print("%-28s %14.6g %s" % (name, m["value"], m["unit"]))
    if correct and not args.trace:
        # The uncorrected figures, for reading only (see speed.py).
        print("%-28s %14.6g %s" % ("wall setup_s", work.setup_wall_s, "s"))
        print("%-28s %14.6g %s" % ("wall parse_sents_per_s", work.parse_wall_sents_per_s,
                                   "sentences/s"))
        print("%-28s %14.6g %s" % ("machine slowdown", work.clock.slowdown(), "ratio"))
    result = {"correct": correct, "attempted": max(work.attempted, 1),
              "failed": work.failed, "metrics": metrics}
    line = json.dumps(result)
    (out_dir / ("result-trace.json" if args.trace else "result.json")).write_text(line + "\n")
    print(line)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
