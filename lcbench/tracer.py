"""Spans around the program's public functions, recorded from outside.

:func:`install` replaces module attributes of the program with wrappers, in
every module namespace that calls them, so no program file changes.  Each
wrapper records one span (name, start, end, parent, phase) in flat arrays;
generators are drained inside their span, so a span covers their iteration
and not only their creation.  Counters sit at the same boundaries.  Self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import os
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.phase = array("i")
        self._stack = [-1]
        self.enabled = False
        self.current_phase = -1
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.pool_sizes: list[list[int]] = []

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.phase.append(self.current_phase)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[(self.current_phase, name)] += value

    def open_phase(self, name: str) -> int:
        """A benchmark-level span (one setup or one round) that groups the
        program spans under it."""
        self.enabled = True
        self.current_phase = -1
        idx = self.begin(name)
        self.current_phase = idx
        self.phase[idx] = idx
        return idx

    def close_phase(self, idx: int) -> None:
        self.finish(idx)
        self.enabled = False
        self.current_phase = -1

    # Analysis

    def self_times(self) -> np.ndarray:
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return dur - child

    def per_phase(self, phases: list[int]) -> dict[str, list[float]]:
        """Self time per span name within each of ``phases``, and every
        counter, as lists aligned with ``phases``."""
        own = self.self_times()
        names = np.frombuffer(self.name_id, dtype=np.int32)
        phase = np.frombuffer(self.phase, dtype=np.int32)
        out: dict[str, list[float]] = {}
        for col, ph in enumerate(phases):
            sel = phase == ph
            sums = np.bincount(names[sel], weights=own[sel], minlength=len(self.names))
            for nid, name in enumerate(self.names):
                if sums[nid]:
                    out.setdefault(name, [0.0] * len(phases))[col] = float(sums[nid])
        for (ph, name), value in self.counts.items():
            if ph in phases:
                out.setdefault("#" + name, [0.0] * len(phases))[phases.index(ph)] += value
        return out

    def write(self, path: str) -> None:
        """All spans as gzip TSV: index, name, start, end, parent."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("index\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.start)):
                f.write("%d\t%s\t%.7f\t%.7f\t%d\n" % (
                    i, self.names[self.name_id[i]], self.start[i] - t0,
                    self.end[i] - t0, self.parent[i]))


def _wrap(tracer: Tracer, name: str, fn, drain: bool = False, after=None):
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        idx = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
            if drain:
                out = list(out)
        finally:
            tracer.finish(idx)
        if after is not None:
            after(args, kwargs, out)
        return out
    wrapper.__wrapped__ = fn
    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries named in the benchmark's README."""
    from plcg import _kernels, chart, cli, derivation, evalb, induction
    from plcg import lc_parser, model_io, transforms, treebank

    def patch(modules, attr, name, **kw):
        fn = getattr(modules[0], attr)
        wrapped = _wrap(tracer, name, fn, **kw)
        for m in modules:
            if getattr(m, attr) is fn:
                setattr(m, attr, wrapped)

    # Left-corner beam parser.
    def on_successors(args, kwargs, out):
        tracer.count("lc_parser.states", len(out))

    def on_shift(args, kwargs, out):
        tracer.count("lc_parser.shift_calls")

    def on_closure(args, kwargs, out):
        if tracer.pool_sizes:
            tracer.pool_sizes[-1].append(len(out))

    def beam_parse(fn):
        def traced(tags, model, k, *args, **kwargs):
            if not tracer.enabled:
                return fn(tags, model, k, *args, **kwargs)
            tracer.pool_sizes.append([])
            idx = tracer.begin("lc_parser.beam_parse")
            try:
                return fn(tags, model, k, *args, **kwargs)
            finally:
                tracer.finish(idx)
                # The first len(tags) closures are truncated to k; a later
                # one is the final closure, which is not.
                sizes = tracer.pool_sizes.pop()[:len(tags)]
                tracer.count("lc_parser.kept_slots", sum(min(k, s) for s in sizes))
        traced.__wrapped__ = fn
        return traced

    lc_parser.beam_parse = beam_parse(lc_parser.beam_parse)
    patch([lc_parser], "successors", "lc_parser.successors", drain=True, after=on_successors)
    patch([lc_parser], "shift_successor", "lc_parser.shift_successor", after=on_shift)
    patch([lc_parser], "_closure", "lc_parser.closure", after=on_closure)
    patch([lc_parser], "recover_tree", "lc_parser.recover_tree")
    patch([derivation, lc_parser], "replay", "derivation.replay")
    patch([transforms, lc_parser, chart], "debinarize_tree", "transforms.debinarize_tree")

    # Chart parser.
    def on_fill(args, kwargs, out):
        n, n_bin = args[0], args[3].shape[0]
        tracer.count("chart.rule_span_ops", n_bin * (n ** 3 - n) // 6)

    patch([chart], "viterbi_parse", "chart.viterbi_parse")
    patch([_kernels], "viterbi_fill", "chart.viterbi_fill", after=on_fill)
    patch([chart], "compile_pcfg", "chart.compile_pcfg")

    # Treebank, derivations, induction, transforms, model files.
    def on_read(args, kwargs, out):
        tracer.count("treebank.trees", len(out))

    def on_events(args, kwargs, out):
        tracer.count("derivation.events", len(out))

    def on_save(args, kwargs, out):
        tracer.count("model_io.bytes", os.path.getsize(args[1]))

    patch([treebank, cli], "read_trees", "treebank.read_trees", after=on_read)
    patch([treebank, cli], "preprocess_corpus", "treebank.preprocess_corpus")
    patch([treebank, cli], "to_pos_tree", "treebank.to_pos_tree")
    patch([derivation, induction, cli], "derivation_events", "derivation.derivation_events",
          drain=True, after=on_events)
    for fn in ("induce_pcfg", "induce_plcg", "induce_delta_model"):
        patch([induction, cli], fn, "induction." + fn)
    patch([transforms, cli], "binarize_corpus", "transforms.binarize_corpus")
    patch([model_io, cli], "save_model", "model_io.save_model", after=on_save)
    patch([model_io, cli], "load_model", "model_io.load_model")

    # Scoring and the command line.
    def on_brackets(args, kwargs, out):
        tracer.count("evalb.brackets", sum(out.values()))

    patch([evalb, cli], "score_corpus", "evalb.score_corpus")
    patch([evalb], "brackets", "evalb.brackets", after=on_brackets)
    patch([cli], "cmd_induce", "cli.induce")
    patch([cli], "cmd_eval", "cli.eval")


# Per-layer metric -> span names whose self times it sums.
LAYER_TIMES = {
    "lc_parser.successors_s": ["lc_parser.successors"],
    "lc_parser.beam_self_s": ["lc_parser.beam_parse", "lc_parser.closure"],
    "lc_parser.shift_s": ["lc_parser.shift_successor"],
    "lc_parser.recover_s": ["lc_parser.recover_tree"],
    "derivation.replay_s": ["derivation.replay"],
    "transforms.debinarize_s": ["transforms.debinarize_tree"],
    "chart.fill_s": ["chart.viterbi_fill"],
    "chart.extract_s": ["chart.viterbi_parse"],
    "chart.compile_s": ["chart.compile_pcfg"],
    "treebank.read_s": ["treebank.read_trees"],
    "treebank.preprocess_s": ["treebank.preprocess_corpus", "treebank.to_pos_tree"],
    "derivation.events_s": ["derivation.derivation_events"],
    "induction.induce_s": ["induction.induce_pcfg", "induction.induce_plcg",
                           "induction.induce_delta_model"],
    "transforms.binarize_s": ["transforms.binarize_corpus"],
    "model_io.save_s": ["model_io.save_model"],
    "model_io.load_s": ["model_io.load_model"],
    "cli.induce_s": ["cli.induce"],
    "evalb.score_s": ["evalb.score_corpus", "evalb.brackets"],
    "cli.eval_s": ["cli.eval"],
}

# Per-layer metric -> counter (counters are keyed "#name" in per_phase).
LAYER_COUNTS = {name: "#" + name for name in (
    "lc_parser.states", "lc_parser.shift_calls", "chart.rule_span_ops",
    "treebank.trees", "derivation.events", "model_io.bytes", "evalb.brackets",
)}
