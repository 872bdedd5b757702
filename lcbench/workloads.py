"""The four workloads: inputs, set-up, timed loop and output checks.

Every workload reads one corpus (training trees and held-out sentences)
generated from the corpus seed; the run seed draws the gold/test pairs for
``plcg eval``, the training slice for ``plcg induce`` and the order in which
the held-out sentences are parsed.  The program gets only the files written
here (a raw Penn-style training file, gold and test bracket files) and tag
sequences; everything it returns is checked against :mod:`reference`.

The timed loop runs whole rounds.  A round parses every held-out sentence
once, in chunks; after each chunk's parses it runs ``plcg eval`` on a slice
of a gold/test pair and ``plcg induce`` for one model kind (pcfg, plcg,
delta by the chunk's index).  So every end-to-end metric is sampled all
through the run, every round does the same operations, and the workloads
differ in how the time is split: the parse workloads spend most of it
parsing, train-eval most of it inducing from the whole training file and
scoring.  Every operation is timed by :class:`speed.Clock`, which corrects
its time for the speed of the machine.
"""

from __future__ import annotations

import gc
import io
import math
import os
import random
import resource
import statistics
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter

import reference as ref
import treegen
from speed import Clock
from plcg import chart, cli, induction, lc_parser, model_io, transforms, treebank

KINDS = ("pcfg", "plcg", "delta")
TRAIN_TREES = 1500
SETUP_REPEATS = 3
SETUP_BLOCKS = 20         # calibration blocks on each side of a set-up
BEAM_WIDTH = 100          # the CLI default
EXHAUSTIVE_MAX_TAGS = 12  # beam checked against the exhaustive parser up to here
EXHAUSTIVE_CHECKS = 15
LOST_CONFIRM_MAX_TAGS = 20  # longer sentences can take the exhaustive parser minutes

# (shortest, longest) tags -> sentences.  Fixed, so every corpus seed does
# the same amount of work per round.
BEAM_STRATA = [((10, 12), 40), ((13, 15), 40), ((16, 19), 40), ((20, 24), 40),
               ((25, 30), 40)]
CHART_STRATA = [((10, 11), 35), ((12, 13), 35), ((14, 16), 30)]
SHORT_STRATA = [((10, 12), 120)]


@dataclass(frozen=True)
class Spec:
    kind: str           # model the workload parses with
    strata: list        # held-out length mix
    per_chunk: int      # sentences parsed per chunk
    eval_trees: int     # gold/test trees scored per chunk
    induce_trees: int   # training trees per `plcg induce`


SPECS = {
    "lc-beam": Spec("plcg", BEAM_STRATA, 20, 60, 120),
    "delta-beam": Spec("delta", BEAM_STRATA, 20, 60, 120),
    "pcfg-chart": Spec("pcfg", CHART_STRATA, 10, 60, 120),
    "train-eval": Spec("plcg", SHORT_STRATA, 40, 200, TRAIN_TREES),
}


class CheckFailed(Exception):
    pass


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def settle() -> None:
    """Collect, then move every live object out of the collector's way, so
    the benchmark's own data does not slow the program's collections."""
    gc.collect()
    gc.freeze()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``plcg <argv>`` in this process: (exit code, stdout).  The caller
    collects first, so that every command starts, as it would in its own
    process, with no garbage left by the ones before it."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def eval_values(stdout: str) -> dict[str, float]:
    """The ``key=value`` block that `plcg eval` prints."""
    vals = {}
    for line in stdout.splitlines():
        key, eq, value = line.partition("=")
        if eq and key.isidentifier():
            vals[key] = float(value)
    return vals


def quantile(values, q: float) -> float:
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(line + "\n" for line in lines)


class Sentence:
    def __init__(self, gen_tree):
        self.gold_words = ref.preprocess(gen_tree)
        self.gold_tags = ref.tag_tree(self.gold_words)
        self.tags = ref.leaves(self.gold_tags)
        self.words = ref.leaves(self.gold_words)


class Workload:
    def __init__(self, name: str, corpus_seed: int, seed: int, seconds: float,
                 out_dir: str, tracer=None):
        self.name, self.corpus_seed, self.seed, self.seconds = name, corpus_seed, seed, seconds
        self.spec = SPECS[name]
        self.kind = self.spec.kind
        self.variant = "delta" if self.kind == "delta" else "base"
        self.out = out_dir
        self.tracer = tracer
        self.attempted = self.failed = 0
        self.metrics: dict[str, float] = {}
        self.layer: dict[str, float] = {}
        self.setup_phases: list[int] = []
        self.round_phases: list[int] = []
        self.clock = Clock()
        os.makedirs(out_dir, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.out, name)

    def run(self) -> None:
        self.make_inputs()
        settle()
        self.setup()
        self.select()
        self.make_chunk_inputs()
        settle()
        self.loop()
        self.score_parses()
        # Before the exhaustive checks, whose state sets can outgrow the
        # program's normal working set.
        self.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if self.kind != "pcfg":
            self.check_exhaustive()
        if self.tracer is not None:
            self.layer_metrics()

    # Inputs

    def make_inputs(self) -> None:
        rng = random.Random("lcbench-train-%d" % self.corpus_seed)
        self.train_gen = [treegen.generate(rng) for _ in range(TRAIN_TREES)]
        with open(self.path("train.mrg"), "w", encoding="utf-8") as f:
            f.write(treegen.format_corpus(self.train_gen))
        self.train_words = [ref.preprocess(t) for t in self.train_gen]
        self.train_tags = [ref.tag_tree(t) for t in self.train_words]
        self.pools = []
        for (lo, hi), quota in self.spec.strata:
            rng = random.Random("lcbench-heldout-%d-%d-%d" % (self.corpus_seed, lo, hi))
            # Twice the quota leaves room for sentences the model does not cover.
            self.pools.append((quota, [Sentence(treegen.generate(rng, lo, hi))
                                       for _ in range(2 * quota)]))

    def own_trees(self, kind: str, trees):
        return [ref.binarize(t) for t in trees] if kind == "delta" else trees

    # Set-up: what a user does before parsing

    def setup_once(self):
        path = self.path("model.%s" % self.kind)
        with open(self.path("train.mrg"), encoding="utf-8") as f:
            raw = treebank.read_trees(f)
        pre, _ = treebank.preprocess_corpus(raw, treebank.PreprocessOptions())
        tag_trees = [treebank.to_pos_tree(t) for t in pre]
        trees = transforms.binarize_corpus(tag_trees) if self.kind == "delta" else tag_trees
        induce = {"pcfg": induction.induce_pcfg, "plcg": induction.induce_plcg,
                  "delta": induction.induce_delta_model}[self.kind]
        model_io.save_model(induce(trees), path)
        model = model_io.load_model(path)
        self.parse(self.pools[0][1][0].tags, model)
        return tag_trees, trees, model

    def setup(self) -> None:
        ops = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            # Calibration blocks on both sides of each set-up, so its
            # correction comes from the seconds just around it.
            self.clock.calibrate(SETUP_BLOCKS)
            phase = self.tracer.open_phase("bench.setup") if self.tracer else None
            (self.tag_trees, trees, self.model), op = self.clock.time(self.setup_once)
            ops.append(op)
            if phase is not None:
                self.tracer.close_phase(phase)
                self.setup_phases.append(phase)
            self.clock.calibrate(SETUP_BLOCKS)
        self.metrics["setup_s"] = statistics.median(map(self.clock.seconds, ops))
        self.setup_wall_s = statistics.median(map(self.clock.wall, ops))
        own = self.own_trees(self.kind, self.train_tags)
        check([treebank.write_tree(t) for t in trees] == [ref.fmt(t) for t in own],
              "the program's training trees differ from the reference preprocessing")
        self.check_model(self.kind, self.model, self.path("model.%s" % self.kind), own)

    def check_model(self, kind: str, model, path: str, own_trees) -> None:
        check(ref.model_totals(model) == ref.expected_totals(kind, own_trees),
              "%s: induced counts do not match the tree shapes" % kind)
        with open(path, encoding="utf-8") as f:
            check(model_io.dumps(model) == f.read(),
                  "%s: reloaded model does not save to identical bytes" % kind)
        bad = ref.normalization_errors(model)
        check(not bad, "%s: tables not normalized: %s" % (kind, bad[:3]))

    # Parsing and its checks

    def parse(self, tags, model):
        """Best (tree, log-prob) or None."""
        if self.kind == "pcfg":
            return chart.viterbi_parse(tags, model)
        best = lc_parser.beam_parse(tags, model, k=BEAM_WIDTH, variant=self.variant)
        return best[0] if best else None

    def covered(self, s: Sentence) -> bool:
        """Whether the gold tree has non-zero probability, so a parse exists.
        A beam workload needs both left-corner models to cover it."""
        if self.kind == "pcfg":
            return self.pcfg_counts.log_prob(s.gold_tags) > -math.inf
        gold = treebank.read_trees(ref.fmt(s.gold_tags))[0]
        plcg, delta = self.lc_models
        return (induction.plcg_tree_log_prob(gold, plcg) > -math.inf
                and induction.delta_tree_log_prob(transforms.binarize_tree(gold), delta)
                > -math.inf)

    def select(self) -> None:
        """Fill each length stratum with the first sentences of its pool
        that the model covers, then shuffle them by the run seed.  No parser
        runs here, so a change to a parser times and scores the same
        sentences, and lc-beam and delta-beam parse the same ones."""
        if self.kind == "pcfg":
            self.pcfg_counts = ref.PcfgCounts(self.train_tags)
        else:
            self.lc_models = (induction.induce_plcg(self.tag_trees),
                              induction.induce_delta_model(
                                  transforms.binarize_corpus(self.tag_trees)))
        self.sentences = []
        for quota, pool in self.pools:
            kept = [s for s in pool if self.covered(s)][:quota]
            check(len(kept) == quota, "a length stratum is short of covered sentences")
            self.sentences += kept
        random.Random("lcbench-order-%d" % self.seed).shuffle(self.sentences)

    def check_parse(self, tags, result, model, gold_tags=None) -> None:
        tree, lp = result
        check(treebank.leaves(tree) == tags, "parse yield differs from its input")
        if self.kind == "pcfg":
            own = self.pcfg_counts.log_prob(ref.from_program(tree))
            check(close(lp, own), "viterbi score %r is not the PCFG log-prob %r" % (lp, own))
            check(self.pcfg_counts.log_prob(gold_tags) <= lp + 1e-9,
                  "viterbi score below the gold tree's")
        elif self.kind == "delta":
            lp_ref = induction.delta_tree_log_prob(transforms.binarize_tree(tree), model)
            check(close(lp, lp_ref), "delta beam score %r != tree score %r" % (lp, lp_ref))
        else:
            lp_ref = induction.plcg_tree_log_prob(tree, model)
            check(close(lp, lp_ref), "beam score %r != tree score %r" % (lp, lp_ref))

    def check_exhaustive(self) -> None:
        """On short sentences the beam never beats the exhaustive parser,
        and every lost sentence of at most LOST_CONFIRM_MAX_TAGS has a parse."""
        pairs = list(zip(self.sentences, self.first))
        short = [(s, r) for s, r in pairs
                 if r is not None and len(s.tags) <= EXHAUSTIVE_MAX_TAGS][:EXHAUSTIVE_CHECKS]
        for s, (_, lp) in short:
            exact = lc_parser.exhaustive_lc_parse(s.tags, self.model, variant=self.variant)
            check(bool(exact) and exact[0][1] >= lp - 1e-9, "beam beat the exhaustive parser")
        for s, r in pairs:
            if r is None and len(s.tags) <= LOST_CONFIRM_MAX_TAGS:
                found = lc_parser.exhaustive_lc_parse(s.tags, self.model, variant=self.variant)
                check(bool(found), "a lost sentence has no parse at all")

    # Scoring

    @staticmethod
    def lexical_test(tags, words, result):
        if result is None:  # a lost parse scores as a flat ROOT tree
            return ("ROOT", tuple((t, (w,)) for t, w in zip(tags, words)))
        return ref.lexicalize(ref.from_program(result[0]), words)

    def cli_eval(self, gold_path: str, test_path: str, want: dict) -> int:
        """`plcg eval`, checked against the reference scores; its clock op."""
        gc.collect()
        (code, stdout), op = self.clock.time(run_cli, ["eval", gold_path, test_path])
        check(code == 0, "plcg eval exited with %d" % code)
        got = eval_values(stdout)
        for key, value in want.items():
            check(got.get(key) == value, "plcg eval %s=%r, reference %r"
                  % (key, got.get(key), value))
        return op

    def score_parses(self) -> None:
        """labelled_f1 of one round's parses, scored by `plcg eval`."""
        golds = [s.gold_words for s in self.sentences]
        tests = [self.lexical_test(s.tags, s.words, r) for s, r in zip(self.sentences, self.first)]
        write_lines(self.path("gold.mrg"), [ref.fmt(t) for t in golds])
        write_lines(self.path("test.mrg"), [ref.fmt(t) for t in tests])
        want = ref.bracket_scores(golds, tests)
        self.cli_eval(self.path("gold.mrg"), self.path("test.mrg"), want)
        self.metrics["labelled_f1"] = ref.f1(want["labelled_precision"], want["labelled_recall"])

    # Timed loop

    def make_chunk_inputs(self) -> None:
        """Gold/test pair slices for `plcg eval` (a seeded sample of the
        training trees and a seeded perturbed copy) and the training slice
        for `plcg induce`."""
        spec = self.spec
        self.chunks = len(self.sentences) // spec.per_chunk
        check(self.chunks * spec.per_chunk == len(self.sentences), "uneven chunks")
        rng = random.Random("lcbench-pairs-%d" % self.seed)
        picks = rng.sample(range(TRAIN_TREES), self.chunks * spec.eval_trees)
        self.pairs = []
        for j in range(self.chunks):
            golds = [self.train_words[i]
                     for i in picks[j * spec.eval_trees:(j + 1) * spec.eval_trees]]
            tests = [ref.perturb(t, rng, treegen.CATEGORIES) for t in golds]
            paths = (self.path("pair-gold-%d.mrg" % j), self.path("pair-test-%d.mrg" % j))
            write_lines(paths[0], [ref.fmt(t) for t in golds])
            write_lines(paths[1], [ref.fmt(t) for t in tests])
            self.pairs.append((paths, ref.bracket_scores(golds, tests)))
        if spec.induce_trees == TRAIN_TREES:
            self.induce_path = self.path("train.mrg")
            self.induce_own = self.train_tags
        else:
            self.induce_path = self.path("slice.mrg")
            # One tree from each band of similar-sized training trees, so
            # every seed's slice is about the same amount of work.
            by_size = sorted(range(TRAIN_TREES),
                             key=lambda i: (len(ref.fmt(self.train_words[i])), i))
            band = TRAIN_TREES // spec.induce_trees
            picks = sorted(rng.choice(by_size[b * band:(b + 1) * band])
                           for b in range(spec.induce_trees))
            with open(self.induce_path, "w", encoding="utf-8") as f:
                f.write(treegen.format_corpus([self.train_gen[i] for i in picks]))
            self.induce_own = [self.train_tags[i] for i in picks]

    def cli_induce(self, kind: str) -> int:
        dst = self.path("induced.%s" % kind)
        argv = ["induce", self.induce_path, dst, "--model", kind]
        gc.collect()
        (code, _), op = self.clock.time(run_cli,
                                        argv + (["--binarize"] if kind == "delta" else []))
        check(code == 0, "plcg induce --model %s exited with %d" % (kind, code))
        return op

    def check_induced(self) -> None:
        """Every `plcg induce` of a kind writes the same file; check the last."""
        for kind in KINDS:
            dst = self.path("induced.%s" % kind)
            self.check_model(kind, model_io.load_model(dst), dst,
                             self.own_trees(kind, self.induce_own))

    def check_first(self, s: Sentence, result) -> None:
        """A round-0 parse: checked, or a lost sentence on a beam workload."""
        if result is not None:
            self.check_parse(s.tags, result, self.model, s.gold_tags)
        else:
            check(self.kind != "pcfg", "no chart parse for a sentence the model covers")

    def loop(self) -> None:
        """Whole rounds until the run's seconds are used.  A sentence the
        beam loses is a failed operation, the same in every round, so
        failed is the same share of attempted however many rounds run.  A
        traced run traces every other round and runs at least two, so that
        every sentence is timed both ways."""
        spec = self.spec
        n = len(self.sentences)
        self.first = [None] * n  # filled in round 0
        plain = [[] for _ in range(n)]
        traced = [[] for _ in range(n)]
        induce_ops = {k: [] for k in KINDS}
        eval_ops = []
        min_rounds = 2 if self.tracer else 1
        start = perf_counter()
        rnd = 0
        while rnd < min_rounds or perf_counter() - start < self.seconds:
            tracing = self.tracer is not None and rnd % 2 == 1
            phase = self.tracer.open_phase("bench.round") if tracing else None
            times = traced if tracing else plain
            for j in range(self.chunks):
                for i in range(j * spec.per_chunk, (j + 1) * spec.per_chunk):
                    s = self.sentences[i]
                    result, op = self.clock.time(self.parse, s.tags, self.model)
                    times[i].append(op)
                    if rnd == 0:
                        self.check_first(s, result)
                        self.first[i] = result
                    check(result == self.first[i], "a parse changed between rounds")
                    self.failed += result is None
                (gold, test), want = self.pairs[j]
                eval_op = self.cli_eval(gold, test, want)
                kind = KINDS[j % len(KINDS)]
                induce_op = self.cli_induce(kind)
                if not tracing:
                    eval_ops.append(eval_op)
                    induce_ops[kind].append(induce_op)
            self.attempted += n + 2 * self.chunks
            if phase is not None:
                self.tracer.close_phase(phase)
                self.round_phases.append(phase)
            rnd += 1
        self.check_induced()
        seconds = self.clock.seconds
        if self.tracer:
            both = [(statistics.median(map(seconds, p)), statistics.median(map(seconds, t)))
                    for p, t in zip(plain, traced) if p and t]
            self.layer["trace.overhead"] = sum(t for _, t in both) / sum(p for p, _ in both) - 1
            return

        per_sentence = [statistics.median(map(seconds, ops)) for ops in plain]
        self.metrics["parse_sents_per_s"] = n / sum(per_sentence)
        self.metrics["parse_p50_ms"] = 1000 * statistics.median(per_sentence)
        self.metrics["parse_p90_ms"] = 1000 * quantile(per_sentence, 0.9)
        self.metrics["eval_sents_per_s"] = statistics.median(
            spec.eval_trees / seconds(op) for op in eval_ops)
        for kind, ops in induce_ops.items():
            self.metrics["induce_%s_trees_per_s" % kind] = statistics.median(
                spec.induce_trees / seconds(op) for op in ops)
        wall = [statistics.median(map(self.clock.wall, ops)) for ops in plain]
        self.parse_wall_sents_per_s = n / sum(wall)

    def layer_metrics(self) -> None:
        """Per-layer metrics: the median over traced rounds of each round's
        sum.  A layer the loop never enters reports its median per traced
        set-up (chart.compile_s, for one), else 0."""
        from tracer import LAYER_COUNTS, LAYER_TIMES
        rounds = self.tracer.per_phase(self.round_phases)
        setups = self.tracer.per_phase(self.setup_phases)

        def value(names):
            for table in (rounds, setups):
                cols = [table[n] for n in names if n in table]
                if cols:
                    return statistics.median(sum(col) for col in zip(*cols))
            return 0.0

        for metric, names in LAYER_TIMES.items():
            self.layer[metric] = value(names)
        for metric, name in LAYER_COUNTS.items():
            self.layer[metric] = value([name])
        kept = value(["#lc_parser.kept_slots"])
        self.layer["lc_parser.slot_use"] = value(["#lc_parser.shift_calls"]) / kept if kept else 0.0
        self.tracer.write(self.path("spans.tsv.gz"))
