"""Command-line surface: induce, parse, eval, stats, gen-corpus.

Diagnostics go to stderr and data to stdout so subcommands compose in
pipelines.  Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict
from pathlib import Path
from typing import Optional, Sequence

from . import corpus as corpus_mod
from .chart import viterbi_parse
from .derivation import derivation_events, stack_delta
from .evalb import YieldMismatchError, score_corpus
from .grammar_types import DeltaModel, Model, PcfgModel, PlcgModel
from .induction import induce_delta_model, induce_pcfg, induce_plcg
from .lc_parser import beam_parse
from .model_io import ModelFormatError, load_model, model_kind, save_model
from .transforms import binarize_corpus
from .treebank import (
    PreprocessOptions,
    Tree,
    TreeReadError,
    UnaryMode,
    preprocess_corpus,
    read_trees,
    to_pos_tree,
    write_tree,
    write_trees,
)

NO_PARSE = "-NOPARSE-"


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; remap that to the usage code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _add_preprocess_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--keep-function-tags", action="store_true",
                   help="do not truncate category labels at - or =")
    p.add_argument("--keep-empties", action="store_true",
                   help="keep empty elements instead of pruning them")
    p.add_argument("--no-root", action="store_true",
                   help="do not wrap trees in a ROOT node")
    p.add_argument("--unary", choices=[m.value for m in UnaryMode], default="keep",
                   help="unary branch treatment (default: keep)")


def _preprocess_options(args) -> PreprocessOptions:
    return PreprocessOptions(
        add_root=not args.no_root,
        strip_empties=not args.keep_empties,
        strip_function_tags=not args.keep_function_tags,
        unary_mode=UnaryMode(args.unary),
    )


def _read_tree_file(path: str) -> list[Tree]:
    with open(path, encoding="utf-8") as f:
        return read_trees(f)


def _load_training_trees(args) -> list[Tree]:
    trees = _read_tree_file(args.trees)
    trees, dropped = preprocess_corpus(trees, _preprocess_options(args))
    if dropped:
        print("dropped %d tree(s) with empty yields" % dropped, file=sys.stderr)
    if not trees:
        raise ValueError("no usable trees in %s" % args.trees)
    trees = [to_pos_tree(t) for t in trees]
    if getattr(args, "binarize", False):
        trees = binarize_corpus(trees)
    return trees


def _rule_counts(model: Model) -> dict:
    if isinstance(model, PcfgModel):
        return dict(model.counts)
    base = model.base if isinstance(model, DeltaModel) else model
    counts: dict = defaultdict(int)
    for dist in base.proj_counts.values():
        for rule, c in dist.items():
            counts[rule] += c
    return dict(counts)


def cmd_induce(args) -> int:
    if args.model == "delta" and not args.binarize:
        raise UsageError("--model delta requires --binarize")
    trees = _load_training_trees(args)
    if args.model == "pcfg":
        model: Model = induce_pcfg(trees)
    elif args.model == "plcg":
        model = induce_plcg(trees)
    else:
        model = induce_delta_model(trees)
    save_model(model, args.output)

    counts = _rule_counts(model)
    print("trees: %d" % len(trees))
    print("rules: %d" % len(counts))
    if isinstance(model, (PlcgModel, DeltaModel)):
        base = model.base if isinstance(model, DeltaModel) else model
        print("shift contexts: %d" % len(base.shift_counts))
        print("attach contexts: %d" % len(base.att_counts))
        print("projection contexts: %d" % len(base.proj_counts))
    top = sorted(counts.items(), key=lambda rc: (-rc[1], rc[0]))[: args.top_rules]
    if top:
        print("top rules:")
        for rule, c in top:
            print("%8d  %s" % (c, rule))
    print("model written to %s" % args.output, file=sys.stderr)
    return 0


def _read_tag_file(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as f:
        return [line.split() for line in f.read().splitlines()]


def _parse_sentence(tags: list[str], model: Model, args) -> list[tuple[Tree, float]]:
    if not tags:
        return []
    if args.engine == "pcfg":
        result = viterbi_parse(tags, model)
        return [result] if result is not None else []
    return beam_parse(tags, model, k=args.beam, n_best=args.n_best, variant=args.variant)


def _resolve_engine(args, model: Model) -> None:
    kind = model_kind(model)
    if args.engine is None:
        args.engine = "pcfg" if kind == "pcfg" else "lc"
    if args.engine == "pcfg" and kind != "pcfg":
        raise UsageError("--engine pcfg needs a pcfg model, got %s" % kind)
    if args.engine == "lc" and kind == "pcfg":
        raise UsageError("--engine lc needs a plcg or delta model")
    if args.engine == "lc":
        if args.variant is None:
            args.variant = "delta" if kind == "delta" else "base"
        if args.variant == "delta" and kind != "delta":
            raise UsageError("--variant delta needs a delta model, got %s" % kind)


def cmd_parse(args) -> int:
    model = load_model(args.model)
    _resolve_engine(args, model)
    sentences = _read_tag_file(args.tags)
    parsed, log_probs = 0, []
    for tags in sentences:
        parses = _parse_sentence(tags, model, args)
        if not parses:
            print(NO_PARSE)
            continue
        parsed += 1
        log_probs.append(parses[0][1])
        if args.n_best == 1 or args.engine == "pcfg":
            tree, lp = parses[0]
            print("%s\t%.6f" % (write_tree(tree), lp))
        else:
            for rank, (tree, lp) in enumerate(parses, start=1):
                print("%d\t%.6f\t%s" % (rank, lp, write_tree(tree)))
            print()
    mean = sum(log_probs) / len(log_probs) if log_probs else float("nan")
    print(
        "parsed %d/%d sentences (%d no-parse), mean log-prob %.6f"
        % (parsed, len(sentences), len(sentences) - parsed, mean),
        file=sys.stderr,
    )
    return 0


_REPORT_ROWS = [
    ("Test set size (sentences)", "sentence_count", "%d"),
    ("Average Length (words)", "average_length", "%.1f"),
    ("Precision", "precision", "%.1f%%"),
    ("Recall", "recall", "%.1f%%"),
    ("Labelled Precision", "labelled_precision", "%.1f%%"),
    ("Labelled Recall", "labelled_recall", "%.1f%%"),
    ("Labelled Precision +1", "labelled_precision_plus1", "%.1f%%"),
    ("Labelled Recall +1", "labelled_recall_plus1", "%.1f%%"),
    ("Average CBs", "avg_cbs", "%.2f"),
    ("Non-crossing accuracy", "noncrossing_accuracy", "%.1f%%"),
    ("Sentences with 0 CBs", "zero_cb_rate", "%.1f%%"),
]


def cmd_eval(args) -> int:
    golds = _read_tree_file(args.gold)
    tests = _read_tree_file(args.test)
    report, retained = score_corpus(golds, tests, max_length=args.max_length)
    for name, field, fmt in _REPORT_ROWS:
        value = getattr(report, field)
        if fmt.endswith("%%"):
            value *= 100.0
        if fmt.startswith("%d"):
            value = int(value)
        print("%-28s %s" % (name, fmt % value))
    if args.max_length is not None:
        frac = 100.0 * retained / len(golds) if golds else 0.0
        print("%-28s %.1f%%" % ("Sentences within cutoff", frac))
    print()
    for field, value in report.as_dict().items():
        print("%s=%r" % (field, value))
    if args.max_length is not None:
        print("retained=%d" % retained)
    return 0


def cmd_stats(args) -> int:
    trees = _read_tree_file(args.trees)
    opts = PreprocessOptions(unary_mode=UnaryMode.FOLD_UP)
    trees, dropped = preprocess_corpus(trees, opts)
    if dropped:
        print("dropped %d tree(s) with empty yields" % dropped, file=sys.stderr)
    trees = binarize_corpus([to_pos_tree(t) for t in trees])

    # Counts of stack-size change per stack size, over composed projections.
    # Projections that empty a goal as well (delta -2) are not tabulated.
    table: dict[int, dict[int, int]] = defaultdict(lambda: defaultdict(int))
    for t in trees:
        for ev in derivation_events(t, compose=True):
            if ev.move.kind != "project":
                continue
            delta = stack_delta(ev.move)
            if delta == -2:
                continue
            table[ev.depth][delta] += 1

    print("%-6s %8s %8s %8s %8s" % ("size", "total", "-1", "0", "+1"))
    for size in sorted(table):
        row = table[size]
        total = sum(row.values())
        cells = tuple(100.0 * row.get(d, 0) / total for d in (-1, 0, 1))
        print("%-6d %8d %7.1f%% %7.1f%% %7.1f%%" % (size, total, *cells))
    if not table:
        print("(no projection events)", file=sys.stderr)
    return 0


def cmd_gen_corpus(args) -> int:
    trees = corpus_mod.generate_corpus(args.size, args.seed, raw=args.raw)
    text = write_trees(trees)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text, encoding="utf-8")
        print("wrote %d trees to %s" % (len(trees), args.output), file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="plcg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("induce", parents=[], help="estimate a model from a tree file")
    p.add_argument("trees", help="bracketed tree file")
    p.add_argument("output", help="model file to write")
    p.add_argument("--model", choices=["pcfg", "plcg", "delta"], default="plcg")
    p.add_argument("--binarize", action="store_true",
                   help="binarize trees before induction (after unary folding)")
    p.add_argument("--top-rules", type=int, default=10, metavar="N",
                   help="how many top-frequency rules to print")
    _add_preprocess_flags(p)
    p.set_defaults(func=cmd_induce)

    p = sub.add_parser("parse", help="parse tag sequences with a saved model")
    p.add_argument("model", help="model file")
    p.add_argument("tags", help="file with one space-separated tag sequence per line")
    p.add_argument("--engine", choices=["pcfg", "lc"], default=None,
                   help="parsing engine (default: by model kind)")
    p.add_argument("--variant", choices=["base", "compose", "delta"], default=None,
                   help="left-corner machine variant (default: by model kind)")
    p.add_argument("--beam", type=int, default=100, metavar="K", help="beam width")
    p.add_argument("--n-best", type=int, default=1, metavar="N")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("eval", help="bracket-score a test file against gold")
    p.add_argument("gold")
    p.add_argument("test")
    p.add_argument("--max-length", type=int, default=None, metavar="L",
                   help="score only sentences of at most L words")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("stats", help="stack-size change table over a tree file")
    p.add_argument("trees")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("gen-corpus", help="write a seeded synthetic tree corpus")
    p.add_argument("output", help="output path, or - for stdout")
    p.add_argument("--size", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--raw", action="store_true",
                   help="emit function tags and empty subjects")
    p.set_defaults(func=cmd_gen_corpus)
    return parser


def _validate(args) -> None:
    if getattr(args, "beam", 1) < 1:
        raise UsageError("--beam must be >= 1")
    if getattr(args, "n_best", 1) < 1:
        raise UsageError("--n-best must be >= 1")
    if getattr(args, "size", 1) < 1:
        raise UsageError("--size must be >= 1")
    ml = getattr(args, "max_length", None)
    if ml is not None and ml < 1:
        raise UsageError("--max-length must be >= 1")
    if getattr(args, "top_rules", 0) < 0:
        raise UsageError("--top-rules must be >= 0")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate(args)
        return args.func(args)
    except UsageError as exc:
        print("%s: error: %s" % (parser.prog, exc), file=sys.stderr)
        return 1
    except (OSError, TreeReadError, ModelFormatError, YieldMismatchError, ValueError) as exc:
        print("%s: error: %s" % (parser.prog, exc), file=sys.stderr)
        return 2
    except RecursionError:
        # The tree walks recurse once per level of nesting.
        print("%s: error: input nested too deeply (Python recursion limit %d)"
              % (parser.prog, sys.getrecursionlimit()), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
