"""The beam's output, pinned: ``tests/data/beam_golden.txt`` holds the trees
and log-probs ``beam_parse`` gives for the first 60 sentences of
``generate_corpus(500, seed=7)``, whose grammar gives each of them one parse,
and for a few sentences with attachment ambiguity, which pin the order of
n-best lists.  A parser change that should leave outputs byte-identical must
leave this file as it is.

Rewrite the file (only on a change meant to alter outputs) with
``PYTHONPATH=src python tests/test_beam_golden.py``."""

from pathlib import Path

from oracles import read_tree
from plcg.corpus import generate_corpus
from plcg.induction import induce_delta_model, induce_plcg
from plcg.lc_parser import beam_parse
from plcg.transforms import binarize_corpus
from plcg.treebank import (
    PreprocessOptions,
    leaves,
    preprocess_corpus,
    to_pos_tree,
    write_tree,
)

GOLDEN = Path(__file__).resolve().parent / "data" / "beam_golden.txt"
K = 10
ATTACHMENT = [read_tree(text) for text in (
    "(S (NP PRP) (VP VB (NP DT NN) (PP IN (NP DT NN))))",
    "(S (NP PRP) (VP VB (NP (NP DT NN) (PP IN (NP DT NN)))))",
    "(S (NP PRP) (VP (VP VB (NP DT NN)) (PP IN (NP DT NN))))",
    "(S (NP (NP NN) (NP NN)) (VP VB))",
    "(S (NP NN NN) (VP VB (NP NN)))",
    "(S (NP (NP DT NN) (PP IN (NP NN NN))) (VP VB))",
)]
LONGER = [["PRP", "VB", "DT", "NN", "IN", "DT", "NN", "IN", "DT", "NN"],
          ["NN", "NN", "NN", "VB", "NN", "NN", "IN", "NN", "NN"]]


def golden_lines() -> list[str]:
    """One line per parse: setting, sentence index, rank, log-prob and tree;
    a sentence without a parse gets rank -1 and ``-NOPARSE-``."""
    trees, _ = preprocess_corpus(generate_corpus(500, seed=7), PreprocessOptions())
    trees = [to_pos_tree(tree) for tree in trees]
    generated = [leaves(tree) for tree in trees[:60]]
    ambiguous = [leaves(tree) for tree in ATTACHMENT] + LONGER
    plcg, delta = induce_plcg(trees), induce_delta_model(binarize_corpus(trees))
    attach_plcg = induce_plcg(ATTACHMENT)
    attach_delta = induce_delta_model(binarize_corpus(ATTACHMENT))
    # (name, model, variant, n_best, sentences)
    settings = [("plcg", plcg, "base", 1, generated),
                ("plcg", plcg, "base", 3, generated),
                ("delta", delta, "delta", 1, generated),
                ("attachment-plcg", attach_plcg, "base", 3, ambiguous),
                ("attachment-delta", attach_delta, "delta", 3, ambiguous)]
    out = []
    for name, model, variant, n_best, sentences in settings:
        setting = "%s k=%d n_best=%d" % (name, K, n_best)
        for i, tags in enumerate(sentences):
            parses = beam_parse(tags, model, k=K, n_best=n_best, variant=variant)
            for rank, (parse, lp) in enumerate(parses):
                out.append("%s\t%d\t%d\t%.6f\t%s" % (setting, i, rank, lp, write_tree(parse)))
            if not parses:
                out.append("%s\t%d\t-1\t-\t-NOPARSE-" % (setting, i))
    return out


def test_beam_output_matches_golden_file():
    assert golden_lines() == GOLDEN.read_text(encoding="utf-8").splitlines()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(line + "\n" for line in golden_lines()), encoding="utf-8")
