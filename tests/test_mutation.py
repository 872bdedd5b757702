"""Seeded mutation gate: damaged tree files end in a documented exit code.

Each mutant of a small raw corpus (cut short, a bracket doubled, two
brackets swapped, or a label dropped) goes through ``plcg induce`` for every
model kind, ``plcg eval`` and ``plcg stats``.  Every run must exit with 0, 1
or 2 and print no traceback; an exception escaping ``main`` fails the test
with its traceback."""

import random

import pytest

from plcg.cli import main
from plcg.corpus import generate_corpus
from plcg.treebank import write_trees

BASE = write_trees(generate_corpus(8, seed=5, raw=True))
BRACKETS = [i for i, c in enumerate(BASE) if c in "()"]
OPENS = [i for i, c in enumerate(BASE) if c == "("]


def truncate(rng, text):
    return text[:rng.randrange(len(text))]


def duplicate_bracket(rng, text):
    i = rng.choice(BRACKETS)
    return text[:i] + text[i] + text[i:]


def swap_brackets(rng, text):
    i = rng.choice(OPENS)
    j = rng.choice([k for k in BRACKETS if text[k] == ")"])
    chars = list(text)
    chars[i], chars[j] = chars[j], chars[i]
    return "".join(chars)


def drop_label(rng, text):
    i = rng.choice(OPENS) + 1
    j = i
    while text[j] not in " ()":
        j += 1
    return text[:i] + text[j:]


MUTATIONS = [truncate, duplicate_bracket, swap_brackets, drop_label]


@pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda f: f.__name__)
def test_mutated_tree_files_end_in_documented_exit_codes(mutate, tmp_path, capsys):
    rng = random.Random(MUTATIONS.index(mutate))
    base = tmp_path / "base.mrg"
    base.write_text(BASE)
    mutant = tmp_path / "mutant.mrg"
    model = str(tmp_path / "model")
    codes = set()
    for _ in range(12):
        mutant.write_text(mutate(rng, BASE))
        for argv in (["induce", str(mutant), model, "--model", "pcfg"],
                     ["induce", str(mutant), model, "--model", "plcg", "--unary", "fold_down"],
                     ["induce", str(mutant), model, "--model", "delta", "--binarize"],
                     ["eval", str(base), str(mutant)],
                     ["eval", str(mutant), str(mutant)],
                     ["stats", str(mutant)]):
            code = main(argv)
            err = capsys.readouterr().err
            assert code in (0, 1, 2) and "Traceback" not in err, (argv, mutant.read_text())
            codes.add(code)
    # A gate that only ever saw one outcome would check little.
    assert 2 in codes
