"""Seeded mutation gate: damaged tree and model files end in a documented
exit code.

Each mutant of a small raw corpus (cut short, a bracket doubled, two
brackets swapped, or a label dropped) goes through ``plcg induce`` for every
model kind, ``plcg eval`` and ``plcg stats``.  Each mutant of a pcfg, plcg or
delta model file (a field dropped or inserted, a count replaced, a record cut
to two fields, another start symbol, or a DPROJ delta changed) goes through ``plcg parse`` of a tag
file with unknown tags and blank lines, with one parse and with three.  Every
run must exit with 0, 1 or 2 and print no traceback; an exception escaping
``main`` fails the test with its traceback."""

import random

import pytest

from plcg.cli import main
from plcg.corpus import generate_corpus
from plcg.treebank import (
    PreprocessOptions,
    leaves,
    preprocess_corpus,
    to_pos_tree,
    write_trees,
)

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
                     ["induce", str(mutant), model, "--model", "plcg", "--unary", "fold_up"],
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


# Tag lines of the corpus, with unknown tags, a tag the corpus never shifts
# first, and blank lines.
TAG_LINES = [" ".join(leaves(to_pos_tree(tree)))
             for tree in preprocess_corpus(generate_corpus(8, seed=5, raw=True),
                                           PreprocessOptions())[0][:3]]
TAG_LINES += ["", "DT XX NN", "QQQ", "   ", "NN NN NN NN"]


def records(text):
    """Indices of the record lines (all but the header)."""
    return [i for i, line in enumerate(text.splitlines()) if i and line]


def edit_line(rng, text, edit):
    lines = text.splitlines()
    i = rng.choice(records(text))
    lines[i] = edit(rng, lines[i].split("\t"))
    return "\n".join(lines) + "\n"


def drop_field(rng, text):
    def edit(rng, fields):
        del fields[rng.randrange(len(fields))]
        return "\t".join(fields)
    return edit_line(rng, text, edit)


def insert_field(rng, text):
    def edit(rng, fields):
        fields.insert(rng.randrange(len(fields) + 1), rng.choice(["NP", "1", "-2", "<attach>"]))
        return "\t".join(fields)
    return edit_line(rng, text, edit)


def replace_count(rng, text):
    def edit(rng, fields):
        # The last field is the count in every record.
        fields[-1] = rng.choice(["0", "-1", "1e3", "\u0663", "\u00b2", "\uff13"])
        return "\t".join(fields)
    return edit_line(rng, text, edit)


def cut_record(rng, text):
    return edit_line(rng, text, lambda rng, fields: "\t".join(fields[:2]))


def change_start(rng, text):
    head, rest = text.split("\n", 1)
    fields = head.split("\t")
    fields[3] = rng.choice(["S", "NP", "VB", "XX", "<attach>", ""])
    return "\t".join(fields) + "\n" + rest


def change_delta(rng, text):
    # Only delta models hold DPROJ records; the others stay as they are.
    lines = text.splitlines()
    picks = [i for i, line in enumerate(lines) if line.startswith("DPROJ\t")]
    if picks:
        i = rng.choice(picks)
        fields = lines[i].split("\t")
        fields[2] = rng.choice([d for d in ("-2", "-1", "0", "1", "2") if d != fields[2]])
        lines[i] = "\t".join(fields)
    return "\n".join(lines) + "\n"


MODEL_MUTATIONS = [drop_field, insert_field, replace_count, cut_record, change_start,
                   change_delta]


@pytest.fixture(scope="module")
def model_texts(tmp_path_factory):
    """pcfg, plcg and delta model files induced from the base corpus."""
    root = tmp_path_factory.mktemp("models")
    trees = root / "base.mrg"
    trees.write_text(BASE)
    texts = {}
    for kind, extra in (("pcfg", []), ("plcg", []), ("delta", ["--binarize"])):
        path = root / ("model." + kind)
        assert main(["induce", str(trees), str(path), "--model", kind] + extra) == 0
        texts[kind] = path.read_text()
    return texts


@pytest.mark.parametrize("mutate", MODEL_MUTATIONS, ids=lambda f: f.__name__)
def test_mutated_model_files_end_in_documented_exit_codes(mutate, model_texts, tmp_path,
                                                          capsys):
    rng = random.Random(MODEL_MUTATIONS.index(mutate))
    tags = tmp_path / "tags.txt"
    tags.write_text("\n".join(TAG_LINES) + "\n")
    model = tmp_path / "mutant"
    codes = set()
    for kind, text in model_texts.items():
        for _ in range(8):
            model.write_text(mutate(rng, text))
            for extra in ([], ["--n-best", "3"]):
                argv = ["parse", str(model), str(tags)] + extra
                code = main(argv)
                err = capsys.readouterr().err
                assert code in (0, 1, 2) and "Traceback" not in err, (argv, model.read_text())
                codes.add(code)
    # A gate that only ever saw one outcome would check little.
    assert 2 in codes
