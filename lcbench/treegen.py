"""Seeded generator of raw trees shaped like the Penn Treebank.

The trees carry words, function tags (``NP-SBJ``, ``PP-LOC``, ``S-TPC``),
co-indexing suffixes and ``-NONE-`` empty elements, so the program's
preprocessing has real work to do.  After preprocessing they have about 45
part-of-speech tags and 25 phrasal categories, flat n-ary rules, unary
chains (``SBAR -> S``, ``S -> VP``, ``NP -> PRP``) but never a unary
self-loop ``X -> X``, and 10 to 40 words.  Noun phrases are drawn from
different distributions in subject and object position, so a model
conditioned on the goal category has something to gain over a PCFG.

A node is a tuple ``(label, children)``; a preterminal is ``(tag, word)``
with a string in place of the children.  The module does not import the
program under test.
"""

from __future__ import annotations

import random

MIN_WORDS, MAX_WORDS = 10, 40
MAX_DEPTH = 4  # nesting below which phrases may recurse

LEXICON = {
    "CC": ["and", "but", "or"],
    "CD": ["two", "10", "million", "1990", "35"],
    "DT": ["the", "a", "this", "some", "no"],
    "EX": ["there"],
    "FW": ["de", "facto"],
    "IN": ["of", "in", "for", "on", "with", "from", "at", "by"],
    "JJ": ["new", "big", "federal", "last", "strong", "economic", "early"],
    "JJR": ["higher", "lower", "more"],
    "JJS": ["largest", "best", "most"],
    "LS": ["1", "2", "a"],
    "MD": ["will", "would", "could", "may"],
    "NN": ["company", "market", "price", "year", "stock", "share", "plan", "bank"],
    "NNS": ["shares", "prices", "investors", "years", "sales", "rates"],
    "NNP": ["Jones", "Smith", "Acme", "Paris", "Mr.", "Corp.", "Treasury"],
    "NNPS": ["Americans", "Securities", "Markets"],
    "PDT": ["all", "half", "both"],
    "POS": ["'s", "'"],
    "PRP": ["he", "it", "they", "she", "we"],
    "PRP$": ["its", "their", "his"],
    "RB": ["also", "not", "still", "only", "now", "recently"],
    "RBR": ["earlier", "later"],
    "RBS": ["most", "best"],
    "RP": ["up", "out", "off", "down"],
    "SYM": ["&", "*"],
    "TO": ["to"],
    "UH": ["yes", "oh", "well"],
    "VB": ["buy", "sell", "make", "take", "raise"],
    "VBD": ["said", "rose", "fell", "bought", "sold", "made"],
    "VBG": ["selling", "making", "rising", "including"],
    "VBN": ["sold", "made", "expected", "reported", "based"],
    "VBP": ["are", "have", "say", "expect"],
    "VBZ": ["is", "has", "says", "expects"],
    "WDT": ["which", "that"],
    "WP": ["who", "what"],
    "WP$": ["whose"],
    "WRB": ["when", "how", "where"],
    ",": [","],
    ".": [".", "?", "!"],
    ":": [";", "--", ":"],
    "``": ["``"],
    "''": ["''"],
    "-LRB-": ["-LRB-"],
    "-RRB-": ["-RRB-"],
    "#": ["#"],
    "$": ["$"],
}

TAGS = sorted(LEXICON)

# The categories left once function tags are stripped (ROOT is added by the
# program's preprocessing, -NONE- is removed by it).
CATEGORIES = sorted([
    "ADJP", "ADVP", "CONJP", "FRAG", "INTJ", "LST", "NAC", "NP", "NX", "PP",
    "PRN", "PRT", "QP", "RRC", "S", "SBAR", "SBARQ", "SINV", "SQ", "UCP",
    "VP", "WHADVP", "WHNP", "WHPP", "X",
])


def _pick(rng: random.Random, options):
    """Draw from ``[(weight, make), ...]`` and call the chosen maker."""
    total = sum(w for w, _ in options)
    x = rng.random() * total
    for w, make in options:
        x -= w
        if x < 0:
            return make()
    return options[-1][1]()


class _Gen:
    """One sentence's worth of recursive choices; ``depth`` bounds nesting."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def w(self, tag: str):
        return (tag, self.rng.choice(LEXICON[tag]))

    # Noun phrases.  Subjects lean on pronouns, names and possessives;
    # objects on determiners, adjectives, compounds and postmodifiers.

    def np(self, depth: int, subject: bool, label: str = "NP"):
        w = self.w
        deep = depth < MAX_DEPTH

        def node(*kids):
            return (label, list(kids))
        if subject:
            options = [
                (26, lambda: node(w("PRP"))),
                (12, lambda: node(w("NNP"), w("NNP"))),
                (8, lambda: node(w("NNP"))),
                (10, lambda: node(w("DT"), w("NN"))),
                (5, lambda: node(w("DT"), w("JJ"), w("NN"))),
                (6, lambda: node(("NP", [w("NNP"), w("POS")]), w("NN"))),
                (4, lambda: node(w("PRP$"), w("NNS"))),
                (4, lambda: node(w("NNS"))),
                (3, lambda: node(w("EX"))),
                (2, lambda: node(w("NNPS"))),
                (2, lambda: node(w("PDT"), w("DT"), w("NNS"))),
                (1, lambda: node(("NAC", [w("NNP"), w(","), w("NNP")]), w("NNP"))),
            ]
            if deep:
                options += [
                    (6, lambda: node(self.np(depth + 1, True), self.pp(depth + 1))),
                    (3, lambda: node(self.np(depth + 1, True), w(","),
                                     self.np(depth + 1, False), w(","))),
                    (2, lambda: node(self.np(depth + 1, True), w(","),
                                     ("RRC", [self.advp(), self.pp(depth + 1)]), w(","))),
                ]
        else:
            options = [
                (16, lambda: node(w("DT"), w("NN"))),
                (9, lambda: node(w("DT"), w("JJ"), w("NN"))),
                (4, lambda: node(w("DT"), w("JJ"), w("JJ"), w("NN"), w("NN"))),
                (6, lambda: node(w("DT"), w("NN"), w("NN"))),
                (7, lambda: node(w("NNS"))),
                (6, lambda: node(w("JJ"), w("NNS"))),
                (4, lambda: node(w("PRP$"), w("NN"))),
                (3, lambda: node(w("PRP"))),
                (3, lambda: node(w("CD"), w("NNS"))),
                (3, lambda: node(("QP", [w("$"), w("CD"), w("CD")]),
                                 ("NP", [("-NONE-", "*U*")]))),
                (2, lambda: node(w("NN"), w("CC"), w("NN"))),
                (2, lambda: node(w("DT"), ("NX", [("NX", [w("NN"), w("NN")]), w("CC"),
                                                  ("NX", [w("NN")])]))),
                (1, lambda: node(("UCP", [w("JJ"), w("CC"), w("NN")]), w("NNS"))),
                (1, lambda: node(w("DT"), ("ADJP", [w("RBS"), w("JJ")]), w("NN"))),
                (1, lambda: node(w("#"), w("CD"))),
                (1, lambda: node(w("FW"), w("FW"))),
            ]
            if deep:
                options += [
                    (14, lambda: node(self.np(depth + 1, False), self.pp(depth + 1))),
                    (4, lambda: node(self.np(depth + 1, False), self.relative(depth + 1))),
                    (2, lambda: node(self.np(depth + 1, False), w(","), w("CC"),
                                     self.np(depth + 1, False))),
                    (2, lambda: node(self.np(depth + 1, False),
                                     ("PRN", [w("-LRB-"), self.np(depth + 1, False),
                                              w("-RRB-")]))),
                ]
        return _pick(self.rng, options)

    def relative(self, depth: int):
        w = self.w
        gap = ("NP-SBJ", [("-NONE-", "*T*-1")])
        return _pick(self.rng, [
            (3, lambda: ("SBAR", [("WHNP-1", [w("WDT")]), ("S", [gap, self.vp(depth + 1)])])),
            (2, lambda: ("SBAR", [("WHNP-1", [w("WP")]), ("S", [gap, self.vp(depth + 1)])])),
            (1, lambda: ("SBAR", [("WHPP-1", [w("IN"), ("WHNP", [w("WDT")])]),
                                  ("S", [self.np(depth + 1, True, "NP-SBJ"),
                                         self.vp(depth + 1)])])),
            (1, lambda: ("SBAR", [("WHNP-1", [w("WP$"), w("NN")]),
                                  ("S", [gap, self.vp(depth + 1)])])),
            (1, lambda: ("SBAR", [("WHADVP-1", [w("WRB")]),
                                  ("S", [self.np(depth + 1, True, "NP-SBJ"),
                                         self.vp(depth + 1)])])),
        ])

    def pp(self, depth: int, label: str = "PP"):
        w = self.w
        options = [
            (20, lambda: (label, [w("IN"), self.np(depth + 1, False)])),
            (2, lambda: (label, [w("TO"), self.np(depth + 1, False)])),
        ]
        if depth < MAX_DEPTH:
            options.append((2, lambda: (label, [w("IN"), ("S-NOM", [
                ("NP-SBJ", [("-NONE-", "*")]),
                ("VP", [w("VBG"), self.np(depth + 1, False)])])])))
        return _pick(self.rng, options)

    def advp(self, label: str = "ADVP"):
        w = self.w
        return _pick(self.rng, [
            (6, lambda: (label, [w("RB")])),
            (2, lambda: (label, [w("RB"), w("RB")])),
            (1, lambda: (label, [w("RBR")])),
            (1, lambda: (label, [("NP", [w("CD"), w("NNS")]), w("RB")])),
        ])

    def adjp(self, depth: int):
        w = self.w
        options = [
            (5, lambda: ("ADJP-PRD", [w("JJ")])),
            (3, lambda: ("ADJP-PRD", [w("RB"), w("JJ")])),
            (2, lambda: ("ADJP-PRD", [w("JJR")])),
            (1, lambda: ("ADJP-PRD", [w("JJS")])),
        ]
        if depth < MAX_DEPTH:
            options.append((2, lambda: ("ADJP-PRD", [w("JJ"), self.pp(depth + 1)])))
        return _pick(self.rng, options)

    # Verb phrases: flat, with optional PP/ADVP tails, plus the unary
    # chains of infinitives (S -> VP once the empty subject is gone) and
    # passives (VP -> VBN once the trace object is gone).

    def vp(self, depth: int, finite: bool = True):
        w, r = self.w, self.rng
        v = (lambda: w(r.choice(["VBD", "VBZ", "VBP"]))) if finite else (lambda: w("VB"))
        deep = depth < MAX_DEPTH
        options = [
            (22, lambda: ("VP", [v(), self.np(depth + 1, False)])),
            (10, lambda: ("VP", [v(), self.np(depth + 1, False), self.pp(depth + 1, "PP-CLR")])),
            (6, lambda: ("VP", [v(), self.pp(depth + 1, "PP-DIR")])),
            (4, lambda: ("VP", [v(), self.np(depth + 1, False), self.advp("ADVP-TMP")])),
            (4, lambda: ("VP", [v(), ("PRT", [w("RP")]), self.np(depth + 1, False)])),
            (5, lambda: ("VP", [v(), self.adjp(depth + 1)])),
            (3, lambda: ("VP", [v()])),
            (2, lambda: ("VP", [v(), self.np(depth + 1, False), self.np(depth + 1, False, "NP-TMP")])),
        ]
        if deep:
            options += [
                (8, lambda: ("VP", [v(), ("SBAR", [("-NONE-", "0"), self.clause(depth + 1)])])),
                (5, lambda: ("VP", [v(), ("S", [("NP-SBJ", [("-NONE-", "*-1")]),
                                                ("VP", [w("TO"), self.vp(depth + 1, False)])])])),
                (5, lambda: ("VP", [w("MD"), self.vp(depth + 1, False)])),
                (4, lambda: ("VP", [w(r.choice(["VBD", "VBZ"])),
                                    ("VP", [w("VBN"), ("NP", [("-NONE-", "*-1")]),
                                            self.pp(depth + 1, "PP-LOC")])])),
                (2, lambda: ("VP", [w(r.choice(["VBD", "VBZ"])),
                                    ("VP", [w("VBN"), ("NP", [("-NONE-", "*-2")])])])),
                (2, lambda: ("VP", [("VP", [v(), self.np(depth + 1, False)]), w("CC"),
                                    ("VP", [v(), self.np(depth + 1, False)])])),
                (2, lambda: ("VP", [v(), ("SBAR", [w("IN"), self.clause(depth + 1)])])),
            ]
        return _pick(self.rng, options)

    def clause(self, depth: int, label: str = "S"):
        """A declarative clause without final punctuation."""
        w = self.w
        return _pick(self.rng, [
            (12, lambda: (label, [self.np(depth + 1, True, "NP-SBJ"), self.vp(depth + 1)])),
            (2, lambda: (label, [self.pp(depth + 1, "PP-LOC"), w(","),
                                 self.np(depth + 1, True, "NP-SBJ"), self.vp(depth + 1)])),
            (2, lambda: (label, [self.advp("ADVP-TMP"), w(","),
                                 self.np(depth + 1, True, "NP-SBJ"), self.vp(depth + 1)])),
            (1, lambda: (label, [self.np(depth + 1, True, "NP-SBJ"), self.advp(),
                                 self.vp(depth + 1)])),
        ])

    def sentence(self):
        w, r = self.w, self.rng
        return _pick(r, [
            (50, lambda: ("S", [*self.clause(0)[1], w(".")])),
            (8, lambda: ("S", [self.clause(1), w(","), w("CC"), self.clause(1), w(".")])),
            (5, lambda: ("S", [("SBAR-ADV", [w("IN"), self.clause(1)]), w(","),
                               self.np(1, True, "NP-SBJ"), self.vp(1), w(".")])),
            (4, lambda: ("S", [w("``"), self.clause(1, "S-TPC-1"), w(","), w("''"),
                               self.np(1, True, "NP-SBJ"), ("VP", [w("VBD"), ("SBAR", [
                                   ("-NONE-", "0"), ("S", [("-NONE-", "*T*-1")])])]),
                               w(".")])),
            (3, lambda: ("SINV", [w("``"), self.clause(1, "S-TPC-1"), w(","), w("''"),
                                  ("VP", [w("VBD"), ("SBAR", [("-NONE-", "0"),
                                                              ("S", [("-NONE-", "*T*-1")])])]),
                                  self.np(1, True, "NP-SBJ"), w(".")])),
            (3, lambda: ("S", [("NP-SBJ", [("-NONE-", "*")]), self.vp(1, False), w(".")])),
            (3, lambda: ("SBARQ", [("WHNP-1", [w("WP")]), ("SQ", [w("VBZ"),
                                   self.np(1, True, "NP-SBJ"),
                                   ("VP", [w("VBG"), ("NP", [("-NONE-", "*T*-1")]),
                                           self.pp(1)])]), w(".")])),
            (2, lambda: ("S", [("INTJ", [w("UH")]), w(","), *self.clause(1)[1], w(".")])),
            (2, lambda: ("S", [("LST", [w("LS"), w("-RRB-")]), *self.clause(1)[1], w(".")])),
            (2, lambda: ("FRAG", [self.np(1, False), w(":"), self.np(1, False), w(".")])),
            (2, lambda: ("S", [self.clause(1), w(":"), self.clause(1), w(".")])),
            (1, lambda: ("S", [self.clause(1), ("CONJP", [w("RB"), w("IN")]),
                               self.clause(1), w(".")])),
            (1, lambda: ("FRAG", [("X", [w("SYM")]), self.np(1, False), w(".")])),
        ])


def n_words(node) -> int:
    """Pronounced words, empty elements excluded."""
    label, kids = node
    if isinstance(kids, str):
        return 0 if label == "-NONE-" else 1
    return sum(n_words(k) for k in kids)


def generate(rng: random.Random, lo: int = MIN_WORDS, hi: int = MAX_WORDS):
    """One sentence of ``lo`` to ``hi`` pronounced words (rejection
    sampled, so lengths keep the generator's distribution within range)."""
    while True:
        tree = _Gen(rng).sentence()
        if lo <= n_words(tree) <= hi:
            return tree


def generate_corpus(size: int, seed) -> list:
    rng = random.Random(seed)
    return [generate(rng) for _ in range(size)]


def format_tree(node, indent: int = 0) -> str:
    """Penn ``.mrg`` layout: one phrase per line, preterminals inline."""
    label, kids = node
    if isinstance(kids, str):
        return "(%s %s)" % (label, kids)
    if all(isinstance(k[1], str) for k in kids):
        return "(%s %s)" % (label, " ".join(format_tree(k) for k in kids))
    pad = " " * (indent + len(label) + 2)
    parts = [format_tree(k, indent + len(label) + 2) for k in kids]
    return "(%s %s)" % (label, ("\n" + pad).join(parts))


def format_corpus(trees) -> str:
    """Each tree inside the unlabelled outer brackets of the Penn files."""
    return "".join("( %s)\n" % format_tree(t, 2) for t in trees)
