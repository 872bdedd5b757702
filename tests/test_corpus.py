"""The synthetic corpus is the fixture of most tests and of the README
walkthrough, so its exact bytes are pinned: a change to the generator's
grammar or to the order of its random draws moves these hashes."""

import hashlib

import pytest

from plcg.corpus import generate_corpus
from plcg.treebank import write_trees

PINNED = {
    (0, False): "01825e9d3d07e75df6427e8018574782c0422b3faadaa3ece847c303456268c4",
    (0, True): "33c8471d73c9bb407677b4ac633238e3a071f57b2afbbd488d70ff7670e29da8",
    (1, False): "515609711d4fee73f9e303c49fab3550bab517623020864fcd133bc374571971",
    (1, True): "3114fa835ba1e437acf98387484a4e23d3ad6127d26522d3831b41cc46e5d1b4",
    (7, False): "07243f4b1dc4f04533f5d9f32ee8eb735af6887a9ccc106170aa5d7ff65f8d24",
    (7, True): "d08f79e10d4c564856613c025a71badf7cbcd472fc9aeab1f54d58b8583dec4f",
    (42, False): "31e79bb00e01961287b0a1e678c3813ae2280c104316c59d1ea6e4275e4c791c",
    (42, True): "6a70f774402ffb3eb0feb97e6daf4293aefc36257871d54dec34683d53b2d0de",
}


@pytest.mark.parametrize("seed,raw", sorted(PINNED))
def test_generated_corpus_is_pinned(seed, raw):
    text = write_trees(generate_corpus(1000, seed, raw=raw))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[seed, raw]
