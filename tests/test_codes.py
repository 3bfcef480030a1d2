"""The letter-code helpers of ``wreath``, ``encode``, ``decode``,
``inverse_codes``, ``reduce_codes`` and ``walk``, checked against the
``Word`` API, ``act``, ``section`` and the memoized letter recursion of
``section_reference``: the code algebra on every catalog word up to length
4, the walk on seeded catalog words up to length 6, and both on draws of the
seeded family, whose declared involutions are made to be ones."""

import itertools
import random

import pytest
from families import family, in_draw, word

from selfsim.catalog import builtin, keys
from selfsim.tree import Vertex
from selfsim.wreath import (Word, act, decode, encode, free_reduce, inverse_codes, reduce_codes,
                            section, walk)

import section_reference as ref


def _check_codes(pres, w):
    codes = encode(pres, w)
    assert type(codes) is tuple and decode(pres, codes) == w, w
    assert inverse_codes(codes) == encode(pres, w.inverse()), w
    assert decode(pres, reduce_codes(pres, codes)) == pres.reduce(w), w


def _check_walk(pres, w, x):
    codes = encode(pres, w)
    image, below = walk(pres, codes, x.letters)
    assert Vertex(image, pres.degree) == act(pres, w, x) == ref.act(pres, w, x), (w, x)
    sec = decode(pres, reduce_codes(pres, below))
    assert sec == section(pres, w, x) == ref.section(pres, w, x), (w, x)
    # below the root the walk's section is freely reduced, with no involutions
    assert decode(pres, below) == (free_reduce(decode(pres, below)) if x.letters else w), (w, x)


@pytest.mark.parametrize("key", keys())
def test_the_code_algebra_on_every_short_catalog_word(key):
    pres = builtin(key).presentation
    letters = [(name, sign) for name in pres.generator_names for sign in (1, -1)]
    for length in range(5):
        for w in itertools.product(letters, repeat=length):
            _check_codes(pres, Word(w))


@pytest.mark.parametrize("key", keys())
def test_the_walk_on_catalog_words(key):
    pres = builtin(key).presentation
    d, rng = pres.degree, random.Random(key)
    for _ in range(300):
        w = word(rng, pres.generator_names, 6)
        _check_codes(pres, w)
        _check_walk(pres, w, Vertex(tuple(rng.randint(1, d) for _ in range(rng.randint(0, 6))), d))


def test_the_helpers_on_the_family():
    draws = [(pres, ray) for pres, ray in family(39, 150)]
    assert sum(bool(pres.involutions) for pres, _ in draws) >= 30
    for i, (pres, ray) in enumerate(draws):
        rng, d = random.Random(i), pres.degree
        with in_draw(i, pres, ray):
            for _ in range(12):
                w = word(rng, pres.generator_names, 6)
                _check_codes(pres, w)
                _check_walk(pres, w, Vertex(tuple(rng.randint(1, d)
                                                  for _ in range(rng.randint(0, 5))), d))


def test_act_and_section_refuse_before_the_walk():
    # act and section refuse a vertex of another degree first, then an
    # undeclared generator; the walk itself takes codes and trusted letters.
    pres = builtin("grigorchuk").presentation
    with pytest.raises(ValueError, match="vertex degree does not match"):
        act(pres, Word.parse("z"), Vertex((1,), 3))
    with pytest.raises(ValueError, match="undeclared generator 'z' in word"):
        encode(pres, Word.parse("a z"))
    assert walk(pres, (), (2, 1)) == ((2, 1), ())
    assert walk(pres, encode(pres, Word.parse("a b")), ()) == ((), encode(pres, Word.parse("a b")))
