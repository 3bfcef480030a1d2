"""``act``, ``section`` and ``portrait`` walk the one-step rule
``letter_step``; they are checked here against the memoized letter recursion
of ``section_reference`` on a fixed family of random presentations."""

import random

import pytest

from selfsim.tree import Vertex
from selfsim.wreath import (GeneratorRule, Word, WreathPresentation, act,
                            letter_step, level_permutation, portrait, section)

import section_reference as ref

NAMES = ("a", "b", "c")


def _random_word(rng: random.Random, names, longest: int) -> Word:
    return Word(tuple((rng.choice(names), rng.choice((1, -1)))
                      for _ in range(rng.randint(0, longest))))


def _random_presentation(rng: random.Random) -> WreathPresentation:
    """Degree 2 or 3, one to three generators, section words of at most 3
    letters.  About a third of the generators are declared involutions, made
    to be ones: a root permutation of order 2 or less, mutually inverse
    sections on each swapped pair, and at each fixed point the empty word or
    one letter of a declared involution."""
    degree = rng.choice((2, 3))
    names = NAMES[:rng.randint(1, len(NAMES))]
    involutions = [name for name in names if rng.random() < 1 / 3]
    rules = []
    for name in names:
        if name not in involutions:
            perm = list(range(1, degree + 1))
            rng.shuffle(perm)
            sections = [_random_word(rng, names, 3) for _ in range(degree)]
            rules.append(GeneratorRule(name, tuple(perm), tuple(sections)))
            continue
        points = list(range(1, degree + 1))
        rng.shuffle(points)
        perm = list(range(1, degree + 1))
        if rng.random() < 0.7:
            i, j = points[:2]
            perm[i - 1], perm[j - 1] = j, i
        sections = [None] * degree
        for i in range(1, degree + 1):
            j = perm[i - 1]
            if i < j:
                w = _random_word(rng, names, 3)
                sections[i - 1], sections[j - 1] = w, w.inverse()
            elif i == j:
                sections[i - 1] = (Word(((rng.choice(involutions), rng.choice((1, -1))),))
                                   if rng.random() < 0.5 else Word())
        rules.append(GeneratorRule(name, tuple(perm), tuple(sections)))
    return WreathPresentation(degree, tuple(rules), frozenset(involutions))


def _family(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        pres = _random_presentation(rng)
        d = pres.degree
        cases = [(_random_word(rng, pres.generator_names, 6),
                  Vertex(tuple(rng.randint(1, d) for _ in range(rng.randint(0, 5))), d))
                 for _ in range(15)]
        yield pres, cases


FAMILY = list(_family(2005, 400))


def test_the_family_declares_involutions():
    declared = [pres for pres, _ in FAMILY if pres.involutions]
    assert 100 <= len(declared) < len(FAMILY)


def test_letter_step_is_one_level_of_the_recursion():
    for pres, cases in FAMILY[:100]:
        for w, _ in cases:
            for x in range(1, pres.degree + 1):
                image, letters = letter_step(pres, w.letters, x)
                assert image == int(level_permutation(pres, w, 1)[x - 1]) + 1
                assert pres.reduce(Word(letters)) == ref.section(pres, w, Vertex((x,), pres.degree))


def test_act_and_section_match_the_letter_recursion():
    for pres, cases in FAMILY:
        for w, x in cases:
            assert section(pres, w, x) == ref.section(pres, w, x), (pres.to_text(), w, x)
            assert act(pres, w, x) == ref.act(pres, w, x), (pres.to_text(), w, x)


@pytest.mark.parametrize("chunk", [1, 2])
def test_act_past_the_chunk_matches_the_letter_recursion(monkeypatch, chunk):
    # The letters before the last chunk are walked by letter_step.
    monkeypatch.setattr("selfsim.wreath._VERTEX_CHUNK", chunk)
    for pres, cases in FAMILY:
        for w, x in cases:
            assert act(pres, w, x) == ref.act(pres, w, x), (pres.to_text(), w, x)


def _nodes(node, path=()):
    yield path, node
    for i, child in enumerate(node.children, start=1):
        yield from _nodes(child, path + (i,))


def test_portrait_matches_the_letter_recursion():
    for pres, cases in FAMILY:
        d = pres.degree
        for w, _ in cases[:3]:
            got = portrait(pres, w, 2)
            assert got == ref.portrait(pres, w, 2), (pres.to_text(), w)
            for path, node in _nodes(got):
                below = ref.section(pres, w, Vertex(path, d))
                assert node.root_perm == tuple(
                    int(x) + 1 for x in level_permutation(pres, below, 1))
