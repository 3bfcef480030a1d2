"""``act``, ``section`` and ``portrait`` walk the one-step rule
``letter_step``; they are checked here against the memoized letter recursion
of ``section_reference`` on 400 draws of the seeded family in
``families.py``, whose declared involutions are made to be ones."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from families import DrawFailed, family, in_draw, word

import selfsim
from selfsim.tree import Vertex
from selfsim.wreath import Word, act, letter_step, level_permutation, portrait, section

import section_reference as ref


def _cases(rng: random.Random, pres):
    """15 (word, vertex) cases for pres."""
    d = pres.degree
    return [(word(rng, pres.generator_names, 6),
             Vertex(tuple(rng.randint(1, d) for _ in range(rng.randint(0, 5))), d))
            for _ in range(15)]


FAMILY = [(pres, ray, _cases(random.Random(i), pres))
          for i, (pres, ray) in enumerate(family(2005, 400))]


def test_the_family_declares_involutions():
    declared = [pres for pres, _, _ in FAMILY if pres.involutions]
    assert len(FAMILY) // 4 <= len(declared) <= 3 * len(FAMILY) // 4


FAMILY_DIGEST = """
import hashlib
from families import family
draws = [(pres.to_text(), ray.periodic_tail) for pres, ray in family(2005, 200)]
print(hashlib.sha256(repr(draws).encode()).hexdigest())
"""


def test_the_family_does_not_depend_on_the_hash_seed():
    path = os.pathsep.join(str(p) for p in (Path(selfsim.__file__).resolve().parents[1],
                                            Path(__file__).resolve().parent))
    outputs = [subprocess.run([sys.executable, "-c", FAMILY_DIGEST], capture_output=True,
                              text=True, check=True,
                              env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed}
                              ).stdout for seed in ("1", "2")]
    assert len(outputs[0]) == 65 and outputs[0] == outputs[1]


@pytest.mark.parametrize("planted", [KeyError, AssertionError, pytest.fail.Exception])
def test_a_failing_draw_is_named(planted):
    # Whatever the body of a loop over draws raises, an exception, a failed
    # assertion or a pytest.raises that saw nothing raised, the report names
    # the draw by its index and its presentation.
    pres, ray, _ = FAMILY[3]
    with pytest.raises(DrawFailed) as caught:
        with in_draw(3, pres, ray):
            if planted is pytest.fail.Exception:
                with pytest.raises(KeyError):
                    pass
            else:
                raise planted("planted")
    assert type(caught.value.__cause__) is planted
    report = str(caught.getrepr())
    assert "draw 3, ray tail" in report
    assert all(line in report for line in pres.to_text().splitlines())


def test_letter_step_is_one_level_of_the_recursion():
    for i, (pres, ray, cases) in enumerate(FAMILY[:100]):
        with in_draw(i, pres, ray):
            for w, _ in cases:
                for x in range(1, pres.degree + 1):
                    image, letters = letter_step(pres, w.letters, x)
                    assert image == int(level_permutation(pres, w, 1)[x - 1]) + 1, (w, x)
                    assert pres.reduce(Word(letters)) == ref.section(
                        pres, w, Vertex((x,), pres.degree)), (w, x)


def test_act_and_section_match_the_letter_recursion():
    for i, (pres, ray, cases) in enumerate(FAMILY):
        with in_draw(i, pres, ray):
            for w, x in cases:
                assert section(pres, w, x) == ref.section(pres, w, x), (w, x)
                assert act(pres, w, x) == ref.act(pres, w, x), (w, x)


@pytest.mark.parametrize("chunk", [1, 2])
def test_act_past_the_chunk_matches_the_letter_recursion(chunk):
    # The letters before the last chunk are walked by letter_step, the
    # last chunk by act on the section carried down to it.
    for i, (pres, ray, cases) in enumerate(FAMILY):
        with in_draw(i, pres, ray):
            for w, x in cases:
                head, letters = (), w.letters
                for c in x.letters[:max(x.level - chunk, 0)]:
                    c, letters = letter_step(pres, letters, c)
                    head += (c,)
                    letters = pres.reduce(Word(letters)).letters
                tail = Vertex(x.letters[len(head):], pres.degree)
                image = Vertex(head + act(pres, Word(letters), tail).letters, pres.degree)
                assert image == ref.act(pres, w, x), (w, x)


def _nodes(node, path=()):
    yield path, node
    for i, child in enumerate(node.children, start=1):
        yield from _nodes(child, path + (i,))


def test_portrait_matches_the_letter_recursion():
    for i, (pres, ray, cases) in enumerate(FAMILY):
        d = pres.degree
        with in_draw(i, pres, ray):
            for w, _ in cases[:3]:
                got = portrait(pres, w, 2)
                assert got == ref.portrait(pres, w, 2), w
                for path, node in _nodes(got):
                    below = ref.section(pres, w, Vertex(path, d))
                    assert node.root_perm == tuple(
                        int(x) + 1 for x in level_permutation(pres, below, 1)), (w, path)
