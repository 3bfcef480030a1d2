"""Inputs the test modules share: one seeded family of random presentations,
seeded draws for the component routine, and fixed presentations.  Each
random test reads ``family`` with a seed of its own, so its inputs depend
on that seed alone, not on its body nor on the hash seed, and runs each
draw's checks inside ``in_draw``, so a failure names its draw."""

import random
from contextlib import contextmanager

import pytest

from selfsim.tree import Ray, Vertex
from selfsim.wreath import GeneratorRule, Word, WreathPresentation

NAMES = ("a", "b", "c")


def word(rng: random.Random, names, longest: int) -> Word:
    return Word(tuple((rng.choice(names), rng.choice((1, -1)))
                      for _ in range(rng.randint(0, longest))))


def _rule(rng: random.Random, name: str, degree: int, names, involutions) -> GeneratorRule:
    """A generator's rule; a declared involution is made to be one: a root
    permutation of order 2 or less, mutually inverse sections on each
    swapped pair, and at each fixed point the empty word or one letter of a
    declared involution."""
    if name not in involutions:
        perm = list(range(1, degree + 1))
        rng.shuffle(perm)
        return GeneratorRule(name, tuple(perm), tuple(word(rng, names, 3) for _ in range(degree)))
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
            w = word(rng, names, 3)
            sections[i - 1], sections[j - 1] = w, w.inverse()
        elif i == j:
            sections[i - 1] = (Word(((rng.choice(involutions), rng.choice((1, -1))),))
                               if rng.random() < 0.5 else Word())
    return GeneratorRule(name, tuple(perm), tuple(sections))


def draw(rng: random.Random) -> tuple[WreathPresentation, Ray]:
    """Degree 2 or 3, one to three generators, section words of at most 3
    letters, about a third of the generators declared involutions, and a
    ray whose periodic tail has 1 or 2 letters."""
    degree = rng.choice((2, 3))
    names = NAMES[:rng.randint(1, len(NAMES))]
    involutions = [name for name in names if rng.random() < 1 / 3]
    rules = tuple(_rule(rng, name, degree, names, involutions) for name in names)
    tail = tuple(rng.randint(1, degree) for _ in range(rng.randint(1, 2)))
    return (WreathPresentation(degree, rules, frozenset(involutions)),
            Ray(Vertex.root(degree), tail))


def family(seed: int, count: int) -> list[tuple[WreathPresentation, Ray]]:
    rng = random.Random(seed)
    return [draw(rng) for _ in range(count)]


def where(i: int, pres: WreathPresentation, ray: Ray) -> str:
    """A message naming draw i."""
    return f"draw {i}, ray tail {ray.periodic_tail}:\n{pres.to_text()}"


class DrawFailed(AssertionError):
    """A check on one draw of the family failed; the failure is the cause."""


@contextmanager
def in_draw(i: int, pres: WreathPresentation, ray: Ray):
    """Name draw i in the report of whatever the body raises: a failed
    assertion, any other exception, or a failed ``pytest.raises``, whose
    ``Failed`` is a BaseException.  The failure is re-raised as the cause
    of a ``DrawFailed`` carrying ``where(i, pres, ray)``; chaining, not
    ``add_note``, which Python 3.10 lacks."""
    try:
        yield
    except (Exception, pytest.fail.Exception) as exc:
        raise DrawFailed(where(i, pres, ray)) from exc


def permutation_family(rng: random.Random) -> tuple[int, list[list[int]]]:
    """A point count and a list of permutations of it, drawn from a few
    distinct ones plus the identity, so repeats and the identity occur."""
    size = rng.randint(1, 24)
    pool = [rng.sample(range(size), size) for _ in range(rng.randint(1, 4))]
    pool.append(list(range(size)))
    return size, [rng.choice(pool) for _ in range(rng.randint(0, 8))]


def edge_lists(rng: random.Random) -> tuple[int, list, list]:
    """A point count and two edge lists on it.  Random ends give self-loops
    and repeated edges; half the second list's edges are the self-loops at
    the first and last point."""
    size = rng.randint(1, 30)
    first, second = ([(rng.randrange(size), rng.randrange(size))
                      for _ in range(rng.randint(0, 40))] for _ in range(2))
    loops = [(0, 0), (size - 1, size - 1)]
    return size, first, [rng.choice(loops) if rng.random() < 0.5 else e for e in second]


# Inputs the cone route passes at every level, beyond the catalog: rays of
# period 2, and G_1 = S_3, whose point stabilizers join two letters into
# one cross block.
CONE_CASES = {
    "binary-ray-21": ("degree: 2\ngen a = perm () | e, b\ngen b = perm (1 2) | a, e\n", "21"),
    "binary-ray-12": ("degree: 2\ngen a = perm (1 2) | e, a\n"
                      "gen b = perm (1 2) | a^-1, a^-1 b^-1 a^-1\n", "12"),
    "ternary-ray-21": ("degree: 3\ngen a = perm (1 3 2) | e, e, e\n"
                       "gen b = perm (1 2 3) | e, b^-1, a b^-1 a^-1\n"
                       "gen c = perm () | b b b^-1, c^-1 a b^-1, c b\n", "21"),
    "s3-ray-3": ("degree: 3\ngen a = perm (2 3) | a^-1, b, e\n"
                 "gen b = perm (1 2 3) | b, b^-1, a^-1 b^-1 b^-1\n", "3"),
    "s3-ray-31": ("degree: 3\ngen a = perm (1 2) | e, b, e\n"
                  "gen b = perm (1 2) | c^-1 a^-1, a a c, b^-1\n"
                  "gen c = perm (1 2 3) | b, e, a\n", "31"),
}

# A degree-3 input whose suborbits are much finer than the bound that keeps
# the prefix shared with the base and the stabilizer orbit of the next
# letter: rank 15 at level 4, where that bound has rank 5.  A check of
# self-replication that counts section letters by name, not by occurrence,
# passes it and gives wrong blocks.  Its ray is 3.
FINER_THAN_CONES = ("degree: 3\ngen a = perm (2 3) | e, b a, a^-1\n"
                    "gen b = perm (1 3) | a a^-1, b, e\n")

# A binary input whose scheme is not commutative from level 3 on; no
# catalog group has one.  Its ray is 2.
NON_COMMUTATIVE = ("degree: 2\ngen a = perm (1 2) | c, c^-1 b^-1 c^-1\n"
                   "gen b = perm (1 2) | e, c^-1 a\ngen c = perm (1 2) | e, a c\n")

# Seen from 1313 on level 4, check 3 passes; seen from 313, the base of
# level 3 one step down the recursion, it does not within the budget, and
# 313 begins no longer base that passed.  So the route declines level 4
# rather than certify it from the top level alone.  Its ray is 13.
SHIFTED_BASE = ("degree: 3\ngen a = perm (1 3 2) | e, b^-1 b^-1 b, a^-1\n"
                "gen b = perm (1 2) | e, e, b^-1\n")

# The binary adding machine: self-replicating, so check 2 passes, but its
# stabilizers fix every vertex of a level, so no cross block is ever whole.
ADDING_MACHINE = "degree: 2\ngen a = perm (1 2) | e, a\n"

# The Basilica group; on level 3, b has cycles of lengths 2 and 4.
BASILICA = "degree: 2\ngen a = perm () | e, b\ngen b = perm (1 2) | e, a\n"
