"""The exact degrees of a cone-certified level against the pencil route.

``spectral.wreath_power_degrees`` reads a certified level's rank, Gelfand
verdict and degrees off G_1's letter-orbital table.  Here they are held
against ``spectral_data``'s certified pencil (a float proposal checked
exactly) and ``is_commutative`` on the built scheme's p, and against the
dense oracle where N <= 243, on fixed families:
the catalog, the five fixed cone cases and a seeded random family.  Fixed
families, not hypothesis draws, so that editing a test body never swaps
the inputs it checks.  Hand letter tables with known permutation modules
fix the level-1 multiplicities, the exact rank is held against numpy's,
and a planted fault shows that a rank off by one is refused.
"""

import itertools
import random

import numpy as np
import pytest
from test_properties import CONE_CASES, NAMES

from selfsim import spectral
from selfsim.catalog import builtin, keys
from selfsim.errors import IntegrityError
from selfsim.orbits import cone_certificate
from selfsim.scheme import build_scheme, is_commutative
from selfsim.spectral import (DENSE_ORACLE_CAP, dense_commutant_oracle, spectral_data,
                              wreath_power_degrees)
from selfsim.tree import Ray, Vertex, parse_ray
from selfsim.wreath import GeneratorRule, Word, WreathPresentation, parse_presentation

RANDOM_DRAWS = 1500


def _check_level(pres, n, ray):
    """Compare the closed form with the pencil route on one level; False
    where the certificate declines the level."""
    orbital = cone_certificate(pres, n, ray)
    if orbital is None:
        return False
    degrees = wreath_power_degrees(orbital, n)
    scheme = build_scheme(pres, n, ray)
    assert is_commutative(scheme.p), (pres.to_text(), n)
    assert len(degrees) == scheme.rank, (pres.to_text(), n)
    assert degrees == spectral_data(scheme.p).degrees, (pres.to_text(), n)
    if scheme.point_count <= DENSE_ORACLE_CAP:
        assert degrees == dense_commutant_oracle(scheme), (pres.to_text(), n)
    return True


@pytest.mark.parametrize("key", keys())
def test_closed_form_matches_the_float_route_on_the_catalog(key):
    entry = builtin(key)
    top = 10 if entry.degree == 2 else 7
    for n in range(1, top + 1):
        assert _check_level(entry.presentation, n, entry.default_ray), n
        assert wreath_power_degrees(cone_certificate(entry.presentation, n, entry.default_ray),
                                    n) == entry.expected_degrees(n), n


@pytest.mark.parametrize("name", CONE_CASES)
def test_closed_form_matches_the_float_route_on_the_cone_cases(name):
    text, ray = CONE_CASES[name]
    pres = parse_presentation(text)
    for n in range(1, 8):
        assert _check_level(pres, n, parse_ray(ray, pres.degree)), n


def _draw(rng):
    """One presentation and ray shaped like test_properties.presentations."""
    degree = rng.choice((2, 3))
    names = NAMES[:rng.randint(1, len(NAMES))]
    rules = tuple(
        GeneratorRule(name, tuple(rng.sample(range(1, degree + 1), degree)),
                      tuple(Word(tuple((rng.choice(names), rng.choice((1, -1)))
                                       for _ in range(rng.randint(0, 3))))
                            for _ in range(degree)))
        for name in names)
    tail = tuple(rng.randint(1, degree) for _ in range(rng.randint(1, 2)))
    return WreathPresentation(degree, rules), Ray(Vertex.root(degree), tail)


def test_closed_form_matches_the_float_route_on_random_draws():
    rng = random.Random(7)
    certified = 0
    for _ in range(RANDOM_DRAWS):
        pres, ray = _draw(rng)
        certified += sum(_check_level(pres, n, ray)
                         for n in range(1, (6 if pres.degree == 2 else 5) + 1))
    assert certified == 1554  # the route's coverage of this family shows here


def _regular_s3_table():
    """The orbitals of S_3 acting on itself by left multiplication: (a, c)
    lies in the orbital a^-1 c.  A regular action of a non-abelian group has
    a non-commutative orbital scheme."""
    elements = sorted(itertools.permutations(range(3)))
    index = {g: i for i, g in enumerate(elements)}
    inverse = {g: tuple(sorted(range(3), key=g.__getitem__)) for g in elements}
    return np.array([[index[tuple(inverse[a][i] for i in c)] for c in elements]
                     for a in elements])


def test_a_non_commutative_letter_scheme_has_no_closed_form():
    table = _regular_s3_table()
    assert sorted(np.bincount(table.reshape(-1)).tolist()) == [6] * 6
    assert wreath_power_degrees(table, 3) is None


def test_closed_form_of_a_letter_scheme_with_a_repeated_multiplicity():
    # The square's vertices under D_4: the diagonal, the two neighbours and
    # the opposite vertex; the permutation module is 1 + 1 + 2.
    square = np.array([[min(abs(a - c), 4 - abs(a - c)) for c in range(4)] for a in range(4)])
    assert wreath_power_degrees(square, 1) == [1, 1, 2]
    assert wreath_power_degrees(square, 3) == [1, 1, 2, 4, 8, 16, 32]


def _distance_table(d):
    # The d-gon's vertices under D_d: the class of (a, c) is their distance.
    return [[min((a - c) % d, (c - a) % d) for c in range(d)] for a in range(d)]


# Letter tables of transitive groups whose permutation module is known:
# S_4 is 2-transitive, D_5 and D_9 split off one plane per distance (the
# square, D_4's, has its own test above), and a regular abelian group gives
# every character once.
LETTER_TABLES = {
    "S_4": ([[int(a != c) for c in range(4)] for a in range(4)], [1, 3]),
    "D_5": (_distance_table(5), [1, 2, 2]),
    "V_4": ([[a ^ c for c in range(4)] for a in range(4)], [1, 1, 1, 1]),
    "Z_9": ([[(c - a) % 9 for c in range(9)] for a in range(9)], [1] * 9),
    "D_9": (_distance_table(9), [1, 2, 2, 2, 2]),
}


@pytest.mark.parametrize("name", LETTER_TABLES)
def test_closed_form_of_hand_letter_tables(name):
    table, want = LETTER_TABLES[name]
    d = len(table)
    assert wreath_power_degrees(np.array(table), 1) == want
    assert wreath_power_degrees(np.array(table), 3) == sorted(
        [1] + [m * d**k for m in want[1:] for k in range(3)])


def test_exact_rank_matches_numpy():
    # Sparse products of an r x k and a k x r matrix: rank at most k, and
    # zero columns that make the elimination skip a pivot.
    rng = random.Random(11)
    for r in range(1, 8):
        for k in range(r + 1):
            for _ in range(10):
                A = rng.choices(range(-5, 6), weights=[1] * 5 + [10] + [1] * 5, k=r * k)
                B = rng.choices(range(-5, 6), weights=[1] * 5 + [10] + [1] * 5, k=k * r)
                M = (np.array(A, dtype=np.int64).reshape(r, k)
                     @ np.array(B, dtype=np.int64).reshape(k, r)).tolist()
                assert spectral._rank(M) == np.linalg.matrix_rank(np.array(M, dtype=float)), M
    assert spectral._rank([[2, 4, 6], [1, 2, 3], [0, 0, 5]]) == 2


def test_a_wrong_multiplicity_is_refused(monkeypatch):
    # The rank of 2 T1 - T2 read one too small: multiplicity 2 seems to occur
    # once, and the degrees no longer sum to d^n.
    honest = spectral._rank
    calls = []

    def off_at_two(M):
        calls.append(M)
        return honest(M) - (len(calls) == 2)

    monkeypatch.setattr(spectral, "_rank", off_at_two)
    entry = builtin("gupta-sidki")
    orbital = cone_certificate(entry.presentation, 3, entry.default_ray)
    with pytest.raises(IntegrityError, match=r"^level-1 multiplicities \[1, 1, 1, 2\] give "
                                             r"degrees summing to 53 over 10 classes, "
                                             r"expected 27 over 7$"):
        wreath_power_degrees(orbital, 3)
