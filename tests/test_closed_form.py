"""The exact degrees of a cone-certified level against the pencil route.

``spectral.wreath_power_degrees`` reads a certified level's rank, Gelfand
verdict and degrees off G_1's letter-orbital table.  Here they are held
against ``spectral_data``'s certified pencil (a float proposal checked
exactly) and ``is_commutative`` on the built scheme's p, and against the
dense oracle where N <= 243, on fixed families:
the catalog, the five fixed cone cases and a seeded random family.  Fixed
families, not hypothesis draws, so that editing a test body never swaps
the inputs it checks.  The integer helpers are checked on their own, and
planted faults show that a wrong multiplicity and a combination that does
not separate the characters are both refused.
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


def test_root_multiplicities_of_known_polynomials():
    # (x - 1)^3 (x + 2) (x^2 + 1), constant first
    f = [-2, 5, -5, 4, -2, -1, 1]
    assert spectral._root_multiplicities(f) == [1, 1, 1, 3]
    assert spectral._root_multiplicities([-1, 3, -3, 1]) == [3]  # (x - 1)^3
    assert spectral._root_multiplicities([4, 0, 1]) == [1, 1]  # x^2 + 4
    assert spectral._root_multiplicities([0, 0, 0, 0, 1]) == [4]  # x^4
    assert spectral._root_multiplicities([7]) == []


def test_characteristic_polynomial_matches_numpy():
    rng = random.Random(11)
    for d in range(1, 7):
        M = [[rng.randint(-5, 5) for _ in range(d)] for _ in range(d)]
        want = np.round(np.poly(np.array(M, dtype=float))[::-1]).astype(int).tolist()
        assert spectral._characteristic_polynomial(M) == want, M


def test_polynomial_gcd():
    # gcd((x - 1)^2 (x + 3), 2 (x - 1) (x + 5)) = x - 1, primitive
    a = [3, -5, 1, 1]
    b = [-10, 8, 2]
    assert spectral._polynomial_gcd(a, b) == [-1, 1]
    assert spectral._polynomial_gcd(b, a) == [-1, 1]
    assert spectral._polynomial_gcd([2, 4], [3]) == [1]


def test_a_wrong_multiplicity_is_refused(monkeypatch):
    # One level-1 multiplicity one too large: the degrees no longer sum to d^n.
    honest = spectral._root_multiplicities
    monkeypatch.setattr(spectral, "_root_multiplicities",
                        lambda f: honest(f)[:-1] + [honest(f)[-1] + 1])
    entry = builtin("gupta-sidki")
    orbital = cone_certificate(entry.presentation, 3, entry.default_ray)
    with pytest.raises(IntegrityError, match=r"^level-1 multiplicities \[1, 1, 2\] give "
                                             r"degrees summing to 40 over 7 classes, "
                                             r"expected 27 over 7$"):
        wreath_power_degrees(orbital, 3)


_CHARACTERISTIC_POLYNOMIAL = spectral._characteristic_polynomial


def _all_ones_polynomial(M):
    # the characteristic polynomial of the all-ones matrix: every class
    # weighted alike, so only the valency character stands apart
    return _CHARACTERISTIC_POLYNOMIAL([[1] * len(M) for _ in M])


def test_a_combination_that_does_not_separate_is_passed_over(monkeypatch):
    entry = builtin("gupta-sidki")
    orbital = cone_certificate(entry.presentation, 3, entry.default_ray)
    tried = []

    def first_fails(M):
        tried.append(M)
        return (_all_ones_polynomial if len(tried) == 1 else _CHARACTERISTIC_POLYNOMIAL)(M)

    assert spectral._root_multiplicities(_all_ones_polynomial([[0] * 3] * 3)) == [1, 2]
    monkeypatch.setattr(spectral, "_characteristic_polynomial", first_fails)
    assert wreath_power_degrees(orbital, 3) == entry.expected_degrees(3)
    assert len(tried) == 2
    monkeypatch.setattr(spectral, "_characteristic_polynomial", _all_ones_polynomial)
    with pytest.raises(IntegrityError, match="^no combination of the 3 letter classes "
                                             "separates their characters$"):
        wreath_power_degrees(orbital, 3)
