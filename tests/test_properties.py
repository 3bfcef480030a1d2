"""Property tests on random small presentations beyond the catalog: the
Schreier-vector suborbit route against the group enumeration oracle, and
the scheme's row route against the full label table and the dense oracle."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from eigen_reference import scalar_eigensystem
from label_table import table_route

from selfsim.errors import NotTransitiveError, SizeCapError
from selfsim.orbits import oracle_suborbits, stabilizer_suborbits
from selfsim.scheme import build_scheme, is_commutative
from selfsim.spectral import (DEFAULT_SEED, common_eigensystem,
                              degree_multiset_from_scheme, dense_commutant_oracle,
                              intersection_matrices, multiplicities)
from selfsim.tree import Ray, Vertex, ray_prefix
from selfsim.wreath import GeneratorRule, Word, WreathPresentation, act

NAMES = ("a", "b", "c")
# The level-3 group of a degree-3 presentation can have ~10^10 elements;
# levels whose group outgrows this cap are left to the catalog tests.
ORACLE_CAP = 5000

PROPERTY_SETTINGS = settings(max_examples=120, deadline=None, database=None,
                             derandomize=True,
                             suppress_health_check=[HealthCheck.too_slow])


@st.composite
def presentations(draw):
    """Degree 2 or 3, one to three generators, section words of length <= 3."""
    degree = draw(st.sampled_from((2, 3)))
    names = NAMES[:draw(st.integers(1, len(NAMES)))]
    letters = st.tuples(st.sampled_from(names), st.sampled_from((1, -1)))
    words = st.lists(letters, max_size=3).map(lambda ls: Word(tuple(ls)))
    rules = tuple(
        GeneratorRule(name,
                      tuple(draw(st.permutations(range(1, degree + 1)))),
                      tuple(draw(st.lists(words, min_size=degree, max_size=degree))))
        for name in names
    )
    tail = tuple(draw(st.lists(st.integers(1, degree), min_size=1, max_size=2)))
    return WreathPresentation(degree, rules), Ray(Vertex.root(degree), tail)


def _orbit_size(pres: WreathPresentation, base: Vertex) -> int:
    """Orbit of the base under the recursive action, not the level perms."""
    seen = {base}
    stack = [base]
    while stack:
        v = stack.pop()
        for name in pres.generator_names:
            w = act(pres, Word.generator(name), v)
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen)


@PROPERTY_SETTINGS
@given(presentations())
def test_suborbits_match_the_oracle(case):
    pres, ray = case
    for n in range(4):
        if _orbit_size(pres, ray_prefix(ray, n)) < pres.degree**n:
            with pytest.raises(NotTransitiveError):
                stabilizer_suborbits(pres, n, ray)
            return
        try:
            expected = oracle_suborbits(pres, n, ray, cap=ORACLE_CAP)
        except SizeCapError:
            return
        assert stabilizer_suborbits(pres, n, ray) == expected, pres.to_text()


@PROPERTY_SETTINGS
@given(presentations())
def test_scheme_matches_the_label_table(case):
    pres, ray = case
    for n in range(4):
        try:
            scheme = build_scheme(pres, n, ray)
        except NotTransitiveError:
            return
        p, pairing = table_route(scheme)
        assert np.array_equal(scheme.p, p), pres.to_text()
        assert scheme.pairing == pairing, pres.to_text()
        if is_commutative(scheme):
            assert (dense_commutant_oracle(scheme)
                    == degree_multiset_from_scheme(scheme)), pres.to_text()


@PROPERTY_SETTINGS
@given(presentations())
def test_batched_eigensystem_matches_the_scalar_reference(case):
    pres, ray = case
    for n in range(4):
        try:
            scheme = build_scheme(pres, n, ray)
        except NotTransitiveError:
            return
        if not is_commutative(scheme):
            continue
        B = intersection_matrices(scheme)
        P = common_eigensystem(B, DEFAULT_SEED)
        Q = scalar_eigensystem(B, DEFAULT_SEED)
        assert np.allclose(P, Q, rtol=0, atol=1e-9), pres.to_text()
        assert (multiplicities(P, scheme.valencies, scheme.point_count)
                == multiplicities(Q, scheme.valencies, scheme.point_count)), pres.to_text()
