"""Property tests on random small presentations beyond the catalog: the
Schreier-vector suborbit route against the group enumeration oracle and,
at levels past the oracle's cap, against the permutation route, also on
fixed automata whose generators have cycles of mixed lengths; and the
scheme's row route against the full label table and the dense oracle.
The component routine the suborbit routes share is checked on its own
against a union-find reference."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from eigen_reference import least_members, scalar_eigensystem
from label_table import table_route
from suborbit_reference import permutation_route

from selfsim.errors import NotTransitiveError, SizeCapError
from selfsim.orbits import (merge_components, oracle_suborbits, orbit_transversal,
                            stabilizer_suborbits)
from selfsim.scheme import build_scheme, is_commutative
from selfsim.spectral import (DEFAULT_SEED, common_eigensystem,
                              degree_multiset_from_scheme, dense_commutant_oracle,
                              intersection_matrices, multiplicities)
from selfsim.tree import Ray, Vertex, all_d_ray, ray_prefix
from selfsim.wreath import (GeneratorRule, Word, WreathPresentation, act,
                            generator_level_perms, parse_presentation)

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


def _check_the_permutation_route(pres, ray):
    # Past the enumeration oracle's cap: levels up to 5 / 4.
    for n in range(6 if pres.degree == 2 else 5):
        try:
            tv = orbit_transversal(pres, n, ray)
        except NotTransitiveError:
            return
        assert stabilizer_suborbits(pres, n, ray) == permutation_route(pres, tv), \
            pres.to_text()


@PROPERTY_SETTINGS
@given(presentations())
def test_suborbits_match_the_permutation_route(case):
    _check_the_permutation_route(*case)


# Automata in which a generator has cycles of two lengths, both at least 2,
# on some level: the first on level 4 (b: 4 and 8), the fourth on level 2
# (a: 3 and 6).  The suborbit fold may drop a pair only on a cycle whose
# length is the generator's order; dropping one on the shorter cycles loses
# a stabilizer generator in each of these.
MIXED_CYCLES = (
    "degree: 2\ngen a = perm () | e, b\ngen b = perm (1 2) | a^-1, b^-1\n",
    "degree: 2\ngen a = perm (1 2) | a, b\ngen b = perm () | e, a^-1\n",
    "degree: 2\ngen a = perm (1 2) | e, b\ngen b = perm (1 2) | b^-1, a\n",
    "degree: 3\ngen a = perm (1 2 3) | e, b, a\ngen b = perm (2 3) | e, b^-1, e\n",
    "degree: 3\ngen a = perm () | e, b, e\ngen b = perm (1 3 2) | a^-1, a, a\n",
)


def _cycle_lengths(perm: np.ndarray) -> set[int]:
    cycle = merge_components(np.arange(len(perm)), perm)
    return set(np.bincount(cycle)[np.unique(cycle)].tolist())


@pytest.mark.parametrize("text", MIXED_CYCLES,
                         ids=[f"automaton{i}" for i in range(len(MIXED_CYCLES))])
def test_suborbits_with_cycles_of_mixed_lengths(text):
    pres = parse_presentation(text)
    assert any(len(_cycle_lengths(perm) - {1}) > 1
               for n in range(6 if pres.degree == 2 else 5)
               for perm in generator_level_perms(pres, n).values())
    _check_the_permutation_route(pres, all_d_ray(pres.degree))


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


@st.composite
def permutation_families(draw):
    """A point count and a list of permutations of it, drawn from a few
    distinct ones plus the identity, so repeats and the identity occur."""
    size = draw(st.integers(1, 24))
    distinct = draw(st.lists(st.permutations(range(size)), min_size=1, max_size=4))
    pool = distinct + [list(range(size))]
    return size, draw(st.lists(st.sampled_from(pool), max_size=8))


@PROPERTY_SETTINGS
@given(permutation_families())
def test_permutation_fold_matches_union_find(case):
    size, family = case
    rep = np.arange(size)
    edges = []
    for g in family:
        given_rep = rep.copy()
        out = merge_components(rep, np.array(g))
        assert np.array_equal(rep, given_rep)
        edges += [(x, g[x]) for x in range(size)]
        assert out.tolist() == least_members(size, edges), family
        rep = out


@st.composite
def edge_lists(draw):
    """A point count and two edge lists on it.  Random ends give self-loops
    and repeated edges; the second list also draws the self-loops at the
    first and last point."""
    size = draw(st.integers(1, 30))
    ends = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
    return (size, draw(st.lists(ends, max_size=40)),
            draw(st.lists(st.sampled_from([(0, 0), (size - 1, size - 1)]) | ends,
                          max_size=40)))


@PROPERTY_SETTINGS
@given(edge_lists())
def test_edge_merge_matches_union_find(case):
    size, first, second = case
    rep = np.arange(size)
    for edges, seen in ((first, first), (second, first + second)):
        heads = np.array([a for a, _ in edges], dtype=np.int64)
        tails = np.array([b for _, b in edges], dtype=np.int64)
        given_rep = rep.copy()
        out = merge_components(rep, tails, heads)
        assert np.array_equal(rep, given_rep)
        assert out.tolist() == least_members(size, seen), edges
        rep = out
