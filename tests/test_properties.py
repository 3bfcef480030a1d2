"""Property tests on random small presentations beyond the catalog: the
suborbits (the cone route's where it passes, the fold's elsewhere) against
the group enumeration oracle and, at levels past the oracle's cap, against
the permutation route, also on fixed automata whose generators have cycles
of mixed lengths and on two more fixed inputs; the cone route's scheme
against the fold's wherever the route passes; the rule that finds the
breadth-first tree pairs, on the catalog and those fixed inputs; the
scheme's row route against the full label table and the dense oracle; and
the Gelfand verdict spectral_data reads off p against exact products of the
left-regular matrices.  The component routine the suborbit routes share is
checked on its own against a union-find reference."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from eigen_reference import first_non_commuting_pair, least_members, scalar_eigensystem
from label_table import table_route
from scheme_routes import fold_scheme, oracle_scheme
from suborbit_reference import permutation_route, schreier_pairs

from selfsim.catalog import builtin, keys
from selfsim.errors import IntegrityError, NotTransitiveError, SizeCapError
from selfsim.orbits import (cone_suborbits, merge_components, oracle_suborbits,
                            orbit_transversal, stabilizer_suborbits,
                            suborbits_from_transversal)
from selfsim.scheme import build_scheme, is_commutative
from selfsim.spectral import (DEFAULT_SEED, common_eigensystems,
                              degree_multiset_from_p, dense_commutant_oracle,
                              intersection_matrices, multiplicities, spectral_data)
from selfsim.tree import Ray, Vertex, all_d_ray, parse_ray
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
        if _orbit_size(pres, ray.prefix(n)) < pres.degree**n:
            with pytest.raises(NotTransitiveError):
                stabilizer_suborbits(pres, n, ray)
            return
        try:
            expected = oracle_suborbits(pres, n, ray, cap=ORACLE_CAP)
        except SizeCapError:
            return
        assert stabilizer_suborbits(pres, n, ray) == expected, pres.to_text()
        tv = orbit_transversal(pres, n, ray)
        assert suborbits_from_transversal(pres, tv) == expected, pres.to_text()


def _check_the_permutation_route(pres, ray):
    # Past the enumeration oracle's cap: levels up to 5 / 4.  The fold is
    # called directly as well, since the cone route takes the levels it
    # certifies.
    for n in range(6 if pres.degree == 2 else 5):
        try:
            tv = orbit_transversal(pres, n, ray)
        except NotTransitiveError:
            return
        expected = permutation_route(pres, tv)
        assert stabilizer_suborbits(pres, n, ray) == expected, pres.to_text()
        assert suborbits_from_transversal(pres, tv) == expected, pres.to_text()


@PROPERTY_SETTINGS
@given(presentations())
def test_suborbits_match_the_permutation_route(case):
    _check_the_permutation_route(*case)


def _check_the_cone_route(pres, ray, top):
    """The cone route's scheme against the fold's on levels 1..top, wherever
    the route passes; returns the levels where it did."""
    passed = []
    for n in range(1, top + 1):
        try:
            fold = fold_scheme(pres, n, ray)
        except NotTransitiveError:
            assert cone_suborbits(pres, n, ray) is None, pres.to_text()
            break
        if cone_suborbits(pres, n, ray) is None:
            continue
        route = build_scheme(pres, n, ray)
        assert route.partition == fold.partition, pres.to_text()
        assert route.representatives == fold.representatives, pres.to_text()
        assert route.pairing == fold.pairing, pres.to_text()
        assert np.array_equal(route.p, fold.p), pres.to_text()
        passed.append(n)
    return passed


@PROPERTY_SETTINGS
@given(presentations())
def test_cone_route_matches_the_fold(case):
    pres, ray = case
    _check_the_cone_route(pres, ray, 5 if pres.degree == 2 else 4)


# Drawn inputs the cone route passes at every level, beyond the catalog:
# rays of period 2, and G_1 = S_3, whose point stabilizers join two letters
# into one cross block.
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


@pytest.mark.parametrize("name", CONE_CASES)
def test_cone_route_matches_the_fold_on_fixed_inputs(name):
    text, ray = CONE_CASES[name]
    pres = parse_presentation(text)
    top = 6 if pres.degree == 2 else 5
    assert _check_the_cone_route(pres, parse_ray(ray, pres.degree), top) == \
        list(range(1, top + 1))


# The catalog and the fixed inputs above, at levels up to 4 (binary) and 3
# (ternary), or 2 for the ternary fixed inputs: their level-3 groups have
# more than 2^16 elements.
ORACLE_SCHEME_CASES = {
    **{key: (builtin(key).presentation, builtin(key).default_ray) for key in keys()},
    **{name: (pres, parse_ray(ray, pres.degree))
       for name, (text, ray) in CONE_CASES.items() for pres in [parse_presentation(text)]},
}


@pytest.mark.parametrize("name", ORACLE_SCHEME_CASES)
def test_oracle_scheme_matches_the_route_and_the_fold(name):
    # The enumeration oracle's partition reads its own label rows, so its
    # scheme is a third route to p, independent of the transversal.
    pres, ray = ORACLE_SCHEME_CASES[name]
    top = 4 if pres.degree == 2 else 2 if name in CONE_CASES else 3
    for n in range(top + 1):
        assert (n == 0) == (cone_suborbits(pres, n, ray) is None), n
        oracle = oracle_scheme(pres, n, ray)
        for other in (build_scheme(pres, n, ray), fold_scheme(pres, n, ray)):
            assert other.partition == oracle.partition, n
            assert other.representatives == oracle.representatives, n
            assert other.pairing == oracle.pairing, n
            assert np.array_equal(other.p, oracle.p), n


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


# A degree-3 input whose suborbits are much finer than the bound that keeps
# the prefix shared with the base and the stabilizer orbit of the next
# letter: rank 15 at level 4, where that bound has rank 5.  A check of
# self-replication that counts section letters by name, not by occurrence,
# passes it and gives wrong blocks.
FINER_THAN_CONES = ("degree: 3\ngen a = perm (2 3) | e, b a, a^-1\n"
                    "gen b = perm (1 3) | a a^-1, b, e\n")


def test_suborbits_finer_than_the_cones():
    pres, ray = parse_presentation(FINER_THAN_CONES), parse_ray("3", 3)
    for n, rank in enumerate((2, 3, 6, 15), start=1):
        parts = stabilizer_suborbits(pres, n, ray)
        assert parts.rank == rank, n
        assert parts == oracle_suborbits(pres, n, ray), n
    parts = stabilizer_suborbits(pres, 5, ray)  # past the oracle's cap
    assert parts.rank == 42
    assert parts == permutation_route(pres, orbit_transversal(pres, 5, ray))


def test_oracle_keeps_each_group_element_once():
    # Level 5 of FINER_THAN_CONES has more than 2^12 elements.  Each is kept
    # as its 243 bytes: about 1.3 MB at the refusal, where an int64 copy
    # beside its bytes key takes about 16.7 MB.
    pres, ray = parse_presentation(FINER_THAN_CONES), parse_ray("3", 3)
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError, match=r"^group on level 5 exceeds cap 4096 "):
            oracle_suborbits(pres, 5, ray, cap=2**12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def _check_the_gelfand_verdict(p):
    # spectral_data reads commutativity off p; the exact products of the
    # left-regular matrices must name the same pair, or none.
    pair = first_non_commuting_pair(intersection_matrices(p))
    if pair is None:
        spectral_data(p)
    else:
        with pytest.raises(IntegrityError,
                           match=f"^matrices {pair[0]} and {pair[1]} do not commute$"):
            spectral_data(p)
    return pair


@pytest.mark.parametrize("key", keys())
def test_gelfand_verdict_matches_the_products_on_the_catalog(key):
    e = builtin(key)
    for n in range(7 if e.presentation.degree == 2 else 5):
        scheme = build_scheme(e.presentation, n, e.default_ray)
        assert _check_the_gelfand_verdict(scheme.p) is None, n


# A binary input whose scheme is not commutative from level 3 on; no
# catalog group has one.
NON_COMMUTATIVE = ("degree: 2\ngen a = perm (1 2) | c, c^-1 b^-1 c^-1\n"
                   "gen b = perm (1 2) | e, c^-1 a\ngen c = perm (1 2) | e, a c\n")


def test_suborbits_of_a_non_commutative_scheme():
    pres, ray = parse_presentation(NON_COMMUTATIVE), parse_ray("2", 2)
    for n, rank in enumerate((2, 4, 8, 12, 16, 20), start=1):
        scheme = build_scheme(pres, n, ray)
        assert scheme.rank == rank, n
        assert scheme.partition == oracle_suborbits(pres, n, ray), n
        assert scheme.partition == permutation_route(pres, orbit_transversal(pres, n, ray)), n
        assert is_commutative(scheme.p) == (n < 3), n
        assert _check_the_gelfand_verdict(scheme.p) == (None if n < 3 else (1, 3)), n


# The catalog groups and the fixed inputs above, each with its ray.
TREE_PAIR_CASES = {
    **{key: (builtin(key).presentation, builtin(key).default_ray) for key in keys()},
    **{f"automaton{i}": (pres, all_d_ray(pres.degree))
       for i, pres in enumerate(map(parse_presentation, MIXED_CYCLES))},
    "finer-than-cones": (parse_presentation(FINER_THAN_CONES), parse_ray("3", 3)),
    "non-commutative": (parse_presentation(NON_COMMUTATIVE), parse_ray("2", 2)),
}


@pytest.mark.parametrize("name", TREE_PAIR_CASES)
def test_schreier_pairs_leave_out_exactly_the_tree_pairs(name):
    # (s_k, x) is on the breadth-first tree iff via[s_k(x)] == k.  Each vertex
    # but the base has one tree pair, and its Schreier generator is the
    # identity: u_y^-1 s_k = u_x^-1 for y = s_k(x).
    pres, ray = TREE_PAIR_CASES[name]
    for n in range(6 if pres.degree == 2 else 5):
        tv = orbit_transversal(pres, n, ray)
        size = len(tv)
        skipped = {(s, x) for s in tv.generators for x in range(size)}
        for s, x, *_ in schreier_pairs(pres, tv):
            skipped.remove((s, x))
        assert len(skipped) == size - 1, n
        for k, s in enumerate(tv.generators):
            perm = generator_level_perms(pres, n)[s]
            x = np.array(sorted(x for t, x in skipped if t == s), dtype=np.int64)
            assert np.array_equal(x, np.flatnonzero(tv.via[perm] == k)), n
            assert np.array_equal(tv.perms[perm[x]][:, perm], tv.perms[x]), n


@PROPERTY_SETTINGS
@given(presentations())
def test_scheme_matches_the_label_table(case):
    # Both label sources: build_scheme's, whichever route it takes, and the
    # fold's, called directly.
    pres, ray = case
    for n in range(4):
        try:
            schemes = build_scheme(pres, n, ray), fold_scheme(pres, n, ray)
        except NotTransitiveError:
            return
        for scheme in schemes:
            p, pairing = table_route(scheme)
            assert np.array_equal(scheme.p, p), pres.to_text()
            assert scheme.pairing == pairing, pres.to_text()
            if is_commutative(scheme.p):
                assert (dense_commutant_oracle(scheme)
                        == degree_multiset_from_p(scheme.p)), pres.to_text()


@PROPERTY_SETTINGS
@given(presentations())
def test_batched_eigensystem_matches_the_scalar_reference(case):
    pres, ray = case
    for n in range(4):
        try:
            scheme = build_scheme(pres, n, ray)
        except NotTransitiveError:
            return
        if not is_commutative(scheme.p):
            continue
        B = intersection_matrices(scheme.p)
        seeds = (1002, DEFAULT_SEED, 1000, 1001, 1000)  # out of order, one duplicate
        for seed, P in zip(seeds, common_eigensystems(B, seeds), strict=True):
            Q = scalar_eigensystem(B, seed)
            assert np.allclose(P, Q, rtol=0, atol=1e-9), pres.to_text()
            assert (multiplicities(P, scheme.valencies, scheme.point_count)
                    == multiplicities(Q, scheme.valencies, scheme.point_count)), pres.to_text()


@PROPERTY_SETTINGS
@given(presentations())
def test_gelfand_verdict_matches_the_products(case):
    pres, ray = case
    for n in range(4):
        try:
            scheme = build_scheme(pres, n, ray)
        except NotTransitiveError:
            return
        _check_the_gelfand_verdict(scheme.p)


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
