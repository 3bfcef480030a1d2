import tracemalloc

import numpy as np
import pytest
from eigen_reference import chained_clusters, scalar_eigensystem
from product_rule_reference import product_rule_reference
from test_properties import FINER_THAN_CONES, NON_COMMUTATIVE

from selfsim import spectral
from selfsim.catalog import builtin, keys
from selfsim.errors import IntegrityError, NumericalError, SizeCapError
from selfsim.scheme import build_scheme
from selfsim.spectral import (DEFAULT_SEED, MAX_SEED_TRIES, _cluster_indices,
                              _product_dtype, _slice_classes, common_eigensystem,
                              common_eigensystems,
                              degree_multiset_from_p, degrees_embed,
                              dense_commutant_oracle, intersection_matrices,
                              multiplicities, spectral_data)
from selfsim.tree import parse_ray
from selfsim.wreath import parse_presentation


def _scheme(key, n):
    e = builtin(key)
    return build_scheme(e.presentation, n, e.default_ray)


def test_intersection_matrices_swap_scheme():
    B = intersection_matrices(_scheme("grigorchuk", 1).p)
    assert np.array_equal(B[0], np.eye(2, dtype=np.int64))
    assert np.array_equal(B[1], np.array([[0, 1], [1, 0]]))


def test_intersection_matrices_identity_class():
    B = intersection_matrices(_scheme("gamma", 2).p)
    assert np.array_equal(B[0], np.eye(5, dtype=np.int64))


def test_inverse_classes_multiply_to_identity():
    B = intersection_matrices(_scheme("gupta-sidki", 1).p)
    assert np.array_equal(B[1] @ B[2], B[0])


def test_eigensystem_swap_scheme():
    B = intersection_matrices(_scheme("grigorchuk", 1).p)
    P = common_eigensystem(B)
    assert np.allclose(P, [[1, 1], [1, -1]])


def test_eigensystem_three_cycle_scheme():
    P = common_eigensystem(intersection_matrices(_scheme("gupta-sidki", 1).p))
    zeta = np.exp(2j * np.pi / 3)
    assert np.allclose(P[0], [1, 1, 1])
    rows = {tuple(np.round(row, 6)) for row in P[1:]}
    want = {tuple(np.round([1, zeta, zeta.conjugate()], 6)),
            tuple(np.round([1, zeta.conjugate(), zeta], 6))}
    assert rows == want
    assert np.allclose(P[1], [1, zeta.conjugate(), zeta])  # imag-ascending tie order


def test_eigensystem_rank_one():
    P = common_eigensystem(intersection_matrices(_scheme("gamma", 0).p))
    assert np.allclose(P, [[1]])


def test_eigensystem_rejects_non_commuting():
    # No commutation check: a swap and a projection share no eigenbasis, so
    # every seed leaves a residual.
    a = np.array([[0, 1], [1, 0]])
    b = np.array([[1, 0], [0, 0]])
    with pytest.raises(NumericalError, match="left eigenvector residual"):
        common_eigensystem(np.stack([a, b]))


def test_eigensystem_names_the_first_non_commuting_pair():
    # The refusal is spectral_data's, read off p; NON_COMMUTATIVE's scheme
    # stops commuting at level 3.
    pres, ray = parse_presentation(NON_COMMUTATIVE), parse_ray("2", 2)
    for n in range(3, 7):
        with pytest.raises(IntegrityError, match="^matrices 1 and 3 do not commute$"):
            spectral_data(build_scheme(pres, n, ray).p)


def test_eigensystem_gives_up_after_the_seed_retries():
    last = DEFAULT_SEED + MAX_SEED_TRIES - 1
    with pytest.raises(NumericalError,
                       match=f"seed {last} separated only 1 of 2 joint eigenspaces"):
        common_eigensystem(np.stack([np.eye(2), np.eye(2)]))


@pytest.mark.parametrize("entry,pair", [((2, 1, 2), (2, 1)), ((3, 3, 0), (1, 3))])
def test_product_rule_names_the_first_failing_pair(entry, pair):
    p = _scheme("grigorchuk", 3).p.copy()
    p[entry] += 1
    with pytest.raises(IntegrityError,
                       match=rf"product rule at \({pair[0]}, {pair[1]}\)$"):
        intersection_matrices(p)


def _product_rule_verdict(check, p):
    """None if p passes the product-rule check, else its message."""
    try:
        B = check(p)
    except IntegrityError as exc:
        return str(exc)
    assert np.array_equal(B, p.transpose(0, 2, 1))
    return None


_PRODUCT_RULE_FAMILY = {
    "grigorchuk-3": (builtin("grigorchuk").presentation, 3, builtin("grigorchuk").default_ray),
    "gupta-sidki-2": (builtin("gupta-sidki").presentation, 2, builtin("gupta-sidki").default_ray),
    "gamma-3": (builtin("gamma").presentation, 3, builtin("gamma").default_ray),
    "finer-than-cones-3": (parse_presentation(FINER_THAN_CONES), 3, parse_ray("3", 3)),
}


@pytest.mark.parametrize("per_slice", [None, 1, 2], ids=["budget", "one-class", "two-classes"])
@pytest.mark.parametrize("case", sorted(_PRODUCT_RULE_FAMILY))
def test_product_rule_matches_the_reference_on_every_single_entry_change(
        case, per_slice, monkeypatch):
    # Every entry of p moved by +1 and by -1: the chunked products raise
    # exactly where the per-class int64 loop does, naming the same (i, j).
    # These ranks fit one slice of the byte budget; narrower slices also
    # check the offsets of later ones.
    pres, n, ray = _PRODUCT_RULE_FAMILY[case]
    p = build_scheme(pres, n, ray).p
    if per_slice is not None:
        monkeypatch.setattr("selfsim.spectral._TEMP_BYTES", per_slice * 8 * len(p)**3)
    assert _product_dtype(p) is np.float64
    assert _product_rule_verdict(intersection_matrices, p) is None
    raised = 0
    for entry in np.ndindex(p.shape):
        for delta in (1, -1):
            bad = p.copy()
            bad[entry] += delta
            want = _product_rule_verdict(product_rule_reference, bad)
            assert _product_rule_verdict(intersection_matrices, bad) == want, (entry, delta)
            raised += want is not None
    assert raised > 0


def test_product_rule_past_float64_runs_in_int64():
    # The complete graph on N = 2^27 points: rank 2, p[1][1] = (N-1, N-2),
    # so r max|p|^2 is about 2^55 and float64 would round B_1 B_1.
    size = 2**27
    p = np.zeros((2, 2, 2), dtype=np.int64)
    p[0] = np.eye(2, dtype=np.int64)
    p[1, 0] = [0, 1]
    p[1, 1] = [size - 1, size - 2]
    assert 2 * int(p.max())**2 >= 2**53
    assert _product_dtype(p) is np.int64
    assert _product_rule_verdict(intersection_matrices, p) is None
    for entry in np.ndindex(p.shape):
        for delta in (1, -1):
            bad = p.copy()
            bad[entry] += delta
            assert (_product_rule_verdict(intersection_matrices, bad)
                    == _product_rule_verdict(product_rule_reference, bad)), (entry, delta)


def test_product_rule_check_keeps_to_its_byte_budget():
    # Rank 42 (FINER_THAN_CONES, level 5): its r^4 products are checked a
    # few classes at a time, near 7 MB; slices of 16 MiB peak near
    # 42 MB, and all classes at once near 53 MB.
    p = build_scheme(parse_presentation(FINER_THAN_CONES), 5, parse_ray("3", 3)).p
    assert len(p) == 42
    tracemalloc.start()
    try:
        intersection_matrices(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def test_product_rule_slices_hold_several_classes_at_mid_rank():
    # Up to rank 25 a class fits _TEMP_BYTES and the slices are as they
    # were; past it they take _WIDE_TEMP_BYTES, one class again past rank 50.
    for r in range(1, 26):
        assert _slice_classes(r, 8) == max(1, 2**17 // (8 * r**3)), r
    assert [_slice_classes(r, 8) for r in (26, 42, 50, 51, 123)] == [14, 3, 2, 1, 1]
    p = build_scheme(parse_presentation(FINER_THAN_CONES), 5, parse_ray("3", 3)).p
    for i, j, k in ((0, 0, 0), (40, 7, 3), (41, 41, 41)):  # first and last slice
        bad = p.copy()
        bad[i, j, k] += 1
        assert (_product_rule_verdict(intersection_matrices, bad)
                == _product_rule_verdict(product_rule_reference, bad)), (i, j, k)


@pytest.mark.parametrize("values,atol,want", [
    ([0.0, 0.3, 0.6, 5.0, 0.9], 0.35, [[0, 1, 2, 4], [3]]),
    ([0.9, 0.6, 0.3, 0.0, 5.0], 0.35, [[0, 1, 2, 3], [4]]),  # chain met from its far end
    ([1.0, np.nan, 1.0, np.nan], 0.1, [[0, 2], [1], [3]]),
    ([1j, 2.0, 1j + 1e-9, 2.0 + 1e-9], 1e-8, [[0, 2], [1, 3]]),
])
def test_cluster_indices_chain_within_atol(values, atol, want):
    values = np.asarray(values, dtype=complex)
    assert _cluster_indices(values, atol) == want
    assert chained_clusters(values, atol) == want


# Out of order, with one duplicate.
_SEEDS = (1003, DEFAULT_SEED, 1000, 1002, 1001, 1000)


@pytest.mark.parametrize("key", keys())
def test_batched_eigensystem_matches_the_scalar_reference(key, monkeypatch):
    # One call solves every seed; each table is the scalar route's for that
    # seed, whether the seeds share one stack or, at a one-byte budget, take
    # one chunk each.
    e = builtin(key)
    top = 6 if e.presentation.degree == 2 else 4
    for n in range(top + 1):
        scheme = build_scheme(e.presentation, n, e.default_ray)
        B = intersection_matrices(scheme.p)
        tables = common_eigensystems(B, _SEEDS)
        with monkeypatch.context() as m:
            m.setattr("selfsim.spectral._TEMP_BYTES", 1)
            one_each = common_eigensystems(B, _SEEDS)
        assert len(tables) == len(one_each) == len(_SEEDS)
        for seed, P, P1 in zip(_SEEDS, tables, one_each):
            Q = scalar_eigensystem(B, seed)
            assert np.allclose(P, Q, rtol=0, atol=1e-9), (key, n, seed)
            assert np.allclose(P1, Q, rtol=0, atol=1e-9), (key, n, seed)
            assert (multiplicities(P, scheme.valencies, scheme.point_count)
                    == multiplicities(Q, scheme.valencies, scheme.point_count))
        assert np.allclose(common_eigensystem(B, DEFAULT_SEED), tables[1], rtol=0, atol=1e-9)


def test_batch_names_the_first_unresolved_seed():
    # Every seed fails on the identity family; the error names the first
    # input seed's last attempt, not the smallest seed's.
    last = 50 + MAX_SEED_TRIES - 1
    with pytest.raises(NumericalError,
                       match=f"^common eigensystem did not resolve: seed {last} separated "
                             "only 1 of 2 joint eigenspaces$"):
        common_eigensystems(np.stack([np.eye(2), np.eye(2)]), [50, 7, 50, 3])


def test_a_seed_that_fails_its_first_attempt_resolves_on_the_next(monkeypatch):
    # Round 0 solves all seeds as one stack; member 2's eigenvalues are made
    # to coincide there, so only that seed goes on to attempt 1, the scalar
    # route's attempt 0 of seed + 1, and every other seed keeps its table.
    B = intersection_matrices(_scheme("gupta-sidki", 3).p)
    seeds = [11, 40, 23, 7]
    eig, stacks = np.linalg.eig, []

    def first_round_fails_member_two(M):
        evals, V = eig(M)
        if not stacks:
            evals[2, 1] = evals[2, 0]
        stacks.append(M.copy())
        return evals, V

    monkeypatch.setattr(np.linalg, "eig", first_round_fails_member_two)
    tables = common_eigensystems(B, seeds)

    def combination(seed):
        coeffs = np.random.default_rng(seed).uniform(1.0, 2.0, size=len(B))
        return np.tensordot(coeffs, B, axes=(0, 0))

    assert [len(M) for M in stacks] == [4, 1]
    assert np.allclose(stacks[0], [combination(seed) for seed in seeds], rtol=0, atol=1e-12)
    assert np.allclose(stacks[1][0], combination(24), rtol=0, atol=1e-12)
    for k, seed in enumerate(seeds):
        want = scalar_eigensystem(B, seed + 1 if k == 2 else seed)
        assert np.allclose(tables[k], want, rtol=0, atol=1e-9), seed


def test_batched_eigensystem_keeps_to_its_byte_budget():
    # Rank 15 (gupta-sidki 7), 200 seeds: one stack of B V would take
    # 200 * 16 * 15^3 bytes, 10.8 MB, and the solve peaks near 23 MB.  In
    # chunks, beyond the 200 tables it returns, it holds a few temporaries
    # of at most _TEMP_BYTES each.
    B = intersection_matrices(_scheme("gupta-sidki", 7).p)
    assert len(B) == 15
    common_eigensystems(B, range(3))  # numpy's lazy imports happen outside the trace
    tracemalloc.start()
    try:
        tables = common_eigensystems(B, range(200))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table_bytes = sum(P.nbytes for P in tables)
    assert table_bytes == 200 * 16 * 15**2
    assert peak < table_bytes + 6 * spectral._TEMP_BYTES


def test_one_seed_keeps_to_the_byte_budget_at_high_rank():
    # Rank 42 (FINER_THAN_CONES, level 5): one seed's products B_i V are
    # formed one class at a time, so beside one float copy of B the solve
    # holds a few temporaries of at most _TEMP_BYTES each.  All r products
    # at once would take 16 * 42^3 bytes, 1.19 MB.
    p = build_scheme(parse_presentation(FINER_THAN_CONES), 5, parse_ray("3", 3)).p
    B = intersection_matrices(p)
    assert len(B) == 42
    common_eigensystem(B, DEFAULT_SEED)  # numpy's lazy imports happen outside the trace
    tracemalloc.start()
    try:
        common_eigensystem(B, DEFAULT_SEED)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < B.nbytes + 6 * spectral._TEMP_BYTES


def _stacked_at(B, seed, others, where):
    """seed's table from one solve of seed among others, placed first, in the
    middle or last."""
    k = {"first": 0, "middle": len(others) // 2, "last": len(others)}[where]
    return common_eigensystems(B, [*others[:k], seed, *others[k:]])[k]


def _multiplicity_error(P, valencies, point_count):
    with pytest.raises(NumericalError) as caught:
        multiplicities(P, valencies, point_count)
    return str(caught.value)


@pytest.mark.parametrize("size", [3, 50, 1024])
def test_a_seeds_table_does_not_depend_on_its_stack(size):
    # At grigorchuk 17 (rank 18) case seed 2786 misses an integer by more
    # than INTEGER_TOL, and verify prints its float digits.  Each seed's M
    # is formed by itself and eig solves each member alone, so its table,
    # and the error read off it, are bit for bit those of a lone solve
    # wherever it stands in a stack.  Compared within one process only, as
    # the digits may differ between numpy builds.
    s = _scheme("grigorchuk", 17)
    B = intersection_matrices(s.p)
    alone = common_eigensystems(B, [2786])[0]
    error = _multiplicity_error(alone, s.valencies, s.point_count)
    assert error.startswith("multiplicity ") and "not within 1e-06" in error
    others = list(range(3000, 3000 + size - 1))
    for where in ("first", "middle", "last"):
        P = _stacked_at(B, 2786, others, where)
        assert np.array_equal(P, alone), (size, where)
        assert _multiplicity_error(P, s.valencies, s.point_count) == error


@pytest.mark.parametrize("key", keys())
def test_stacked_tables_equal_one_seed_chunks(key, monkeypatch):
    # verify's level of each group, where the default budget stacks 33 or
    # more seeds: every table equals the one a one-byte budget gives, one
    # seed per chunk, and the lone solve of any seed.
    n = 8 if builtin(key).presentation.degree == 2 else 5
    B = intersection_matrices(_scheme(key, n).p)
    seeds = list(range(2729, 2829))
    tables = common_eigensystems(B, seeds)
    with monkeypatch.context() as m:
        m.setattr("selfsim.spectral._TEMP_BYTES", 1)
        one_each = common_eigensystems(B, seeds)
    assert np.array_equal(tables, one_each)
    for where in ("first", "middle", "last"):
        assert np.array_equal(_stacked_at(B, 2786, seeds[:49], where), tables[57])


def test_multiplicities_examples():
    s = _scheme("grigorchuk", 1)
    P = common_eigensystem(intersection_matrices(s.p))
    assert multiplicities(P, s.valencies, 2) == [1, 1]
    s = _scheme("gupta-sidki", 1)
    P = common_eigensystem(intersection_matrices(s.p))
    assert multiplicities(P, s.valencies, 3) == [1, 1, 1]
    assert sorted(spectral_data(_scheme("grigorchuk", 3).p).multiplicities) == [1, 1, 2, 4]


def test_multiplicities_reject_non_integral():
    # The value prints as a float under every numpy version, never as
    # np.float64(...).
    P = np.array([[1.0, 1.0], [1.0, -0.5]], dtype=complex)
    with pytest.raises(NumericalError, match=r"^multiplicity 1 is 1\.6, not within 1e-06 "
                                             r"of a positive integer$"):
        multiplicities(P, np.array([1, 1]), 2)


def test_multiplicities_of_a_stack_read_table_by_table():
    # A stack gives each table's multiplicities as Python ints, and the first
    # failing table in stack order raises its own text, whichever test fails.
    s = _scheme("gupta-sidki", 3)
    tables = common_eigensystems(intersection_matrices(s.p), [3, 1, 4, 1])
    stacked = multiplicities(tables, s.valencies, s.point_count)
    assert stacked == [multiplicities(P, s.valencies, s.point_count) for P in tables]
    assert all(type(m) is int for row in stacked for m in row)
    good = [[1.0, 1.0], [1.0, -1.0]]
    sums_to_three = [[1.0, 1.0], [1.0, 0.0]]
    non_integral = [[1.0, 1.0], [1.0, -0.5]]
    assert multiplicities(np.array([good, good]), np.array([1, 1]), 2) == [[1, 1], [1, 1]]
    with pytest.raises(NumericalError, match=r"^multiplicities \[1, 2\] sum to 3, expected 2$"):
        multiplicities(np.array([good, sums_to_three, non_integral]), np.array([1, 1]), 2)
    with pytest.raises(NumericalError, match=r"^multiplicity 1 is 1\.6, not within"):
        multiplicities(np.array([good, non_integral, sums_to_three]), np.array([1, 1]), 2)


def test_spectral_data_fields():
    sd = spectral_data(_scheme("gamma", 2).p)
    assert len(sd.multiplicities) == 5  # the rank
    assert sd.multiplicities[0] == 1
    assert sum(sd.multiplicities) == 9  # the point count
    assert sd.seed == DEFAULT_SEED
    assert np.allclose(sd.character_table[0].real, [1, 1, 1, 3, 3])


@pytest.mark.parametrize("key,n,want", [
    ("grigorchuk", 5, [1, 1, 2, 4, 8, 16]),
    ("gamma-bar", 3, [1, 1, 1, 3, 3, 9, 9]),
    ("gupta-sidki", 0, [1]),
])
def test_degree_multiset_examples(key, n, want):
    assert degree_multiset_from_p(_scheme(key, n).p) == want


def test_degree_multiset_seed_independent():
    p = _scheme("grigorchuk", 4).p
    a = degree_multiset_from_p(p, seed=DEFAULT_SEED)
    b = degree_multiset_from_p(p, seed=DEFAULT_SEED + 99)
    assert a == b


@pytest.mark.parametrize("key,n", [
    ("grigorchuk", 3),
    ("gupta-sidki", 2),
    ("gamma", 0),
])
def test_tower_nesting_examples(key, n):
    here, there = (degree_multiset_from_p(_scheme(key, m).p) for m in (n, n + 1))
    assert degrees_embed(here, there) is True


@pytest.mark.parametrize("key,n,want", [
    ("grigorchuk", 4, [1, 1, 2, 4, 8]),
    ("gamma", 2, [1, 1, 1, 3, 3]),
    ("grigorchuk", 1, [1, 1]),
])
def test_dense_oracle_examples(key, n, want):
    assert dense_commutant_oracle(_scheme(key, n)) == want


def test_dense_oracle_cap():
    with pytest.raises(SizeCapError):
        dense_commutant_oracle(_scheme("gamma", 6))


def test_degrees_embed():
    assert degrees_embed([1, 1, 2], [1, 1, 2, 4])
    assert not degrees_embed([1, 1, 2], [1, 2, 4])
    assert degrees_embed([], [1])
