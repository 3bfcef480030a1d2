import dataclasses

import numpy as np
import pytest
from eigen_reference import chained_clusters, scalar_eigensystem

from selfsim.catalog import builtin, keys
from selfsim.errors import IntegrityError, NumericalError, SizeCapError
from selfsim.scheme import build_scheme
from selfsim.spectral import (DEFAULT_SEED, MAX_SEED_TRIES, _cluster_indices,
                              common_eigensystem, degree_multiset, degrees_embed,
                              dense_commutant_oracle,
                              intersection_matrices, multiplicities,
                              spectral_data, tower_nesting_check)


def _scheme(key, n):
    e = builtin(key)
    return build_scheme(e.presentation, n, e.default_ray)


def _group(key):
    e = builtin(key)
    return e.presentation, e.default_ray


def test_intersection_matrices_swap_scheme():
    B = intersection_matrices(_scheme("grigorchuk", 1))
    assert np.array_equal(B[0], np.eye(2, dtype=np.int64))
    assert np.array_equal(B[1], np.array([[0, 1], [1, 0]]))


def test_intersection_matrices_identity_class():
    B = intersection_matrices(_scheme("gamma", 2))
    assert np.array_equal(B[0], np.eye(5, dtype=np.int64))


def test_inverse_classes_multiply_to_identity():
    B = intersection_matrices(_scheme("gupta-sidki", 1))
    assert np.array_equal(B[1] @ B[2], B[0])


def test_eigensystem_swap_scheme():
    B = intersection_matrices(_scheme("grigorchuk", 1))
    P = common_eigensystem(B)
    assert np.allclose(P, [[1, 1], [1, -1]])


def test_eigensystem_three_cycle_scheme():
    P = common_eigensystem(intersection_matrices(_scheme("gupta-sidki", 1)))
    zeta = np.exp(2j * np.pi / 3)
    assert np.allclose(P[0], [1, 1, 1])
    rows = {tuple(np.round(row, 6)) for row in P[1:]}
    want = {tuple(np.round([1, zeta, zeta.conjugate()], 6)),
            tuple(np.round([1, zeta.conjugate(), zeta], 6))}
    assert rows == want
    assert np.allclose(P[1], [1, zeta.conjugate(), zeta])  # imag-ascending tie order


def test_eigensystem_rank_one():
    P = common_eigensystem(intersection_matrices(_scheme("gamma", 0)))
    assert np.allclose(P, [[1]])


def test_eigensystem_rejects_non_commuting():
    a = np.array([[0, 1], [1, 0]])
    b = np.array([[1, 0], [0, 0]])
    with pytest.raises(IntegrityError):
        common_eigensystem(np.stack([a, b]))


def test_eigensystem_names_the_first_non_commuting_pair():
    swap = np.array([[0, 1], [1, 0]])
    proj = np.array([[1, 0], [0, 0]])
    with pytest.raises(IntegrityError, match="^matrices 1 and 2 do not commute$"):
        common_eigensystem(np.stack([np.eye(2, dtype=np.int64), swap, proj]))


def test_eigensystem_gives_up_after_the_seed_retries():
    last = DEFAULT_SEED + MAX_SEED_TRIES - 1
    with pytest.raises(NumericalError,
                       match=f"seed {last} separated only 1 of 2 joint eigenspaces"):
        common_eigensystem(np.stack([np.eye(2), np.eye(2)]))


@pytest.mark.parametrize("entry,pair", [((2, 1, 2), (2, 1)), ((3, 3, 0), (1, 3))])
def test_product_rule_names_the_first_failing_pair(entry, pair):
    scheme = _scheme("grigorchuk", 3)
    p = scheme.p.copy()
    p[entry] += 1
    with pytest.raises(IntegrityError,
                       match=rf"product rule at \({pair[0]}, {pair[1]}\)$"):
        intersection_matrices(dataclasses.replace(scheme, p=p))


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


@pytest.mark.parametrize("key", keys())
def test_batched_eigensystem_matches_the_scalar_reference(key):
    e = builtin(key)
    top = 6 if e.presentation.degree == 2 else 4
    for n in range(top + 1):
        scheme = build_scheme(e.presentation, n, e.default_ray)
        B = intersection_matrices(scheme)
        for seed in (DEFAULT_SEED, *(1000 + i for i in range(4))):
            P = common_eigensystem(B, seed)
            Q = scalar_eigensystem(B, seed)
            assert np.allclose(P, Q, rtol=0, atol=1e-9), (key, n, seed)
            assert (multiplicities(P, scheme.valencies, scheme.point_count)
                    == multiplicities(Q, scheme.valencies, scheme.point_count))


def test_multiplicities_examples():
    s = _scheme("grigorchuk", 1)
    P = common_eigensystem(intersection_matrices(s))
    assert multiplicities(P, s.valencies, 2) == [1, 1]
    s = _scheme("gupta-sidki", 1)
    P = common_eigensystem(intersection_matrices(s))
    assert multiplicities(P, s.valencies, 3) == [1, 1, 1]
    assert sorted(spectral_data(_scheme("grigorchuk", 3)).multiplicities) == [1, 1, 2, 4]


def test_multiplicities_reject_non_integral():
    P = np.array([[1.0, 1.0], [1.0, -0.5]], dtype=complex)
    with pytest.raises(NumericalError):
        multiplicities(P, np.array([1, 1]), 2)


def test_spectral_data_fields():
    sd = spectral_data(_scheme("gamma", 2))
    assert sd.rank == 5
    assert sd.point_count == 9
    assert sd.multiplicities[0] == 1
    assert sum(sd.multiplicities) == 9
    assert sd.tolerance_used > 0
    assert np.allclose(sd.character_table[0].real, [1, 1, 1, 3, 3])


@pytest.mark.parametrize("key,n,want", [
    ("grigorchuk", 5, [1, 1, 2, 4, 8, 16]),
    ("gamma-bar", 3, [1, 1, 1, 3, 3, 9, 9]),
    ("gupta-sidki", 0, [1]),
])
def test_degree_multiset_examples(key, n, want):
    pres, ray = _group(key)
    assert degree_multiset(pres, n, ray) == want


def test_degree_multiset_seed_independent():
    pres, ray = _group("grigorchuk")
    a = degree_multiset(pres, 4, ray, seed=DEFAULT_SEED)
    b = degree_multiset(pres, 4, ray, seed=DEFAULT_SEED + 99)
    assert a == b


@pytest.mark.parametrize("key,n", [
    ("grigorchuk", 3),
    ("gupta-sidki", 2),
    ("gamma", 0),
])
def test_tower_nesting_examples(key, n):
    pres, ray = _group(key)
    assert tower_nesting_check(pres, n, ray) is True


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
