import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from eigen_reference import chained_clusters, characteristic_polynomial, sieved_primes
from product_rule_reference import product_rule_reference
from test_properties import FINER_THAN_CONES, NON_COMMUTATIVE

from selfsim import spectral
from selfsim.catalog import builtin
from selfsim.cli import main
from selfsim.errors import IntegrityError, NumericalError, SizeCapError
from selfsim.scheme import build_scheme
from selfsim.spectral import (DEFAULT_SEED, MAX_SEED_TRIES, _charpoly_mod, _cluster_indices,
                              _is_prime, _primes, _product_dtype, _residues, _slice_classes,
                              common_eigensystem, degrees_embed, dense_commutant_oracle,
                              intersection_matrices, spectral_data)
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


def _clusters(scheme, seed=DEFAULT_SEED):
    return common_eigensystem(scheme.labels, scheme.rank, seed)


def test_eigensystem_swap_scheme():
    # c_0 I + c_1 (the swap) has the eigenvalues c_0 + c_1 and c_0 - c_1
    assert sorted(_clusters(_scheme("grigorchuk", 1))) == [[0], [1]]


def test_eigensystem_three_cycle_scheme():
    # the three characters of Z/3 on its regular module, one point each
    assert sorted(_clusters(_scheme("gupta-sidki", 1))) == [[0], [1], [2]]


def test_eigensystem_rank_one():
    assert _clusters(_scheme("gamma", 0)) == [[0]]


def test_eigensystem_rejects_non_commuting():
    # A non-commutative scheme's algebra has a block of size e > 1, which
    # gives e eigenvalues, not e^2: fewer clusters than classes, every seed.
    scheme = build_scheme(parse_presentation(NON_COMMUTATIVE), 3, parse_ray("2", 2))
    with pytest.raises(NumericalError, match=f"clusters for rank {scheme.rank}$"):
        _clusters(scheme)


def test_eigensystem_names_the_first_non_commuting_pair():
    # The refusal is spectral_data's, read off p; NON_COMMUTATIVE's scheme
    # stops commuting at level 3.
    pres, ray = parse_presentation(NON_COMMUTATIVE), parse_ray("2", 2)
    for n in range(3, 7):
        with pytest.raises(IntegrityError, match="^matrices 1 and 3 do not commute$"):
            spectral_data(build_scheme(pres, n, ray).p)


def test_eigensystem_gives_up_after_the_seed_retries():
    # A third class that no label names can never be told apart.
    last = DEFAULT_SEED + MAX_SEED_TRIES - 1
    with pytest.raises(NumericalError, match=f"^dense oracle did not resolve: seed {last} "
                                             "gave 2 eigenvalue clusters for rank 3$"):
        common_eigensystem(_scheme("grigorchuk", 1).labels, 3)


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


def test_pencil_past_float64_runs_over_python_ints():
    # The same complete graph: r^2 max|p|^2 is past 2^53, so T1 is summed
    # over Python ints; the degrees are 1 and N - 1.
    size = 2**27
    p = np.zeros((2, 2, 2), dtype=np.int64)
    p[0] = np.eye(2, dtype=np.int64)
    p[1, 0] = [0, 1]
    p[1, 1] = [size - 1, size - 2]
    assert spectral._trace_form(p).dtype == object
    assert spectral_data(p).degrees == [1, size - 1]


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


def test_a_seed_that_fails_its_first_attempt_resolves_on_the_next(monkeypatch):
    # Attempt 0's eigenvalues are made to coincide, so attempt 1 diagonalizes
    # the combination drawn from seed + 1 and its clusters are returned.
    scheme = _scheme("gupta-sidki", 2)
    eigvals, seen = np.linalg.eigvals, []

    def first_attempt_fails(M):
        seen.append(M.copy())
        values = eigvals(M)
        return np.zeros_like(values) if len(seen) == 1 else values

    monkeypatch.setattr(np.linalg, "eigvals", first_attempt_fails)
    clusters = _clusters(scheme, seed=40)
    assert len(seen) == 2 and len(clusters) == scheme.rank
    for k, M in enumerate(seen):
        coeffs = np.random.default_rng(40 + k).uniform(1.0, 2.0, size=scheme.rank)
        assert np.array_equal(M, coeffs[scheme.labels])
    assert sorted(map(len, clusters)) == dense_commutant_oracle(scheme)


def test_multiplicities_examples():
    assert spectral_data(_scheme("grigorchuk", 1).p).degrees == [1, 1]
    assert spectral_data(_scheme("gupta-sidki", 1).p).degrees == [1, 1, 1]
    assert spectral_data(_scheme("grigorchuk", 3).p).degrees == [1, 1, 2, 4]


def test_multiplicities_reject_non_integral(monkeypatch):
    # One float multiplicity pushed to 1.6 from 1: it rounds to 2, and the
    # certificate refuses the proposal whatever its distance from an integer.
    eigvals = np.linalg.eigvals

    def off(M):
        values = eigvals(M)
        values[np.argmin(np.abs(values - 1))] += 0.6
        return values

    monkeypatch.setattr(np.linalg, "eigvals", off)
    with pytest.raises(NumericalError, match="^degree pencil: the rounded eigenvalues of "
                                             r"T1\^-1 T2 fail their exact certificate$"):
        spectral_data(_scheme("grigorchuk", 3).p)


def test_spectral_data_fields():
    sd = spectral_data(_scheme("gamma", 2).p)
    assert sd.degrees == [1, 1, 1, 3, 3]  # one per class, summing to the point count
    assert all(type(m) is int for m in sd.degrees)
    # 2 (1 + N/r)^r = 2 * 2.8^5 needs one prime below 2^30
    assert [q for q, _ in sd.residues] == [next(_primes())]
    assert sd.accepts(sd.degrees) and sd.accepts(sd.degrees[::-1])
    assert not sd.accepts([1, 1, 1, 2, 4]) and not sd.accepts([1, 1, 3, 3])
    # a degree moved by the primes' product agrees modulo every prime; only
    # the range [0, N] and the sum N that the bound rests on refuse it
    q = sd.residues[0][0]
    assert not sd.accepts([1, 1, 1 + q, 3, 3]) and not sd.accepts([1 - q, 1, 1, 3, 3])
    assert not sd.accepts([1 - q, 1, 1 + q, 3, 3])  # summing to N, out of [0, N]


@pytest.mark.parametrize("key,n,want", [
    ("grigorchuk", 5, [1, 1, 2, 4, 8, 16]),
    ("gamma-bar", 3, [1, 1, 1, 3, 3, 9, 9]),
    ("gupta-sidki", 0, [1]),
])
def test_degree_multiset_examples(key, n, want):
    assert spectral_data(_scheme(key, n).p).degrees == want


def test_degree_multiset_seed_independent(capsys, tmp_path):
    # Off the cone route decompose reads --seed for nothing but the envelope.
    path = tmp_path / "finer.txt"
    path.write_text(FINER_THAN_CONES)
    docs = []
    for seed in (DEFAULT_SEED, DEFAULT_SEED + 99):
        assert main(["decompose", "--file", str(path), "--ray", "3", "--level", "3",
                     "--nesting", "--json", "--seed", str(seed)]) == 0
        docs.append(json.loads(capsys.readouterr().out))
    assert docs[0].pop("seed") != docs[1].pop("seed")
    assert docs[0] == docs[1]


@pytest.mark.parametrize("key,n", [
    ("grigorchuk", 3),
    ("gupta-sidki", 2),
    ("gamma", 0),
])
def test_tower_nesting_examples(key, n):
    here, there = (spectral_data(_scheme(key, m).p).degrees for m in (n, n + 1))
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


def _finer(n):
    return build_scheme(parse_presentation(FINER_THAN_CONES), n, parse_ray("3", 3))


@pytest.mark.parametrize("n", range(1, 6))
def test_pencil_matches_the_dense_oracle_off_the_route(n):
    # The cone route declines every level of this input, so its degrees
    # come from the pencil alone.
    scheme = _finer(n)
    assert spectral_data(scheme.p).degrees == dense_commutant_oracle(scheme)


_WRONG_PROPOSAL_CASES = {13: ("grigorchuk", 12), 15: ("gupta-sidki", 7), 42: 5, 123: 6}


@pytest.mark.parametrize("rank", sorted(_WRONG_PROPOSAL_CASES))
def test_a_wrong_proposal_is_rejected(rank):
    # For every pair of distinct degree values u < v, a unit moved from u to
    # v and from v to u (unless that swaps them), and one degree raised.
    case = _WRONG_PROPOSAL_CASES[rank]
    p = _scheme(*case).p if isinstance(case, tuple) else _finer(case).p
    data = spectral_data(p)
    degrees = data.degrees
    assert len(degrees) == rank and sum(degrees) == p[:, :, 0].sum()
    assert data.accepts(degrees)
    # just enough primes for the product to pass 2 (1 + N/r)^r
    primes = [q for q, _ in data.residues]
    bound = 2 * (rank + sum(degrees)) ** rank
    assert math.prod(primes) * rank**rank > bound >= math.prod(primes[:-1]) * rank**rank
    values = sorted(set(degrees))
    wrong = [[*degrees[1:], degrees[0] + 1]]
    for u, v in itertools.combinations(values, 2):
        rest = list(degrees)
        rest.remove(u)
        rest.remove(v)
        wrong.append([*rest, u - 1, v + 1])
        if v - u > 1:
            wrong.append([*rest, u + 1, v - 1])
    assert len(wrong) > len(values)
    for proposal in wrong:
        assert not data.accepts(proposal), proposal


def test_the_modular_characteristic_polynomial_is_exact():
    # T2 = T1 M, so T1^-1 T2 = M, whose characteristic polynomial
    # Faddeev-LeVerrier gives over the integers.  Sparse entries make both
    # the Gauss-Jordan and the Hessenberg steps search past a zero pivot.
    rng = np.random.default_rng(3)
    q = next(_primes())
    for r in range(1, 9):
        for _ in range(20):
            M = rng.integers(-4, 5, size=(r, r)) * (rng.random((r, r)) < 0.5)
            T1 = rng.integers(-3, 4, size=(r, r)) * (rng.random((r, r)) < 0.6)
            got = _charpoly_mod(T1.astype(object), (T1 @ M).astype(object), q)
            if round(np.linalg.det(T1)) % q == 0:
                assert got is None
                continue
            want = [c % q for c in characteristic_polynomial(M.tolist())]
            assert list(got) == want, (T1, M)


def test_the_primes_match_the_sieve():
    assert list(itertools.islice(_primes(), 200)) == list(itertools.islice(sieved_primes(), 200))
    # strong pseudoprimes to bases 2; 2 and 3; 2, 3 and 5 (Jaeschke 1993)
    assert not any(map(_is_prime, (2047, 1373653, 25326001)))


def test_a_prime_that_divides_det_t1_is_skipped():
    first, second = itertools.islice(_primes(), 2)
    T1 = np.array([[first]], dtype=object)
    T2 = np.array([[3 * first]], dtype=object)  # T1^-1 T2 = 3
    assert _charpoly_mod(T1, T2, first) is None
    assert _residues(T1, T2, 3) == ((second, ((-3) % second, 1)),)


def test_a_nilpotent_algebra_is_refused():
    # B_0 = I and B_1 = E_21 multiply like their p and commute, but B_1 is
    # nilpotent: the trace form is singular and no degree is proposed.
    p = np.zeros((2, 2, 2), dtype=np.int64)
    p[0] = np.eye(2, dtype=np.int64)
    p[1, 0, 1] = 1
    with pytest.raises(NumericalError, match="^degree pencil: Singular matrix$"):
        spectral_data(p)


def test_a_singular_trace_form_is_refused():
    # Every prime divides det T1 = 0; the skipped primes soon outweigh the
    # Hadamard bound of a non-zero determinant.
    T1 = np.array([[2, 4], [1, 2]], dtype=object)
    with pytest.raises(NumericalError, match="^degree pencil: the trace form T1 is singular$"):
        _residues(T1, T1, 2)

