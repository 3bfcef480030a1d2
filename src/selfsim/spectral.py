"""Degrees of the irreducible components of a level quasi-regular action.

The intersection numbers p alone give everything here (Bannai-Ito,
Algebraic Combinatorics I, II.3): the valencies k_i = sum_j p[i][j][0], the
point count N = sum_i k_i, and the left-regular matrices of the convolution
algebra.  ``spectral_data`` refuses a p that is not commutative
(``scheme.is_commutative``), naming the first pair of matrices that do not
commute; a commutative algebra's joint eigensystem is a set of
one-dimensional characters, and the multiplicity of character row j,

    m_j = N / sum_i |P[j, i]|^2 / k_i,

is the dimension of the j-th isotypic component of the permutation module,
i.e. an irreducible degree.  A dense cross-check diagonalizes a random
combination of the N x N class adjacency matrices of a built scheme instead
and reads the degrees off the eigenvalue cluster sizes.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import IntegrityError, NumericalError, SizeCapError
from .orbits import merge_components
from .scheme import OrbitalScheme, is_commutative

DEFAULT_SEED = 1729
EIG_CLUSTER_RTOL = 1e-8
INTEGER_TOL = 1e-6
RESIDUAL_TOL = 1e-6
MAX_SEED_TRIES = 5
DENSE_ORACLE_CAP = 243
# Most bytes of one temporary: a slice of the product-rule check, a chunk of
# the batched eigen-solve.  Chosen by measurement: 2^21 made the rank-15
# product-rule check twice as slow, and 2^18 and up raised verify's peak RSS.
_TEMP_BYTES = 2**17


def intersection_matrices(p: np.ndarray) -> np.ndarray:
    """Left-regular matrices B, B[i][k, j] = p[i][j][k]; verified to multiply
    like the classes they represent.

    Every pair (i, j) is checked, B_i B_j = sum_k p[i][j][k] B_k, for a slice
    of i at a time as two matrix products of at most _TEMP_BYTES each (or
    one i if that is larger), in ``_product_dtype(p)``.  The first failing
    pair in row-major order is named.
    """
    p = np.asarray(p)
    B = p.transpose(0, 2, 1).copy()
    r = len(p)
    Bx = B.astype(_product_dtype(p))
    px = p.astype(Bx.dtype).reshape(r * r, r)
    by_row = Bx.transpose(1, 0, 2).reshape(r, r * r)  # [b, (j, c)] = B[j][b, c]
    by_class = Bx.reshape(r, r * r)                     # [k, (a, c)] = B[k][a, c]
    step = max(1, _TEMP_BYTES // (Bx.itemsize * max(1, r**3)))
    for lo in range(0, r, step):
        h = min(step, r - lo)
        # [i, a, j, c] = (B_i B_j)[a, c] and [i, j, a, c] = (sum_k p[i][j][k] B_k)[a, c]
        left = (Bx[lo:lo + h].reshape(h * r, r) @ by_row).reshape(h, r, r, r)
        right = (px[lo * r:(lo + h) * r] @ by_class).reshape(h, r, r, r)
        unequal = left != right.transpose(0, 2, 1, 3)
        if unequal.any():
            i, j = np.argwhere(unequal.any(axis=(1, 3)))[0]
            raise IntegrityError(
                f"left-regular matrices violate the product rule at ({lo + i}, {j})"
            )
    return B


def _product_dtype(p: np.ndarray) -> type:
    """Each side of the product rule is a sum of r products of two entries of
    p, so while r max|p|^2 < 2^53 every partial sum is an integer that float64
    holds exactly and BLAS may run the products; past that, int64."""
    return np.float64 if len(p) * int(np.abs(p).max(initial=0)) ** 2 < 2**53 else np.int64


def _cluster_indices(values: np.ndarray, atol: float) -> list[list[int]]:
    """Group indices whose values are chained within atol of each other,
    ordered by smallest index, members ascending.

    The pairs within atol are the edges of a graph on the indices; each
    index is labelled by the least index of its component.
    """
    close = np.abs(values[:, None] - values[None, :]) <= atol
    least = merge_components(np.arange(len(values)), *np.nonzero(close))
    groups: dict[int, list[int]] = {}
    for a, c in enumerate(least.tolist()):
        groups.setdefault(c, []).append(a)
    return list(groups.values())


def common_eigensystem(matrices: np.ndarray, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Character table P of a commuting family: P[j, i] is the eigenvalue of
    matrices[i] on the j-th joint eigenspace; the batch of one seed of
    ``common_eigensystems``."""
    return common_eigensystems(matrices, [seed])[0]


def common_eigensystems(matrices: np.ndarray, seeds: Iterable[int]) -> np.ndarray:
    """Character table of a commuting family for each seed, in input order,
    as one (S, r, r) stack; it is complex if any seed's table is.

    Row 0 of a table carries the valency character; the rest are sorted by
    multiplicity, then lexicographically.  Attempt a of a seed diagonalizes
    M = sum_i c_i matrices[i], c drawn from ``default_rng(seed + a)``; it
    resolves when the eigenvalues of M lie pairwise farther apart than
    EIG_CLUSTER_RTOL of the largest modulus, every eigenvector is a joint
    one (residual within RESIDUAL_TOL) and the valency character is found.
    Each attempt solves every seed still open as one stack, in chunks whose
    complex (S, r, r, r) stack of products B V keeps within _TEMP_BYTES.  The
    family must commute (``spectral_data`` reads that off p): one that does
    not has no r independent joint eigenvectors, so every seed fails.  If a
    seed never resolves, the first such seed in input order raises.
    """
    B = np.asarray(matrices)
    r = B.shape[0]
    valencies = B[:, 0, :].sum(axis=1)  # row sums are constant per matrix
    point_count = int(valencies.sum())
    scale = np.maximum(1.0, np.linalg.norm(B, axis=(1, 2)))
    by_class = B.reshape(r, r * r).astype(float)
    chunk = max(1, _TEMP_BYTES // (16 * r**3))
    seeds = list(seeds)
    tables = np.empty((len(seeds), r, r))
    done = np.zeros(len(seeds), dtype=bool)
    last_error = ["no attempt made"] * len(seeds)
    pending = list(range(len(seeds)))
    for attempt in range(MAX_SEED_TRIES):
        for lo in range(0, len(pending), chunk):
            batch = pending[lo:lo + chunk]
            coeffs = np.array([np.random.default_rng(seeds[s] + attempt).uniform(1.0, 2.0, size=r)
                               for s in batch])
            M = (coeffs @ by_class).reshape(len(batch), r, r)
            solved, errors = _solve_stack(B, M, valencies, point_count, scale)
            if np.iscomplexobj(solved) and not np.iscomplexobj(tables):
                # rows solved so far stay real-valued; before any, nothing to copy
                tables = tables.astype(complex) if done.any() else np.empty_like(tables, complex)
            for s, P, error in zip(batch, solved, errors):
                if error:
                    last_error[s] = f"seed {seeds[s] + attempt} {error}"
                else:
                    tables[s] = P
                    done[s] = True
        pending = [s for s in pending if not done[s]]
    if pending:
        raise NumericalError(f"common eigensystem did not resolve: {last_error[pending[0]]}")
    return tables


def _solve_stack(B: np.ndarray, M: np.ndarray, valencies: np.ndarray,
                 point_count: int, scale: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """For each random combination M[s] of the family B, its sorted character
    table and the text of the first test it fails ("" if none)."""
    S, r = M.shape[:2]
    evals, V = np.linalg.eig(M)
    atol = EIG_CLUSTER_RTOL * np.fmax(1.0, np.abs(evals).max(axis=1))
    close = np.abs(evals[:, :, None] - evals[:, None, :]) <= atol[:, None, None]
    separated = ~(close & ~np.eye(r, dtype=bool)).any(axis=(1, 2))

    # column j of V[s] spans the j-th joint eigenspace; BV[s, i] = B[i] V[s]
    BV = B @ V[:, None]
    norms2 = np.einsum("saj,saj->sj", V.conj(), V).real
    P = np.einsum("saj,siaj->sji", V.conj(), BV) / norms2[:, :, None]
    BV -= P.transpose(0, 2, 1)[:, :, None, :] * V[:, None]
    defect = np.sqrt(np.einsum("siaj,siaj->sij", BV.conj(), BV).real)
    residual = (defect / scale[:, None]).max(axis=(1, 2))

    trivial = np.argmax(np.abs(V.conj().sum(axis=1)) / np.sqrt(norms2), axis=1)
    valency_gap = np.abs(P[np.arange(S), trivial] - valencies).max(axis=1)

    # row order: the valency row, then multiplicity, then each column's
    # (real, imaginary) pair, all rounded to 9 decimals
    m = _raw_multiplicities(P, valencies, point_count)
    parts = np.ascontiguousarray(P, dtype=complex).view(float)
    keys = np.round(np.concatenate([m[:, :, None], parts], axis=2), 9).transpose(2, 0, 1)
    order = np.lexsort((*keys[::-1], np.arange(r) != trivial[:, None]), axis=-1)
    errors = []
    for s in range(S):
        if not separated[s]:
            count = len(_cluster_indices(evals[s], atol[s]))
            errors.append(f"separated only {count} of {r} joint eigenspaces")
        elif residual[s] > RESIDUAL_TOL:
            errors.append(f"left eigenvector residual {residual[s]:.2e}")
        elif valency_gap[s] > INTEGER_TOL * max(1, point_count):
            errors.append("misidentified the valency character")
        else:
            errors.append("")
    return P[np.arange(S)[:, None], order], errors


def _raw_multiplicities(P: np.ndarray, valencies: np.ndarray,
                        point_count: int) -> np.ndarray:
    # |P|^2 / k in one buffer: a stack of tables makes no second temporary
    terms = np.abs(P)
    np.square(terms, out=terms)
    terms /= valencies
    return point_count / terms.sum(axis=-1)


def multiplicities(P: np.ndarray, valencies: np.ndarray,
                   point_count: int) -> list[int] | list[list[int]]:
    """Isotypic multiplicities from the character table, or a list of them
    from a stack of tables, as Python ints.  Each must lie within INTEGER_TOL
    of a positive integer, and a table's integers must sum to the point
    count; the first table in stack order that fails raises."""
    raw = _raw_multiplicities(P, np.asarray(valencies), point_count)
    nearest = np.round(raw)
    # written so that a NaN or infinite multiplicity fails too
    bad = ~((np.abs(raw - nearest) <= INTEGER_TOL) & (nearest >= 1))
    failing = bad.any(axis=-1) | (nearest.sum(axis=-1) != point_count)
    if failing.any():
        t = np.unravel_index(np.argmax(failing), failing.shape)
        if bad[t].any():
            j = int(np.argmax(bad[t]))
            raise NumericalError(
                f"multiplicity {j} is {float(raw[t][j])}, not within {INTEGER_TOL} "
                "of a positive integer"
            )
        out = nearest[t].astype(np.int64).tolist()
        raise NumericalError(
            f"multiplicities {out} sum to {sum(out)}, expected {point_count}"
        )
    return nearest.astype(np.int64).tolist()


@dataclass(frozen=True, eq=False)
class SpectralData:
    character_table: np.ndarray
    multiplicities: tuple[int, ...]
    seed: int


def _orthogonality_defect(P: np.ndarray, m: list[int], valencies: np.ndarray,
                          point_count: int) -> float:
    """Max deviation of the row-orthogonality relations from the identity."""
    weights = np.sqrt(np.asarray(m, dtype=float) / point_count)
    S = (weights[:, None] * P) / np.sqrt(np.asarray(valencies, dtype=float))
    gram = S @ S.conj().T
    return float(np.abs(gram - np.eye(len(m))).max())


def spectral_data(p: np.ndarray, seed: int = DEFAULT_SEED) -> SpectralData:
    """Character table and multiplicities of the scheme with intersection
    numbers p."""
    p = np.asarray(p)
    valencies = p[:, :, 0].sum(axis=1)  # k_i = sum_j p[i][j][0]
    point_count = int(valencies.sum())
    B = intersection_matrices(p)
    if not is_commutative(p):
        # [B_i, B_j] = sum_k (p[i][j][k] - p[j][i][k]) B_k; the B_k are independent
        i, j = np.argwhere((p != p.transpose(1, 0, 2)).any(axis=2))[0]
        raise IntegrityError(f"matrices {i} and {j} do not commute")
    P = common_eigensystem(B, seed)
    m = multiplicities(P, valencies, point_count)
    if m[0] != 1:
        raise NumericalError(f"valency character has multiplicity {m[0]}, expected 1")
    defect = _orthogonality_defect(P, m, valencies, point_count)
    if defect > INTEGER_TOL:
        raise NumericalError(f"character rows are not orthonormal: defect {defect:.2e}")
    return SpectralData(P, tuple(m), seed)


def degree_multiset_from_p(p: np.ndarray, seed: int = DEFAULT_SEED) -> list[int]:
    return sorted(spectral_data(p, seed).multiplicities)


def degrees_embed(here: list[int], there: list[int]) -> bool:
    """Whether the multiset ``here`` is contained in the multiset ``there``."""
    return not Counter(here) - Counter(there)


def dense_commutant_oracle(scheme: OrbitalScheme, seed: int = DEFAULT_SEED) -> list[int]:
    """Degree multiset via the full N x N class adjacency matrices.

    Independent of the intersection-number route: diagonalizes a random real
    combination of the adjacency matrices read off the full label table and
    reads off sorted eigenvalue cluster sizes, clustered within
    EIG_CLUSTER_RTOL as in ``common_eigensystem``.  Only for N <= 243.
    """
    size = scheme.point_count
    if size > DENSE_ORACLE_CAP:
        raise SizeCapError(
            f"dense oracle needs {size} points, cap is {DENSE_ORACLE_CAP}", size=size
        )
    labels = scheme.labels
    last_error = "no attempt made"
    for attempt in range(MAX_SEED_TRIES):
        rng = np.random.default_rng(seed + attempt)
        coeffs = rng.uniform(1.0, 2.0, size=scheme.rank)
        M = coeffs[labels]  # sum_i coeffs[i] * (labels == i), one term per entry
        evals = np.linalg.eigvals(M)
        atol = EIG_CLUSTER_RTOL * max(1.0, float(np.abs(evals).max()))
        clusters = _cluster_indices(evals, atol)
        if len(clusters) == scheme.rank:
            return sorted(len(c) for c in clusters)
        last_error = (f"seed {seed + attempt} gave {len(clusters)} eigenvalue "
                      f"clusters for rank {scheme.rank}")
    raise NumericalError(f"dense oracle did not resolve: {last_error}")
