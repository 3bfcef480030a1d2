"""Degrees of the irreducible components of a level quasi-regular action.

The intersection numbers give the left-regular matrices of the convolution
algebra.  When the algebra is commutative its joint eigensystem is a set of
one-dimensional characters; the multiplicity attached to character row j,

    m_j = N / sum_i |P[j, i]|^2 / k_i,

is the dimension of the j-th isotypic component of the permutation module,
i.e. an irreducible degree.  A dense cross-check diagonalizes a random
combination of the N x N class adjacency matrices instead and reads the
degrees off the eigenvalue cluster sizes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import IntegrityError, NumericalError, SizeCapError
from .orbits import merge_components
from .scheme import OrbitalScheme, build_scheme
from .tree import DEFAULT_LEVEL_CAP, Ray
from .wreath import WreathPresentation

DEFAULT_SEED = 1729
EIG_CLUSTER_RTOL = 1e-8
INTEGER_TOL = 1e-6
RESIDUAL_TOL = 1e-6
MAX_SEED_TRIES = 5
DENSE_ORACLE_CAP = 243


def intersection_matrices(scheme: OrbitalScheme) -> np.ndarray:
    """Left-regular matrices B, B[i][k, j] = p[i][j][k]; verified to multiply
    like the classes they represent."""
    p = scheme.p
    B = p.transpose(0, 2, 1).copy()
    for i in range(scheme.rank):
        # row j compares B[i] B[j] with sum_k p[i][j][k] B[k]
        bad = np.flatnonzero((B[i] @ B != np.tensordot(p[i], B, axes=(1, 0)))
                             .any(axis=(1, 2)))
        if bad.size:
            raise IntegrityError(
                f"left-regular matrices violate the product rule at ({i}, {bad[0]})"
            )
    return B


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
    matrices[i] on the j-th joint eigenspace.

    Row 0 carries the valency character; the rest are sorted by multiplicity,
    then lexicographically.  Eigenvalues within EIG_CLUSTER_RTOL of the
    largest modulus count as one; seeds are retried when a random
    combination fails to separate the eigenspaces.
    """
    B = np.asarray(matrices)
    for i in range(B.shape[0] - 1):
        rest = B[i + 1:]
        bad = np.flatnonzero((B[i] @ rest != rest @ B[i]).any(axis=(1, 2)))
        if bad.size:
            raise IntegrityError(f"matrices {i} and {i + 1 + bad[0]} do not commute")
    return _eigensystem(B, seed)


def _eigensystem(B: np.ndarray, seed: int) -> np.ndarray:
    """``common_eigensystem`` without the commutation check, for a caller that
    has already run it on the same matrices."""
    r = B.shape[0]
    valencies = B[:, 0, :].sum(axis=1)  # row sums are constant per matrix
    point_count = int(valencies.sum())
    scale = np.maximum(1.0, np.linalg.norm(B, axis=(1, 2)))
    last_error = "no attempt made"
    for attempt in range(MAX_SEED_TRIES):
        rng = np.random.default_rng(seed + attempt)
        coeffs = rng.uniform(1.0, 2.0, size=r)
        M = np.tensordot(coeffs, B, axes=(0, 0))
        evals, evecs = np.linalg.eig(M)
        atol = EIG_CLUSTER_RTOL * max(1.0, float(np.abs(evals).max()))
        clusters = _cluster_indices(evals, atol)
        if len(clusters) != r:
            last_error = (f"seed {seed + attempt} separated only {len(clusters)} "
                          f"of {r} joint eigenspaces")
            continue

        # column j of V spans the j-th joint eigenspace; BV[i] = B[i] V
        V = evecs[:, [col for (col,) in clusters]]
        BV = B @ V
        norms2 = np.einsum("aj,aj->j", V.conj(), V).real
        P = np.einsum("aj,iaj->ji", V.conj(), BV) / norms2[:, None]
        defect = np.linalg.norm(BV - P.T[:, None, :] * V, axis=1)  # [i, j]
        residual = float((defect / scale[:, None]).max())
        if residual > RESIDUAL_TOL:
            last_error = f"seed {seed + attempt} left eigenvector residual {residual:.2e}"
            continue

        overlaps = np.abs(V.conj().sum(axis=0)) / np.linalg.norm(V, axis=0)
        trivial = int(np.argmax(overlaps))
        if np.abs(P[trivial] - valencies).max() > INTEGER_TOL * max(1, point_count):
            last_error = f"seed {seed + attempt} misidentified the valency character"
            continue

        m = _raw_multiplicities(P, valencies, point_count)
        re = (np.round(P.real, 9) + 0.0).tolist()
        im = (np.round(P.imag, 9) + 0.0).tolist()
        order = [trivial] + sorted(
            (j for j in range(r) if j != trivial),
            key=lambda j: (round(float(m[j]), 9), tuple(zip(re[j], im[j]))),
        )
        return P[order]
    raise NumericalError(f"common eigensystem did not resolve: {last_error}")


def _raw_multiplicities(P: np.ndarray, valencies: np.ndarray,
                        point_count: int) -> np.ndarray:
    denom = (np.abs(P) ** 2 / valencies).sum(axis=1)
    return point_count / denom


def multiplicities(P: np.ndarray, valencies: np.ndarray, point_count: int) -> list[int]:
    """Isotypic multiplicities from the character table; each must lie within
    INTEGER_TOL of a positive integer, and the integers must sum to the point
    count."""
    raw = _raw_multiplicities(P, np.asarray(valencies), point_count)
    out = []
    for j, value in enumerate(raw):
        nearest = round(float(value))
        if abs(value - nearest) > INTEGER_TOL or nearest < 1:
            raise NumericalError(
                f"multiplicity {j} is {value!r}, not within {INTEGER_TOL} of a positive integer"
            )
        out.append(int(nearest))
    if sum(out) != point_count:
        raise NumericalError(
            f"multiplicities {out} sum to {sum(out)}, expected {point_count}"
        )
    return out


@dataclass(frozen=True, eq=False)
class SpectralData:
    rank: int
    point_count: int
    character_table: np.ndarray
    multiplicities: tuple[int, ...]
    seed: int
    tolerance_used: float


def _orthogonality_defect(P: np.ndarray, m: list[int], valencies: np.ndarray,
                          point_count: int) -> float:
    """Max deviation of the row-orthogonality relations from the identity."""
    weights = np.sqrt(np.asarray(m, dtype=float) / point_count)
    S = (weights[:, None] * P) / np.sqrt(np.asarray(valencies, dtype=float))
    gram = S @ S.conj().T
    return float(np.abs(gram - np.eye(len(m))).max())


def spectral_data(scheme: OrbitalScheme, seed: int = DEFAULT_SEED) -> SpectralData:
    B = intersection_matrices(scheme)
    P = common_eigensystem(B, seed)
    m = multiplicities(P, scheme.valencies, scheme.point_count)
    if m[0] != 1:
        raise NumericalError(f"valency character has multiplicity {m[0]}, expected 1")
    defect = _orthogonality_defect(P, m, scheme.valencies, scheme.point_count)
    if defect > INTEGER_TOL:
        raise NumericalError(f"character rows are not orthonormal: defect {defect:.2e}")
    return SpectralData(scheme.rank, scheme.point_count, P, tuple(m), seed,
                        tolerance_used=INTEGER_TOL)


def degree_multiset_from_scheme(scheme: OrbitalScheme,
                                seed: int = DEFAULT_SEED) -> list[int]:
    return sorted(spectral_data(scheme, seed).multiplicities)


def degree_multiset(pres: WreathPresentation, n: int, ray: Ray,
                    seed: int = DEFAULT_SEED,
                    cap: int = DEFAULT_LEVEL_CAP) -> list[int]:
    """Sorted degrees of the irreducible components on level n."""
    return degree_multiset_from_scheme(build_scheme(pres, n, ray, cap), seed)


def degrees_embed(here: list[int], there: list[int]) -> bool:
    """Whether the multiset ``here`` is contained in the multiset ``there``."""
    return not Counter(here) - Counter(there)


def tower_nesting_check(pres: WreathPresentation, n: int, ray: Ray,
                        seed: int = DEFAULT_SEED,
                        cap: int = DEFAULT_LEVEL_CAP) -> bool:
    """Whether the level-n degree multiset embeds in the level-(n+1) one."""
    return degrees_embed(degree_multiset(pres, n, ray, seed, cap),
                         degree_multiset(pres, n + 1, ray, seed, cap))


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
