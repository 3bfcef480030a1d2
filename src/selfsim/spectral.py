"""Degrees of the irreducible components of a level quasi-regular action.

The intersection numbers p alone give everything here but the closed form
at the end (Bannai-Ito, Algebraic Combinatorics I, II.3): the valencies k_i = sum_j p[i][j][0], the
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

On a level that the cone route certifies, the scheme is the n-fold wreath
power of G_1's orbital scheme on the d letters, and ``wreath_power_degrees``
gives its degrees exactly from G_1's (d, d) class table alone, over Python
ints: no p, no float and no random draw.
"""

from __future__ import annotations

import math
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
# Most bytes of one temporary: a slice of the product-rule check; in the
# batched eigen-solve, two complex (S, r, r) stacks of one chunk of S seeds,
# as the solve holds a few such stacks at once.  Chosen by
# measurement: 2^21 made the rank-15 product-rule check twice as slow, and
# 2^18 and up raised verify's peak RSS.
_TEMP_BYTES = 2**17
# The same for a product-rule slice once one class outgrows _TEMP_BYTES
# (rank 26 on): at rank 42 a slice of 3 classes took 8.6 ms against 12.3 ms
# for one class at a time.  Past rank 50 a slice holds one class again.
_WIDE_TEMP_BYTES = 2**21


def intersection_matrices(p: np.ndarray) -> np.ndarray:
    """Left-regular matrices B, B[i][k, j] = p[i][j][k]; verified to multiply
    like the classes they represent.

    Every pair (i, j) is checked, B_i B_j = sum_k p[i][j][k] B_k, for a slice
    of i at a time as two matrix products of at most _TEMP_BYTES each, or
    _WIDE_TEMP_BYTES where one i takes more than _TEMP_BYTES (or one i if
    that is larger still), in ``_product_dtype(p)``.  The first failing pair
    in row-major order is named.
    """
    p = np.asarray(p)
    B = p.transpose(0, 2, 1).copy()
    r = len(p)
    Bx = B.astype(_product_dtype(p))
    px = p.astype(Bx.dtype).reshape(r * r, r)
    by_row = Bx.transpose(1, 0, 2).reshape(r, r * r)  # [b, (j, c)] = B[j][b, c]
    by_class = Bx.reshape(r, r * r)                     # [k, (a, c)] = B[k][a, c]
    step = _slice_classes(r, Bx.itemsize)
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


def _slice_classes(r: int, itemsize: int) -> int:
    """Classes per slice of the product-rule check at rank r."""
    per_class = itemsize * max(1, r**3)
    return max(1, (_TEMP_BYTES if per_class <= _TEMP_BYTES else _WIDE_TEMP_BYTES) // per_class)


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
    complex (S, r, r) stack keeps within half of _TEMP_BYTES; the products
    B_i V are formed one class i at a time, so beside one float copy of the
    family no temporary outgrows _TEMP_BYTES, or one seed's (r, r) complex
    matrix where that is larger (past rank 90).  Each seed's M is
    formed by itself and ``eig`` solves each member of a stack alone, so a
    seed's table does not depend on the seeds that share its stack.  (The
    seeds of one family agree on whether their eigenvalues are all real:
    that is whether the family's characters are, and ``eig`` makes that
    choice for the whole stack.)  The family must commute (``spectral_data``
    reads that off p): one that does not has no r independent joint
    eigenvectors, so every seed fails.  If a seed never resolves, the first
    such seed in input order raises.
    """
    B = np.asarray(matrices)
    r = B.shape[0]
    valencies = B[:, 0, :].sum(axis=1)  # row sums are constant per matrix
    point_count = int(valencies.sum())
    by_class = B.reshape(r, r * r).astype(float)
    scale = np.maximum(1.0, np.sqrt(np.einsum("kx,kx->k", by_class, by_class)))
    chunk = max(1, _TEMP_BYTES // (32 * r**2))
    seeds = list(seeds)
    tables = np.empty((len(seeds), r, r))
    done = np.zeros(len(seeds), dtype=bool)
    last_error = ["no attempt made"] * len(seeds)
    pending = list(range(len(seeds)))
    for attempt in range(MAX_SEED_TRIES):
        for lo in range(0, len(pending), chunk):
            batch = pending[lo:lo + chunk]
            coeffs = [np.random.default_rng(seeds[s] + attempt).uniform(1.0, 2.0, size=r)
                      for s in batch]
            solved, errors = _solve_stack(by_class, coeffs, valencies, point_count, scale)
            if np.iscomplexobj(solved) and not np.iscomplexobj(tables):
                # rows solved so far stay real-valued; before any, nothing to copy
                tables = tables.astype(complex) if done.any() else np.empty_like(tables, complex)
            for s, P, error in zip(batch, solved, errors):
                if error:
                    last_error[s] = f"seed {seeds[s] + attempt} {error}"
                else:
                    tables[s] = P
                    done[s] = True
            del solved
        pending = [s for s in pending if not done[s]]
    if pending:
        raise NumericalError(f"common eigensystem did not resolve: {last_error[pending[0]]}")
    return tables


def _solve_stack(by_class: np.ndarray, coeffs: list[np.ndarray], valencies: np.ndarray,
                 point_count: int, scale: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """For each random combination M[s] = sum_i coeffs[s][i] B_i of the
    family, by_class[i] the flattened B_i, its sorted character table and the
    text of the first test it fails ("" if none)."""
    S, r = len(coeffs), len(by_class)
    M = np.empty((S, r, r))
    for s, c in enumerate(coeffs):
        M[s] = (c @ by_class).reshape(r, r)
    evals, V = np.linalg.eig(M)
    del M
    atol = EIG_CLUSTER_RTOL * np.fmax(1.0, np.abs(evals).max(axis=1))
    close = np.abs(evals[:, :, None] - evals[:, None, :]) <= atol[:, None, None]
    separated = ~(close & ~np.eye(r, dtype=bool)).any(axis=(1, 2))

    # column j of V[s] spans the j-th joint eigenspace; one class i at a
    # time, BV[s] = B_i V[s] gives row i of the Rayleigh quotients and the
    # residual of each column against its quotient
    Vc = V.conj()
    norms2 = np.einsum("saj,saj->sj", Vc, V).real
    P = np.empty((S, r, r), dtype=V.dtype)
    residual = np.zeros(S)
    for i in range(r):
        BV = by_class[i].reshape(r, r) @ V
        P[:, :, i] = np.einsum("saj,saj->sj", Vc, BV) / norms2
        BV -= P[:, None, :, i] * V
        defect = np.sqrt(np.einsum("saj,saj->sj", BV.conj(), BV).real)
        np.maximum(residual, (defect / scale[i]).max(axis=1), out=residual)

    trivial = np.argmax(np.abs(Vc.sum(axis=1)) / np.sqrt(norms2), axis=1)
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


# ---------------------------------------------------------------------------
# exact degrees of a wreath power


def wreath_power_degrees(orbital: np.ndarray, n: int) -> list[int] | None:
    """Sorted degrees of level n of the n-fold wreath power of a transitive
    orbital scheme on d letters, exactly; None where that scheme is not
    commutative.

    orbital[a, c] names the class of the letter pair (a, c), the diagonal
    class included, as ``orbits.cone_certificate`` returns it.  With m_j the
    multiplicities of the r1 characters of the level-1 scheme, the wreath
    power has rank 1 + n (r1 - 1) and degrees 1 and m_j d^k for each
    non-trivial j and 0 <= k < n (Bailey, Association Schemes, ch. 3); the
    degrees new at level n are the m_j d^(n-1).

    The m_j are the eigenvalue multiplicities of M = sum_o t^o A_o, A_o the
    adjacency matrix of class o, once M separates the characters, which is
    when it has r1 distinct eigenvalues.  Two characters' eigenvalues differ
    by a non-zero polynomial of degree below r1 in t, so at most
    (r1 - 1) r1 (r1 - 1) / 2 values of t fail, and trying t = 2, 3, ... in
    turn ends.
    """
    classes = orbital.tolist()
    index = {o: i for i, o in enumerate(sorted({o for row in classes for o in row}))}
    cls = [[index[o] for o in row] for row in classes]
    d, r1 = len(cls), len(index)
    for a in range(d):  # (A_i A_j)[a, c] counts the b with (a, b) in i and (b, c) in j
        for c in range(d):
            paths = Counter((cls[a][b], cls[b][c]) for b in range(d))
            if any(paths[j, i] != count for (i, j), count in paths.items()):
                return None
    for t in range(2, (r1 - 1) * r1 * (r1 - 1) // 2 + 3):
        m = _root_multiplicities(_characteristic_polynomial([[t**o for o in row] for row in cls]))
        if len(m) == r1:
            break
    else:
        raise IntegrityError(f"no combination of the {r1} letter classes separates "
                             "their characters")
    # the valency character has multiplicity 1, as G_1 is transitive
    degrees = sorted([1] + [mj * d**k for mj in m[1:] for k in range(n)])
    if m[0] != 1 or sum(degrees) != d**n or len(degrees) != 1 + n * (r1 - 1):
        raise IntegrityError(f"level-1 multiplicities {m} give degrees "
                             f"summing to {sum(degrees)} over {len(degrees)} classes, "
                             f"expected {d**n} over {1 + n * (r1 - 1)}")
    return degrees


def _characteristic_polynomial(M: list[list[int]]) -> list[int]:
    """det(x I - M) as integer coefficients, constant first, by
    Faddeev-LeVerrier: N_k = M N_(k-1) + c_(d-k+1) I and c_(d-k) =
    -tr(M N_k) / k, a division that is exact for an integer M."""
    d = len(M)
    coeffs = [0] * d + [1]
    N = [[0] * d for _ in range(d)]
    for k in range(1, d + 1):
        N = [[sum(M[a][b] * N[b][c] for b in range(d)) + (coeffs[d - k + 1] if a == c else 0)
              for c in range(d)] for a in range(d)]
        trace = sum(M[a][b] * N[b][a] for a in range(d) for b in range(d))
        coeffs[d - k], rest = divmod(-trace, k)
        if rest:
            raise IntegrityError(f"Faddeev-LeVerrier step {k} does not divide exactly")
    return coeffs


def _root_multiplicities(f: list[int]) -> list[int]:
    """The multiplicity of each distinct complex root of f, sorted.

    g_k = gcd(f, f', ..., f^(k)) holds each root of multiplicity above k,
    k fewer times, so deg g_k - deg g_(k+1) roots have multiplicity above k.
    """
    above = []  # above[k]: roots of multiplicity above k
    g = derivative = f
    while len(g) > 1:
        derivative = [k * c for k, c in enumerate(derivative)][1:]
        h = _polynomial_gcd(g, derivative)
        above.append(len(g) - len(h))
        g = h
    above.append(0)
    return [k for k in range(1, len(above)) for _ in range(above[k - 1] - above[k])]


def _primitive(a: list[int]) -> list[int]:
    """a over the gcd of its coefficients, leading coefficient positive."""
    g = math.gcd(*a) * (1 if a[-1] > 0 else -1)
    return [c // g for c in a]


def _polynomial_gcd(a: list[int], b: list[int]) -> list[int]:
    """The primitive gcd of two non-zero integer polynomials (constant
    first), by primitive pseudo-remainders: every step stays in Z[x]."""
    a, b = _primitive(a), _primitive(b)
    while len(b) > 1:
        rem = list(a)
        while len(rem) >= len(b):  # rem <- lc(b) rem - rem's lead x^shift b
            lead, shift = rem[-1], len(rem) - len(b)
            rem = [b[-1] * c for c in rem]
            for i, c in enumerate(b):
                rem[shift + i] -= lead * c
            while rem and rem[-1] == 0:
                rem.pop()
        if not rem:
            return b
        a, b = b, _primitive(rem)
    return [1]
