"""Degrees of the irreducible components of a level quasi-regular action.

The intersection numbers p alone give everything here (Bannai-Ito,
Algebraic Combinatorics I, II.3): the valencies k_i = sum_j p[i][j][0], the
point count N = sum_i k_i, and the left-regular matrices of the convolution
algebra.  ``spectral_data`` refuses a p that is not commutative
(``scheme.is_commutative``), naming the first pair of matrices that do not
commute.  A commutative algebra's characters are one-dimensional, and the
multiplicity of each, the dimension of its isotypic component of the
permutation module, is an irreducible degree.  They are the eigenvalues of
one integer pencil, T1^-1 T2: ``spectral_data`` lets a float solve propose
them, and an exact certificate modulo primes accepts the proposal or
refuses it.  A dense cross-check diagonalizes a random combination of the
N x N class adjacency matrices of a built scheme instead and reads the
degrees off the eigenvalue cluster sizes.

On a level that the cone route certifies, the scheme is the n-fold wreath
power of G_1's orbital scheme on the d letters, and ``wreath_power_degrees``
gives its degrees exactly from G_1's (d, d) class table alone: the same
pencil on the level-1 p, whose eigenvalue counts are exact ranks over
Python ints.  No float and no random draw enter there, and it shares no
computation with ``spectral_data`` on the level-n p, which it cross-checks.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import IntegrityError, NumericalError, SizeCapError
from .orbits import check_memory, merge_components
from .scheme import OrbitalScheme, is_commutative

DEFAULT_SEED = 1729
EIG_CLUSTER_RTOL = 1e-8
MAX_SEED_TRIES = 5
DENSE_ORACLE_CAP = 243


def intersection_matrices(p: np.ndarray) -> np.ndarray:
    """Left-regular matrices B[i][k, j] = p[i][j][k], a read-only view of p,
    once p passes the product rule B_i B_j = sum_k p[i][j][k] B_k for all (i, j).

    That rule is associativity, sum_m p[i][j][m] p[m][k][l] = sum_x p[j][k][x]
    p[i][x][l] (Bannai-Ito, II.2), checked for one i and every (j, k, l) at a
    time as two matrix products on p in ``_product_dtype(p)``, naming the first
    failing pair in row-major order.  The copy of p, one i's products and their
    mask take 25 r^3 bytes, refused like p itself past half of physical memory.
    """
    p = np.asarray(p)
    r = len(p)
    check_memory(f"rank {r}", 25 * r**3, "its product-rule check", r)
    px = p.astype(_product_dtype(p))
    left, right = np.empty((r, r * r), px.dtype), np.empty((r * r, r), px.dtype)
    for i in range(r):  # [j, (k, l)]: (e_i e_j) e_k against e_i (e_j e_k), at e_l
        np.matmul(px[i], px.reshape(r, r * r), out=left)
        np.matmul(px.reshape(r * r, r), px[i], out=right)
        bad = np.flatnonzero((left != right.reshape(r, -1)).any(axis=1))
        if bad.size:
            raise IntegrityError(f"left-regular matrices violate the product rule at ({i}, {bad[0]})")
    B = p.transpose(0, 2, 1)
    B.flags.writeable = False
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


@dataclass(frozen=True, eq=False)
class SpectralData:
    """The certified degrees of a commutative scheme, sorted, and
    charpoly(T1^-1 T2) modulo each prime of their certificate (constant
    first), which decides any other proposal too."""
    degrees: list[int]
    residues: tuple[tuple[int, tuple[int, ...]], ...]

    def accepts(self, degrees: list[int]) -> bool:
        """Whether the certificate holds for ``degrees``: r integers in
        [0, N] summing to N whose product of (x - m_j) is charpoly(T1^-1 T2)
        modulo every prime."""
        point_count = sum(self.degrees)
        if not (len(degrees) == len(self.degrees) and sum(degrees) == point_count
                and all(0 <= m <= point_count for m in degrees)):
            return False
        # the constant term (-1)^r Prod_j m_j refuses most proposals in O(r);
        # only one that matches it is expanded in full
        constant = (-1) ** len(degrees) * math.prod(degrees)
        return all(constant % q == f[0] and _from_roots(degrees, q) == f
                   for q, f in self.residues)


def spectral_data(p: np.ndarray) -> SpectralData:
    """The degrees of the scheme with intersection numbers p, certified
    exactly.

    With B_a the left-regular matrices (``intersection_matrices``), k_a the
    valencies and N their sum, take the integer r x r matrices
    T1[a, b] = tr(B_a B_b) and T2[a, b] = N p[a][b][0], which is N k_a where
    b is a's pair and 0 elsewhere.  With P the character table,
    T1 = P^T P and T2 = P^T diag(m) P (Bannai-Ito, II.3), so the eigenvalues
    of T1^-1 T2 are the multiplicities m_j.  Their float values, rounded,
    are a proposal; it is accepted only if it sums to N and Prod_j (x - m_j)
    equals charpoly(T1^-1 T2) modulo enough primes q < 2^30 that do not
    divide det T1 for agreement to be equality (``_residues``).  A proposal
    that fails raises a ``NumericalError``; a p that is not commutative, an
    ``IntegrityError`` naming the first pair of matrices that do not commute.
    """
    p = np.asarray(p)
    intersection_matrices(p)
    if not is_commutative(p):
        # [B_i, B_j] = sum_k (p[i][j][k] - p[j][i][k]) B_k; the B_k are independent
        i, j = np.argwhere((p != p.transpose(1, 0, 2)).any(axis=2))[0]
        raise IntegrityError(f"matrices {i} and {j} do not commute")
    point_count = int(p[:, :, 0].sum())
    T1, T2 = _trace_form(p), point_count * p[:, :, 0].astype(object)
    try:
        values = np.linalg.eigvals(np.linalg.solve(T1.astype(float), T2.astype(float)))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"degree pencil: {exc}") from None
    if not np.isfinite(values).all():
        raise NumericalError("degree pencil: an eigenvalue of T1^-1 T2 is not finite")
    data = SpectralData(sorted(int(m) for m in np.round(values.real)),
                        _residues(T1, T2, point_count))
    if not data.accepts(data.degrees):
        raise NumericalError("degree pencil: the rounded eigenvalues of T1^-1 T2 fail "
                             "their exact certificate")
    return data


def _trace_form(p: np.ndarray) -> np.ndarray:
    """T1[a, b] = tr(B_a B_b) = sum_(j, k) p[a][j][k] p[b][k][j], exactly:
    one BLAS product while the bound r^2 max|p|^2 on every entry stays below
    2^53, else over Python ints."""
    r = len(p)
    rows = p.reshape(r, r * r)
    cols = p.transpose(0, 2, 1).reshape(r, r * r)
    if r * r * int(np.abs(p).max(initial=0)) ** 2 < 2**53:
        return (rows.astype(float) @ cols.T.astype(float)).astype(np.int64)
    return rows.astype(object) @ cols.T.astype(object)


def _residues(T1: np.ndarray, T2: np.ndarray,
              point_count: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """charpoly(T1^-1 T2) modulo each prime below 2^30, largest first, that
    does not divide det T1, until the primes' product passes 2 (1 + N/r)^r.

    For the scheme of a group action both sides of the certificate are
    Prod_j (x - m_j) for r integers m_j in [0, N] summing to N.  Each
    coefficient, +-e_k(m), is at most Prod_j (1 + m_j), and by AM-GM at most
    (1 + N/r)^r, so agreement modulo that product is equality.  Every
    skipped prime exceeds 2^29 and divides det T1, so once they outweigh
    Hadamard's bound on |det T1|, T1 is singular."""
    r = len(T1)
    bound = 2 * (r + point_count) ** r  # product > 2 (1 + N/r)^r iff product r^r > bound
    det_bits = float(np.log2(np.maximum(1.0, np.linalg.norm(T1.astype(float), axis=1))).sum())
    residues, product, skipped = [], 1, 0
    for q in _primes():
        f = _charpoly_mod(T1, T2, q)
        if f is None:
            skipped += 1
            if 29 * skipped > det_bits + 1:
                raise NumericalError("degree pencil: the trace form T1 is singular")
            continue
        residues.append((q, f))
        product *= q
        if product * r**r > bound:
            return tuple(residues)


_PRIMES: list[int] = []  # the primes _primes has found, largest first


def _primes():
    """The primes below 2^30 and above 2^15, largest first; each is tested
    once per process, and the list of those found grows on demand."""
    yield from _PRIMES
    for q in filter(_is_prime, range(_PRIMES[-1] - 2 if _PRIMES else 2**30 - 1, 2**15, -2)):
        if not _PRIMES or q < _PRIMES[-1]:  # else another reader has kept it
            _PRIMES.append(q)
        yield q


def _is_prime(n: int) -> bool:
    """Whether the odd n > 7 passes the strong probable-prime test to bases
    2, 3, 5 and 7, which is primality below 3 215 031 751 (Jaeschke 1993)."""
    twos = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^twos odd
    for base in (2, 3, 5, 7):
        x = pow(base, (n - 1) >> twos, n)
        if x != 1 and n - 1 not in (pow(x, 2**k, n) for k in range(twos)):
            return False
    return True


def _charpoly_mod(T1: np.ndarray, T2: np.ndarray, q: int) -> tuple[int, ...] | None:
    """det(x I - T1^-1 T2) modulo q, constant first, or None where q
    divides det T1.

    Gauss-Jordan turns [T1 | T2] into [I | T1^-1 T2], elementary similarity
    steps bring that to upper Hessenberg form H, and p_k, the
    characteristic polynomial of H's leading k x k block, follows from
    p_k = (x - h_kk) p_(k-1) - sum_(i<k) h_ik (prod_(i<t<=k) h_t,t-1) p_(i-1)
    (1-based).  Residues stay below 2^30, so each product of two fits int64.
    """
    r = len(T1)
    A = np.concatenate([T1 % q, T2 % q], axis=1).astype(np.int64)
    for k in range(r):
        pivots = np.flatnonzero(A[k:, k])
        if not pivots.size:
            return None
        A[[k, k + pivots[0]]] = A[[k + pivots[0], k]]
        A[k] = A[k] * pow(int(A[k, k]), -1, q) % q
        column = A[:, k].copy()
        column[k] = 0
        A = (A - column[:, None] * A[k]) % q
    H = A[:, r:]
    for m in range(1, r - 1):
        pivots = np.flatnonzero(H[m:, m - 1])
        if not pivots.size:
            continue
        i = m + pivots[0]
        H[[m, i]] = H[[i, m]]
        H[:, [m, i]] = H[:, [i, m]]
        u = H[m + 1:, m - 1] * pow(int(H[m, m - 1]), -1, q) % q
        H[m + 1:] = (H[m + 1:] - u[:, None] * H[m]) % q  # row_i -= u_i row_m ...
        H[:, m] = (H[:, m] + (H[:, m + 1:] * u % q).sum(axis=1)) % q  # ... col_m += u_i col_i
    P = np.zeros((r + 1, r + 1), dtype=np.int64)  # row k: p_k, constant first
    P[0, 0] = 1
    chain = np.zeros(0, dtype=np.int64)  # chain[i] = prod_(i<t<k) H[t, t-1], 0-based
    for k in range(1, r + 1):
        if k > 1:
            chain = np.append(chain, 1) * H[k - 1, k - 2] % q
        row = np.zeros(r + 1, dtype=np.int64)
        row[1:] = P[k - 1, :-1]
        row = (row - H[k - 1, k - 1] * P[k - 1]) % q
        weights = H[:k - 1, k - 1] * chain % q
        P[k] = (row - (weights[:, None] * P[:k - 1] % q).sum(axis=0)) % q
    return tuple(P[r].tolist())


def _from_roots(roots: list[int], q: int) -> tuple[int, ...]:
    """Prod_j (x - roots[j]) modulo q, constant first."""
    f = [1]
    for m in roots:
        f = [(a - m * b) % q for a, b in zip([0, *f], [*f, 0])]
    return tuple(f)


def degrees_embed(here: list[int], there: list[int]) -> bool:
    """Whether the multiset ``here`` is contained in the multiset ``there``."""
    return not Counter(here) - Counter(there)


def common_eigensystem(labels: np.ndarray, rank: int, seed: int = DEFAULT_SEED) -> list[list[int]]:
    """The joint eigenspaces of the class adjacency matrices A_i =
    (labels == i) of a commutative scheme, labels its N x N class table, as
    clusters of eigenvalue indices.

    Attempt a diagonalizes M = sum_i c_i A_i, c drawn from
    ``default_rng(seed + a)``, and clusters its eigenvalues chained within
    EIG_CLUSTER_RTOL of the largest modulus; it resolves when there are
    rank clusters.  After MAX_SEED_TRIES attempts the last one's count is
    named.
    """
    last_error = "no attempt made"
    for attempt in range(MAX_SEED_TRIES):
        coeffs = np.random.default_rng(seed + attempt).uniform(1.0, 2.0, size=rank)
        evals = np.linalg.eigvals(coeffs[labels])  # one term of M per entry
        clusters = _cluster_indices(evals, EIG_CLUSTER_RTOL * max(1.0, float(np.abs(evals).max())))
        if len(clusters) == rank:
            return clusters
        last_error = (f"seed {seed + attempt} gave {len(clusters)} eigenvalue "
                      f"clusters for rank {rank}")
    raise NumericalError(f"dense oracle did not resolve: {last_error}")


def dense_commutant_oracle(scheme: OrbitalScheme, seed: int = DEFAULT_SEED) -> list[int]:
    """Degree multiset via the full N x N class adjacency matrices.

    Independent of the intersection-number route: the sorted sizes of the
    joint eigenspaces that ``common_eigensystem`` finds from the full label
    table.  Only for N <= 243.
    """
    size = scheme.point_count
    if size > DENSE_ORACLE_CAP:
        raise SizeCapError(
            f"dense oracle needs {size} points, cap is {DENSE_ORACLE_CAP}", size=size
        )
    return sorted(len(c) for c in common_eigensystem(scheme.labels, scheme.rank, seed))


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

    The m_j are the eigenvalues of the pencil of ``spectral_data`` on the
    level-1 p, counted from one pair of each class: T1^-1 T2 is similar to
    diag(m) and every m_j lies in [1, d], so each m in 1..d occurs
    r1 - rank(m T1 - T2) times, ranks taken exactly over Python ints.  The
    scheme is commutative iff p is symmetric in its first two indices.
    """
    classes = orbital.tolist()
    index = {o: i for i, o in enumerate(sorted({o for row in classes for o in row}))}
    cls = [[index[o] for o in row] for row in classes]
    d, r1 = len(cls), len(index)
    pair = {k: (a, c) for a, row in enumerate(cls) for c, k in enumerate(row)}
    p = [[[0] * r1 for _ in range(r1)] for _ in range(r1)]
    for k, (a, c) in pair.items():  # p[i][j][k] counts the b with (a, b) in i, (b, c) in j
        for b in range(d):
            p[cls[a][b]][cls[b][c]][k] += 1
    if any(p[i][j] != p[j][i] for i in range(r1) for j in range(i)):
        return None
    T1 = [[sum(p[a][j][k] * p[b][k][j] for j in range(r1) for k in range(r1))
           for b in range(r1)] for a in range(r1)]
    T2 = [[d * p[a][b][cls[0][0]] for b in range(r1)] for a in range(r1)]  # cls[0][0] is diagonal
    m = [mult for mult in range(1, d + 1) for _ in range(
        r1 - _rank([[mult * x - y for x, y in zip(s, t)] for s, t in zip(T1, T2)]))]
    # the valency character has multiplicity 1, as G_1 is transitive
    degrees = sorted([1] + [mj * d**k for mj in m[1:] for k in range(n)])
    if m[:1] != [1] or sum(degrees) != d**n or len(degrees) != 1 + n * (r1 - 1):
        raise IntegrityError(f"level-1 multiplicities {m} give degrees "
                             f"summing to {sum(degrees)} over {len(degrees)} classes, "
                             f"expected {d**n} over {1 + n * (r1 - 1)}")
    return degrees


def _rank(M: list[list[int]]) -> int:
    """The rank of a square integer matrix, exactly, by fraction-free
    (Bareiss) elimination: every entry stays an integer minor of M, so each
    division by the previous pivot is exact."""
    M, rank, prev = [list(row) for row in M], 0, 1
    for c in range(len(M)):
        pivot = next((i for i in range(rank, len(M)) if M[i][c]), None)
        if pivot is not None:
            M[rank], M[pivot] = M[pivot], M[rank]
            top = M[rank]
            M[rank + 1:] = [[(top[c] * x - row[c] * y) // prev for x, y in zip(row, top)]
                            for row in M[rank + 1:]]
            prev, rank = top[c], rank + 1
    return rank
