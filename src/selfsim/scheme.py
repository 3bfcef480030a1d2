"""The orbital association scheme of a level action.

Pairs of level vertices are classed by label(x, y) = suborbit of u_x^-1(y),
where u_x is any group element carrying the base to x.  The scheme keeps
no copy of the labels: it reads them through their owner, its partition,
by ``label_row(x)`` = label(x, .), ``label(x, y)`` alone or
``path_counts``, off the cone route's class table or rows of u_x^-1, so a
single label is one table entry on the route, not a row of N.  This module
knows neither layout, and the route was chosen when the partition was
made.  The class of (base, y) is then the suborbit of y, class 0 is the
diagonal, and counting common neighbours gives the intersection numbers

    p[i][j][k] = #{z : (x, z) in class i, (z, y) in class j}

for any pair (x, y) in class k.  These are the structure constants of the
convolution algebra of stabilizer-bi-invariant functions, so its dimension
is the rank and its commutativity can be read off p directly.

Reversing a pair maps its class through the pairing (Bannai-Ito, Algebraic
Combinatorics I): label(z, y) = pairing[label(y, z)].  So with y_k the
representative of class k and row_k = label(y_k, .), pairing[k] = row_k[base]
and column k of p counts the pairs (block_of[z], pairing[row_k[z]]).  The rows
are read one at a time: row_k is counted as the pairs (block_of[z], row_k[z])
and dropped, and once pairing is known the middle axis of p moves through it.
That is O(r N) time with one row of N labels live, and one (r, r, r) array
for p, refused like the transversal table when it would take more than half
of physical memory.  The N x N ``labels`` table is built from N row reads,
and only when read (the dense oracle, tests).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from .errors import IntegrityError
from .orbits import SuborbitPartition, check_memory, stabilizer_suborbits
from .tree import DEFAULT_LEVEL_CAP, Ray
from .wreath import WreathPresentation

# Most axiom violations a check reports.
_VIOLATION_LIMIT = 10


@dataclass(frozen=True, eq=False)
class OrbitalScheme:
    point_count: int
    rank: int
    base_index: int
    partition: SuborbitPartition    # the owner and only reader of the labels
    valencies: np.ndarray           # class sizes k_i; k_0 = 1
    pairing: tuple[int, ...]        # i -> class of the reversed pairs
    representatives: tuple[int, ...]  # y_k with (base, y_k) in class k
    p: np.ndarray                   # (r, r, r) intersection numbers, exact ints

    @property
    def level(self) -> int:
        return self.partition.base.level

    @property
    def degree(self) -> int:
        return self.partition.base.degree

    def label(self, x: int, y: int) -> int:
        return self.partition.label(x, y)

    def label_row(self, x: int) -> np.ndarray:
        """label(x, y) for every y, a fresh array."""
        return self.partition.label_row(x)

    def path_counts(self, x: np.ndarray, y: np.ndarray, i: np.ndarray,
                    j: np.ndarray) -> np.ndarray:
        """#{z : label(x, z) = i, label(z, y) = j} for each case of the four
        equal-length arrays, counted from the labels, not from p."""
        return self.partition.path_counts(x, y, i, j)

    def label_column(self, y: int) -> np.ndarray:
        """label(x, y) for every x."""
        return np.asarray(self.pairing)[self.partition.label_row(y)]

    @cached_property
    def labels(self) -> np.ndarray:
        """The full (N, N) label table, built on first read, a row at a time."""
        size = self.point_count
        return np.fromiter(map(self.partition.label_row, range(size)), (np.int64, (size,)), size)


def build_scheme(pres: WreathPresentation, n: int, ray: Ray,
                 cap: int = DEFAULT_LEVEL_CAP) -> OrbitalScheme:
    """The orbital scheme of level n."""
    return scheme_from_partition(stabilizer_suborbits(pres, n, ray, cap))


def scheme_from_partition(partition: SuborbitPartition) -> OrbitalScheme:
    """Pairing, p and the axioms from r of the partition's label rows, one
    at a time, whichever layout it reads them from.  p takes 8 r^3 bytes, so
    a rank past half of physical memory is refused before p is made."""
    block_of = partition.block_of
    r, size, base_idx = partition.rank, len(block_of), partition.base.index()
    if not np.array_equal(partition.label_row(base_idx), block_of):
        raise IntegrityError("the labels of the base row are not the suborbits")
    check_memory(f"rank {r}", 8 * r**3, "its intersection numbers p", r)
    reps = np.full(r, size, dtype=np.int64)  # the least vertex of each block
    np.minimum.at(reps, block_of, np.arange(size))
    pairing = np.empty(r, dtype=np.int64)
    p = np.empty((r, r, r), dtype=np.int64)  # [i, m, k] until every row is read
    for k, y in enumerate(reps.tolist()):
        row = partition.label_row(y)  # label(y_k, .), a fresh array
        pairing[k] = row[base_idx]
        row += block_of * r  # the pairs (block_of[z], row[z]), in place
        p[:, :, k] = np.bincount(row, minlength=r * r).reshape(r, r)
    for block in p:  # class m of label(y_k, z) is class pairing[m] of label(z, y_k)
        block[pairing] = block.copy()

    scheme = OrbitalScheme(
        point_count=size,
        rank=r,
        base_index=base_idx,
        partition=partition,
        valencies=np.bincount(block_of, minlength=r),
        pairing=tuple(pairing.tolist()),
        representatives=tuple(reps.tolist()),
        p=p,
    )
    violations = verify_scheme_axioms(scheme)
    if violations:
        raise IntegrityError("orbital scheme axioms failed:\n" + "\n".join(violations))
    return scheme


def is_commutative(p: np.ndarray) -> bool:
    """Whether the convolution algebra with intersection numbers p is
    commutative (p symmetric in i, j)."""
    return bool(np.array_equal(p, p.transpose(1, 0, 2)))


def axiom_violations(valencies: np.ndarray, p: np.ndarray, pairing: tuple[int, ...],
                     point_count: int) -> list[str]:
    """Check the association scheme axioms on raw data; empty list = pass."""
    return list(islice(_axiom_messages(valencies, p, pairing, point_count),
                       _VIOLATION_LIMIT))


def _axiom_messages(valencies, p, pairing, point_count) -> Iterator[str]:
    """Each axiom is one whole-array compare; only the classes, pairs or
    entries that fail it are visited, in row-major order."""
    r = len(valencies)
    if valencies[0] != 1:
        yield f"valency of the diagonal class is {valencies[0]}, expected 1"
    if int(valencies.sum()) != point_count:
        yield f"valencies sum to {int(valencies.sum())}, expected {point_count}"
    if p.shape != (r, r, r):
        yield f"p has shape {p.shape}, expected {(r, r, r)}"
        return
    for i, j, k in np.argwhere(p < 0).tolist():
        yield f"p[{i}][{j}][{k}] = {p[i, j, k]}, expected a count >= 0"
    if len(pairing) != r or sorted(pairing) != list(range(r)):
        yield f"pairing {pairing} is not a permutation of 0..{r - 1}"
        return
    if pairing[0] != 0:
        yield "pairing does not fix the diagonal class"
    pair = np.asarray(pairing)
    not_involution = pair[pair] != np.arange(r)
    unequal = valencies[pair] != valencies
    for i in np.flatnonzero(not_involution | unequal).tolist():
        if not_involution[i]:
            yield f"pairing is not an involution at class {i}"
        if unequal[i]:
            yield f"class {i} and its pair {pairing[i]} have different valencies"
    identity = np.eye(r, dtype=np.int64)
    right, left = p[:, 0, :] != identity, p[0] != identity  # [i, k]: p[i][0][k], p[0][i][k]
    for i, k in np.argwhere(right | left).tolist():
        want = 1 if i == k else 0
        if right[i, k]:
            yield f"p[{i}][0][{k}] = {p[i, 0, k]}, expected {want}"
        if left[i, k]:
            yield f"p[0][{i}][{k}] = {p[0, i, k]}, expected {want}"
    rows = p.sum(axis=1)  # [i, k] = sum_j p[i][j][k]
    for i, k in np.argwhere(rows != valencies[:, None]).tolist():
        yield (f"sum_j p[{i}][j][{k}] = {int(rows[i, k])}, "
               f"expected k_{i} = {int(valencies[i])}")
    totals = p @ valencies  # [i, j] = sum_k p[i][j][k] k_k
    # k_i k_j exactly: int64 while every |k| < 2^31, else Python ints
    exact = valencies.astype(np.int64 if np.abs(valencies).max() < 2**31 else object)
    for i, j in np.argwhere(totals != np.multiply.outer(exact, exact)).tolist():
        yield (f"sum_k p[{i}][{j}][k] k_k = {int(totals[i, j])}, "
               f"expected k_{i} k_{j} = {int(valencies[i]) * int(valencies[j])}")


def verify_scheme_axioms(scheme: OrbitalScheme) -> list[str]:
    """Axioms plus the class checks any label source must pass; empty list = pass."""
    out = axiom_violations(scheme.valencies, scheme.p, scheme.pairing,
                           scheme.point_count)
    block_of = scheme.partition.block_of
    if block_of[scheme.base_index] != 0:
        out.append("base vertex is not in class 0")
    for k, y in enumerate(scheme.representatives):
        if block_of[y] != k:
            out.append(f"representative of class {k} lies in class {int(block_of[y])}")
            break
    return out[:_VIOLATION_LIMIT]


def scheme_json_doc(valencies: np.ndarray, pairing, p: np.ndarray) -> dict:
    """The scheme document that ``scheme`` prints and the cache stores; its
    keys and types are written here only."""
    return {
        "rank": len(valencies),
        "valencies": np.asarray(valencies).tolist(),
        "pairing": np.asarray(pairing).tolist(),
        "commutative": is_commutative(p),
        "p": p.tolist(),
    }
