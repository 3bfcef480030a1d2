"""The orbital association scheme of a level action.

Pairs of level vertices are classed by label(x, y) = suborbit of u_x^-1(y),
where u_x is any group element carrying the base to x.  The scheme reads
every label through ``label_row(x)`` = label(x, .), from one of two sources.
Where the cone route (``orbits.cone_suborbits``) certifies the suborbits, a
row is read off tree digits: the letters x and y share and the orbit of the
next letter pair under the root permutations.  Elsewhere ``fold_scheme``
makes it one gather on the transversal table of u_x^-1 rows and keeps no
other part of the transversal.  The class of (base, y) is then the suborbit
of y, class 0 is the diagonal, and counting common neighbours gives the
intersection numbers

    p[i][j][k] = #{z : (x, z) in class i, (z, y) in class j}

for any pair (x, y) in class k.  These are the structure constants of the
convolution algebra of stabilizer-bi-invariant functions, so its dimension
is the rank and its commutativity can be read off p directly.

Reversing a pair maps its class through the pairing (Bannai-Ito, Algebraic
Combinatorics I): label(z, y) = pairing[label(y, z)].  So with y_k the
representative of class k and row_k = label(y_k, .), pairing[k] = row_k[base]
and column k of p counts the pairs (block_of[z], pairing[row_k[z]]): r rows,
O(r N) in all, and one (r, r, r) array for p, refused like the transversal
table when it would take more than half of physical memory.  The N x N
``labels`` table is built from N row reads, and only when read (the dense
oracle, tests).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from .errors import IntegrityError
from .orbits import (SuborbitPartition, check_memory, cone_suborbits, orbit_transversal,
                     suborbits_from_transversal)
from .tree import DEFAULT_LEVEL_CAP, Ray
from .wreath import WreathPresentation

# Most axiom violations a check reports.
_VIOLATION_LIMIT = 10


@dataclass(frozen=True, eq=False)
class OrbitalScheme:
    point_count: int
    rank: int
    base_index: int
    partition: SuborbitPartition
    block_of: np.ndarray            # partition.block_of: class of (base, y) per y
    valencies: np.ndarray           # class sizes k_i; k_0 = 1
    pairing: tuple[int, ...]        # i -> class of the reversed pairs
    representatives: tuple[int, ...]  # y_k with (base, y_k) in class k
    p: np.ndarray                   # (r, r, r) intersection numbers, exact ints
    label_row: Callable[[int], np.ndarray]  # x -> label(x, y) for every y

    @property
    def level(self) -> int:
        return self.partition.base.level

    @property
    def degree(self) -> int:
        return self.partition.base.degree

    def label(self, x: int, y: int) -> int:
        return int(self.label_row(x)[y])

    def label_column(self, y: int) -> np.ndarray:
        """label(x, y) for every x."""
        return np.asarray(self.pairing)[self.label_row(y)]

    @cached_property
    def labels(self) -> np.ndarray:
        """The full (N, N) label table, built on first read, a row at a time."""
        size = self.point_count
        return np.fromiter(map(self.label_row, range(size)), (np.int64, (size,)), size)


def build_scheme(pres: WreathPresentation, n: int, ray: Ray,
                 cap: int = DEFAULT_LEVEL_CAP) -> OrbitalScheme:
    """The orbital scheme of level n: labels read off tree digits where the
    cone route's certificate holds, else off the transversal table."""
    partition = cone_suborbits(pres, n, ray, cap)
    if partition is None:
        return fold_scheme(pres, n, ray, cap)
    return _scheme_from_rows(partition, _digit_label_row(partition))


def fold_scheme(pres: WreathPresentation, n: int, ray: Ray,
                cap: int = DEFAULT_LEVEL_CAP) -> OrbitalScheme:
    """The scheme from the transversal table and the suborbit fold, for any
    input: ``build_scheme``'s fallback and the cone route's cross-check."""
    tv = orbit_transversal(pres, n, ray, cap)
    perms, size, base_idx = tv.perms, len(tv), tv.base.index()
    broken = []  # the label rows below need u_base = 1 and u_x(base) = x
    if not np.array_equal(perms[base_idx], np.arange(size)):
        broken.append("u_base is not the identity, so the base label row is not the suborbits")
    if not np.all(np.diagonal(perms) == base_idx):
        broken.append("some u_x does not carry the base to x, so a diagonal pair is not in class 0")
    if broken:
        raise IntegrityError("transversal checks failed:\n" + "\n".join(broken))
    partition = suborbits_from_transversal(pres, tv)
    block_of = partition.block_of

    def label_row(x: int) -> np.ndarray:  # keeps the table, not the transversal
        return block_of[perms[x]]
    return _scheme_from_rows(partition, label_row)


def _pair_table(tables: list[np.ndarray], degree: int) -> np.ndarray:
    """The labels of all pairs of m-letter words, as a (d^m, d^m) array, from
    tables[k][a, c], the label of a pair whose first k letters agree and
    whose next are a != c; a pair of equal words gets 0."""
    if not tables:
        return np.zeros((1, 1), dtype=np.int64)
    sub = _pair_table(tables[1:], degree)
    m = len(sub)
    out = np.empty((degree, m, degree, m), dtype=np.int64)
    out[:] = tables[0][:, None, :, None]
    for a in range(degree):
        out[a, :, a, :] = sub
    return out.reshape(degree * m, degree * m)


def _digit_label_row(partition: SuborbitPartition) -> Callable[[int], np.ndarray]:
    """label_row for a partition that the cone route certified.

    The class of a pair (x, y) is then fixed by the number k of letters x
    and y share and by the G_1-orbit of the letter pair (x_{k+1}, y_{k+1}).
    That partition of pairs is G-invariant and coarser than the orbitals,
    and it meets the base row in the cone blocks, which are the suborbits;
    so each class is one orbital, labelled by the block of any y' with
    (base, y') in it: for a pair that shares k letters and goes on with a
    and c, the block of partition.cones[k][a, c].  A row broadcasts the
    labels of x's first h letters against every h-letter word, then
    overwrites the y that share them with the labels of x's last n - h
    letters: two tables of at most d N entries, and O(N) per row.
    """
    base, block_of = partition.base, partition.block_of
    n, d = base.level, base.degree
    tables = list(block_of[partition.cones])
    high, low = _pair_table(tables[:n // 2], d), _pair_table(tables[n // 2:], d)
    width = len(low)

    def label_row(x: int) -> np.ndarray:
        top, rest = divmod(x, width)
        row = np.empty((len(high), width), dtype=np.int64)
        row[:] = high[top][:, None]
        row[top] = low[rest]
        return row.reshape(-1)
    if not np.array_equal(label_row(base.index()), block_of):
        raise IntegrityError("the digit labels of the base row are not the suborbits")
    return label_row


def _scheme_from_rows(partition: SuborbitPartition,
                      label_row: Callable[[int], np.ndarray]) -> OrbitalScheme:
    """Pairing, p and the axioms from r label rows, whichever source gives
    them.  p takes 8 r^3 bytes, so a rank past half of physical memory is
    refused before p is made."""
    block_of = partition.block_of
    r, size, base_idx = partition.rank, len(block_of), partition.base.index()
    check_memory(f"rank {r}", 8 * r**3, "its intersection numbers p", r)
    reps = np.full(r, size, dtype=np.int64)  # the least vertex of each block
    np.minimum.at(reps, block_of, np.arange(size))
    rows = [label_row(y) for y in reps]  # label(y_k, .)
    pairing = np.array([row[base_idx] for row in rows], dtype=np.int64)
    p = np.empty((r, r, r), dtype=np.int64)
    for k, row in enumerate(rows):
        p[:, :, k] = np.bincount(block_of * r + pairing[row], minlength=r * r).reshape(r, r)

    scheme = OrbitalScheme(
        point_count=size,
        rank=r,
        base_index=base_idx,
        partition=partition,
        block_of=block_of,
        valencies=np.bincount(block_of, minlength=r),
        pairing=tuple(pairing.tolist()),
        representatives=tuple(reps.tolist()),
        p=p,
        label_row=label_row,
    )
    violations = verify_scheme_axioms(scheme)
    if violations:
        raise IntegrityError("orbital scheme axioms failed:\n" + "\n".join(violations))
    return scheme


def is_commutative(p: np.ndarray) -> bool:
    """Whether the convolution algebra with intersection numbers p is
    commutative (p symmetric in i, j)."""
    return bool(np.array_equal(p, p.transpose(1, 0, 2)))


def hecke_dimension(scheme: OrbitalScheme) -> int:
    return scheme.rank


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
    if scheme.block_of[scheme.base_index] != 0:
        out.append("base vertex is not in class 0")
    for k, y in enumerate(scheme.representatives):
        if scheme.block_of[y] != k:
            out.append(f"representative of class {k} lies in class {int(scheme.block_of[y])}")
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
