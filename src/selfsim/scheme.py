"""The orbital association scheme of a level action.

Pairs of level vertices are classed by label(x, y) = suborbit of u_x^-1(y),
where u_x is the transversal permutation carrying the base to x; the
transversal stores u_x^-1, so a label row is one gather.  The class
of (base, y) is then the suborbit of y, class 0 is the diagonal, and counting
common neighbours gives the intersection numbers

    p[i][j][k] = #{z : (x, z) in class i, (z, y) in class j}

for any pair (x, y) in class k.  These are the structure constants of the
convolution algebra of stabilizer-bi-invariant functions, so its dimension
is the rank and its commutativity can be read off p directly.

Reversing a pair maps its class through the pairing (Bannai-Ito, Algebraic
Combinatorics I): label(z, y) = pairing[label(y, z)].  So with y_k the
representative of class k and row_k = label(y_k, .), pairing[k] = row_k[base]
and column k of p counts the pairs (block_of[z], pairing[row_k[z]]): r rows,
O(r N) in all.  The N x N ``labels`` table is built only when read (DOT
export, the dense oracle, tests).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from .errors import IntegrityError
from .orbits import (SuborbitPartition, Transversal, orbit_transversal,
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
    block_of: np.ndarray            # suborbit (= class of (base, y)) per vertex
    valencies: np.ndarray           # class sizes k_i; k_0 = 1
    pairing: tuple[int, ...]        # i -> class of the reversed pairs
    representatives: tuple[int, ...]  # y_k with (base, y_k) in class k
    p: np.ndarray                   # (r, r, r) intersection numbers, exact ints
    transversal: Transversal

    @property
    def level(self) -> int:
        return self.transversal.level

    def label_row(self, x: int) -> np.ndarray:
        """label(x, y) for every y."""
        return self.block_of[self.transversal.perms[x]]

    def label(self, x: int, y: int) -> int:
        return int(self.label_row(x)[y])

    def label_column(self, y: int) -> np.ndarray:
        """label(x, y) for every x."""
        return np.asarray(self.pairing)[self.label_row(y)]

    @cached_property
    def labels(self) -> np.ndarray:
        """The full (N, N) label table, built on first read."""
        return self.block_of[self.transversal.perms]


def build_scheme(pres: WreathPresentation, n: int, ray: Ray,
                 cap: int = DEFAULT_LEVEL_CAP) -> OrbitalScheme:
    tv = orbit_transversal(pres, n, ray, cap)
    partition = suborbits_from_transversal(pres, tv)
    size = len(tv)
    base_idx = tv.base.index()
    r = partition.rank
    block_of = partition.block_of_array(size)
    reps = tuple(block[0] for block in partition.blocks)

    rows = [block_of[tv.perms[y]] for y in reps]  # label(y_k, .)
    pairing = np.array([row[base_idx] for row in rows], dtype=np.int64)
    p = np.stack([np.bincount(block_of * r + pairing[row], minlength=r * r).reshape(r, r)
                  for row in rows], axis=2)

    scheme = OrbitalScheme(
        point_count=size,
        rank=r,
        base_index=base_idx,
        partition=partition,
        block_of=block_of,
        valencies=np.bincount(block_of, minlength=r),
        pairing=tuple(pairing.tolist()),
        representatives=reps,
        p=p,
        transversal=tv,
    )
    violations = verify_scheme_axioms(scheme)
    if violations:
        raise IntegrityError("orbital scheme axioms failed:\n" + "\n".join(violations))
    return scheme


def is_commutative(scheme: OrbitalScheme) -> bool:
    """Whether the convolution algebra is commutative (p symmetric in i, j)."""
    return bool(np.array_equal(scheme.p, scheme.p.transpose(1, 0, 2)))


def hecke_dimension(scheme: OrbitalScheme) -> int:
    return scheme.rank


def axiom_violations(valencies: np.ndarray, p: np.ndarray, pairing: tuple[int, ...],
                     point_count: int) -> list[str]:
    """Check the association scheme axioms on raw data; empty list = pass."""
    return list(islice(_axiom_messages(valencies, p, pairing, point_count),
                       _VIOLATION_LIMIT))


def _axiom_messages(valencies, p, pairing, point_count) -> Iterator[str]:
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
    for i in range(r):
        if pairing[pairing[i]] != i:
            yield f"pairing is not an involution at class {i}"
        if valencies[pairing[i]] != valencies[i]:
            yield f"class {i} and its pair {pairing[i]} have different valencies"
    for i in range(r):
        for k in range(r):
            want = 1 if i == k else 0
            if p[i][0][k] != want:
                yield f"p[{i}][0][{k}] = {p[i][0][k]}, expected {want}"
            if p[0][i][k] != want:
                yield f"p[0][{i}][{k}] = {p[0][i][k]}, expected {want}"
    for i in range(r):
        for k in range(r):
            row = int(p[i, :, k].sum())
            if row != int(valencies[i]):
                yield f"sum_j p[{i}][j][{k}] = {row}, expected k_{i} = {int(valencies[i])}"
    for i in range(r):
        for j in range(r):
            total = int((p[i, j, :] * valencies).sum())
            want = int(valencies[i]) * int(valencies[j])
            if total != want:
                yield f"sum_k p[{i}][{j}][k] k_k = {total}, expected k_{i} k_{j} = {want}"


def verify_scheme_axioms(scheme: OrbitalScheme) -> list[str]:
    """Axioms plus label-level consistency; empty list = pass."""
    out = axiom_violations(scheme.valencies, scheme.p, scheme.pairing,
                           scheme.point_count)
    if scheme.block_of[scheme.base_index] != 0:
        out.append("base vertex is not in class 0")
    perms, points = scheme.transversal.perms, np.arange(scheme.point_count)
    if not np.array_equal(perms[scheme.base_index], points):
        out.append("u_base is not the identity, so the base label row is not the suborbits")
    if not np.all(np.diagonal(perms) == scheme.base_index):
        out.append("some u_x does not carry the base to x, so a diagonal pair is not in class 0")
    for k, y in enumerate(scheme.representatives):
        if scheme.block_of[y] != k:
            out.append(f"representative of class {k} lies in class {int(scheme.block_of[y])}")
            break
    return out[:_VIOLATION_LIMIT]


def scheme_json_doc(scheme: OrbitalScheme) -> dict:
    return {
        "rank": scheme.rank,
        "valencies": [int(v) for v in scheme.valencies],
        "pairing": list(scheme.pairing),
        "commutative": is_commutative(scheme),
        "p": scheme.p.tolist(),
    }
