"""The orbital association scheme of a level action.

Pairs of level vertices are classed by label(x, y) = suborbit of u_x^-1(y),
where u_x is the transversal word carrying the base to x.  The class of
(base, y) is then the suborbit of y, class 0 is the diagonal, and counting
common neighbours gives the intersection numbers

    p[i][j][k] = #{z : (x, z) in class i, (z, y) in class j}

for any pair (x, y) in class k.  These are the structure constants of the
convolution algebra of stabilizer-bi-invariant functions, so its dimension
is the rank and its commutativity can be read off p directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrityError
from .orbits import (SuborbitPartition, Transversal, orbit_transversal,
                     suborbits_from_transversal)
from .tree import DEFAULT_LEVEL_CAP, Ray
from .wreath import WreathPresentation, inverse_perm

DEFAULT_MATERIALIZE_CAP = 4096


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
    labels: np.ndarray | None       # full (N, N) label table when materialized
    transversal: Transversal

    @property
    def level(self) -> int:
        return self.transversal.level

    def label(self, x: int, y: int) -> int:
        if self.labels is not None:
            return int(self.labels[x, y])
        t = int(np.nonzero(self.transversal.perms[x] == y)[0][0])
        return int(self.block_of[t])

    def label_column(self, y: int) -> np.ndarray:
        """label(x, y) for every x."""
        if self.labels is not None:
            return self.labels[:, y]
        t = np.argmax(self.transversal.perms == y, axis=1)
        return self.block_of[t]


def build_scheme(pres: WreathPresentation, n: int, ray: Ray,
                 cap: int = DEFAULT_LEVEL_CAP,
                 materialize_cap: int = DEFAULT_MATERIALIZE_CAP) -> OrbitalScheme:
    tv = orbit_transversal(pres, n, ray, cap)
    partition = suborbits_from_transversal(pres, tv)
    size = len(tv)
    base_idx = tv.base.index()
    r = partition.rank
    block_of = partition.block_of_array(size)
    valencies = np.bincount(block_of, minlength=r)
    reps = tuple(block[0] for block in partition.blocks)

    labels = None
    if size <= materialize_cap:
        labels = block_of[inverse_perm(tv.perms)]

    p = np.empty((r, r, r), dtype=np.int64)
    for k, y_k in enumerate(reps):
        if labels is not None:
            col = labels[:, y_k]
        else:
            col = block_of[np.argmax(tv.perms == y_k, axis=1)]
        counts = np.bincount(block_of * r + col, minlength=r * r).reshape(r, r)
        p[:, :, k] = counts

    scheme = OrbitalScheme(
        point_count=size,
        rank=r,
        base_index=base_idx,
        partition=partition,
        block_of=block_of,
        valencies=valencies,
        pairing=tuple(int(block_of[np.argmax(tv.perms[y] == base_idx)]) for y in reps),
        representatives=reps,
        p=p,
        labels=labels,
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
                     point_count: int, limit: int = 10) -> list[str]:
    """Check the association scheme axioms on raw data; empty list = pass."""
    out: list[str] = []
    r = len(valencies)

    def note(msg: str) -> bool:
        out.append(msg)
        return len(out) >= limit

    if valencies[0] != 1:
        if note(f"valency of the diagonal class is {valencies[0]}, expected 1"):
            return out
    if int(valencies.sum()) != point_count:
        if note(f"valencies sum to {int(valencies.sum())}, expected {point_count}"):
            return out
    if p.shape != (r, r, r):
        out.append(f"p has shape {p.shape}, expected {(r, r, r)}")
        return out
    if len(pairing) != r or sorted(pairing) != list(range(r)):
        out.append(f"pairing {pairing} is not a permutation of 0..{r - 1}")
        return out
    if pairing[0] != 0:
        if note("pairing does not fix the diagonal class"):
            return out
    for i in range(r):
        if pairing[pairing[i]] != i:
            if note(f"pairing is not an involution at class {i}"):
                return out
        if valencies[pairing[i]] != valencies[i]:
            if note(f"class {i} and its pair {pairing[i]} have different valencies"):
                return out
    for i in range(r):
        for k in range(r):
            want = 1 if i == k else 0
            if p[i][0][k] != want:
                if note(f"p[{i}][0][{k}] = {p[i][0][k]}, expected {want}"):
                    return out
            if p[0][i][k] != want:
                if note(f"p[0][{i}][{k}] = {p[0][i][k]}, expected {want}"):
                    return out
    for i in range(r):
        for k in range(r):
            row = int(p[i, :, k].sum())
            if row != int(valencies[i]):
                if note(f"sum_j p[{i}][j][{k}] = {row}, expected k_{i} = {int(valencies[i])}"):
                    return out
    for i in range(r):
        for j in range(r):
            total = int((p[i, j, :] * valencies).sum())
            want = int(valencies[i]) * int(valencies[j])
            if total != want:
                if note(f"sum_k p[{i}][{j}][k] k_k = {total}, "
                        f"expected k_{i} k_{j} = {want}"):
                    return out
    return out


def verify_scheme_axioms(scheme: OrbitalScheme, limit: int = 10) -> list[str]:
    """Axioms plus label-level consistency; empty list = pass."""
    out = axiom_violations(scheme.valencies, scheme.p, scheme.pairing,
                           scheme.point_count, limit)
    if len(out) >= limit:
        return out[:limit]
    if scheme.block_of[scheme.base_index] != 0:
        out.append("base vertex is not in class 0")
    if scheme.labels is not None:
        if not np.array_equal(scheme.labels[scheme.base_index], scheme.block_of):
            out.append("labels at the base row disagree with the suborbit classes")
        diag = np.diagonal(scheme.labels)
        if diag.any():
            out.append("diagonal pairs are not all in class 0")
    for k, y in enumerate(scheme.representatives):
        if scheme.block_of[y] != k:
            out.append(f"representative of class {k} lies in class {int(scheme.block_of[y])}")
            break
    return out[:limit]


def scheme_json_doc(scheme: OrbitalScheme) -> dict:
    return {
        "rank": scheme.rank,
        "valencies": [int(v) for v in scheme.valencies],
        "pairing": list(scheme.pairing),
        "commutative": is_commutative(scheme),
        "p": scheme.p.tolist(),
    }
