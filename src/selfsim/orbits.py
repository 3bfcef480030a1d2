"""Level transversals, point-stabilizer generators and suborbits.

Fix a base vertex on level n (a ray prefix).  A breadth-first sweep over the
generators stores a Schreier vector (Seress, Permutation Group Algorithms,
section 4.1) as int64 arrays: for every level vertex x, the vertex parent[x]
it was reached from and the index via[x] of the generator that reached it.
Each generator s_k permutes the level, so (s_k, x) is a pair on the
breadth-first tree exactly when via[s_k(x)] == k; every reader finds the tree
pairs by this one rule.  Following parents back to the base spells the
transversal word u_x with act(u_x, base) = x; the sweep also keeps the level
permutation of every u_x^-1, the orientation its readers use: the label of a
pair (x, y) is the suborbit of u_x^-1(y).  These rows are only ever used as
indices, so they are stored in the smallest unsigned type that holds a vertex
index.  The stabilizer of the base is generated by the Schreier generators
u_{s(x)}^-1 s u_x, and its orbits partition the level.

The suborbit partition never builds a word, nor a generator's permutation:
each Schreier pair is checked against the current component labels on two
transversal rows, a block of pairs at a time, and pairs whose generators
the others already give are skipped.  Words are spelled out on demand: the
transversal words when ``Transversal.words`` is first read, the reduced
generator words only in ``schreier_generators``, which builds each
generator's permutation to drop repeats.

This fold and the enumeration oracle's both end in a forest, rep[x] the
least member of x's block, which ``_canonical_partition`` numbers into
``SuborbitPartition.block_of``, the one array every later step reads.
"""

from __future__ import annotations

import math
import os
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NotTransitiveError, SizeCapError
from .tree import DEFAULT_LEVEL_CAP, Ray, Vertex, check_level_size
from .wreath import Word, WreathPresentation, generator_level_perms

DEFAULT_GROUP_CAP = 1 << 20
# Label entries compared per block of the suborbit fold.  Each int64
# temporary of a block takes 64 KiB (one row of N entries once N > 2^13), no
# more than the N x N transversal table from N = 256 on, where that table
# takes 64 KiB of uint8.
_BLOCK_ENTRIES = 1 << 13


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


@dataclass(frozen=True, eq=False)
class Transversal:
    """Coset representatives for the base-point stabilizer on one level,
    stored as a Schreier vector.

    Vertex x was first reached from parent[x] by generators[via[x]], so its
    transversal word is u_x = generators[via[x]] u_{parent[x]}; the base has
    parent and via -1 and the empty word.  (generators[k], x) is a tree pair
    iff via[y] == k for its image y.  ``words`` spells every u_x out on first
    access and keeps the result.
    """

    base: Vertex
    generators: tuple[str, ...]  # the generator names via indexes
    parent: np.ndarray           # int64; parent[x] -> vertex x was reached from
    via: np.ndarray              # int64; via[x] -> index of the generator carrying parent[x] to x
    order: np.ndarray            # int64; indices in breadth-first discovery order
    perms: np.ndarray            # perms[x] = level permutation of u_x^-1, in the
                                 # smallest unsigned type that holds N - 1

    def __len__(self) -> int:
        return len(self.order)

    @cached_property
    def words(self) -> tuple[Word, ...]:
        """Index x -> word u_x with act(u_x, base) = x."""
        letters = [Word.generator(name) for name in self.generators]
        parent, via = self.parent.tolist(), self.via.tolist()
        words = [Word()] * len(self.order)
        for x in self.order[1:].tolist():
            words[x] = letters[via[x]] * words[parent[x]]
        return tuple(words)


def orbit_transversal(pres: WreathPresentation, n: int, ray: Ray,
                      cap: int = DEFAULT_LEVEL_CAP) -> Transversal:
    if ray.degree != pres.degree:
        raise ValueError("ray degree does not match the presentation")
    size = check_level_size(pres.degree, n, cap)
    # The perms table holds N^2 vertex indices of 1, 2 or 4 bytes.  It is the
    # run's one quadratic allocation, so a table past half of physical memory
    # leaves no room for the rest and is refused before anything is built.
    # Physical memory, not free memory, keeps the verdict independent of load.
    dtype = np.min_scalar_type(size - 1)
    planned = dtype.itemsize * size * size
    physical = _physical_memory()
    if 2 * planned > physical:
        raise SizeCapError(f"level {n} needs {planned} bytes for its N x N transversal "
                           f"table, more than half of the {physical} bytes of physical "
                           f"memory", size=size)
    base = ray.prefix(n)
    base_idx = base.index()
    gen_perms = generator_level_perms(pres, n, cap)
    gens = [gen_perms[name] for name in pres.generator_names]

    parent = np.full(size, -1, dtype=np.int64)
    via = np.full(size, -1, dtype=np.int64)
    perms = np.empty((size, size), dtype=dtype)
    perms[base_idx] = np.arange(size)
    order = [base_idx]
    for x in order:  # the sweep appends to order as it goes
        for k, pg in enumerate(gens):
            y = int(pg[x])
            if via[y] < 0 and y != base_idx:
                parent[y] = x
                via[y] = k
                perms[y][pg] = perms[x]  # u_y^-1 = u_x^-1 s^-1
                order.append(y)
    if len(order) != size:
        raise NotTransitiveError(
            f"action on level {n} is not transitive: orbit of {base} has "
            f"{len(order)} of {size} vertices",
            orbit_size=len(order),
        )
    return Transversal(base, pres.generator_names, parent, via,
                       np.array(order, dtype=np.int64), perms)


def _schreier_pairs(pres: WreathPresentation,
                    tv: Transversal) -> Iterator[tuple[str, int, int, np.ndarray]]:
    """Yield (s, x, y, perm) for the Schreier generator u_y^-1 s u_x of every
    (generator s, vertex x) pair, y = s(x), with perm its level permutation.

    Generators come in declared order, vertices in discovery order.  Pairs
    on the breadth-first tree (via[y] is s's index) give the empty word and
    the identity, so they are left out.  With perms[x] = u_x^-1, g maps
    u_x^-1(i) to u_y^-1(s(i)): one scatter per pair.
    """
    gen_perms = generator_level_perms(pres, tv.base.level)
    perms = tv.perms
    for k, name in enumerate(tv.generators):
        pg = gen_perms[name]
        for x in tv.order[tv.via[pg[tv.order]] != k].tolist():
            y = int(pg[x])
            g = np.empty_like(pg)
            g[perms[x]] = perms[y][pg]
            yield name, x, y, g


def schreier_generators(pres: WreathPresentation, n: int, ray: Ray,
                        cap: int = DEFAULT_LEVEL_CAP) -> list[Word]:
    """Words generating the stabilizer of the level-n ray prefix.

    Words reducing to the empty word are dropped; after that the first word
    per distinct permutation wins (generators in declared order, vertices in
    discovery order).
    """
    tv = orbit_transversal(pres, n, ray, cap)
    kept: dict[bytes, Word] = {}
    for name, x, y, perm in _schreier_pairs(pres, tv):
        key = perm.tobytes()
        if key in kept:
            continue
        word = pres.reduce(tv.words[y].inverse() * Word.generator(name) * tv.words[x])
        if len(word) > 0:
            kept[key] = word
    return list(kept.values())


@dataclass(frozen=True, eq=False)
class SuborbitPartition:
    """Orbits of the base-point stabilizer on a level, as one array:
    block_of[x] is the block of level vertex x, numbered canonically, the
    base's own block 0 and the rest by (size, smallest vertex index).  Two
    partitions are equal when their bases and their arrays are."""

    base: Vertex
    block_of: np.ndarray  # int64, one entry per level vertex

    def __eq__(self, other) -> bool:
        return (isinstance(other, SuborbitPartition) and self.base == other.base
                and np.array_equal(self.block_of, other.block_of))

    @property
    def rank(self) -> int:
        return int(self.block_of.max()) + 1

    def blocks_as_vertices(self) -> list[list[str]]:
        blocks: list[list[str]] = [[] for _ in range(self.rank)]
        for i, k in enumerate(self.block_of.tolist()):  # each block in index order
            blocks[k].append(str(Vertex.from_index(self.base.degree, self.base.level, i)))
        return blocks


def _canonical_partition(rep: np.ndarray, base: Vertex) -> SuborbitPartition:
    """Number the forest rep canonically: array passes over the vertices and
    a Python sort of the r roots (rep[x] = x) only."""
    sizes = np.bincount(rep)
    roots = np.flatnonzero(sizes)
    base_root = int(rep[base.index()])
    rest = sorted(zip(sizes[roots].tolist(), roots.tolist()))
    order = [base_root] + [root for _, root in rest if root != base_root]
    number = sizes  # reused: root -> block number
    number[order] = np.arange(len(order))
    return SuborbitPartition(base, number[rep])


def merge_components(rep: np.ndarray, tails: np.ndarray,
                     heads: np.ndarray | None = None) -> np.ndarray:
    """Join heads[e] to tails[e] for every edge e in a root-pointer forest.

    On entry every rep[x] is a root with rep[x] <= x; heads defaults to every
    vertex in order, so a permutation g is folded in as the edges x -- g(x).
    Across each crossing edge the larger root hooks onto the smaller one, then
    every pointer jumps to its root; this repeats until no edge crosses.  On
    return rep[x] is the least member of x's component.  The input array is
    not modified.
    """
    while True:
        a = rep if heads is None else rep[heads]
        b = rep[tails]
        cross = a != b
        if not cross.any():
            return rep
        a, b = a[cross], b[cross]
        rep = rep.copy()
        np.minimum.at(rep, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = rep[rep]
            if np.array_equal(jumped, rep):
                break
            rep = jumped


def _component_partition(perms: Iterable[np.ndarray], size: int,
                         base: Vertex) -> SuborbitPartition:
    """Orbits of the group the permutations generate: the components of the
    graph joining x to g(x).  The enumeration oracle's fold.

    The permutations are folded in one at a time by ``merge_components``,
    each component labelled by its smallest vertex.  A permutation that keeps
    every vertex inside its component, such as a repeat, costs one gather and
    is never stored.
    """
    rep = np.arange(size, dtype=np.int64)
    for g in perms:
        rep = merge_components(rep, g)
    return _canonical_partition(rep, base)


def stabilizer_suborbits(pres: WreathPresentation, n: int, ray: Ray,
                         cap: int = DEFAULT_LEVEL_CAP) -> SuborbitPartition:
    """Orbits on level n of the stabilizer of the ray's level-n prefix."""
    tv = orbit_transversal(pres, n, ray, cap)
    return suborbits_from_transversal(pres, tv)


def suborbits_from_transversal(pres: WreathPresentation, tv: Transversal) -> SuborbitPartition:
    """Orbits of the Schreier generators, checked on label rows: no word and
    no generator permutation is built.

    With perms[x] = u_x^-1 and y = s(x), the generator u_y^-1 s u_x joins
    perms[x][j] to perms[y][s(j)] for every j.  Under the current component
    labels rep it crosses a component exactly where rep[perms[x]] differs
    from rep[perms[y]][s]: label(x, .) against label(s x, s .).  Both sides
    are gathered for a block of x at once, and only the differing label
    pairs, roots already, go to ``merge_components``.

    Two kinds of pair are skipped, because each generator they give lies in
    the group the kept ones generate.  A pair on the breadth-first tree gives
    the identity.  Along an s-cycle x, s x, ..., s^(l-1) x whose length l
    satisfies s^l = 1 on the level, the l generators multiply to
    u_x^-1 s^l u_x = 1, so any one off-tree pair of the cycle is dropped.  A
    shorter cycle of s, such as a fixed point of a non-trivial s, keeps all
    its pairs.
    """
    size = len(tv)
    perms = tv.perms
    gen_perms = generator_level_perms(pres, tv.base.level)
    points = np.arange(size, dtype=np.int64)
    rows = max(1, _BLOCK_ENTRIES // size)
    rep = points
    for k, name in enumerate(tv.generators):
        pg = gen_perms[name]
        keep = tv.via[pg] != k  # off the tree: s(x) was not first reached by s
        cycle = merge_components(points, pg)
        length = np.bincount(cycle, minlength=size)
        # Python ints: an int64 lcm can wrap and make a short cycle look full.
        order = math.lcm(*set(length[length > 0].tolist()))
        full = np.flatnonzero(keep & (length[cycle] == order))
        dropped = np.full(size, -1, dtype=np.int64)
        dropped[cycle[full]] = full  # one pair of each full cycle
        keep[dropped[dropped >= 0]] = False
        xs = np.flatnonzero(keep)
        for start in range(0, len(xs), rows):
            x = xs[start:start + rows]
            left = rep.take(perms.take(x, axis=0))
            right = rep.take(perms.take(pg[x], axis=0)).take(pg, axis=1)
            cross = left != right
            if cross.any():
                rep = merge_components(rep, right[cross], left[cross])
    return _canonical_partition(rep, tv.base)


# ---------------------------------------------------------------------------
# brute-force oracles


def _level_group_elements(pres: WreathPresentation, n: int,
                          cap: int) -> list[np.ndarray]:
    """Every permutation of level n induced by the group, by closure sweep;
    each is kept once, as bytes in the narrowest unsigned type, and viewed."""
    size = pres.degree**n
    dtype = np.min_scalar_type(size - 1)
    gen_perms = generator_level_perms(pres, n)
    gens = [gen_perms[name].astype(dtype) for name in pres.generator_names]
    identity = np.arange(size, dtype=dtype).tobytes()
    elements = dict.fromkeys([identity])  # insertion-ordered set
    queue = deque([identity])
    while queue:
        p = np.frombuffer(queue.popleft(), dtype)
        for g in gens:
            key = g[p].tobytes()
            if key not in elements:
                if len(elements) >= cap:
                    raise SizeCapError(
                        f"group on level {n} exceeds cap {cap} "
                        f"(found {len(elements)} elements so far)",
                        size=len(elements),
                    )
                elements[key] = None
                queue.append(key)
    return [np.frombuffer(key, dtype) for key in elements]


def bfs_group_order(pres: WreathPresentation, n: int,
                    cap: int = DEFAULT_GROUP_CAP) -> int:
    """Order of the finite permutation group induced on level n."""
    return len(_level_group_elements(pres, n, cap))


def oracle_suborbits(pres: WreathPresentation, n: int, ray: Ray,
                     cap: int = DEFAULT_GROUP_CAP) -> SuborbitPartition:
    """Suborbits computed from the full level group; exponential, small n only."""
    if ray.degree != pres.degree:
        raise ValueError("ray degree does not match the presentation")
    base = ray.prefix(n)
    base_idx = base.index()
    size = pres.degree**n
    elements = _level_group_elements(pres, n, cap)
    orbit = {int(p[base_idx]) for p in elements}
    if len(orbit) != size:
        raise NotTransitiveError(
            f"action on level {n} is not transitive: orbit of {base} has "
            f"{len(orbit)} of {size} vertices",
            orbit_size=len(orbit),
        )
    stab = [p for p in elements if int(p[base_idx]) == base_idx]
    return _component_partition(stab, size, base)
