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
the others already give are skipped.  Words are spelled out only on demand:
``Transversal.words`` spells the transversal words when first read, and no
route here reads them.

For the paper's groups the suborbits are cones, and ``cone_certificate``
proves it for a given input with checks that build no N x N array: the
root permutations act transitively, the stabilizer of each base letter
restricts onto the whole group (read off section words), and the Schreier
generators of a few breadth-first vertices join each cross block of a level.
It returns G_1's (d, d) letter-orbital class table, which fixes the whole
scheme of the level, or None where a check fails.  What the checks learn
of a presentation is kept, one memo per presentation object, dropped when
the presentation is collected: G_1's letter-orbital and least-in-orbit
tables, read-only, check 2's verdict per letter and check 3's per exact
base word, nothing of size N.  A verdict is read only for the letter or
word it was computed for, so the order of calls never changes an answer.
``cone_suborbits`` is that certificate followed by ``_cone_forest``, and
``stabilizer_suborbits`` is the one place the partition's route is chosen:
it falls back to the fold where the certificate fails, and the fold stays
as the cross-check of the route.  ``decompose`` reads the degrees of a
certified level off the table alone and builds no partition.

The fold, the cone route and the enumeration oracle all end in a forest,
rep[x] the least member of x's block, which ``_canonical_partition`` numbers
into ``SuborbitPartition.block_of``, the one array every later step reads.
The fold, check 3 and the oracle grow theirs with ``merge_components``, a
union-find on edge arrays: it gathers the roots of all edge ends once, then
hooks root onto root in rounds that read only the edges still crossing, and
reads the whole forest once more at the end, to point every vertex at its
root.
Each partition owns its labels, label(x, y) = the block of u_x^-1(y), and
alone reads them, through ``label_row(x)``, one at a time through
``label(x, y)``, or as path counts #{z : label(x, z) = i, label(z, y) = j}
through ``path_counts``: off the rows of u_x^-1 it was made with, or off
the cone route's class table.  No other module knows either layout.  On the
route a path count reads one row and one column of the two digit tables,
O(sqrt N) per case, where a row of labels takes O(N).
"""

from __future__ import annotations

import math
import os
import sys
import weakref
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .errors import IntegrityError, NotTransitiveError, SizeCapError
from .tree import DEFAULT_LEVEL_CAP, Ray, Vertex, check_level_size
from .wreath import Word, WreathPresentation, generator_level_perms, letter_step

DEFAULT_GROUP_CAP = 1 << 20
# Label entries compared per block of the suborbit fold.  Each int64
# temporary of a block takes 64 KiB (one row of N entries once N > 2^13), no
# more than the N x N transversal table from N = 256 on, where that table
# takes 64 KiB of uint8.
_BLOCK_ENTRIES = 1 << 13
# Bytes of one int64 gather in path_counts: a chunk of cases reads this much
# of the digit tables' rows, and as much of their columns, so its
# temporaries stay a few times this whatever the level or the case count.
_PATH_BYTES = 1 << 18


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


def check_memory(subject: str, planned: int, purpose: str, size: int) -> None:
    """Refuse, before it is made, an allocation of planned bytes past half of
    physical memory: it would leave no room for the rest of the run.
    Physical memory, not free memory, keeps the verdict independent of load."""
    physical = _physical_memory()
    if 2 * planned > physical:
        raise SizeCapError(f"{subject} needs {planned} bytes for {purpose}, more than "
                           f"half of the {physical} bytes of physical memory", size=size)


def _check_ray(pres: WreathPresentation, ray: Ray) -> None:
    if ray.degree != pres.degree:
        raise ValueError("ray degree does not match the presentation")


def orbit_transversal(pres: WreathPresentation, n: int, ray: Ray,
                      cap: int = DEFAULT_LEVEL_CAP) -> Transversal:
    _check_ray(pres, ray)
    size = check_level_size(pres.degree, n, cap)
    # The level permutations check the declared involutions, so an invalid
    # input is named before the size of the table is judged.
    gen_perms = generator_level_perms(pres, n, cap)
    # The perms table holds N^2 vertex indices of 1, 2 or 4 bytes, the fold's
    # one quadratic allocation.
    dtype = np.min_scalar_type(size - 1)
    check_memory(f"level {n}", dtype.itemsize * size * size,
                 "its N x N transversal table", size)
    base = ray.prefix(n)
    base_idx = base.index()
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


@dataclass(frozen=True, eq=False)
class SuborbitPartition:
    """Orbits of the base-point stabilizer on a level, as one array:
    block_of[x] is the block of level vertex x, numbered canonically, the
    base's own block 0 and the rest by (size, smallest vertex index).  Two
    partitions are equal when their bases and their arrays are."""

    base: Vertex
    block_of: np.ndarray  # int64, one entry per level vertex
    # The label source, one of the two.  Where the fold or the oracle made
    # the blocks, rows[x] is the level permutation of u_x^-1 for a u_x that
    # carries the base to x, shape (N, N).  Where the cone route certified
    # them, cones[k][a, c] (letters 0-based, a != c) is the class of the
    # pairs that share k letters and go on with a and c, shape (n, d, d).
    rows: np.ndarray | None = None
    cones: np.ndarray | None = None

    def __eq__(self, other) -> bool:
        return (isinstance(other, SuborbitPartition) and self.base == other.base
                and np.array_equal(self.block_of, other.block_of))

    @property
    def rank(self) -> int:
        return int(self.block_of.max()) + 1

    def label_row(self, x: int) -> np.ndarray:
        """label(x, y), the block of u_x^-1(y), for every y, as a fresh int64
        array; a partition made with neither label source refuses.

        From cones: the class of (x, y) is fixed by the number k of letters x
        and y share and the G_1-orbit of (x_{k+1}, y_{k+1}).  That G-invariant
        partition of pairs is coarser than the orbitals and meets the base
        row in the suborbits, so the class is cones[k][x_{k+1}, y_{k+1}].  A
        row broadcasts the labels of x's first h letters, then overwrites the
        y that share them: O(N) per row.
        """
        if self.cones is None:
            return self.block_of[self._rows()[x]]
        high, low = self._digit_tables
        top, rest = divmod(x, len(low))
        row = np.empty((len(high), len(low)), dtype=np.int64)
        row[:] = high[top][:, None]
        row[top] = low[rest]
        return row.reshape(-1)

    def label(self, x: int, y: int) -> int:
        """label(x, y) alone, equal to ``label_row(x)[y]``, one entry of the
        tables ``label_row`` copies from: the low one where x and y share
        their first h letters, else the high one.  From rows: one entry."""
        if self.cones is None:
            return int(self.block_of[self._rows()[x, y]])
        high, low = self._digit_tables
        (top, rest), (top_y, rest_y) = divmod(x, len(low)), divmod(y, len(low))
        return low.item(rest, rest_y) if top == top_y else high.item(top, top_y)

    def path_counts(self, x: np.ndarray, y: np.ndarray, i: np.ndarray,
                    j: np.ndarray) -> np.ndarray:
        """#{z : label(x, z) = i, label(z, y) = j} for each case of the four
        equal-length arrays, counted from the label layout case by case.

        From cones: split x = (a, s), y = (b, t) and z = (c, u) at h letters.
        label(x, z) is low[s, u] where c = a, else high[a, c], and label(z, y)
        is low[u, t] where c = b, else high[c, b], so each case reads one row
        and one column of each digit table, O(sqrt N), _PATH_BYTES of
        gathered entries at a time.  From rows: one row and one column of the
        transversal table, O(N) per case."""
        x, y, i, j = (np.asarray(v, dtype=np.int64) for v in (x, y, i, j))
        if self.cones is None:
            rows, block_of = self._rows(), self.block_of
            return np.array([np.count_nonzero((block_of[rows[a]] == c)
                                              & (block_of[rows[:, b]] == e))
                             for a, b, c, e in zip(x, y, i, j)], dtype=np.int64)
        high, low = self._digit_tables
        counts = np.empty(len(x), dtype=np.int64)
        step = max(1, _PATH_BYTES // (8 * len(low)))  # len(low) >= len(high)
        for k in range(0, len(x), step):
            part = slice(k, k + step)
            counts[part] = _cone_path_counts(high, low, x[part], y[part], i[part], j[part])
        return counts

    def _rows(self) -> np.ndarray:
        if self.rows is None:
            raise IntegrityError("the partition has no label source: neither rows nor cones")
        return self.rows

    @cached_property
    def _digit_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The labels of all pairs of h-letter and of (n - h)-letter words,
        h = n // 2: at most d N entries, against N^2 for one table of n
        letters, and a row costs two copies, not a walk down the levels."""
        h, d, tables = self.base.level // 2, self.base.degree, list(self.cones)
        return _pair_table(tables[:h], d), _pair_table(tables[h:], d)

    def blocks_as_vertices(self) -> list[list[str]]:
        """Each block's vertices as ``str(Vertex)`` writes them, in index
        order.  A vertex's text is that of its first h = n // 2 letters
        joined to that of the rest, each half spelled from the letters'
        texts and whatever ``Vertex`` puts between two letters.  One stable
        argsort of block_of puts the vertices in block order; the halves are
        gathered and joined in that order and cut at the block sizes.  The N
        texts and five 8-byte slots each (the two index halves and three
        pointer arrays) are refused past half of physical memory before any
        is made."""
        d, n, size = self.base.degree, self.base.level, len(self.block_of)
        h, between = n // 2, str(Vertex((1, 1), d))[1:-1]
        letters = [str(Vertex((c,), d)) for c in range(1, d + 1)]
        high = [between.join(w) + between for w in product(letters, repeat=h)] if h else [""]
        low = [between.join(w) for w in product(letters, repeat=n - h)] if n else [str(self.base)]
        text_bytes = sys.getsizeof("") + len(high[-1]) + len(low[-1])  # the last is the longest
        check_memory(f"level {n}", size * (text_bytes + 5 * 8), "its block listing", size)
        first, rest = np.divmod(np.argsort(self.block_of, kind="stable"), len(low))
        listing = (np.array(high, dtype=object)[first] + np.array(low, dtype=object)[rest]).tolist()
        ends = np.cumsum(np.bincount(self.block_of)).tolist()
        return [listing[start:end] for start, end in zip([0, *ends], ends)]


def _cone_path_counts(high: np.ndarray, low: np.ndarray, x: np.ndarray, y: np.ndarray,
                      i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``SuborbitPartition.path_counts`` off the two digit tables, for one
    chunk of cases.  The L = len(low) vertices z = (c, u) of a top block c
    apart from a and b all count alike, so that part is L times a count over
    c; the blocks c = a and c = b add one count over u each, or one joint
    count where a = b."""
    (a, s), (b, t) = np.divmod(x, len(low)), np.divmod(y, len(low))
    cases = np.arange(len(x))
    apart = high[a] == i[:, None]
    apart &= high[:, b].T == j[:, None]
    apart[cases, a] = apart[cases, b] = False
    from_x = low[s] == i[:, None]
    into_y = low[:, t].T == j[:, None]
    across = high[a, b]
    ends = np.where(a == b, np.count_nonzero(from_x & into_y, axis=1),
                    (across == j) * np.count_nonzero(from_x, axis=1)
                    + (across == i) * np.count_nonzero(into_y, axis=1))
    return len(low) * np.count_nonzero(apart, axis=1) + ends


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


def _canonical_partition(rep: np.ndarray, base: Vertex, rows: np.ndarray | None = None,
                         cones: np.ndarray | None = None) -> SuborbitPartition:
    """Number the forest rep canonically: array passes over the vertices and
    a Python sort of the r roots (rep[x] = x) only.  The off-diagonal
    entries of cones are roots as well, and become block numbers alike."""
    sizes = np.bincount(rep)
    roots = np.flatnonzero(sizes)
    base_root = int(rep[base.index()])
    rest = sorted(zip(sizes[roots].tolist(), roots.tolist()))
    order = [base_root] + [root for _, root in rest if root != base_root]
    number = sizes  # reused: root -> block number
    number[order] = np.arange(len(order))
    classes = None if cones is None else number[cones]
    return SuborbitPartition(base, number[rep], rows, classes)


def merge_components(rep: np.ndarray, tails: np.ndarray,
                     heads: np.ndarray | None = None) -> np.ndarray:
    """Join heads[e] to tails[e] for every edge e in a root-pointer forest.

    On entry every rep[x] is a root with rep[x] <= x; heads defaults to every
    vertex in order, so a permutation g is folded in as the edges x -- g(x).
    The roots of all edge ends are gathered once, and only the edges whose
    two roots differ, the crossing ones, are kept.  Each round then reads
    those edges alone: the larger root of every one hooks onto the smaller,
    the hooked roots jump among themselves until each points to a root,
    which gives the kept ends their new roots, and the edges whose two ends
    now share a root are dropped.  Where more than N/8 ends were hooked they
    are listed once each, through an N-entry mark, so that no array of a
    round outgrows the forest.  The whole forest is read once more, at the
    end, where every pointer jumps to its root.  rep is copied once, and on
    return rep[x] is the least member of x's component.  The input array
    is not modified; where no edge crosses, it is returned.
    """
    a = rep if heads is None else rep[heads]
    b = rep[tails]
    cross = a != b
    if not cross.any():
        return rep
    a, b = a[cross], b[cross]
    rep = rep.copy()
    while len(a):
        hooked = np.maximum(a, b)
        np.minimum.at(rep, hooked, np.minimum(a, b))
        if len(hooked) > len(rep) >> 3:
            mark = np.zeros(len(rep), dtype=bool)
            mark[hooked] = True
            hooked = np.flatnonzero(mark)
        up = rep[hooked]  # each a hooked root or a root
        while True:
            jumped = rep[up]
            if np.array_equal(jumped, up):
                break
            rep[hooked] = up = jumped
        a, b = rep[a], rep[b]
        cross = a != b
        a, b = a[cross], b[cross]
    while True:
        jumped = rep[rep]
        if np.array_equal(jumped, rep):
            return rep
        rep = jumped


def permutation_cycles(perm: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Each point's cycle under a permutation, named by its least point; the
    length of the cycle of each name, 0 at other points; and the order."""
    cycle = merge_components(np.arange(len(perm), dtype=np.int64), perm)
    length = np.bincount(cycle, minlength=len(perm))
    # Python ints: an int64 lcm can wrap and make a short cycle look full.
    return cycle, length, math.lcm(*set(length[length > 0].tolist()))


def _component_partition(perms: Iterable[np.ndarray], base: Vertex,
                         rows: np.ndarray) -> SuborbitPartition:
    """Orbits of the group the permutations generate: the components of the
    graph joining x to g(x), with rows as the label rows.  The enumeration
    oracle's fold.

    The permutations are folded in one at a time by ``merge_components``,
    each component labelled by its smallest vertex.  A permutation that keeps
    every vertex inside its component, such as a repeat, costs one gather and
    is never stored.
    """
    rep = np.arange(len(rows), dtype=np.int64)
    for g in perms:
        rep = merge_components(rep, g)
    return _canonical_partition(rep, base, rows)


def stabilizer_suborbits(pres: WreathPresentation, n: int, ray: Ray,
                         cap: int = DEFAULT_LEVEL_CAP) -> SuborbitPartition:
    """Orbits on level n of the stabilizer of the ray's level-n prefix: the
    cone route's where its certificate holds, else the fold's.  The one
    place the route is chosen."""
    parts = cone_suborbits(pres, n, ray, cap)
    if parts is None:
        parts = suborbits_from_transversal(pres, orbit_transversal(pres, n, ray, cap))
    return parts


def suborbits_from_transversal(pres: WreathPresentation, tv: Transversal) -> SuborbitPartition:
    """Orbits of the Schreier generators, checked on label rows: no word and
    no generator permutation is built.  The partition keeps ``tv.perms`` as
    its label rows, after checking that they can serve: u_base = 1, and
    u_x carries the base to x.

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
    base_idx = tv.base.index()
    broken = []
    if not np.array_equal(perms[base_idx], np.arange(size)):
        broken.append("u_base is not the identity, so the base label row is not the suborbits")
    if not np.all(np.diagonal(perms) == base_idx):
        broken.append("some u_x does not carry the base to x, so a diagonal pair is not in class 0")
    if broken:
        raise IntegrityError("transversal checks failed:\n" + "\n".join(broken))
    gen_perms = generator_level_perms(pres, tv.base.level)
    rows = max(1, _BLOCK_ENTRIES // size)
    rep = np.arange(size, dtype=np.int64)
    for k, name in enumerate(tv.generators):
        pg = gen_perms[name]
        keep = tv.via[pg] != k  # off the tree: s(x) was not first reached by s
        cycle, length, order = permutation_cycles(pg)
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
    return _canonical_partition(rep, tv.base, perms)


# ---------------------------------------------------------------------------
# the cone route

# Breadth-first vertices of a level after which the cone route folds the
# Schreier generators gathered so far and checks the cross blocks; past the
# last it gives up.  The catalog groups need 4 (binary) or 5 (ternary); of
# the checks that pass on the property tests' drawn presentations, about one
# in eleven needs 6 to 17.
_CONE_CHECKS = (5, 10, 20)
# Label entries gathered before a fold on a large level, whatever the count.
_CONE_ENTRIES = 1 << 21


def _letter_orbitals(pres: WreathPresentation) -> np.ndarray:
    """The orbits on pairs of letters of G_1, the group the root permutations
    generate: entry [a, c] (letters 0-based) is the least index a' d + c' of
    the orbit of (a, c).  Row b numbers the orbits of the stabilizer of b.
    Each generator g gives the edges of the pair permutation
    a d + c -> g(a) d + g(c), and all of them are folded in one call."""
    d = pres.degree
    images = [np.add.outer(g * d, g).reshape(-1) for g in generator_level_perms(pres, 1).values()]
    pairs = np.arange(d * d, dtype=np.int64)
    orbital = merge_components(pairs, np.concatenate(images), np.tile(pairs, len(images)))
    return orbital.reshape(d, d)


def _least_in_orbit(orbital: np.ndarray) -> np.ndarray:
    """Entry [b, c]: the least letter of c's orbit under the stabilizer of b."""
    return np.argmax(orbital[:, :, None] == orbital[:, None, :], axis=2)


def _self_replicating(pres: WreathPresentation, letter: int) -> bool:
    """A sufficient test that restriction to the subtree below a letter
    (0-based) maps the letter's stabilizer in G onto G.

    The level-1 Schreier generators u_{s(x)}^-1 s u_x generate that
    stabilizer, and restriction is a homomorphism on it, so their sections
    at the letter generate its image.  A section in which exactly one
    occurrence is of a generator not yet known to lie in the image puts
    that generator there; the image is G once every generator is in it.
    Counting by name instead would take x b x for x.
    """
    perms = generator_level_perms(pres, 1)
    names = pres.generator_names
    order = [letter]
    words = {letter: ()}  # x -> the letters of u_x, as in Transversal.words
    back = {letter: ()}  # x -> the letters of u_x^-1
    for x in order:  # the sweep appends to order as it goes
        for name in names:
            y = int(perms[name][x])
            if y not in words:
                words[y] = ((name, 1),) + words[x]
                back[y] = back[x] + ((name, -1),)
                order.append(y)
    # the names in each section of u_{s(x)}^-1 s u_x, one per occurrence
    sections = [[nm for nm, _ in letter_step(
                    pres, back[int(perms[s][x])] + ((s, 1),) + words[x], letter + 1)[1]]
                for x in order for s in names]
    reached: set[str] = set()
    while True:
        fresh = {unknown[0] for section in sections
                 if len(unknown := [nm for nm in section if nm not in reached]) == 1}
        if not fresh:
            return len(reached) == len(names)
        reached |= fresh


def _cross_blocks_whole(pres: WreathPresentation, base: Vertex,
                        least: np.ndarray, cap: int) -> bool:
    """Whether Schreier generators of the first breadth-first vertices of the
    base's level join every cross block {y : y_1 in O}, O an orbit other than
    {v_1} of the stabilizer of the base's first letter v_1, into one component.

    Rows of u_x^-1 are made by scatter, as in ``orbit_transversal``, for the
    vertices reached only.  The generator u_y^-1 s u_x of an off-tree pair
    joins u_x^-1(j) to u_y^-1(s(j)) for every j.  The components only grow
    and stay inside the stabilizer's orbits, so a cross block that is one
    component is one suborbit.  least is ``_least_in_orbit``'s table.
    """
    m, d = base.level, base.degree
    size = d**m
    span = size // d
    top = base.letters[0] - 1
    firsts = least[top] * span  # least vertex of each cross block
    cross = np.arange(d) != top
    gens = list(generator_level_perms(pres, m, cap).values())
    base_idx = base.index()
    rows = {base_idx: np.arange(size, dtype=np.min_scalar_type(size - 1))}
    order = [base_idx]
    rep = np.arange(size, dtype=np.int64)
    heads, tails = [], []
    for count, x in enumerate(order, start=1):  # the sweep appends to order
        for pg in gens:
            y = int(pg[x])
            if y not in rows:  # a tree pair gives the identity
                rows[y] = np.empty_like(rows[x])
                rows[y][pg] = rows[x]  # u_y^-1 = u_x^-1 s^-1
                order.append(y)
                continue
            heads.append(rows[x])
            tails.append(rows[y][pg])
        last = count == len(order) or count == _CONE_CHECKS[-1]
        if count in _CONE_CHECKS or last or len(heads) * size >= _CONE_ENTRIES:
            if heads:
                rep = merge_components(rep, np.concatenate(tails), np.concatenate(heads))
                heads, tails = [], []
            if (rep.reshape(d, span)[cross] == firsts[cross, None]).all():
                return True
            if last:
                break
    return False


def _cone_forest(base: Vertex, orbital: np.ndarray,
                 least: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rep[y] = the least vertex of y's cone block, and the least vertex of
    each class of ``SuborbitPartition.cones``, from one walk down the base.

    The blocks are fixed by the number k of letters y shares with the base
    and by the orbit of y_{k+1} under the stabilizer of v_{k+1}.  G_1 is
    transitive, so every orbit of letter pairs meets the row of v_{k+1}.
    Each cone is filled, then the cone of the base's next letter
    overwritten: O(N) writes.
    """
    n, d = base.level, base.degree
    rep = np.empty(d**n, dtype=np.int64)
    cones = np.empty((n, d, d), dtype=np.int64)
    start = 0  # first vertex of the cone of the base's first k letters
    for k, letter in enumerate(base.letters):
        span = d ** (n - k - 1)
        meet = np.empty(d * d, dtype=np.int64)  # orbit of pairs -> least c with (v_{k+1}, c) in it
        meet[orbital[letter - 1]] = least[letter - 1]
        cones[k] = start + meet[orbital] * span
        rep[start:start + d * span].reshape(d, span)[:] = cones[k, letter - 1, :, None]
        start += (letter - 1) * span
    return rep, cones


class _ConeFacts:
    """The cone route's facts about one presentation that do not depend on
    the level: G_1's letter-orbital table (``_letter_orbitals``) and its
    ``_least_in_orbit`` table, both read-only, check 2's verdict per letter
    (1-based) and check 3's per exact base word.  d x d tables and booleans
    only, and no reference back to the presentation, so the memo dies with
    it.  A plain class: a dataclass would cost its module's import a third
    of a millisecond."""

    def __init__(self, orbital: np.ndarray, least: np.ndarray):
        self.orbital = orbital
        self.least = least
        self.replicating: dict[int, bool] = {}
        self.whole: dict[tuple[int, ...], bool] = {}


# id(presentation) -> its facts.  Keyed by identity, not by the value
# equality of WreathPresentation, so two equal presentations never share a
# memo; each entry is dropped when its presentation is collected.
_FACTS: dict[int, _ConeFacts] = {}


def _cone_facts(pres: WreathPresentation) -> _ConeFacts:
    """The memo of pres, made on first use with G_1's two letter tables."""
    key = id(pres)
    facts = _FACTS.get(key)
    if facts is None:
        orbital = _letter_orbitals(pres)
        least = _least_in_orbit(orbital)
        orbital.flags.writeable = least.flags.writeable = False
        facts = _FACTS[key] = _ConeFacts(orbital, least)
        weakref.finalize(pres, _FACTS.pop, key)
    return facts


def cone_certificate(pres: WreathPresentation, n: int, ray: Ray,
                     cap: int = DEFAULT_LEVEL_CAP) -> np.ndarray | None:
    """G_1's letter-orbital class table (``_letter_orbitals``, read-only)
    where the suborbits of level n are the cones, or None where the
    certificate fails.

    With v = v_1...v_n the base and H its stabilizer, g in H keeps the k
    letters y shares with v and sends y_{k+1} into its orbit under the
    stabilizer of v_{k+1} in G_1, the group of the root permutations (the
    section of g there fixes v_{k+1}).  So the suborbits refine the cone
    blocks of ``_cone_forest``.  They equal them when (Bartholdi-Grigorchuk,
    parabolic subgroups of fractal groups):

    1. G_1 is transitive on the letters;
    2. restriction maps the stabilizer of each of v_1...v_{n-1} onto G
       (``_self_replicating``), so the suborbits inside the cone of v_1 are
       v_1 times those of level n-1 seen from v_2...v_n;
    3. on each level m >= 2, seen from w = v_{n-m+1}...v_n, every cross
       block outside the cone of w_1 is one suborbit (``_cross_blocks_whole``).

    An element of G fixing w fixes w's prefixes, and a cross block's image
    on the level above is the cross block of the same orbit there; so check
    3 is passed wherever it passed for a longer base that starts with w, and
    a ray of period p needs it p times at most.  Checks 1 and 2 do not
    depend on the level and come before any level-n array; level 0 is left
    to the fold.  Nothing here is quadratic in N.

    The ray and the level's size are checked against the cap first, on
    every call.  The checks then read the presentation's memo
    (``_cone_facts``): the letter tables, check 2's verdict per letter and
    check 3's per exact word w, each computed on the first call that needs
    it.  Check 3 is a bounded search, so across calls its verdict on w is
    never read as one on a prefix or an extension of w: the longer-base
    rule above skips a word within one call only, as it did without the
    memo.  So an answer never depends on earlier calls.

    The table fixes the whole scheme of a certified level: its classes are
    the pairs (letters shared, orbital of the next two letters), the n-fold
    wreath power of G_1's orbital scheme.
    """
    _check_ray(pres, ray)
    check_level_size(pres.degree, n, cap)
    if n == 0:
        return None
    facts = _cone_facts(pres)
    if facts.orbital.diagonal().any():  # (a, a) and (0, 0) lie in one orbit iff G_1 is transitive
        return None
    base = ray.prefix(n)
    replicating, whole = facts.replicating, facts.whole
    for letter in sorted(set(base.letters[:-1])):
        if letter not in replicating:
            replicating[letter] = _self_replicating(pres, letter - 1)
        if not replicating[letter]:
            return None
    checked: list[tuple[int, ...]] = []
    for k in range(n - 1):
        w = base.letters[k:]
        if any(longer[:len(w)] == w for longer in checked):
            continue
        if w not in whole:
            whole[w] = _cross_blocks_whole(pres, Vertex(w, base.degree), facts.least, cap)
        if not whole[w]:
            return None
        checked.append(w)
    return facts.orbital


def cone_suborbits(pres: WreathPresentation, n: int, ray: Ray,
                   cap: int = DEFAULT_LEVEL_CAP) -> SuborbitPartition | None:
    """The suborbits of level n as cones, or None where ``cone_certificate``
    fails."""
    orbital = cone_certificate(pres, n, ray, cap)
    if orbital is None:
        return None
    base = ray.prefix(n)
    rep, cones = _cone_forest(base, orbital, _cone_facts(pres).least)
    return _canonical_partition(rep, base, cones=cones)


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
    _check_ray(pres, ray)
    base = ray.prefix(n)
    base_idx = base.index()
    size = pres.degree**n
    elements = _level_group_elements(pres, n, cap)
    carriers: dict[int, np.ndarray] = {}  # x -> u_x, the first element carrying the base to x
    for p in elements:
        carriers.setdefault(int(p[base_idx]), p)
    if len(carriers) != size:
        raise NotTransitiveError(
            f"action on level {n} is not transitive: orbit of {base} has "
            f"{len(carriers)} of {size} vertices",
            orbit_size=len(carriers),
        )
    rows = np.argsort([carriers[x] for x in range(size)], axis=1)  # u_x^-1
    stab = [p for p in elements if int(p[base_idx]) == base_idx]
    return _component_partition(stab, base, rows)
