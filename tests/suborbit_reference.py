"""The permutation route to the suborbits, as a reference for the label-row
fold in ``orbits.suborbits_from_transversal``: every off-tree Schreier
generator's level permutation is built, none is skipped, and all are folded
through the component routine; the partition reads its labels off the
transversal table, as the fold's does.  The reduced Schreier generator
words, spelled from the transversal words (Seress, Permutation Group
Algorithms, section 4.1), which no library route builds.  Also a stack
sweep over letter pairs, as a reference for ``orbits._letter_orbitals``,
a permutation's cycle lengths, walked point by point, and the block
listing one vertex at a time, as a reference for
``SuborbitPartition.blocks_as_vertices``."""

import numpy as np

from selfsim.orbits import _component_partition, orbit_transversal
from selfsim.tree import DEFAULT_LEVEL_CAP, Vertex
from selfsim.wreath import Word, generator_level_perms


def schreier_pairs(pres, tv):
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


def schreier_generators(pres, n, ray, cap=DEFAULT_LEVEL_CAP):
    """Words generating the stabilizer of the level-n ray prefix.

    Words reducing to the empty word are dropped; after that the first word
    per distinct permutation wins (generators in declared order, vertices in
    discovery order).
    """
    tv = orbit_transversal(pres, n, ray, cap)
    kept = {}
    for name, x, y, perm in schreier_pairs(pres, tv):
        key = perm.tobytes()
        if key in kept:
            continue
        word = pres.reduce(tv.words[y].inverse() * Word.generator(name) * tv.words[x])
        if len(word) > 0:
            kept[key] = word
    return list(kept.values())


def permutation_route(pres, tv):
    """Suborbit partition from the Schreier generators' permutations."""
    perms = (perm for *_, perm in schreier_pairs(pres, tv))
    return _component_partition(perms, tv.base, tv.perms)


def letter_orbitals_by_sweep(pres):
    """Entry [a, c]: the least index a' d + c' of the orbit of the letter
    pair (a, c) under the root permutations, by a sweep from each pair not
    yet reached."""
    d = pres.degree
    gens = [pg.tolist() for pg in generator_level_perms(pres, 1).values()]
    orbital = [-1] * (d * d)
    for start in range(d * d):
        if orbital[start] < 0:
            orbital[start] = start
            stack = [start]
            while stack:
                a, c = divmod(stack.pop(), d)
                for g in gens:
                    pair = g[a] * d + g[c]
                    if orbital[pair] < 0:
                        orbital[pair] = start
                        stack.append(pair)
    return np.array(orbital, dtype=np.int64).reshape(d, d)


def cycle_lengths(perm):
    """The lengths of a permutation's cycles, as a set."""
    lengths, seen = set(), set()
    for start in range(len(perm)):
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x, length = int(perm[x]), length + 1
        if length:
            lengths.add(length)
    return lengths


def blocks_by_vertex(parts):
    """Each block's vertices as text, one ``Vertex.from_index`` and one
    ``str`` per vertex, appended in index order."""
    blocks = [[] for _ in range(parts.rank)]
    for i, k in enumerate(parts.block_of.tolist()):
        blocks[k].append(str(Vertex.from_index(parts.base.degree, parts.base.level, i)))
    return blocks
