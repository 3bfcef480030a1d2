"""The permutation route to the suborbits, as a reference for the label-row
fold in ``orbits.suborbits_from_transversal``: every off-tree Schreier
generator's level permutation is built, none is skipped, and all are folded
through the component routine; the partition reads its labels off the
transversal table, as the fold's does.  Also a stack sweep over letter
pairs, as a reference for ``orbits._letter_orbitals``."""

import numpy as np

from selfsim.orbits import _component_partition, _schreier_pairs
from selfsim.wreath import generator_level_perms


def permutation_route(pres, tv):
    """Suborbit partition from the Schreier generators' permutations."""
    perms = (perm for *_, perm in _schreier_pairs(pres, tv))
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
