"""The permutation route to the suborbits, as a reference for the label-row
fold in ``orbits.suborbits_from_transversal``: every off-tree Schreier
generator's level permutation is built, none is skipped, and all are folded
through the component routine; the partition reads its labels off the
transversal table, as the fold's does."""

from selfsim.orbits import _component_partition, _schreier_pairs


def permutation_route(pres, tv):
    """Suborbit partition from the Schreier generators' permutations."""
    perms = (perm for *_, perm in _schreier_pairs(pres, tv))
    return _component_partition(perms, tv.base, tv.perms)
