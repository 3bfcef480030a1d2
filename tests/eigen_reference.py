"""References for the spectral layer: the exact products that name the pair
``spectral.spectral_data`` refuses, the chained clusters of the dense
oracle's eigenvalues, and the union-find components that
``orbits.merge_components`` must match."""

import numpy as np


def least_members(size, edges):
    """Union-find over the (a, b) edges: for each vertex the least vertex of
    its component."""
    parent = list(range(size))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    least = {}
    for a in range(size):
        least.setdefault(find(a), a)
    return [least[find(a)] for a in range(size)]


def chained_clusters(values, atol):
    """Components of the graph joining every pair of indices whose values lie
    within atol, ordered by least index, members ascending."""
    k = len(values)
    close = [(a, b) for a in range(k) for b in range(a + 1, k)
             if abs(values[a] - values[b]) <= atol]
    groups = {}
    for a, c in enumerate(least_members(k, close)):
        groups.setdefault(c, []).append(a)
    return list(groups.values())


def first_non_commuting_pair(B):
    """The first (i, j), i < j in row-major order, with B[i] B[j] != B[j] B[i]
    as exact products; None when the family commutes."""
    for i in range(B.shape[0] - 1):
        rest = B[i + 1:]
        bad = np.flatnonzero((B[i] @ rest != rest @ B[i]).any(axis=(1, 2)))
        if bad.size:
            return i, i + 1 + int(bad[0])
    return None
