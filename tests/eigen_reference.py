"""The scalar route to the character table: one eigenvector and one matrix at
a time, as a reference for the batched ``spectral.common_eigensystem``; and
the union-find components that ``orbits.merge_components`` must match."""

import numpy as np

from selfsim.spectral import (EIG_CLUSTER_RTOL, INTEGER_TOL, MAX_SEED_TRIES,
                              RESIDUAL_TOL)


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


def scalar_eigensystem(B, seed, rtol=EIG_CLUSTER_RTOL):
    """P[j, i] = <v_j, B[i] v_j> / <v_j, v_j>, sorted like the library's
    table; None when no seed attempt resolves the eigenspaces."""
    r = B.shape[0]
    valencies = B[:, 0, :].sum(axis=1)
    point_count = int(valencies.sum())
    ones = np.ones(r)
    for attempt in range(MAX_SEED_TRIES):
        rng = np.random.default_rng(seed + attempt)
        coeffs = rng.uniform(1.0, 2.0, size=r)
        evals, evecs = np.linalg.eig(np.tensordot(coeffs, B, axes=(0, 0)))
        atol = rtol * max(1.0, float(np.abs(evals).max()))
        clusters = chained_clusters(evals, atol)
        if len(clusters) != r:
            continue
        P = np.empty((r, r), dtype=complex)
        residual = 0.0
        for row, (col,) in enumerate(clusters):
            v = evecs[:, col]
            nrm = float(np.vdot(v, v).real)
            for i in range(r):
                theta = np.vdot(v, B[i] @ v) / nrm
                P[row, i] = theta
                residual = max(residual, float(np.linalg.norm(B[i] @ v - theta * v)) /
                               max(1.0, float(np.linalg.norm(B[i]))))
        if residual > RESIDUAL_TOL:
            continue
        overlaps = [abs(np.vdot(evecs[:, cols[0]], ones)) /
                    np.linalg.norm(evecs[:, cols[0]]) for cols in clusters]
        trivial = int(np.argmax(overlaps))
        if np.abs(P[trivial] - valencies).max() > INTEGER_TOL * max(1, point_count):
            continue
        m = (point_count / (np.abs(P) ** 2 / valencies).sum(axis=1)).real
        order = [trivial] + sorted(
            (j for j in range(r) if j != trivial),
            key=lambda j: (round(float(m[j]), 9),
                           tuple((round(x.real, 9) + 0.0, round(x.imag, 9) + 0.0)
                                 for x in P[j])),
        )
        return P[order]
    return None
