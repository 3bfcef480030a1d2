"""References for the spectral layer: the exact products that name the pair
``spectral.spectral_data`` refuses, the chained clusters of the dense
oracle's eigenvalues, the union-find components that
``orbits.merge_components`` must match, the integer characteristic
polynomial that the modular one must reduce from, and the sieved primes
that the certificate's primality test must match."""

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


def characteristic_polynomial(M):
    """det(x I - M) as integer coefficients, constant first, by
    Faddeev-LeVerrier: N_k = M N_(k-1) + c_(d-k+1) I and c_(d-k) =
    -tr(M N_k) / k, a division that is exact for an integer M."""
    d = len(M)
    coeffs = [0] * d + [1]
    N = [[0] * d for _ in range(d)]
    for k in range(1, d + 1):
        N = [[sum(M[a][b] * N[b][c] for b in range(d)) + (coeffs[d - k + 1] if a == c else 0)
              for c in range(d)] for a in range(d)]
        trace = sum(M[a][b] * N[b][a] for a in range(d) for b in range(d))
        coeffs[d - k], rest = divmod(-trace, k)
        assert rest == 0, k
    return coeffs


def sieved_primes():
    """The primes below 2^30 and above 2^15, largest first: trial division
    by every prime below 2^15 decides each candidate."""
    sieve = np.ones(2**15, dtype=bool)
    sieve[:2] = False
    for k in range(2, 182):  # 182^2 > 2^15
        if sieve[k]:
            sieve[k * k::k] = False
    small = np.flatnonzero(sieve)
    for n in range(2**30 - 1, 2**15, -2):
        if (n % small).all():
            yield n
