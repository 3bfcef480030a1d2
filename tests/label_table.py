"""The table route to the scheme: intersection numbers, pairing and path
counts counted straight from the full N x N label table, as a reference for
build_scheme and the partition's path_counts."""

import numpy as np


def table_route(scheme):
    """(p, pairing) read off ``scheme.labels`` by the definitions."""
    labels = scheme.labels
    base_row = labels[scheme.base_index]
    r = scheme.rank
    p = np.empty((r, r, r), dtype=np.int64)
    for k, y in enumerate(scheme.representatives):
        counts = np.bincount(base_row * r + labels[:, y], minlength=r * r)
        p[:, :, k] = counts.reshape(r, r)
    pairing = tuple(int(labels[y, scheme.base_index]) for y in scheme.representatives)
    return p, pairing


def path_counts(labels, x, y, i, j):
    """#{z : label(x, z) = i, label(z, y) = j} for each case, counted off a
    full label table (``scheme.labels``) by the definition."""
    return [int(np.count_nonzero((labels[a] == c) & (labels[:, b] == e)))
            for a, b, c, e in zip(x, y, i, j)]
