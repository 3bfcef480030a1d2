"""The table route to the scheme: intersection numbers and pairing counted
straight from the full N x N label table, as a reference for build_scheme."""

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
