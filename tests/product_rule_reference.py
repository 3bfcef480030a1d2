"""The per-class product-rule check on B, as a reference for the
associativity check on p in ``spectral.intersection_matrices``: for every
i, the int64 products B[i] B[j] are compared with sum_k p[i][j][k] B[k] for
all j at once, with no BLAS and no dtype choice."""

import numpy as np

from selfsim.errors import IntegrityError


def product_rule_reference(p):
    """Left-regular matrices of p, or IntegrityError at the first failing
    (i, j) in row-major order."""
    p = np.asarray(p)
    B = p.transpose(0, 2, 1).copy()
    for i in range(len(p)):
        # row j compares B[i] B[j] with sum_k p[i][j][k] B[k]
        bad = np.flatnonzero((B[i] @ B != np.tensordot(p[i], B, axes=(1, 0)))
                             .any(axis=(1, 2)))
        if bad.size:
            raise IntegrityError(
                f"left-regular matrices violate the product rule at ({i}, {bad[0]})"
            )
    return B
