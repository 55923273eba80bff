"""Deterministic floating-point reductions.

Every quadrature, dot product, and residual norm in the package funnels
through :func:`pairwise_sum`, a fixed-order binary fan-in over adjacent
pairs.  The fold order depends only on the array length, never on thread
count or BLAS backend, so repeated runs produce bit-identical results.
The error growth is the usual O(log n) of pairwise summation.
"""

import numpy as np


def pairwise_sum(values) -> float:
    """Sum an array with a fixed-order pairwise (binary tree) reduction.

    Adjacent elements are folded level by level; an odd trailing element
    is carried to the next level unchanged.  Input order is the flattened
    C order of ``values``.
    """
    a = np.asarray(values, dtype=np.float64).ravel()
    if a.size == 0:
        return 0.0
    while a.size > 1:
        n2 = (a.size // 2) * 2
        folded = a[0:n2:2] + a[1:n2:2]
        if a.size % 2:
            folded = np.concatenate([folded, a[-1:]])
        a = folded
    return float(a[0])
