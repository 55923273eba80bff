"""Deterministic floating-point reductions.

Every quadrature, dot product, and residual norm in the package funnels
through :func:`pairwise_sum`.  It is numpy's blocked pairwise summation
(``np.add.reduce``) over the input as a contiguous float64 array, so on
one numpy build the summation order depends only on the element count:
not on thread count, BLAS backend, the input's strides, or its alignment
in memory.  Repeated runs are therefore bit-identical on one build;
another numpy build or CPU may differ in the last bits.  The error grows
as O(eps log n), as for any pairwise summation.
"""

import numpy as np


def pairwise_sum(values) -> float:
    """Sum an array in numpy's fixed pairwise order; input order is C order.

    numpy sums blocks of up to 128 elements through 8 interleaved
    accumulators and combines the blocks pairwise, so the rounding error
    stays within (16 + ceil(log2 n)) * 2^-52 * sum |values|.  An empty
    input sums to 0.0.
    """
    return float(np.add.reduce(np.ascontiguousarray(values, dtype=np.float64).ravel()))
