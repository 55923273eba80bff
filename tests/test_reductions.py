"""The reduction contract: layout-independent, fixed-order, pairwise-accurate sums."""

import math

import numpy as np
import pytest

from parabolab.reductions import pairwise_sum


def _values(n, seed):
    # mixed signs over twelve orders of magnitude, so rounding shows
    rng = np.random.default_rng(seed)
    return rng.normal(size=n) * np.exp(rng.uniform(-14.0, 14.0, n))


@pytest.mark.parametrize("n", [7, 129, 2304, 315648])
def test_sum_does_not_depend_on_layout(n):
    values = _values(n, n)
    strided = np.empty(3 * n)
    strided[1::3] = values
    view = strided[1::3]
    want = pairwise_sum(np.ascontiguousarray(view))
    assert pairwise_sum(view) == want
    # the same values at every 8-byte offset inside a 64-byte line
    buf = np.zeros(n * 8 + 64, dtype=np.uint8)
    for offset in range(0, 64, 8):
        placed = buf[offset:offset + n * 8].view(np.float64)
        placed[:] = values
        assert pairwise_sum(placed) == want, offset
    # a 2-D input sums in C order, like its flattened copy
    if n % 2 == 0:
        assert pairwise_sum(values.reshape(2, -1)) == want
        assert pairwise_sum(values.reshape(-1, 2).T.copy().T) == want


@pytest.mark.parametrize("n", [1, 7, 2304, 315648, 10 ** 6])
def test_error_stays_within_the_pairwise_bound(n):
    values = _values(n, 100 + n)
    exact = math.fsum(values)
    bound = (16 + math.ceil(math.log2(n))) * 2.0 ** -52 * math.fsum(np.abs(values))
    assert abs(pairwise_sum(values) - exact) <= bound


def test_empty_and_zero_dimensional_inputs():
    assert pairwise_sum([]) == 0.0
    assert pairwise_sum(np.empty((0, 3))) == 0.0
    assert pairwise_sum(np.float64(2.5)) == 2.5
    assert pairwise_sum(np.array(-4)) == -4.0
    assert type(pairwise_sum(np.array(-4))) is float
