"""Space-time norm quadrature, log-space stability, and the Dirichlet energy
of the embedding quotient."""

import math

import numpy as np
import pytest

from parabolab.errors import DomainError
from parabolab.fields import Grid, sample
from parabolab.norms import ess_sup, log_power_sums, lq_spacetime, sup_t_spatial_l1
from parabolab.reductions import pairwise_sum
from parabolab.solver import Stencil


def _ramp_field():
    # f(x, t) = x on (0,1) x (0,1); initial slice excluded by the quadrature
    g = Grid([(0.0, 1.0)], [64], 1.0, 32)
    return g, np.broadcast_to(g.midpoints(0), (33, 64)).copy()


def _averaged(f, g, p):
    """p-th root of the p-th power mean: the norm over |Omega_T|^(1/p)."""
    norm, = lq_spacetime(f, g, [p])
    return norm / g.spacetime_volume ** (1.0 / p)


def test_lq_matches_handwritten_quadrature():
    g, f = _ramp_field()
    # independent right-endpoint midpoint sum, plain loops
    total = 0.0
    for k in range(1, 33):
        for x in g.midpoints(0):
            total += x ** 2 * (1.0 / 64) * (1.0 / 32)
    norm, = lq_spacetime(f, g, [2.0])
    assert math.isclose(norm, math.sqrt(total), rel_tol=1e-14)
    # midpoint quadrature of int x^2 = 1/3 carries an O(h^2) defect
    assert abs(norm - math.sqrt(1.0 / 3.0)) < 1e-4


def test_linear_moment_is_exact():
    g, f = _ramp_field()
    # midpoint rule integrates linear functions exactly
    assert math.isclose(lq_spacetime(f, g, [1.0])[0], 0.5, rel_tol=1e-13)


def test_number_and_spatial_data_read_as_their_space_time_copies():
    # the broadcast view gives the same samples in the same order
    g, f = _ramp_field()
    ps = (1.0, 2.0, 3.5)
    assert lq_spacetime(g.midpoints(0), g, ps) == lq_spacetime(f, g, ps)
    assert lq_spacetime(-2.5, g, ps) == lq_spacetime(np.full(g.shape_spacetime, -2.5), g, ps)
    assert ess_sup(-2.5) == 2.5


def test_constant_field_norms():
    g = Grid([(0.0, 2.0), (0.0, 1.0)], [8, 8], 0.5, 4)
    c = 3.7
    f = np.full(g.shape_spacetime, c)
    vol = 2.0 * 0.5
    ps = (1.0, 2.0, 5.0, 16.0, 64.0)
    norms = lq_spacetime(f, g, ps)
    for p, norm in zip(ps, norms):
        assert math.isclose(norm, c * vol ** (1.0 / p), rel_tol=1e-12)
        assert math.isclose(_averaged(f, g, p), c, rel_tol=1e-12)
    assert lq_spacetime(-f, g, ps) == norms
    assert ess_sup(f) == c


def test_averaged_norms_nondecreasing_in_p():
    rng = np.random.default_rng(7)
    g = Grid([(0.0, 1.0)], [32], 1.0, 16)
    f = rng.uniform(0.0, 2.0, g.shape_spacetime)
    ps = [1.0, 2.0, 4.0, 8.0, 16.0, 40.0, 64.0]
    ns = [_averaged(f, g, p) for p in ps]
    for a, b in zip(ns, ns[1:]):
        assert b >= a * (1.0 - 1e-12)
    assert ns[-1] <= ess_sup(f) * (1.0 + 1e-12)


def test_log_space_path_agrees_with_direct():
    rng = np.random.default_rng(3)
    g = Grid([(0.0, 1.0)], [32], 1.0, 8)
    f = rng.uniform(0.1, 1.5, g.shape_spacetime)
    # every p sums in log space; the direct power sums are still safe here
    vals = np.abs(f[1:])
    ps = (1.0, 2.0, 4.0, 32.0)
    for p, norm in zip(ps, lq_spacetime(f, g, ps)):
        direct = (np.sum(vals ** p) * g.cell_volume * g.dt) ** (1.0 / p)
        assert math.isclose(norm, direct, rel_tol=1e-11)


def test_high_p_closes_on_ess_sup():
    g = Grid([(0.0, 1.0)], [64], 1.0, 16)
    f = sample(lambda x, t: np.sin(math.pi * x), g)
    gap = abs(_averaged(f, g, 64.0) - ess_sup(f)) / ess_sup(f)
    assert gap < 0.05


def test_huge_values_overflow_direct_but_not_log_space():
    g = Grid([(0.0, 1.0)], [8], 1.0, 4)
    f = np.full(g.shape_spacetime, 1e30)
    # (1e30)^16 passes the largest double, but the norm itself is finite
    ps = (1.0, 2.0, 16.0)
    for p, norm in zip(ps, lq_spacetime(f, g, ps)):
        assert math.isclose(norm, 1e30 * g.spacetime_volume ** (1.0 / p), rel_tol=1e-12)
    out = _averaged(f, g, 64.0)
    assert math.isclose(out, 1e30, rel_tol=1e-10)


def test_log_power_sums_stay_finite_where_direct_sums_overflow():
    # exp(800) and exp(-800) leave the doubles; their logs do not
    assert log_power_sums(np.array([-800.0]), 1, [1.0]) == [0.0]   # log(1 + e^-800)
    big, = log_power_sums(np.array([800.0]), 2, [2.0])
    assert math.isclose(big, 1600.0, rel_tol=1e-15)
    assert log_power_sums(np.array([]), 5, [3.0]) == [math.log(5.0)]
    assert log_power_sums(np.array([]), 0, [3.0]) == [-math.inf]


def test_holder_inequality():
    rng = np.random.default_rng(11)
    g = Grid([(0.0, 1.0), (0.0, 1.0)], [8, 8], 1.0, 4)
    for _ in range(20):
        u = rng.normal(size=g.shape_spacetime)
        v = rng.normal(size=g.shape_spacetime)
        p = rng.uniform(1.1, 6.0)
        pc = p / (p - 1.0)
        lhs, = lq_spacetime(u * v, g, [1.0])
        rhs = lq_spacetime(u, g, [p])[0] * lq_spacetime(v, g, [pc])[0]
        assert lhs <= rhs * (1.0 + 1e-12)


def test_zero_field_and_bad_exponent():
    g = Grid([(0.0, 1.0)], [8], 1.0, 4)
    z = np.zeros(g.shape_spacetime)
    assert lq_spacetime(z, g, [3.0, 1.0]) == [0.0, 0.0]
    assert lq_spacetime(0.0, g, [3.0]) == lq_spacetime(np.zeros(8), g, [3.0]) == [0.0]
    assert ess_sup(z) == 0.0
    for ps in ([0.5], [2.0, 0.5], [math.inf]):
        with pytest.raises(DomainError):
            lq_spacetime(z, g, ps)
    # data sampled on another grid is refused, not broadcast
    for other in (np.zeros(5), np.zeros((4, 8)), np.zeros((1, 8))):
        with pytest.raises(DomainError, match="not sampled on the grid"):
            lq_spacetime(other, g, [2.0])


def test_sup_t_spatial_l1_picks_worst_slice():
    g = Grid([(0.0, 2.0)], [10], 1.0, 5)
    vals = np.zeros(g.shape_spacetime)
    for k in range(6):
        vals[k] = (5 - k) * 0.5   # largest mass on the initial slice
    # slice 0 participates: the estimate controls every time level
    assert math.isclose(sup_t_spatial_l1(vals, g.cell_volume), 2.5 * 2.0, rel_tol=1e-14)


def _hand_energy(u, g):
    """Dirichlet gradient energy with explicit loops: interior faces plus
    half-cell wall terms, per axis."""
    total = 0.0
    arr = np.asarray(u)
    for axis in range(g.dim):
        h = g.h[axis]
        moved = np.moveaxis(arr, axis, 0)
        n = moved.shape[0]
        flat = moved.reshape(n, -1)
        for col in range(flat.shape[1]):
            line = flat[:, col]
            for i in range(n - 1):
                total += ((line[i + 1] - line[i]) / h) ** 2
            total += 2.0 * (line[0] / h) ** 2 + 2.0 * (line[-1] / h) ** 2
    return total * g.cell_volume


def test_embedding_quotient_matches_hand_energy():
    rng = np.random.default_rng(5)
    g = Grid([(0.0, 1.0)] * 3, [5, 4, 6], 1.0, 2)
    u = rng.normal(size=g.shape_space)
    energy = pairwise_sum(u * Stencil(g, [1.0] * 3).apply(u)) * g.cell_volume
    assert math.isclose(energy, _hand_energy(u, g), rel_tol=1e-12)
