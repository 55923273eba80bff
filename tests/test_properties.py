"""Property tests of the solver and the diagnostic chain (hypothesis,
derandomized in conftest).

The symmetry and positivity of the backward-Euler step operator that
conjugate gradients relies on, the superposition of split solves and of
forcings, the power-sum kernel and the L^p norms
built on it against direct sums, the skip of -u against the two-sign
chain it replaces, the power-mean inequality that makes the ladder
nondecreasing, and the interpolation inequality that closes the
iteration.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from parabolab.experiments import Diagnosis, diagnose
from parabolab.fields import Grid, ProblemSpec
from parabolab.moser import ALPHA_CANDIDATES, exp_moment, l1_check, trace
from parabolab.norms import ess_sup, log_power_sums, lq_spacetime
from parabolab.solver import Stencil, solve_ibvp, solve_split

# (T, nt) with T <= 1 on the unit square: |Omega_T| <= 1, so a forcing
# bounded by 1 has critical norm <= 1 and normalization leaves u = phi1
GRID = Grid([(0.0, 1.0), (0.0, 1.0)], [4, 5], 0.75, 3)
SHAPE = GRID.shape_spacetime


@st.composite
def step_systems(draw):
    """(M, dt, u, v, has_cross) with M = L + I/dt on 1-3 axes: a scalar or
    an array a_kk in [0.5, 2], optional cross terms |c| <= 0.3, omega >= 0."""
    nx = draw(st.lists(st.integers(4, 8), min_size=1, max_size=3))
    grid = Grid([(0.0, draw(st.floats(0.5, 2.0))) for _ in nx], nx, 1.0, 2)
    shape = grid.shape_space
    cross = [(k, j, _coefficient(draw, shape, -0.3, 0.3)) for k in range(len(nx))
             for j in range(k + 1, len(nx)) if draw(st.booleans())]
    diag = [_coefficient(draw, shape, 0.5, 2.0) for _ in nx]
    omega = _coefficient(draw, shape, 0.0, 2.0)
    u, v = (draw(_unit_arrays(shape)) for _ in "uv")
    dt = draw(st.floats(1e-3, 1.0))
    return Stencil(grid, diag, cross, omega + 1.0 / dt).apply, dt, u, v, bool(cross)


def _unit_arrays(shape):
    return arrays(np.float64, shape, elements=st.floats(-1.0, 1.0))


def _coefficient(draw, shape, low, high):
    """A scalar or an array of the given shape with entries in [low, high]."""
    return draw(st.one_of(st.floats(low, high),
                          arrays(np.float64, shape, elements=st.floats(low, high))))


@st.composite
def problems(draw):
    """A problem on 1-3 axes of 4-6 cells over 2-5 steps: a scalar or an
    array a_kk in [0.5, 2], optional cross terms |c| <= 0.2 (so the
    smallest eigenvalue of A stays above 0.1 > lambda), omega >= 0, and f
    and phi0 in [-1, 1]."""
    nx = draw(st.lists(st.integers(4, 6), min_size=1, max_size=3))
    g = Grid([(0.0, draw(st.floats(0.5, 2.0))) for _ in nx], nx,
             draw(st.floats(0.1, 1.0)), draw(st.integers(2, 5)))
    shape = g.shape_space
    off = {(k, j): _coefficient(draw, shape, -0.2, 0.2) for k in range(len(nx))
           for j in range(k + 1, len(nx)) if draw(st.booleans())}
    A = {(k, k): _coefficient(draw, shape, 0.5, 2.0) for k in range(len(nx))} | off
    return ProblemSpec(g, A, _coefficient(draw, shape, 0.0, 2.0),
                       draw(_unit_arrays(g.shape_spacetime)), draw(_unit_arrays(shape)), lam=0.05)


# u.Mv against v.Mu relative to |u| |Mv|, the Cauchy-Schwarz bound of
# u.Mv (one entry of Mv can cancel to far below its rounding), with the
# norms taken by hypot, since np.linalg.norm squares entries below 1e-162
# to 0; without cross terms L is positive semidefinite, so u.Mu >= |u|^2/dt
@given(step_systems())
def test_step_operator_is_symmetric_and_positive_without_cross_terms(system):
    apply_op, dt, u, v, has_cross = system
    Mu, Mv = apply_op(u), apply_op(v)
    bound = 1e-12 * math.hypot(*u.flat) * math.hypot(*Mv.flat)
    assert abs(np.sum(u * Mv) - np.sum(v * Mu)) <= bound
    if not has_cross:
        assert np.sum(u * Mu) >= (1.0 - 1e-12) * np.sum(u * u) / dt


def _assert_close(parts, whole):
    assert np.max(np.abs(parts - whole)) <= 1e-8 * (1.0 + np.max(np.abs(whole)))


@given(problems())
def test_split_parts_sum_to_the_full_solution(spec):
    phi1, phi2 = solve_split(spec)
    _assert_close(phi1 + phi2, solve_ibvp(spec).phi)


@given(problems(), st.data())
def test_solutions_superpose_in_the_forcing(spec, data):
    g = spec.grid
    f1, f2 = spec.f, data.draw(_unit_arrays(g.shape_spacetime))
    phi1, phi2, phi12 = (solve_ibvp(replace(spec, f=f, phi0=0.0)).phi for f in (f1, f2, f1 + f2))
    _assert_close(phi1 + phi2, phi12)


@given(arrays(np.float64, st.integers(0, 40), elements=st.floats(-5.0, 5.0)),
       st.lists(st.floats(0.1, 40.0), min_size=1, max_size=4))
def test_power_sums_match_direct_sums_with_zeros_present(x, exponents):
    x = np.concatenate([[0.0, 0.0], x])   # zeros enter as an exact count
    sums = log_power_sums(x[x != 0.0], int(np.sum(x == 0.0)), exponents)
    for p, log_sum in zip(exponents, sums):
        direct = float(np.sum(np.exp(p * x)))
        assert math.isclose(math.exp(log_sum), direct, rel_tol=1e-12)


# signed samples with zeros; |v|^40 passes the largest double from about 5e7 up
@given(arrays(np.float64, SHAPE, elements=st.one_of(
           st.just(0.0), st.floats(1e-3, 1e30), st.floats(-1e30, -1e-3))),
       st.lists(st.floats(1.0, 40.0), min_size=1, max_size=5))
def test_lq_norms_match_single_calls_signs_and_direct_sums(values, ps):
    norms = lq_spacetime(values, GRID, ps)
    assert norms == [lq_spacetime(values, GRID, [p])[0] for p in ps]
    assert norms == lq_spacetime(-values, GRID, ps)
    for p, norm in zip(ps, norms):
        with np.errstate(over="ignore"):
            total = float(np.sum(np.abs(values[1:]) ** p))
        if math.isfinite(total):
            direct = (total * GRID.cell_volume * GRID.dt) ** (1.0 / p)
            assert math.isclose(norm, direct, rel_tol=1e-12)


def _two_sign_chain(spec, phi1, phi2, beta0=1.0, i_max=12):
    """The chain as it ran before the skip: always on u and on -u, with one
    norm call per exponent of f."""
    grid, q = spec.grid, spec.q
    f_norm_1, f_norm_crit, f_norm_q = (lq_spacetime(spec.f, grid, [p])[0]
                                       for p in (1.0, 1.0 + grid.dim / 2.0, q))
    scale = max(f_norm_crit, 1.0)
    u = phi1 / scale
    best = None
    moments = dict.fromkeys(ALPHA_CANDIDATES, 0.0)
    for signed in (u, -u):
        tr = trace(signed, grid, beta0, q, i_max)
        if best is None or tr.measured_sup > best.measured_sup:
            best = tr
        for a, m in exp_moment(signed, grid, ALPHA_CANDIDATES).items():
            moments[a] = max(moments[a], m)
    phi_sup = float(np.max(np.abs(phi1 + phi2)))
    return Diagnosis(phi_sup, ess_sup(spec.phi0), ess_sup(phi2), f_norm_crit, f_norm_q, scale,
                     l1_check(u, grid, f_norm_1 / scale), best, moments)


def _chains_agree(phi1, drift, forcing):
    phi1[0] = 0.0
    spec = ProblemSpec(GRID, {}, 0.0, forcing, drift[0], q=4.0)
    d = diagnose(spec, phi1, drift)
    assert d.scale == 1.0
    assert d == _two_sign_chain(spec, phi1, drift)


SIGNED = arrays(np.float64, SHAPE, elements=st.floats(-1.0, 1.0))


# phi1 is 0 or at least 1e-3 at each sample, as a forced solution with a
# vanishing prefix is: the +u and -u power sums then differ by far more
# than rounding
@given(arrays(np.float64, SHAPE, elements=st.one_of(st.just(0.0), st.floats(1e-3, 3.0))),
       SIGNED, SIGNED)
def test_skipping_minus_u_is_bit_identical_when_u_is_nonnegative(phi1, drift, forcing):
    _chains_agree(phi1, drift, forcing)


# signed phi1, with the subnormal negatives that CG leaves in a
# nonnegative solution far from the bump
@given(arrays(np.float64, SHAPE, elements=st.one_of(
           st.just(0.0), st.just(-3.6e-43), st.floats(1e-3, 3.0), st.floats(-3.0, -1e-3))),
       SIGNED, SIGNED)
@example(np.resize([0.0, 1.5, -1.5, 0.5, -1.0], SHAPE), np.zeros(SHAPE), np.zeros(SHAPE))
def test_running_minus_u_where_it_can_win_is_bit_identical(phi1, drift, forcing):
    # the example ties the measured sups e^1.5, where u keeps its trace
    _chains_agree(phi1, drift, forcing)


@given(arrays(np.float64, SHAPE, elements=st.floats(-4.0, 4.0)), st.floats(0.1, 4.0))
def test_rung_norms_are_nondecreasing_in_p(u, beta0):
    t = trace(u, GRID, beta0, 4.0, i_max=12)
    norms = [rung.norm for rung in t.ladder]
    for a, b in zip(norms, norms[1:]):
        assert b >= a * (1.0 - 1e-12)
    assert norms[-1] <= t.measured_sup * (1.0 + 1e-12)


# the chain's oracle above reads the interpolation triple through trace,
# so the triple is checked here against direct sums of w = max(e^u, 1)
@given(arrays(np.float64, SHAPE, elements=st.one_of(st.just(0.0), st.floats(-4.0, 4.0))),
       st.floats(0.1, 4.0))
def test_interpolation_inequality_holds_and_matches_direct_sums(u, beta0):
    lhs, rhs, passed = trace(u, GRID, beta0, 4.0).interpolation
    assert passed
    r = (1.0 + beta0) * 4.0 / 3.0
    alpha = min(1.0, 0.5 * r)
    w = np.maximum(np.exp(u), 1.0)
    weight = GRID.cell_volume * GRID.dt
    direct_lhs = (float(np.sum(w[1:] ** r)) * weight) ** (1.0 / r)
    direct_rhs = (float(np.max(w)) ** ((r - alpha) / r)
                  * (float(np.sum(w[1:] ** alpha)) * weight) ** (1.0 / r))
    assert math.isclose(lhs, direct_lhs, rel_tol=1e-12)
    assert math.isclose(rhs, direct_rhs, rel_tol=1e-12)
