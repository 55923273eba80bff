"""Property tests of the diagnostic chain (hypothesis, derandomized in conftest).

The power-sum kernel and the L^p norms built on it against direct sums,
the skip of -u against the two-sign chain it replaces, and the
power-mean inequality that makes the ladder nondecreasing.
"""

import math

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from parabolab.experiments import Diagnosis, diagnose
from parabolab.fields import SPACETIME, TIMESLICE, Field, make_grid
from parabolab.moser import ALPHA_CANDIDATES, exp_moment, interpolation_check, l1_check, trace
from parabolab.norms import ess_sup, log_power_sums, lq_spacetime

# (T, nt) with T <= 1 on the unit square: |Omega_T| <= 1, so a forcing
# bounded by 1 has critical norm <= 1 and normalization leaves u = phi1
GRID = make_grid([(0.0, 1.0), (0.0, 1.0)], [4, 5], 0.75, 3)
SHAPE = GRID.shape_spacetime


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
    f = Field(GRID, values, SPACETIME)
    norms = lq_spacetime(f, ps)
    assert norms == [lq_spacetime(f, [p])[0] for p in ps]
    assert norms == lq_spacetime(Field(GRID, -values, SPACETIME), ps)
    for p, norm in zip(ps, norms):
        with np.errstate(over="ignore"):
            total = float(np.sum(np.abs(values[1:]) ** p))
        if math.isfinite(total):
            direct = (total * GRID.cell_volume * GRID.dt) ** (1.0 / p)
            assert math.isclose(norm, direct, rel_tol=1e-12)


def _two_sign_chain(phi1, phi2, phi0, f, q, beta0=1.0, i_max=12):
    """The chain as it ran before the skip: always on u and on -u, with one
    norm call per exponent of f."""
    grid = f.grid
    weight = grid.cell_volume * grid.dt
    r = (1.0 + beta0) * q / (q - 1.0)
    f_norm_1, f_norm_crit, f_norm_q = (lq_spacetime(f, [p])[0]
                                       for p in (1.0, 1.0 + grid.dim / 2.0, q))
    scale = max(f_norm_crit, 1.0)
    u = phi1.values / scale
    best = None
    moments = dict.fromkeys(ALPHA_CANDIDATES, 0.0)
    for signed in (u, -u):
        tr = trace(signed, beta0, q, i_max)
        if best is None or tr.measured_sup > best[0].measured_sup:
            best = (tr, interpolation_check(signed, r, min(1.0, 0.5 * r), weight))
        for a, m in exp_moment(signed, ALPHA_CANDIDATES, weight).items():
            moments[a] = max(moments[a], m)
    phi_sup = float(np.max(np.abs(phi1.values + phi2.values)))
    return Diagnosis(phi_sup, ess_sup(phi0), ess_sup(phi2), f_norm_crit, f_norm_q, scale,
                     l1_check(u, grid, f_norm_1 / scale), best[0], best[1], moments)


def _chains_agree(phi1, drift, forcing):
    phi1[0] = 0.0
    fields = (Field(GRID, phi1, SPACETIME), Field(GRID, drift, SPACETIME),
              Field(GRID, drift[0], TIMESLICE), Field(GRID, forcing, SPACETIME))
    d = diagnose(*fields, 4.0)
    assert d.scale == 1.0
    assert d == _two_sign_chain(*fields, 4.0)


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
    t = trace(u, beta0, 4.0, i_max=12)
    norms = [rung.norm for rung in t.ladder]
    for a, b in zip(norms, norms[1:]):
        assert b >= a * (1.0 - 1e-12)
    assert norms[-1] <= t.measured_sup * (1.0 + 1e-12)
