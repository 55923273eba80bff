"""Iteration machinery: normalization, exponential change, ladder, bound.

The chain reads w = max(e^u, 1) through u, so a constant w = c is the
constant u = log c.
"""

import math

import numpy as np
import pytest

from parabolab.errors import (ConsistencyError, DomainError, RangeError)
from parabolab.fields import (SPACETIME, TIMESLICE, Field, MatrixCoefficient,
                              ProblemSpec, make_grid, sample)
from parabolab.experiments import diagnose
from parabolab.moser import (ALPHA_CANDIDATES, assemble_bound, chi, choose_alpha,
                             exp_moment, exponents, interpolation_check, l1_check, ladder,
                             trace, trace_to_csv)
from parabolab.norms import ess_sup, lq_spacetime
from parabolab.solver import solve_split


def _const(g, c, kind=SPACETIME):
    shape = g.shape_spacetime if kind == SPACETIME else g.shape_space
    return Field(g, np.full(shape, float(c)), kind)


def _grid():
    return make_grid([(0.0, 1.0), (0.0, 1.0)], [8, 8], 0.5, 6)


def _log_const(g, c):
    """u = log c on every space-time sample, so that w = max(e^u, 1) = c for c >= 1."""
    return np.full(g.shape_spacetime, math.log(c))


def _weight(g):
    return g.cell_volume * g.dt


def test_normalize_uses_critical_norm_floored_at_one():
    g = _grid()
    phi = _const(g, 3.0)
    zeros = (Field.zeros(g, SPACETIME), Field.zeros(g, TIMESLICE))

    def diagnosis(f):
        return diagnose(phi, *zeros, f, 4.0)

    # constant forcing c has |f|_2 = c sqrt(|O_T|) = c / sqrt(2) here
    big = _const(g, 10.0)
    d = diagnosis(big)
    assert math.isclose(d.scale, lq_spacetime(big, [2.0])[0], rel_tol=1e-13)
    assert d.f_norm_crit == d.scale
    # u = phi/scale: its measured sup is e^(3/scale), and |Omega| = 1;
    # the L^1 check's right side is |f|_1/scale = 10 |O_T| / scale
    assert d.trace.measured_sup == math.exp(3.0 / d.scale)
    assert math.isclose(d.l1[0], 3.0 / d.scale, rel_tol=1e-13)
    assert math.isclose(d.l1[1], 10.0 * 0.5 / d.scale, rel_tol=1e-13)
    small = _const(g, 0.1)
    d = diagnosis(small)
    assert d.scale == 1.0
    assert d.trace.measured_sup == math.exp(3.0)
    other = make_grid([(0.0, 1.0), (0.0, 1.0)], [8, 8], 0.5, 5)
    with pytest.raises(DomainError, match="share one grid"):
        diagnosis(_const(other, 10.0))


def _w_values(u):
    """What the chain reads of w = max(e^u, 1): its rung norms and its sup."""
    t = trace(u, 1.0, 4.0, i_max=6)
    return [r.norm for r in t.ladder] + [t.measured_sup]


def test_exp_change_constants_and_overflow():
    g = _grid()
    assert all(x == 1.0 for x in _w_values(_const(g, 0.0).values))
    assert np.allclose(_w_values(_log_const(g, 2.0)), 2.0)
    # v = e^u is the moment integrand at rate 1, alpha = 1/2 when N = 2
    v = exp_moment(_const(g, -5.0).values, [0.5], _weight(g))[0.5] / g.spacetime_volume
    assert np.allclose(v, math.exp(-5.0))
    assert all(x == 1.0 for x in _w_values(_const(g, -5.0).values))   # w clips below 1
    # e^701 is a double; e^710 is not, and reads inf
    assert _w_values(_const(g, 701.0).values)[-1] == math.exp(701.0)
    assert _w_values(_const(g, 710.0).values)[-1] == math.inf


def test_exp_moment_of_constants():
    g = _grid()   # space-time measure 0.5
    w = _weight(g)
    assert math.isclose(exp_moment(_const(g, 0.0).values, [1.0], w)[1.0], 0.5, rel_tol=1e-13)
    expected = math.exp(1.0 * (1.0 + 2.0 / 2.0) * 0.3) * 0.5
    assert math.isclose(exp_moment(_const(g, 0.3).values, [1.0], w)[1.0], expected,
                        rel_tol=1e-13)
    # exp(1200) * 0.5 overflows a double: the moment reads inf
    assert exp_moment(_const(g, 300.0).values, [2.0], w)[2.0] == math.inf
    with pytest.raises(DomainError):
        exp_moment(_const(g, 0.0).values, [0.0], w)


def test_l1_check_on_a_real_solution():
    g = make_grid([(0.0, 1.0), (0.0, 1.0)], [16, 16], 0.4, 16)
    f = sample(lambda x, y, t: 4.0 * np.sin(math.pi * x) * np.sin(math.pi * y)
               * math.exp(-t), g)
    spec = ProblemSpec(g, MatrixCoefficient.identity(g), 0.25, f,
                       Field.zeros(g, TIMESLICE))
    forced, _ = solve_split(spec)
    f_norm_1, f_norm_crit = lq_spacetime(f, (1.0, 2.0))
    scale = max(f_norm_crit, 1.0)
    lhs, rhs, passed = l1_check(forced.phi.values / scale, g, f_norm_1 / scale)
    assert passed
    assert lhs < rhs   # real margin, not just slack


def test_l1_check_rejects_fabricated_state():
    g = _grid()
    lhs, rhs, passed = l1_check(_const(g, 50.0).values, g, 0.0)
    assert not passed and lhs > rhs
    with pytest.raises(DomainError):
        l1_check(_const(g, 50.0).values[1:], g, 0.0)


def test_chi_closed_forms_and_domain():
    assert chi(2, 4.0) == 1.5
    assert math.isclose(chi(3, 5.0), (5.0 / 3.0) * (4.0 / 5.0), rel_tol=1e-15)
    assert math.isclose(chi(2, 1e9), 2.0, rel_tol=1e-8)
    for N in (1, 2, 3):
        with pytest.raises(DomainError):
            chi(N, 1.0 + N / 2.0)    # the critical exponent itself degenerates
    with pytest.raises(DomainError):
        chi(4, 10.0)


def test_ladder_values_and_base_case():
    ps = ladder(1.0, 4.0, 2, i_max=3)
    assert np.allclose(ps, [8.0 / 3.0, 4.0, 6.0, 9.0], rtol=1e-14)
    assert ladder(1.0, 4.0, 2, i_max=0) == [8.0 / 3.0]
    with pytest.raises(DomainError):
        ladder(0.0, 4.0, 2)
    with pytest.raises(DomainError):
        ladder(1.0, 4.0, 2, i_max=-1)


def test_exponents_closed_forms():
    alpha0, r, final = exponents(1.0, 4.0, 2, 1.0)
    assert abs(alpha0 - 1.5) < 1e-14
    assert abs(r - 8.0 / 3.0) < 1e-14
    assert abs(final - 5.0) < 1e-14
    # alpha0 = chi / ((1+beta0)(chi - 1)) at N = 3, q = 8
    alpha0, _, _ = exponents(1.0, 8.0, 3, 1.0)
    assert abs(alpha0 - 35.0 / 22.0) < 1e-14
    with pytest.raises(DomainError):
        exponents(1.0, 4.0, 2, 8.0 / 3.0)   # alpha must stay below r
    with pytest.raises(DomainError):
        exponents(1.0, 4.0, 2, 0.0)


def test_trace_on_constant_fields_is_flat():
    g = _grid()
    for c in (1.0, 2.0):
        t = trace(_log_const(g, c), 1.0, 4.0, i_max=6)
        assert all(math.isclose(r.norm, c, rel_tol=1e-12) for r in t.ladder)
        assert all(math.isclose(r.ratio, 1.0, rel_tol=1e-12) for r in t.ladder[1:])
        assert t.ladder[0].ratio == 1.0
        assert math.isclose(t.extrapolated_sup, c, rel_tol=1e-12)
        assert t.measured_sup == c
        assert not t.truncated


def test_trace_rungs_nondecreasing_on_random_field():
    rng = np.random.default_rng(17)
    g = _grid()
    t = trace(rng.normal(size=g.shape_spacetime), 1.0, 4.0, i_max=10)
    norms = [r.norm for r in t.ladder]
    for a, b in zip(norms, norms[1:]):
        assert b >= a * (1.0 - 1e-12)
    assert t.extrapolated_sup >= norms[-1] * (1.0 - 1e-12)
    assert t.extrapolated_sup <= t.measured_sup * (1.0 + 0.5)


def test_trace_flags_ladder_truncation():
    g = _grid()
    t = trace(_log_const(g, 1.5), 1.0, 4.0, i_max=30)
    assert t.truncated
    assert t.ladder[-1].exponent <= 512.0
    assert len(t.ladder) < 31


def test_trace_csv_has_rung_rows_and_footer():
    g = _grid()
    text = trace_to_csv(trace(_log_const(g, 2.0), 1.0, 4.0, i_max=4))
    lines = text.strip().splitlines()
    assert lines[0] == "i,p,norm,ratio"
    assert len([ln for ln in lines if not ln.startswith("#")]) == 6
    assert any("extrapolated_sup" in ln for ln in lines)


def test_interpolation_check_constant_equality_and_spike():
    g = _grid()
    lhs, rhs, passed = interpolation_check(_log_const(g, 2.5), 8.0 / 3.0, 1.0, _weight(g))
    assert passed
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
    vals = np.ones(g.shape_spacetime)
    vals[3, 4, 4] = 50.0
    lhs, rhs, passed = interpolation_check(np.log(vals), 8.0 / 3.0, 1.0, _weight(g))
    assert passed and lhs < rhs


def _moment_table(u):
    return exp_moment(u.values, ALPHA_CANDIDATES, _weight(u.grid))


def test_choose_alpha_prefers_largest_admissible_power_of_two():
    g = _grid()
    u = _const(g, 0.05)
    measure = 0.5
    table = _moment_table(u)
    alpha = choose_alpha([table], 8.0 / 3.0, measure)
    assert alpha == 1.0   # 2^0 < r and the moment is tiny
    assert table[alpha] <= 10.0 * measure
    # an enormous field forces the fallback down the dyadic scale
    big = _const(g, 150.0)
    alpha2 = choose_alpha([_moment_table(big)], 8.0 / 3.0, measure)
    assert alpha2 < 1.0 / 64.0
    with pytest.raises(RangeError):
        choose_alpha([_moment_table(_const(g, 1e6))], 8.0 / 3.0, measure)


def test_choose_alpha_without_tables_takes_the_largest_candidate():
    # a sweep whose every row was skipped still reports alpha = 1
    assert choose_alpha([], 8.0 / 3.0, 0.5) == 1.0
    assert choose_alpha([], 0.75, 0.5) == 0.5
    with pytest.raises(DomainError):
        choose_alpha([], 2.0 ** -9, 0.5)


def test_choose_alpha_skips_rates_that_overflow_in_any_table():
    fine = {a: 0.1 for a in ALPHA_CANDIDATES}
    # 1 and 1/2 overflow on the second table, 1/4 is finite but over the cap
    steep = {**fine, 1.0: math.inf, 0.5: math.inf, 0.25: 7.0}
    assert choose_alpha([fine, steep], 8.0 / 3.0, 0.5) == 0.125
    # over the cap everywhere: fall back to the smallest rate finite in every table
    over = {a: 100.0 for a in ALPHA_CANDIDATES}
    assert choose_alpha([fine, {**over, 1.0: math.inf}], 8.0 / 3.0, 0.5) == 2.0 ** -8
    # a rate that overflows only in the second table is never the fallback
    last = {**over, 2.0 ** -8: math.inf}
    assert choose_alpha([over, last], 8.0 / 3.0, 0.5) == 2.0 ** -7


def test_assemble_bound_zero_forcing_paths():
    g = _grid()
    phi0 = _const(g, 1.0, TIMESLICE)
    decayed = _const(g, 0.8)
    rep = assemble_bound(ess_sup(decayed), ess_sup(phi0), 0.0, 0.0, 4.0, 2)
    assert rep.implied_c == 0.0
    assert rep.f_norm_q == 0.0
    with pytest.raises(ConsistencyError):
        assemble_bound(ess_sup(_const(g, 5.0)), ess_sup(phi0), 0.0, 0.0, 4.0, 2)


def test_assemble_bound_populates_exponents():
    g = _grid()
    rng = np.random.default_rng(6)
    phi = Field(g, rng.normal(size=g.shape_spacetime), SPACETIME)
    f = _const(g, 2.0)
    rep = assemble_bound(ess_sup(phi), 0.0, *lq_spacetime(f, (2.0, 4.0)),
                         4.0, 2, beta0=1.0, alpha=1.0)
    assert rep.alpha0 == 1.5 and abs(rep.r - 8.0 / 3.0) < 1e-14
    assert rep.final_exponent == 5.0
    assert rep.lhs == ess_sup(phi)
    assert rep.implied_c == (rep.lhs - 0.0) / (rep.f_norm_crit * (rep.log_term + 1.0))
