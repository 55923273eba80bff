"""Bump family scaling, regression fits, sweep round trips."""

import math
import os
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

import parabolab.experiments as experiments
from parabolab.config import load_config
from parabolab.errors import ConfigurationError, FitError, ResolutionError, SolverError
from parabolab.experiments import (SWEEP_CSV_HEADER, BumpFamily, Diagnosis, SweepResult,
                                   SweepRow, bump, diagnosis_checks, export, fit_log_law,
                                   run_sweep, sweep_checks)
from parabolab.fields import (SPACETIME, TIMESLICE, Field, MatrixCoefficient,
                              ProblemSpec, make_grid)
from parabolab.moser import LadderRung, MoserTrace
from parabolab.norms import lq_spacetime
from parabolab.reductions import pairwise_sum


def _grid_1d():
    # midpoints hit 0.5 exactly (odd cell count), t0 = 0.05 is level 50
    return make_grid([(0.0, 1.0)], [25], 0.1, 100)


def test_bump_peak_value_at_exact_center_sample():
    g = _grid_1d()
    eps, gamma = 0.2, 2.0
    f = bump(eps, gamma, (0.5, 0.05), g)
    peak = f.values[50, 12]
    assert math.isclose(peak, eps ** -gamma * math.exp(-1.0), rel_tol=1e-12)
    assert f.values[50].argmax() == 12
    # compact support: everything beyond |x - 0.5| >= eps vanishes
    assert np.all(f.values[:, :7] == 0.0) and np.all(f.values[:, 18:] == 0.0)
    assert np.all(f.values[0] == 0.0)


def test_bump_resolution_guards_prescribe_finer_grids():
    g = _grid_1d()   # h = 0.04, dt = 0.001
    with pytest.raises(ResolutionError) as err:
        bump(0.1, 2.0, (0.5, 0.05), g)   # eps < 4h = 0.16
    assert "nx" in str(err.value)
    coarse_t = make_grid([(0.0, 1.0)], [100], 0.1, 10)   # 4 dt = 0.04
    with pytest.raises(ResolutionError) as err:
        bump(0.1, 2.0, (0.5, 0.05), coarse_t)            # eps^2 = 0.01 < 4 dt
    assert "nt" in str(err.value)
    # equality passes: eps exactly 4h with a wide enough time box
    g2 = make_grid([(0.0, 1.0)], [25], 0.2, 50)   # dt = 0.004, 4 dt = 0.016
    f = bump(0.16, 2.0, (0.5, 0.1), g2)
    assert np.max(f.values) > 0.0


def test_bump_demands_support_inside_the_open_cylinder():
    g = _grid_1d()
    with pytest.raises(ConfigurationError):
        bump(0.2, 2.0, (0.15, 0.05), g)    # spills through the left wall
    with pytest.raises(ConfigurationError):
        bump(0.2, 2.0, (0.5, 0.03), g)     # starts before t = 0
    with pytest.raises(ConfigurationError):
        bump(0.2, 2.0, (0.5,), g)          # center needs N+1 entries


@lru_cache(maxsize=None)
def profile_norm(p: float, N: int, points: int = 200000) -> float:
    """|psi|_p over R^N x R by radial midpoint quadrature.

    psi depends only on rho = |(y, s)|, so the (N+1)-dimensional
    integral reduces to the unit sphere area times a radial integral.
    """
    d = N + 1
    area = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    h = 1.0 / points
    rho = (np.arange(points) + 0.5) * h
    integrand = np.exp(-p / (1.0 - rho * rho)) * rho ** (d - 1)
    return (area * pairwise_sum(integrand) * h) ** (1.0 / p)


def test_bump_norms_obey_parabolic_scaling():
    g = make_grid([(0.0, 1.0), (0.0, 1.0)], [64, 64], 0.3, 300)
    for p in (2.0, 3.0):
        want = 0.25 ** ((2 + 2) / p - 2.0) * profile_norm(p, 2)
        got, = lq_spacetime(bump(0.25, 2.0, (0.5, 0.5, 0.15), g), [p])
        assert abs(got - want) / want < 0.05


def test_bump_q_norm_slope_tracks_the_scaling_exponent():
    g = make_grid([(0.0, 1.0), (0.0, 1.0)], [64, 64], 0.3, 300)
    n1, = lq_spacetime(bump(0.25, 2.0, (0.5, 0.5, 0.15), g), [4.0])
    n2, = lq_spacetime(bump(0.125, 2.0, (0.5, 0.5, 0.15), g), [4.0])
    slope = math.log(n2 / n1) / math.log(0.5)
    assert abs(slope - ((2 + 2) / 4.0 - 2.0)) < 0.1   # -1 for N=2, q=4


def test_family_applies_amplitude():
    g = _grid_1d()
    fam = BumpFamily((0.5,), 0.05, 2.0, amplitude=24.0)
    plain = bump(0.2, 2.0, (0.5, 0.05), g)
    scaled = fam.field(0.2, g)
    assert np.allclose(scaled.values, 24.0 * plain.values)


def test_fit_recovers_an_exact_line():
    xs = np.array([0.5, 1.0, 2.0, 3.0, 4.5])
    fit = fit_log_law(xs, 3.0 * xs + 1.0)
    assert math.isclose(fit.slope, 3.0, rel_tol=1e-10)
    assert math.isclose(fit.intercept, 1.0, rel_tol=1e-9)
    assert fit.r_squared > 1.0 - 1e-12
    assert abs(fit.curvature) < 1e-9


def test_fit_flags_convexity_of_a_parabola():
    xs = np.linspace(1.0, 3.0, 8)
    fit = fit_log_law(xs, xs ** 2)
    assert fit.r_squared < 1.0
    assert fit.curvature > 0.0


def test_fit_refuses_degenerate_abscissas():
    with pytest.raises(FitError):
        fit_log_law([1.0] * 5, [float(k) for k in range(5)])
    with pytest.raises(FitError):
        fit_log_law([1.0, 2.0, 3.0], [1.0, 2.0, 2.5])   # too few points


def _small_template():
    g = make_grid([(0.0, 0.75), (0.0, 0.75)], [16, 16], 0.26, 52)
    spec = ProblemSpec(g, MatrixCoefficient.identity(g), 0.0,
                       Field.zeros(g, SPACETIME), Field.zeros(g, TIMESLICE),
                       1.0, 4.0)
    return g, spec


def test_run_sweep_rejects_an_empty_eps_list():
    _, spec = _small_template()
    fam = BumpFamily((0.375, 0.375), 0.13, 2.0)
    with pytest.raises(ConfigurationError):
        run_sweep(spec, fam, [])


def test_run_sweep_rejects_an_unresolved_eps_before_any_solve(monkeypatch):
    bundle = load_config(os.path.join(os.path.dirname(__file__), "..", "configs",
                                      "sweep_small.cfg"))
    calls = []
    real = experiments.solve_split

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "solve_split", counting)
    with pytest.raises(ResolutionError):
        run_sweep(bundle.spec, bundle.sweep.family, (0.25, 0.125, 0.01),
                  opts=bundle.solve_options)
    assert len(calls) == 0


def test_run_sweep_skips_a_failed_solve_for_every_thread_count(monkeypatch):
    _, spec = _small_template()
    fam = BumpFamily((0.375, 0.375), 0.13, 2.0)
    real = experiments.solve_split
    wide_peak = np.max(fam.field(2.0 ** -1.5, spec.grid).values)

    def failing(spec, opts=None):
        if np.max(spec.f.values) > wide_peak:   # the narrower bump
            raise SolverError("stalled", residual=1.0)
        return real(spec, opts=opts)

    monkeypatch.setattr(experiments, "solve_split", failing)
    for threads in (1, 2):
        result = run_sweep(spec, fam, [2.0 ** -1.5, 0.25], threads=threads)
        assert [row.eps for row in result.rows] == [2.0 ** -1.5]
        assert len(result.diagnoses) == 1
        assert result.skipped == ((0.25, "stalled"),)


def test_run_sweep_skips_a_row_whose_q_norm_overflows():
    # the bump peaks near 1.2e10 at eps = 2^-1.5 and twice that at
    # eps = 1/4, whose sum of |f|^30 passes the largest double; |f|_30
    # itself is finite, and the log-space sum keeps the row
    _, spec = _small_template()
    spec = replace(spec, q=30.0)
    eps_list = [2.0 ** -1.5, 0.25]
    plain = run_sweep(spec, BumpFamily((0.375, 0.375), 0.13, 2.0), eps_list)
    fam = BumpFamily((0.375, 0.375), 0.13, 2.0, 4e9)
    for threads in (1, 2):
        result = run_sweep(spec, fam, eps_list, threads=threads)
        assert [row.eps for row in result.rows] == eps_list
        assert len(result.diagnoses) == 2
        assert result.skipped == ()
        for row, unit in zip(result.rows, plain.rows):
            assert math.isclose(row.f_norm_q, 4e9 * unit.f_norm_q, rel_tol=1e-12)


def test_sweep_checks_measure_what_they_gate():
    # sup|phi| / |f|_q = 0.5, 0.375, 0.4375: the last step rises by 7/6
    rows = tuple(SweepRow(eps, 1.0, fq, sup, c, m, 0.0, 1.0) for eps, fq, sup, c, m in (
        (0.5, 2.0, 1.0, 0.1, 1.0), (0.25, 4.0, 1.5, 0.2, 5.0), (0.125, 8.0, 3.5, 0.25, 2.0)))
    checks = sweep_checks(SweepResult(rows, None, "fit refused", 1.0, (), ()))
    assert [c.name for c in checks] == ["fit_r_squared", "sublinearity", "implied_c_spread",
                                        "moment_spread", "l1", "interpolation",
                                        "ladder_monotone"]
    got = {c.name: (c.measured, c.passed) for c in checks}
    assert math.isnan(got["fit_r_squared"][0]) and not got["fit_r_squared"][1]
    assert got["sublinearity"] == (pytest.approx(7.0 / 6.0), False)
    assert got["implied_c_spread"] == (pytest.approx(2.5), True)
    assert got["moment_spread"] == (5.0, True)
    assert got["l1"] == got["interpolation"] == (0, True)
    assert got["ladder_monotone"] == (1.0, True)
    # a row without forcing has no ratio, so sublinearity cannot pass
    worse = (replace(rows[0], f_norm_q=0.0, implied_c=0.7, exp_moment=60.0), rows[1])
    got = {c.name: (c.measured, c.passed)
           for c in sweep_checks(SweepResult(worse, None, "", 1.0, (), ()))}
    assert got["sublinearity"] == (math.inf, False)
    assert got["implied_c_spread"] == (pytest.approx(3.5), False)
    assert got["moment_spread"] == (12.0, False)


def test_diagnosis_checks_count_failures_and_find_the_lowest_rung():
    ladder = (LadderRung(0, 1.0, 1.0, 1.0), LadderRung(1, 2.0, 0.5, 0.5))
    trace = MoserTrace(1.0, 1.5, ladder, 1.0, 1.0, False)
    d = Diagnosis(1.0, 0.0, 0.0, 1.0, 1.0, 1.0, (2.0, 1.0, False), trace, (1.0, 2.0, True), {})
    checks = diagnosis_checks([d, replace(d, interpolation=(3.0, 2.0, False))])
    assert [(c.name, c.measured, c.passed) for c in checks] == [
        ("l1", 2, False), ("interpolation", 1, False), ("ladder_monotone", 0.5, False)]


def test_sweep_rows_round_trip_through_csv(tmp_path):
    _, spec = _small_template()
    fam = BumpFamily((0.375, 0.375), 0.13, 2.0)
    result = run_sweep(spec, fam, [2.0 ** -1.5, 0.25])
    assert len(result.rows) == 2
    assert result.fit is None and result.fit_note    # too few points to fit
    path = os.path.join(tmp_path, "sweep.csv")
    export(result, path, "csv")
    with open(path) as fh:
        assert fh.readline().strip() == SWEEP_CSV_HEADER
    back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert back.shape == (2, len(SweepRow.__dataclass_fields__))
    for row, again in zip(result.rows, back):
        for name, b in zip(SweepRow.__dataclass_fields__, again):
            assert getattr(row, name) == pytest.approx(b, rel=1e-12)


def test_export_formats_and_failure_modes(tmp_path):
    _, spec = _small_template()
    fam = BumpFamily((0.375, 0.375), 0.13, 2.0)
    result = run_sweep(spec, fam, [0.25])
    svg = os.path.join(tmp_path, "plot.svg")
    export(result, svg, "svg-plot")
    body = open(svg).read()
    assert body.startswith("<svg") and "circle" in body
    txt = os.path.join(tmp_path, "sweep.txt")
    export(result, txt, "text")
    assert "eps" in open(txt).read()
    with pytest.raises(ConfigurationError):
        export(result, os.path.join(tmp_path, "x.bin"), "parquet")
    with pytest.raises(ConfigurationError):
        export(result, os.path.join(tmp_path, "missing", "deep", "x.csv"), "csv")
