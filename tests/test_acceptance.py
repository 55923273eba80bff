"""Acceptance gate: nine numbered criteria, one verdict line each.

The heavyweight pieces (the bump sweep and the convergence study) run
once per session through module-scoped fixtures; everything else is
direct computation against frozen closed forms.
"""

import math
import os
import time

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES
from parabolab.cli import run
from parabolab.config import load_config
from parabolab.errors import DomainError
from parabolab.experiments import convergence_orders, diagnose, run_sweep, sweep_checks
from parabolab.fields import (SPACETIME, TIMESLICE, Field, MatrixCoefficient,
                              ProblemSpec, make_grid, sample)
from parabolab.moser import chi, exponents, interpolation_check
from parabolab.solver import solve_ibvp, solve_split

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def _verdict(num, desc, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}{detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: manufactured-solution convergence
# ---------------------------------------------------------------------------

def test_criterion_1_convergence_order():
    t0 = time.time()
    orders = [order for *_, order in convergence_orders() if order is not None]
    elapsed = time.time() - t0
    ok = all(o >= 1.7 for o in orders) and elapsed < 60.0
    _verdict(1, "manufactured order >= 1.7 in under 60 s", ok,
             f" (orders {', '.join(f'{o:.2f}' for o in orders)}, {elapsed:.1f} s)")


# ---------------------------------------------------------------------------
# criteria 2 and 3: sign preservation and the L^1 estimate on random specs
# ---------------------------------------------------------------------------

def _random_spec(rng, signed_f):
    dim = int(rng.choice([1, 1, 2, 2, 3]))
    if dim == 1:
        nx = [int(rng.integers(8, 48))]
    elif dim == 2:
        nx = list(rng.integers(8, 20, size=2))
    else:
        nx = list(rng.integers(6, 10, size=3))
    box = []
    for _ in range(dim):
        lo = float(rng.uniform(-1.0, 1.0))
        box.append((lo, lo + float(rng.uniform(0.5, 2.0))))
    g = make_grid(box, nx, float(rng.uniform(0.2, 1.0)), int(rng.integers(6, 16)))
    diag = []
    for _ in range(dim):
        if rng.uniform() < 0.5:
            diag.append(float(rng.uniform(0.3, 3.0)))
        else:
            diag.append(rng.uniform(0.3, 3.0, size=g.shape_space))
    lam = 0.9 * min(float(np.min(d)) if not np.isscalar(d) else d for d in diag)
    omega = float(rng.uniform(0.0, 2.0)) if rng.uniform() < 0.5 else \
        Field(g, rng.uniform(0.0, 2.0, g.shape_space), TIMESLICE)
    fv = rng.normal(size=g.shape_spacetime)
    if not signed_f:
        fv = np.abs(fv)
    f = Field(g, fv, SPACETIME)
    pv = rng.normal(size=g.shape_space)
    if not signed_f:
        pv = np.abs(pv)
    phi0 = Field(g, pv, TIMESLICE)
    return ProblemSpec(g, MatrixCoefficient(g, diag), omega, f, phi0, lam, 4.0)


def test_criterion_2_discrete_maximum_principle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        spec = _random_spec(rng, signed_f=False)
        low = float(np.min(solve_ibvp(spec).phi.values))
        worst = min(worst, low)
    ok = worst >= -1e-12
    _verdict(2, "50 nonnegative specs stay above -1e-12", ok,
             f" (worst minimum {worst:.3g})")


def _mms_l1_cases():
    cases = []
    for dim in (1, 2):
        shape = [(0.0, 1.0)] * dim
        nx = [32] * dim if dim == 1 else [24, 24]
        g = make_grid(shape, nx, 0.5, 32)
        rate = dim * math.pi ** 2 - 1.0

        def f_fn(*args, rate=rate):
            xs, t = args[:-1], args[-1]
            out = rate * math.exp(-t)
            for x in xs:
                out = out * np.sin(math.pi * x)
            return out

        cases.append(ProblemSpec(g, MatrixCoefficient.identity(g), 0.0, sample(f_fn, g),
                                 Field.zeros(g, TIMESLICE)))
    return cases


def _l1_passes(spec):
    forced, drift = solve_split(spec)
    return diagnose(forced.phi, drift.phi, spec.phi0, spec.f, spec.q).l1[2]


def test_criterion_3_l1_estimate_on_corpus():
    results = [_l1_passes(spec) for spec in _mms_l1_cases()]
    rng = np.random.default_rng(99)
    for _ in range(20):
        results.append(_l1_passes(_random_spec(rng, signed_f=True)))
    ok = all(results)
    _verdict(3, "L1 estimate holds on manufactured + 20 random specs", ok,
             f" ({sum(results)}/{len(results)} passed)")


# ---------------------------------------------------------------------------
# criteria 4-7: the self-similar bump sweep
# ---------------------------------------------------------------------------

MANDATED_EPS = (0.25, 0.125, 0.0625, 0.03125)


@pytest.fixture(scope="module")
def acceptance_sweep():
    bundle = load_config(os.path.join(CONFIGS, "sweep_acceptance.cfg"))
    settings = bundle.sweep
    t0 = time.time()
    result = run_sweep(bundle.spec, settings.family, settings.eps,
                       opts=bundle.solve_options, beta0=settings.beta0,
                       i_max=settings.i_max, moment_cap=settings.moment_cap)
    elapsed = time.time() - t0
    measured = {check.name: check.measured for check in sweep_checks(result)}
    return result, measured, elapsed


def test_criterion_4_exponential_moment_stability(acceptance_sweep):
    result, measured, _ = acceptance_sweep
    eps = [row.eps for row in result.rows]
    covered = all(any(math.isclose(e, m, rel_tol=1e-12) for e in eps)
                  for m in MANDATED_EPS)
    crit = [row.f_norm_crit for row in result.rows]
    drift = max(crit) / min(crit) - 1.0
    spread = measured["moment_spread"]
    ok = covered and drift <= 0.05 and spread <= 10.0
    _verdict(4, "critical norm fixed and moment spread <= 10 over the sweep", ok,
             f" (drift {100 * drift:.3f}%, moment max/min {spread:.3f}, "
             f"alpha {result.alpha:g})")


def test_criterion_5_logarithmic_law(acceptance_sweep):
    result, measured, elapsed = acceptance_sweep
    fq = [row.f_norm_q for row in result.rows]
    decade = max(fq) / min(fq)
    r2 = measured["fit_r_squared"]
    # the largest quotient of consecutive sup|phi| / |f|_q: below 1 iff
    # the ratio strictly decreases
    sublinear = measured["sublinearity"] < 1.0
    c_spread = measured["implied_c_spread"]
    ok = (decade >= 10.0 and r2 >= 0.9 and sublinear and c_spread < 3.0
          and elapsed < 600.0)
    _verdict(5, "sup grows like ln|f|_q with stable implied constant", ok,
             f" (decade {decade:.1f}x, R^2 {r2:.4f}, c spread {c_spread:.2f}, "
             f"{elapsed:.0f} s)")


def test_criterion_6_moser_ladder_closes_on_ess_sup(acceptance_sweep):
    result, measured, _ = acceptance_sweep
    # the smallest rung-to-rung ratio over every trace
    monotone = measured["ladder_monotone"] >= 1.0 - 1e-12
    ok = bool(result.diagnoses) and monotone
    detail = []
    for t in (d.trace for d in result.diagnoses):
        deep = [r.norm for r in t.ladder if r.exponent >= 64.0]
        close = bool(deep) and abs(deep[-1] - t.measured_sup) <= 0.1 * t.measured_sup
        close = close and abs(t.extrapolated_sup - t.measured_sup) <= 0.1 * t.measured_sup
        detail.append(abs(t.extrapolated_sup - t.measured_sup) / t.measured_sup)
        ok = ok and close
    _verdict(6, "ladder is monotone and its deep rungs meet ess sup within 10%",
             ok, f" (worst extrapolation gap {100 * max(detail):.2f}%)")


def test_criterion_7_interpolation_inequality(acceptance_sweep):
    result, measured, _ = acceptance_sweep
    # the number of sweep fields that fail the inequality
    ok = bool(result.diagnoses) and measured["interpolation"] == 0
    # constant fields realize equality: w = 2.5 is u = log 2.5
    g = make_grid([(0.0, 1.0)], [8], 0.5, 4)
    u = np.full(g.shape_spacetime, math.log(2.5))
    lhs, rhs, passed = interpolation_check(u, 8.0 / 3.0, 1.0, g.cell_volume * g.dt)
    ok = ok and passed and abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)
    _verdict(7, "interpolation inequality holds (equality for constants)", ok,
             f" ({len(result.diagnoses)} sweep fields + constant case)")


# ---------------------------------------------------------------------------
# criterion 8: closed forms
# ---------------------------------------------------------------------------

def test_criterion_8_closed_forms_and_degeneracy_boundary():
    ok = abs(chi(2, 4.0) - 1.5) <= 1e-14
    alpha0, r, final = exponents(1.0, 4.0, 2, 1.0)
    ok = ok and abs(alpha0 - 1.5) <= 1e-14 and abs(r - 8.0 / 3.0) <= 1e-14 \
        and abs(final - 5.0) <= 1e-14
    sums_ok = True
    for N, q in ((1, 3.0), (2, 4.0), (3, 7.0), (2, 2.5)):
        c = chi(N, q)
        s0 = sum(c ** -i for i in range(200))
        s1 = sum(i * c ** -i for i in range(1, 201))
        sums_ok = sums_ok and abs(c / (c - 1.0) - s0) < 1e-10 \
            and abs(c / (c - 1.0) ** 2 - s1) < 1e-10
    lattice = []
    for N, count in ((1, 34), (2, 33), (3, 33)):
        crit = 1.0 + N / 2.0
        qs = list(crit + np.linspace(-1.51, 4.49, count - 1)) + [crit]
        lattice += [(N, q) for q in qs]
    boundary_ok = len(lattice) == 100
    for N, q in lattice:
        try:
            chi(N, q)
            raised = False
        except DomainError:
            raised = True
        boundary_ok = boundary_ok and raised == (q <= 1.0 + N / 2.0)
    ok = ok and sums_ok and boundary_ok
    _verdict(8, "closed forms, geometric sums, and the chi domain boundary", ok,
             f" ({len(lattice)} lattice points)")


# ---------------------------------------------------------------------------
# criterion 9: threaded determinism
# ---------------------------------------------------------------------------

def test_criterion_9_sweep_determinism_across_threads(tmp_path):
    cfg = os.path.join(CONFIGS, "sweep_small.cfg")
    outs = []
    for tag, threads in (("a", "1"), ("b", "8"), ("c", "8")):
        out = os.path.join(tmp_path, tag)
        code = run(["sweep", "--config", cfg, "--out", out, "--threads", threads])
        assert code == 0
        outs.append(open(os.path.join(out, "sweep.csv"), "rb").read())
    ok = outs[0] == outs[1] == outs[2] and len(outs[0]) > 0
    _verdict(9, "sweep.csv byte-identical for --threads 1 and 8", ok,
             f" ({len(outs[0])} bytes)")
