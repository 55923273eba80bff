"""Self-similar forcing families, sweep orchestration, and regression.

The probe family is f_eps(x,t) = eps^(-gamma) psi((x-x0)/eps,
(t-t0)/eps^2) with psi(y,s) = exp(-1/(1 - |y|^2 - s^2)) inside the unit
ball of (y,s) and 0 outside.  Under parabolic scaling the norms obey
|f_eps|_p^p = eps^(N+2-gamma p) |psi|_p^p, so gamma = 2 pins the
critical norm |f|_{1+N/2} while |f|_q grows like eps^((N+2)/q - 2) as
eps shrinks: shrinking eps walks the forcing up the q-norm axis at
fixed critical norm, which is exactly the regime where the logarithmic
sup-norm law is visible against the classical linear-in-|f|_q bound.

:func:`diagnose` runs the diagnostic chain on one split solution; the
CLI's diagnose command and the sweep both call it.  The sweep checks
every eps against the grid, then solves one problem per eps (largest
first), diagnoses each solution, selects a single exponential-moment
rate alpha for the whole sweep, and fits sup|phi| against
ln(|f|_q + 1) by ordinary least squares.

Each gate of ``--check`` and of the acceptance tests is a :class:`Check`
computed once here, holding the value it measured.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from parabolab.errors import (ConfigurationError, DomainError, FitError, ResolutionError,
                              SolverError)
from parabolab.fields import (SPACETIME, TIMESLICE, Field, Grid, MatrixCoefficient,
                              ProblemSpec, make_grid, sample, sample_initial)
from parabolab.moser import (ALPHA_CANDIDATES, MoserTrace, assemble_bound, choose_alpha,
                             exp_moment, interpolation_check, l1_check, trace)
from parabolab.norms import ess_sup, exp_or_inf, lq_spacetime
from parabolab.reductions import pairwise_sum
from parabolab.solver import SolveOptions, solve_ibvp, solve_split

SWEEP_CSV_HEADER = "eps,f_norm_crit,f_norm_q,phi_sup,implied_c,exp_moment,l1_lhs,l1_rhs"


# ---------------------------------------------------------------------------
# bump family
# ---------------------------------------------------------------------------

def _psi(rho2: np.ndarray) -> np.ndarray:
    """Profile exp(-1/(1-rho^2)) on rho^2 < 1, zero outside."""
    out = np.zeros_like(rho2)
    inside = rho2 < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - rho2[inside]))
    return out


def check_bump(eps: float, center, grid: Grid):
    """Raise unless the bump at eps is resolved and fits in the box.

    center is (x0_1, ..., x0_N, t0).  The bump must be resolved (at
    least 4 cells across its radius in space, 4 steps across eps^2 in
    time) and its support must fit inside the space-time box.  Returns
    (x0, t0).
    """
    N = grid.dim
    center = tuple(float(c) for c in center)
    if len(center) != N + 1:
        raise ConfigurationError(
            f"center needs {N + 1} entries (x0..., t0), got {len(center)}")
    x0, t0 = center[:N], center[N]
    if not eps > 0.0:
        raise ConfigurationError(f"eps must be positive, got {eps}")

    hmax = max(grid.h)
    if eps + 1e-12 < 4.0 * hmax:
        need = [math.ceil(4.0 * (hi - lo) / eps) for lo, hi in grid.box]
        raise ResolutionError(
            f"eps = {eps:.6g} under-resolved in space (needs eps >= 4 max(h) = "
            f"{4.0 * hmax:.6g}); refine to nx >= {need}")
    if eps * eps + 1e-12 < 4.0 * grid.dt:
        need_nt = math.ceil(4.0 * grid.T / (eps * eps))
        raise ResolutionError(
            f"eps = {eps:.6g} under-resolved in time (needs eps^2 >= 4 dt = "
            f"{4.0 * grid.dt:.6g}); refine to nt >= {need_nt}")
    for k, (lo, hi) in enumerate(grid.box):
        if x0[k] - eps < lo - 1e-12 or x0[k] + eps > hi + 1e-12:
            raise ConfigurationError(
                f"bump support [x0 +- eps] leaves the box on axis {k}: "
                f"x0 = {x0[k]:.6g}, eps = {eps:.6g}, box = ({lo:.6g}, {hi:.6g})")
    if t0 - eps * eps < -1e-12 or t0 + eps * eps > grid.T + 1e-12:
        raise ConfigurationError(
            f"bump support [t0 +- eps^2] leaves (0, T): t0 = {t0:.6g}, "
            f"eps^2 = {eps * eps:.6g}, T = {grid.T:.6g}")
    return x0, t0


def bump(eps: float, gamma: float, center, grid: Grid) -> Field:
    """Sample f_eps = eps^(-gamma) psi((x-x0)/eps, (t-t0)/eps^2) on the grid.

    center is (x0_1, ..., x0_N, t0); :func:`check_bump` guards eps.
    """
    N = grid.dim
    x0, t0 = check_bump(eps, center, grid)
    mesh = grid.meshgrid()
    space_rho2 = np.zeros(grid.shape_space)
    for k in range(N):
        space_rho2 += ((mesh[k] - x0[k]) / eps) ** 2
    s = (grid.time_levels() - t0) / (eps * eps)
    s2 = (s * s).reshape((-1,) + (1,) * N)
    values = eps ** (-gamma) * _psi(space_rho2[np.newaxis] + s2)
    return Field(grid, values, SPACETIME)


@dataclass(frozen=True)
class BumpFamily:
    """Bump center and scaling exponent; eps varies per call."""
    center: tuple          # spatial center x0
    t0: float
    gamma: float = 2.0
    amplitude: float = 1.0

    def field(self, eps: float, grid: Grid) -> Field:
        f = bump(eps, self.gamma, (*self.center, self.t0), grid)
        if self.amplitude == 1.0:
            return f
        return Field(grid, self.amplitude * f.values, f.kind)


# ---------------------------------------------------------------------------
# regression
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float
    curvature: float  # quadratic coefficient of a 2nd-degree refit


def _quadratic_coefficient(xs: np.ndarray, ys: np.ndarray) -> float:
    # normal equations for y ~ a x^2 + b x + c on centered x, by Cramer
    x = xs - xs.mean()
    s1, s2, s3, s4 = (pairwise_sum(x ** k) for k in (1, 2, 3, 4))
    s0 = float(len(x))
    t0 = pairwise_sum(ys)
    t1 = pairwise_sum(ys * x)
    t2 = pairwise_sum(ys * x * x)
    det = (s4 * (s2 * s0 - s1 * s1) - s3 * (s3 * s0 - s1 * s2)
           + s2 * (s3 * s1 - s2 * s2))
    if abs(det) < 1e-30:
        return 0.0
    det_a = (t2 * (s2 * s0 - s1 * s1) - s3 * (t1 * s0 - t0 * s1)
             + s2 * (t1 * s1 - t0 * s2))
    return det_a / det


def fit_log_law(xs, ys) -> FitResult:
    """OLS of ys on xs; the sweep fits sup|phi| on ln(|f|_q + 1)."""
    if len(xs) < 4:
        raise FitError(f"need at least 4 rows to fit, got {len(xs)}")
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    xbar = pairwise_sum(xs) / xs.size
    ybar = pairwise_sum(ys) / ys.size
    sxx = pairwise_sum((xs - xbar) ** 2)
    if sxx <= 0.0:
        raise FitError("regressor has zero variance (all |f|_q equal); fit is degenerate")
    sxy = pairwise_sum((xs - xbar) * (ys - ybar))
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    ss_res = pairwise_sum((ys - slope * xs - intercept) ** 2)
    ss_tot = pairwise_sum((ys - ybar) ** 2)
    if ss_tot <= 0.0:
        r2 = 1.0 if ss_res <= 1e-28 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return FitResult(slope, intercept, r2, _quadratic_coefficient(xs, ys))


# ---------------------------------------------------------------------------
# diagnosis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Diagnosis:
    """The estimate chain on one split solution phi = phi1 + phi2."""
    phi_sup: float         # |phi1 + phi2|_inf
    sup_phi0: float        # |phi0|_inf
    drift_sup: float       # |phi2|_inf
    f_norm_crit: float     # |f|_{1+N/2}
    f_norm_q: float        # |f|_q
    scale: float           # normalization max(|f|_{1+N/2}, 1)
    l1: tuple              # l1_check (lhs, rhs, passed) of u = phi1/scale
    trace: MoserTrace      # ladder trace of the dominant sign
    interpolation: tuple   # interpolation_check (lhs, rhs, passed), dominant sign
    moments: dict          # alpha -> max exp_moment over both signs, inf on overflow


def diagnose(phi1: Field, phi2: Field, phi0: Field, f: Field, q: float,
             beta0: float = 1.0, i_max: int = 12) -> Diagnosis:
    """Run the diagnostic chain on the forced part phi1 and drift phi2.

    phi1 solves the problem with forcing f and zero data, phi2 the one
    with data phi0 and no forcing; phi1 and f share one grid.  |f|_1,
    |f|_{1+N/2} and |f|_q come from one read of f's support, and phi1 is
    normalized to u = phi1 / scale with scale = max(|f|_{1+N/2}, 1).
    The L^1 check compares u with |f|_1/scale; the ladder trace,
    interpolation check (alpha = min(1, r/2)) and exponential moments of
    w = max(e^u, 1) run on u and, where it can win (see
    :mod:`parabolab.moser`), on -u.  The sign with the larger measured
    sup supplies the trace and the interpolation triple; each moment
    keeps its larger value.  Every norm that passes the largest double
    reads inf, so nothing here raises RangeError.
    """
    if phi1.grid != f.grid:
        raise DomainError("phi1 and f must share one grid")
    grid = f.grid
    N = grid.dim
    weight = grid.cell_volume * grid.dt
    r = (1.0 + beta0) * q / (q - 1.0)
    alpha = min(1.0, 0.5 * r)
    phi = phi1.values + phi2.values
    phi_sup = float(np.max(np.abs(phi, out=phi)))
    f_norm_1, f_norm_crit, f_norm_q = lq_spacetime(f, (1.0, 1.0 + N / 2.0, q))
    scale = max(f_norm_crit, 1.0)
    u = phi1.values / scale
    tr, interpolation = trace(u, beta0, q, i_max), interpolation_check(u, r, alpha, weight)
    moments = exp_moment(u, ALPHA_CANDIDATES, weight)
    reach = -float(np.min(u))   # max(-u)
    if reach > 0.0:
        # -u's measured sup is e^max(-u), and each of its moments is at most
        # |Omega_T| e^(rate max(-u)); 1e-9 is far above the rounding of either side
        if exp_or_inf(reach) > tr.measured_sup:
            tr, interpolation = trace(-u, beta0, q, i_max), interpolation_check(-u, r, alpha, weight)
        bound = u[1:].size * weight * (1.0 + 1e-9)
        open_rates = [a for a in ALPHA_CANDIDATES
                      if not moments[a] > bound * exp_or_inf(a * (1.0 + 2.0 / N) * reach)]
        for a, m in (exp_moment(-u, open_rates, weight) if open_rates else {}).items():
            moments[a] = max(moments[a], m)
    return Diagnosis(phi_sup, ess_sup(phi0), ess_sup(phi2), f_norm_crit, f_norm_q, scale,
                     l1_check(u, grid, f_norm_1 / scale), tr, interpolation, moments)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    eps: float
    f_norm_crit: float
    f_norm_q: float
    phi_sup: float
    implied_c: float
    exp_moment: float
    l1_lhs: float
    l1_rhs: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple            # SweepRow, eps descending
    fit: FitResult         # None when refused
    fit_note: str
    alpha: float           # selected moment rate
    diagnoses: tuple       # Diagnosis per row
    skipped: tuple         # (eps, reason) for rows whose solve failed


def run_sweep(template: ProblemSpec, family: BumpFamily, eps_list,
              opts: SolveOptions = None, threads: int = 1, beta0: float = 1.0,
              i_max: int = 12, moment_cap: float = 10.0) -> SweepResult:
    """Solve, diagnose, and tabulate one row per eps (descending).

    The template's forcing is replaced by the family member at each eps;
    everything else (grid, coefficients, initial data, q) is shared.
    Every eps passes :func:`check_bump` before the first solve.  A row
    whose solve raises :class:`SolverError` goes to ``skipped`` with the
    error's text; :func:`diagnose` raises nothing on a solved row.  alpha
    is chosen once for the whole sweep: the largest 2^-k below r whose
    exponential moments stay within moment_cap * |Omega_T| on every row
    and both signs.
    """
    eps_values = sorted(set(float(e) for e in eps_list), reverse=True)
    if not eps_values:
        raise ConfigurationError("empty sweep: no eps values supplied")
    grid = template.grid
    q = template.q
    for eps in eps_values:
        check_bump(eps, (*family.center, family.t0), grid)

    def attempt(eps):
        """(eps, Diagnosis, None), or (eps, None, reason) when the solver fails."""
        f = family.field(eps, grid)
        try:
            forced, drift = solve_split(replace(template, f=f), opts=opts)
        except SolverError as err:
            return eps, None, str(err)
        return eps, diagnose(forced.phi, drift.phi, template.phi0, f, q, beta0, i_max), None

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(attempt, eps_values))
    else:
        outcomes = [attempt(eps) for eps in eps_values]
    done = [(eps, d) for eps, d, _ in outcomes if d is not None]
    skipped = tuple((eps, reason) for eps, d, reason in outcomes if d is None)

    r = (1.0 + beta0) * q / (q - 1.0)
    alpha = choose_alpha([d.moments for _, d in done], r, grid.spacetime_volume, moment_cap)
    rows = []
    for eps, d in done:
        report = assemble_bound(d.phi_sup, d.sup_phi0, d.f_norm_crit, d.f_norm_q,
                                q, grid.dim, beta0, alpha)
        rows.append(SweepRow(eps, d.f_norm_crit, d.f_norm_q, d.phi_sup, report.implied_c,
                             d.moments[alpha], d.l1[0], d.l1[1]))

    fit = None
    note = ""
    if len(rows) < 4:
        note = f"fit refused: only {len(rows)} successful rows (need 4)"
    else:
        try:
            fit = fit_log_law([math.log(row.f_norm_q + 1.0) for row in rows],
                              [row.phi_sup for row in rows])
        except FitError as err:
            note = f"fit refused: {err}"
    return SweepResult(tuple(rows), fit, note, alpha, tuple(d for _, d in done), skipped)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    """One gate: the value it measured and whether that value passes."""
    name: str
    measured: float
    passed: bool


def diagnosis_checks(diagnoses) -> list:
    """l1 and interpolation (measured: failing rows) and ladder_monotone.

    ladder_monotone measures the smallest rung-to-rung ratio over every
    trace and passes when no rung falls below its predecessor by more
    than a relative 1e-12.
    """
    l1_failed = sum(not d.l1[2] for d in diagnoses)
    interp_failed = sum(not d.interpolation[2] for d in diagnoses)
    ratio = min((rung.ratio for d in diagnoses for rung in d.trace.ladder), default=1.0)
    return [
        Check("l1", l1_failed, l1_failed == 0),
        Check("interpolation", interp_failed, interp_failed == 0),
        Check("ladder_monotone", ratio, ratio >= 1.0 - 1e-12),
    ]


def _spread(values) -> float:
    """max/min of positive values; inf when empty or some value is <= 0."""
    return max(values) / min(values) if values and min(values) > 0 else math.inf


def sweep_checks(result: SweepResult) -> list:
    """The log-law gates, then the rows' :func:`diagnosis_checks`.

    fit_r_squared measures R^2 (nan without a fit), sublinearity the
    largest quotient of consecutive sup|phi| / |f|_q (below 1 iff they
    strictly decrease), the two spreads max/min over the rows.
    """
    rows = result.rows
    r2 = result.fit.r_squared if result.fit is not None else math.nan
    ratios = [r.phi_sup / r.f_norm_q if r.f_norm_q > 0 else math.inf for r in rows]
    # an infinite or vanishing ratio anywhere makes its quotient inf
    quotient = max((b / a if 0 < a < math.inf else math.inf
                    for a, b in zip(ratios, ratios[1:])), default=0.0)
    c_spread = _spread([r.implied_c for r in rows])
    moment_spread = _spread([r.exp_moment for r in rows])
    return [
        Check("fit_r_squared", r2, r2 >= 0.9),
        Check("sublinearity", quotient, quotient < 1.0),
        Check("implied_c_spread", c_spread, c_spread < 3.0),
        Check("moment_spread", moment_spread, moment_spread <= 10.0),
    ] + diagnosis_checks(result.diagnoses)


def _mms_error(dim: int, n: int) -> float:
    """Sup error of the manufactured solution prod sin(pi x_k) e^-t."""
    T = 0.5
    nt = max(2, round(T * n * n))  # dt = h^2 on the unit box
    grid = make_grid([(0.0, 1.0)] * dim, [n] * dim, T, nt)

    def exact(*args):
        xs, t = args[:-1], args[-1]
        out = math.exp(-float(t)) * np.ones(np.broadcast_shapes(
            *[np.shape(x) for x in xs]))
        for x in xs:
            out = out * np.sin(math.pi * x)
        return out

    k = dim * math.pi ** 2 - 1.0
    spec = ProblemSpec(grid, MatrixCoefficient.identity(grid), Field.zeros(grid, TIMESLICE),
                       sample(lambda *args: k * exact(*args), grid),
                       sample_initial(lambda *xs: exact(*xs, 0.0), grid))
    sol = solve_ibvp(spec, opts=SolveOptions(tol=1e-11))
    return float(np.max(np.abs(sol.phi.values - sample(exact, grid).values)))


def convergence_orders() -> list:
    """(dim, n, sup error, order) rows for dim 1, 2 and n = 16, 32, 64.

    order is log2(previous error / error), None on each dim's first size.
    """
    rows = []
    for dim in (1, 2):
        prev = None
        for n in (16, 32, 64):
            err = _mms_error(dim, n)
            rows.append((dim, n, err, None if prev is None else math.log2(prev / err)))
            prev = err
    return rows


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def _sweep_csv(result: SweepResult) -> str:
    lines = [SWEEP_CSV_HEADER]
    for row in result.rows:
        lines.append(",".join(format(v, ".13g") for v in (
            row.eps, row.f_norm_crit, row.f_norm_q, row.phi_sup,
            row.implied_c, row.exp_moment, row.l1_lhs, row.l1_rhs)))
    return "\n".join(lines) + "\n"


def _svg_plot(result: SweepResult) -> str:
    width, height, margin = 640, 480, 64.0
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    pts = [(math.log(r.f_norm_q + 1.0), r.phi_sup) for r in result.rows]
    if not pts:
        parts.append(f'<text x="{width / 2}" y="{height / 2}" '
                     'text-anchor="middle" font-size="14">no data</text>')
        parts.append("</svg>")
        return "\n".join(parts) + "\n"
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    xlo, xhi = min(xs), max(xs)
    ylo, yhi = min(ys), max(ys)
    xpad = 0.05 * (xhi - xlo) or max(0.05 * abs(xhi), 0.5)
    ypad = 0.05 * (yhi - ylo) or max(0.05 * abs(yhi), 0.5)
    xlo, xhi = xlo - xpad, xhi + xpad
    ylo, yhi = ylo - ypad, yhi + ypad

    def sx(x):
        return margin + (x - xlo) / (xhi - xlo) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - ylo) / (yhi - ylo) * (height - 2 * margin)

    parts.append(f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
                 f'y2="{height - margin}" stroke="black"/>')
    parts.append(f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
                 f'y2="{height - margin}" stroke="black"/>')
    for k in range(5):
        xv = xlo + (xhi - xlo) * k / 4
        yv = ylo + (yhi - ylo) * k / 4
        parts.append(f'<text x="{sx(xv):.1f}" y="{height - margin + 18:.1f}" '
                     f'text-anchor="middle" font-size="11">{xv:.3g}</text>')
        parts.append(f'<text x="{margin - 8:.1f}" y="{sy(yv) + 4:.1f}" '
                     f'text-anchor="end" font-size="11">{yv:.3g}</text>')
    parts.append(f'<text x="{width / 2:.1f}" y="{height - 18:.1f}" text-anchor="middle" '
                 'font-size="13">ln(|f|_q + 1)</text>')
    parts.append(f'<text x="18" y="{height / 2:.1f}" text-anchor="middle" font-size="13" '
                 f'transform="rotate(-90 18 {height / 2:.1f})">sup |phi|</text>')
    if result.fit is not None:
        y1 = result.fit.slope * xlo + result.fit.intercept
        y2 = result.fit.slope * xhi + result.fit.intercept
        parts.append(f'<line x1="{sx(xlo):.2f}" y1="{sy(y1):.2f}" x2="{sx(xhi):.2f}" '
                     f'y2="{sy(y2):.2f}" stroke="#c04040" stroke-width="1.5"/>')
        parts.append(f'<text x="{width - margin:.1f}" y="{margin - 10:.1f}" text-anchor="end" '
                     f'font-size="12">slope = {result.fit.slope:.4g}, '
                     f'R^2 = {result.fit.r_squared:.4g}</text>')
    for x, y in pts:
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="4" '
                     'fill="#3060b0" fill-opacity="0.8"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _sweep_text(result: SweepResult) -> str:
    lines = [f"rows: {len(result.rows)}   alpha = {result.alpha:.12g}"]
    header = (f"{'eps':>12s} {'f_norm_crit':>14s} {'f_norm_q':>14s} {'phi_sup':>14s} "
              f"{'implied_c':>14s} {'exp_moment':>14s} {'l1_lhs':>14s} {'l1_rhs':>14s}")
    lines.append(header)
    for row in result.rows:
        lines.append(f"{row.eps:12.6g} {row.f_norm_crit:14.10g} {row.f_norm_q:14.10g} "
                     f"{row.phi_sup:14.10g} {row.implied_c:14.10g} "
                     f"{row.exp_moment:14.10g} {row.l1_lhs:14.10g} {row.l1_rhs:14.10g}")
    if result.fit is not None:
        lines.append(f"fit: slope = {result.fit.slope:.12g}, intercept = "
                     f"{result.fit.intercept:.12g}, R^2 = {result.fit.r_squared:.12g}, "
                     f"curvature = {result.fit.curvature:.12g}")
    elif result.fit_note:
        lines.append(result.fit_note)
    for eps, reason in result.skipped:
        lines.append(f"skipped eps = {eps:.6g}: {reason}")
    return "\n".join(lines) + "\n"


def export(result: SweepResult, path: str, fmt: str = "csv") -> None:
    """Write a sweep result as csv, svg-plot, or text."""
    renderers = {"csv": _sweep_csv, "svg-plot": _svg_plot, "text": _sweep_text}
    if fmt not in renderers:
        raise ConfigurationError(f"unknown export format {fmt!r}; "
                                 f"choose from {sorted(renderers)}")
    content = renderers[fmt](result)
    try:
        with open(path, "w") as fh:
            fh.write(content)
    except OSError as err:
        raise ConfigurationError(f"cannot write {path}: {err}") from err
