"""Moser-iteration diagnostics for the sup-norm bound.

The chain runs on the forced solution normalized by its critical
forcing norm, u = phi1 / max(|f|_{1+N/2}, 1), which
:func:`parabolab.experiments.diagnose` forms: pass to w = max(e^u, 1),
climb the exponent ladder
p_i = (1+beta0) * (q/(q-1)) * chi^i with chi = ((N+2)/N) * ((q-1)/q),
and extrapolate the essential supremum from the geometric tail of the
ladder ratios.  The closed-form exponents alpha0, r and the final
exponent alpha0*r/alpha + 1/alpha quantify how the bound degenerates as
q approaches the critical value 1 + N/2 (where chi reaches 1 and the
ladder stalls).

The chain reads w only as max(e^max u, 1) and sums of exp(p max(u, 0))
(max(u, 0) = log w), so it runs on the plain array u and never builds
w: rungs, quasi-norms and moments come from norms.log_power_sums.  Every
function of the chain takes u with the grid it is sampled on, and the
dimension N is the grid's.
"""

import math
from dataclasses import dataclass
from itertools import takewhile

import numpy as np

from parabolab.errors import ConsistencyError, DomainError, RangeError
from parabolab.fields import Grid
from parabolab.norms import exp_or_inf, log_power_sums, sup_t_spatial_l1

LADDER_CAP = 512.0
ALPHA_CANDIDATES = tuple(2.0 ** -k for k in range(9))  # moment rates, largest first


@dataclass(frozen=True)
class LadderRung:
    index: int
    exponent: float
    norm: float
    ratio: float  # to the previous rung's norm; 1.0 on the first rung


@dataclass(frozen=True)
class MoserTrace:
    beta0: float
    chi: float
    ladder: tuple
    extrapolated_sup: float
    measured_sup: float
    truncated: bool
    interpolation: tuple  # (lhs, rhs, passed) at r = the first rung, alpha = min(1, r/2)


@dataclass(frozen=True)
class BoundReport:
    """Both sides of the logarithmic estimate plus the proof exponents."""
    lhs: float            # |phi|_inf
    sup_phi0: float       # |phi0|_inf
    f_norm_crit: float    # |f|_{1+N/2}
    f_norm_q: float       # |f|_q
    log_term: float       # ln(|f|_q + 1)
    implied_c: float      # (lhs - sup_phi0) / (f_norm_crit * (log_term + 1))
    classical_ratio: float  # lhs / |f|_q, the linear-baseline comparison
    beta0: float
    alpha0: float
    r: float
    alpha: float
    final_exponent: float


def _check_shape(u: np.ndarray, grid: Grid):
    if np.shape(u) != grid.shape_spacetime:
        raise DomainError("u must be sampled on the space-time grid")


def exp_moment(u: np.ndarray, grid: Grid, alphas) -> dict:
    """alpha -> quadrature of exp(alpha * (1 + 2/N) * u) over the space-time box.

    u holds every time level, the initial one first; the quadrature runs
    over the later levels with weight (cell volume * dt) per sample.  A
    moment whose log passes LOG_FLOAT_MAX is inf.
    """
    _check_shape(u, grid)
    if not all(a > 0.0 for a in alphas):
        raise DomainError(f"every alpha must be positive, got {list(alphas)}")
    rates = [a * (1.0 + 2.0 / grid.dim) for a in alphas]
    later = u[1:]
    support = later[later != 0.0]
    log_weight = math.log(grid.cell_volume * grid.dt)
    return {a: exp_or_inf(log_sum + log_weight) for a, log_sum in
            zip(alphas, log_power_sums(support, later.size - support.size, rates))}


def l1_check(u: np.ndarray, grid: Grid, rhs: float):
    """Discrete L^1 contraction: sup_t int |u| dx against rhs = int int |g| dx dt.

    u = phi1/scale is sampled on the space-time grid and g = f/scale, so
    rhs is |f|_1/scale.  The continuum inequality is exact; the discrete
    one is allowed the scheme-error slack 10 * (max(h)^2 + dt) on top of
    a 1e-6 relative tolerance.  Returns (lhs, rhs, passed).
    """
    _check_shape(u, grid)
    lhs = sup_t_spatial_l1(u, grid.cell_volume)
    slack = 10.0 * (max(grid.h) ** 2 + grid.dt)
    passed = lhs <= rhs * (1.0 + 1e-6) + slack
    return lhs, rhs, bool(passed)


def chi(N: int, q: float) -> float:
    """Ladder ratio chi = ((N+2)/N) * ((q-1)/q); > 1 iff q > 1 + N/2."""
    if N not in (1, 2, 3):
        raise DomainError(f"N must be 1, 2, or 3, got {N}")
    if not (math.isfinite(q) and q > 1.0 + N / 2.0):
        raise DomainError(
            f"chi degenerates: need q > 1 + N/2 = {1.0 + N / 2.0}, got q = {q}")
    return (N + 2.0) / N * (q - 1.0) / q


def first_rung(beta0: float, q: float) -> float:
    """The ladder's first exponent r = (1+beta0) q/(q-1)."""
    return (1.0 + beta0) * q / (q - 1.0)


def check_ladder(beta0: float, i_max: int, q: float) -> None:
    """Refuse beta0 <= 0, i_max < 0, or a first rung above LADDER_CAP, which
    leaves no rung (DomainError); the commands call it before their first solve."""
    if not beta0 > 0.0:
        raise DomainError(f"beta0 must be positive, got {beta0}")
    if i_max < 0:
        raise DomainError(f"i_max must be >= 0, got {i_max}")
    r = first_rung(beta0, q)
    if not r <= LADDER_CAP:
        raise DomainError(f"beta0 = {beta0} leaves no ladder rung: the first, r = {r}, "
                          f"exceeds the cap {LADDER_CAP}")


def ladder(beta0: float, q: float, N: int, i_max: int = 12):
    """Exponent ladder p_i = (1+beta0) * (q/(q-1)) * chi^i for i = 0..i_max,
    ending before the first p_i above LADDER_CAP (chi > 1, so every later
    one is above it too); :func:`check_ladder` refuses an empty one."""
    c = chi(N, q)
    check_ladder(beta0, i_max, q)
    return list(takewhile(lambda p: p <= LADDER_CAP,
                          (first_rung(beta0, q) * c ** i for i in range(int(i_max) + 1))))


def trace(u: np.ndarray, grid: Grid, beta0: float, q: float, i_max: int = 12) -> MoserTrace:
    """Climb the ladder of averaged norms of w = max(e^u, 1) and extrapolate the sup.

    u holds every time level, the initial one first; the rungs average
    over the later levels and measured_sup = max(e^max u, 1) runs over
    all.  Rungs with exponent above 512 are not built (truncation flagged):
    beyond that the averaged norm is within floating noise of the ess
    sup.  The extrapolation multiplies the last norm by the geometric
    tail of the final log-ratio, exact for fields whose log-norm decays
    like 1/p, and is clamped to be >= the last rung.

    interpolation = (lhs, rhs, passed) checks |w|_r <= |w|_inf^((r-alpha)/r)
    |w|_alpha^(alpha/r) at the first rung r = (1+beta0)q/(q-1) and alpha
    = min(1, r/2), with raw norms (weight cell volume * dt per sample).
    It is pointwise, so it holds for any 0 < alpha < r; passed allows a
    relative 1e-10, and constant fields give equality.
    """
    _check_shape(u, grid)
    N = grid.dim
    c = chi(N, q)
    kept = ladder(beta0, q, N, i_max)
    truncated = len(kept) <= i_max
    r, alpha = kept[0], min(1.0, 0.5 * kept[0])

    later = u[1:]
    positive = later[later > 0.0]   # log w = max(u, 0)
    *log_sums, log_alpha = log_power_sums(positive, later.size - positive.size, kept + [alpha])
    log_count = math.log(later.size)
    rungs = []
    prev = None
    for i, (p, log_sum) in enumerate(zip(kept, log_sums)):
        norm = exp_or_inf((log_sum - log_count) / p)
        ratio = 1.0 if prev is None else norm / prev
        rungs.append(LadderRung(i, p, norm, ratio))
        prev = norm

    last = rungs[-1]
    extrapolated = last.norm
    if last.ratio > 0.0:
        extrapolated = last.norm * math.exp(math.log(last.ratio) / (c - 1.0))
    extrapolated = max(extrapolated, last.norm)
    log_sup = max(float(np.max(u)), 0.0)
    log_weight = math.log(grid.cell_volume * grid.dt)
    lhs = exp_or_inf((log_sums[0] + log_weight) / r)
    rhs = exp_or_inf(log_sup * (r - alpha) / r + (log_alpha + log_weight) / r)
    return MoserTrace(beta0, c, tuple(rungs), extrapolated, exp_or_inf(log_sup), truncated,
                      (lhs, rhs, lhs <= rhs * (1.0 + 1e-10)))


def exponents(beta0: float, q: float, N: int, alpha: float):
    """Closed forms alpha0 = chi/((1+beta0)(chi-1)), r = (1+beta0)q/(q-1),
    and the final exponent alpha0*r/alpha + 1/alpha."""
    if not beta0 > 0.0:
        raise DomainError(f"beta0 must be positive, got {beta0}")
    c = chi(N, q)
    alpha0 = c / ((1.0 + beta0) * (c - 1.0))
    r = first_rung(beta0, q)
    if not 0.0 < alpha < r:
        raise DomainError(f"alpha must lie in (0, r) = (0, {r:.6g}), got {alpha}")
    final = alpha0 * r / alpha + 1.0 / alpha
    return alpha0, r, final


def choose_alpha(tables, r: float, measure: float, cap: float = 10.0) -> float:
    """Largest alpha in ALPHA_CANDIDATES below r whose exponential moment
    stays <= cap * |Omega_T| in every moment table.

    Each table maps alpha to a moment, inf where the moment overflows.
    An executable stand-in for the qualitative "alpha sufficiently
    small".  Falls back to the smallest alpha finite in every table when
    none meets the cap; with no tables at all the largest candidate wins.
    """
    candidates = [a for a in ALPHA_CANDIDATES if a < r]
    if not candidates:
        raise DomainError(f"no dyadic candidate below r = {r}")
    fallback = None
    for alpha in candidates:
        worst = max((table[alpha] for table in tables), default=0.0)
        if worst <= cap * measure:
            return alpha
        if math.isfinite(worst):
            fallback = alpha
    if fallback is None:
        raise RangeError("every candidate alpha overflows the exponential moment")
    return fallback


def assemble_bound(lhs: float, sup_phi0: float, f_norm_crit: float, f_norm_q: float,
                   q: float, N: int, beta0: float = 1.0, alpha: float = None) -> BoundReport:
    """Evaluate both sides of the logarithmic sup-norm estimate.

    The inputs are |phi|_inf, |phi0|_inf, |f|_{1+N/2} and |f|_q.
    implied_c = (|phi|_inf - |phi0|_inf) / (|f|_{1+N/2} (ln(|f|_q+1)+1));
    zero forcing reports implied_c = 0 and insists |phi|_inf stays within
    tolerance of |phi0|_inf (anything else violates uniqueness).  alpha
    defaults to min(1, r/2).
    """
    log_term = math.log(f_norm_q + 1.0)
    if alpha is None:
        alpha = min(1.0, 0.5 * first_rung(beta0, q))
    alpha0, r, final = exponents(beta0, q, N, alpha)
    if f_norm_q == 0.0:
        if lhs > sup_phi0 + 1e-8 * (1.0 + sup_phi0):
            raise ConsistencyError(
                f"zero forcing but |phi|_inf = {lhs:.6g} exceeds |phi0|_inf = {sup_phi0:.6g}")
        implied_c = 0.0
        classical = 0.0
    else:
        implied_c = (lhs - sup_phi0) / (f_norm_crit * (log_term + 1.0))
        classical = lhs / f_norm_q
    return BoundReport(lhs, sup_phi0, f_norm_crit, f_norm_q, log_term, implied_c, classical,
                       beta0, alpha0, r, alpha, final)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def trace_to_csv(t: MoserTrace) -> str:
    """One ladder rung per line plus a commented footer of scalars."""
    lines = ["i,p,norm,ratio"]
    for rung in t.ladder:
        lines.append(f"{rung.index},{rung.exponent:.13g},{rung.norm:.13g},{rung.ratio:.13g}")
    lines.append(f"# beta0 = {t.beta0:.13g}")
    lines.append(f"# chi = {t.chi:.13g}")
    lines.append(f"# extrapolated_sup = {t.extrapolated_sup:.13g}")
    lines.append(f"# measured_sup = {t.measured_sup:.13g}")
    lines.append(f"# truncated = {t.truncated}")
    return "\n".join(lines) + "\n"


def bound_to_text(report: BoundReport) -> str:
    """Human-readable summary keyed by the proof's symbol names."""
    rows = [
        ("sup |phi|", report.lhs),
        ("sup |phi0|", report.sup_phi0),
        ("f_norm_crit", report.f_norm_crit),
        ("f_norm_q", report.f_norm_q),
        ("log_term", report.log_term),
        ("implied_c", report.implied_c),
        ("classical_ratio", report.classical_ratio),
        ("beta0", report.beta0),
        ("alpha0", report.alpha0),
        ("r", report.r),
        ("alpha", report.alpha),
        ("final_exponent", report.final_exponent),
    ]
    return "\n".join(f"{name:16s} = {value:.12g}" for name, value in rows) + "\n"
