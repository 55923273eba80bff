"""Moser-iteration diagnostics for the sup-norm bound.

The chain runs: normalize the forced solution by the critical forcing
norm, pass to w = max(e^u, 1), climb the exponent ladder
p_i = (1+beta0) * (q/(q-1)) * chi^i with chi = ((N+2)/N) * ((q-1)/q),
and extrapolate the essential supremum from the geometric tail of the
ladder ratios.  The closed-form exponents alpha0, r and the final
exponent alpha0*r/alpha + 1/alpha quantify how the bound degenerates as
q approaches the critical value 1 + N/2 (where chi reaches 1 and the
ladder stalls).

Sign handling: the sup estimate is one-sided through the exponential,
so :func:`parabolab.experiments.diagnose` runs the pipeline on u and on
-u and keeps the larger answer.
"""

import math
from dataclasses import dataclass

import numpy as np

from parabolab.errors import ConsistencyError, DomainError, RangeError
from parabolab.fields import SPACETIME, Field
from parabolab.norms import _lq_core, ess_sup, lq_spacetime, sup_t_spatial_l1
from parabolab.reductions import pairwise_sum

EXP_ARG_LIMIT = 700.0  # exp overflows near 709.8; leave headroom
LADDER_CAP = 512.0
ALPHA_CANDIDATES = tuple(2.0 ** -k for k in range(9))  # moment rates, largest first


@dataclass(frozen=True)
class NormalizedPair:
    """u = phi1/scale and g = f/scale with scale = max(|f|_{1+N/2}, 1)."""
    u: Field
    g: Field
    scale: float


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


def _quasi_norm(field: Field, p: float) -> float:
    """Raw space-time L^p for any p > 0 (quasi-norm below 1)."""
    vals = np.abs(field.values[1:])
    weight = field.grid.cell_volume * field.grid.dt
    return _lq_core(vals, float(p), weight, vals.size, "raw")


def normalize(phi1: Field, f: Field) -> NormalizedPair:
    """Scale the forced solution and forcing by max(|f|_{1+N/2}, 1)."""
    if phi1.grid != f.grid:
        raise DomainError("phi1 and f must share one grid")
    N = phi1.grid.dim
    scale = max(lq_spacetime(f, 1.0 + N / 2.0), 1.0)
    u = Field(phi1.grid, phi1.values / scale, phi1.kind)
    g = Field(f.grid, f.values / scale, f.kind)
    return NormalizedPair(u, g, scale)


def exp_change(u: Field):
    """v = exp(u), w = max(v, 1); w >= 1 everywhere."""
    top = float(np.max(u.values))
    if top > EXP_ARG_LIMIT:
        raise RangeError(
            f"exp change would overflow: max u = {top:.6g} (normalize the forcing first)")
    v = np.exp(u.values)
    w = np.maximum(v, 1.0)
    return Field(u.grid, v, u.kind), Field(u.grid, w, u.kind)


def exp_moment(u: Field, alpha: float, N: int = None) -> float:
    """Quadrature of exp(alpha * (1 + 2/N) * u) over the space-time box."""
    if not alpha > 0.0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    if u.kind != SPACETIME:
        raise DomainError("exp_moment requires a spacetime field")
    if N is None:
        N = u.grid.dim
    elif N != u.grid.dim:
        raise DomainError(f"N={N} disagrees with the field's dimension {u.grid.dim}")
    rate = alpha * (1.0 + 2.0 / N)
    top = rate * float(np.max(u.values[1:]))
    if top > EXP_ARG_LIMIT:
        raise RangeError(
            f"exponential moment overflows at alpha = {alpha:.6g} "
            f"(argument reaches {top:.6g}); alpha is too large for this field")
    weight = u.grid.cell_volume * u.grid.dt
    return pairwise_sum(np.exp(rate * u.values[1:])) * weight


def l1_check(u: Field, g: Field):
    """Discrete L^1 contraction: sup_t int |u| dx against int int |g| dx dt.

    The continuum inequality is exact; the discrete one is allowed the
    scheme-error slack 10 * (max(h)^2 + dt) on top of a 1e-6 relative
    tolerance.  Returns (lhs, rhs, passed).
    """
    if u.grid != g.grid:
        raise DomainError("u and g must share one grid")
    lhs = sup_t_spatial_l1(u)
    rhs = lq_spacetime(g, 1.0)
    grid = u.grid
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


def ladder(beta0: float, q: float, N: int, i_max: int = 12):
    """Exponent ladder p_i = (1+beta0) * (q/(q-1)) * chi^i for i = 0..i_max."""
    if not beta0 > 0.0:
        raise DomainError(f"beta0 must be positive, got {beta0}")
    if i_max < 0:
        raise DomainError(f"i_max must be >= 0, got {i_max}")
    c = chi(N, q)
    base = (1.0 + beta0) * q / (q - 1.0)
    return [base * c ** i for i in range(int(i_max) + 1)]


def trace(w: Field, beta0: float, q: float, N: int = None, i_max: int = 12) -> MoserTrace:
    """Climb the ladder of averaged norms of w and extrapolate the sup.

    Rungs with exponent above 512 are dropped (truncation flagged):
    beyond that the averaged norm is within floating noise of the ess
    sup.  The extrapolation multiplies the last norm by the geometric
    tail of the final log-ratio, exact for fields whose log-norm decays
    like 1/p, and is clamped to be >= the last rung.
    """
    if N is None:
        N = w.grid.dim
    c = chi(N, q)
    exps = ladder(beta0, q, N, i_max)
    kept = [p for p in exps if p <= LADDER_CAP]
    truncated = len(kept) < len(exps)
    if not kept:
        raise DomainError(f"every ladder exponent exceeds the cap {LADDER_CAP}")

    vals = np.abs(w.values[1:])
    weight = w.grid.cell_volume * w.grid.dt
    count = vals.size
    logs = None
    if any(p >= 32.0 for p in kept):
        positive = vals[vals > 0]
        logs = np.log(positive) if positive.size else positive

    rungs = []
    prev = None
    for i, p in enumerate(kept):
        norm = _lq_core(vals, p, weight, count, "averaged", logs)
        ratio = 1.0 if prev is None else norm / prev
        rungs.append(LadderRung(i, p, norm, ratio))
        prev = norm

    last = rungs[-1]
    extrapolated = last.norm
    if last.ratio > 0.0:
        extrapolated = last.norm * math.exp(math.log(last.ratio) / (c - 1.0))
    extrapolated = max(extrapolated, last.norm)
    return MoserTrace(beta0, c, tuple(rungs), extrapolated, ess_sup(w), truncated)


def exponents(beta0: float, q: float, N: int, alpha: float):
    """Closed forms alpha0 = chi/((1+beta0)(chi-1)), r = (1+beta0)q/(q-1),
    and the final exponent alpha0*r/alpha + 1/alpha."""
    if not beta0 > 0.0:
        raise DomainError(f"beta0 must be positive, got {beta0}")
    c = chi(N, q)
    alpha0 = c / ((1.0 + beta0) * (c - 1.0))
    r = (1.0 + beta0) * q / (q - 1.0)
    if not 0.0 < alpha < r:
        raise DomainError(f"alpha must lie in (0, r) = (0, {r:.6g}), got {alpha}")
    final = alpha0 * r / alpha + 1.0 / alpha
    return alpha0, r, final


def interpolation_check(w: Field, r: float, alpha: float):
    """|w|_r <= |w|_inf^((r-alpha)/r) * |w|_alpha^(alpha/r), raw norms.

    Holds for any 0 < alpha < r (the alpha < 1 range is a quasi-norm;
    the inequality is pointwise).  Returns (lhs, rhs, passed) with
    relative slack 1e-10; constant fields give equality.
    """
    if not 0.0 < alpha < r:
        raise DomainError(f"need 0 < alpha < r, got alpha={alpha}, r={r}")
    lhs = _quasi_norm(w, r)
    sup = ess_sup(w)
    rhs = sup ** ((r - alpha) / r) * _quasi_norm(w, alpha) ** (alpha / r)
    passed = lhs <= rhs * (1.0 + 1e-10)
    return lhs, rhs, bool(passed)


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
        alpha = min(1.0, 0.5 * (1.0 + beta0) * q / (q - 1.0))
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
