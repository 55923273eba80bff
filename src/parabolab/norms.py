"""Space-time Lebesgue norms, sup functionals, and embedding constants.

Quadrature is the midpoint rule in space (fields are sampled at cell
midpoints) combined with the right-endpoint rule in time, which is the
rule the implicit stepper integrates exactly for piecewise-constant
integrands: the initial slice is parabolic-boundary data and is excluded
from integral norms, while sup-type functionals run over every sample.

All reductions go through :func:`parabolab.reductions.pairwise_sum`,
whose order depends only on the element count, so norms are
bit-reproducible on one numpy build regardless of thread count.
Exponents p >= 32 are evaluated in log space (a shifted log-sum-exp of
p * log|v|) to dodge overflow; smaller exponents use direct powers and
raise :class:`RangeError` if they overflow.
"""

import math

import numpy as np

from parabolab._cg import conjugate_gradient
from parabolab.errors import DomainError, EstimationError, RangeError
from parabolab.fields import SPACETIME, Field, Grid
from parabolab.reductions import pairwise_sum
from parabolab.solver import Stencil

LOG_SPACE_THRESHOLD = 32.0


def _lq_core(abs_values: np.ndarray, p: float, weight: float, count: int,
             normalization: str, logs: np.ndarray = None) -> float:
    """Shared norm kernel; accepts any p > 0 (callers police p >= 1)."""
    if normalization not in ("raw", "averaged"):
        raise DomainError(f"normalization must be 'raw' or 'averaged', got {normalization!r}")
    if p >= LOG_SPACE_THRESHOLD:
        if logs is None:
            positive = abs_values[abs_values > 0]
            if positive.size == 0:
                return 0.0
            logs = np.log(positive)
        elif logs.size == 0:
            return 0.0
        scaled = p * logs
        shift = float(np.max(scaled))
        log_sum = shift + math.log(pairwise_sum(np.exp(scaled - shift)))
        if normalization == "raw":
            return math.exp((log_sum + math.log(weight)) / p)
        return math.exp((log_sum - math.log(count)) / p)
    with np.errstate(over="ignore"):
        total = pairwise_sum(abs_values ** p)
    if not math.isfinite(total):
        raise RangeError(
            f"L^{p} accumulation overflowed; use normalization='averaged' on a "
            "normalized field, or an exponent >= 32 for the log-space path")
    if normalization == "raw":
        return (total * weight) ** (1.0 / p)
    return (total / count) ** (1.0 / p)


def lq_spacetime(field: Field, p: float, normalization: str = "raw") -> float:
    """L^p norm of a spacetime field over Omega_T.

    'raw' uses the measure dx dt (weight cellvol * dt per sample);
    'averaged' divides the measure by |Omega_T|, i.e. returns the p-th
    root of the p-th power mean.  A field that is identically zero has
    norm 0 for every p.
    """
    if field.kind != SPACETIME:
        raise DomainError("lq_spacetime requires a spacetime field")
    if not p >= 1.0 or not math.isfinite(p):
        raise DomainError(f"exponent must satisfy 1 <= p < infinity, got {p}")
    vals = np.abs(field.values[1:])
    weight = field.grid.cell_volume * field.grid.dt
    return _lq_core(vals, float(p), weight, vals.size, normalization)


def ess_sup(field: Field) -> float:
    """Maximum of |values| over every sample, the initial slice included."""
    return float(np.max(np.abs(field.values)))


def sup_t_spatial_l1(field: Field) -> float:
    """sup over time levels of the spatial L^1 norm of one slice."""
    if field.kind != SPACETIME:
        raise DomainError("sup_t_spatial_l1 requires a spacetime field")
    cellvol = field.grid.cell_volume
    best = 0.0
    for n in range(field.grid.nt + 1):
        slice_l1 = pairwise_sum(np.abs(field.values[n])) * cellvol
        if slice_l1 > best:
            best = slice_l1
    return best


# ---------------------------------------------------------------------------
# spatial helpers for the embedding-constant estimator
# ---------------------------------------------------------------------------

def _gradient_energy(u: np.ndarray, grid: Grid) -> float:
    """Discrete Dirichlet energy <u, -Lap u> of the solver's stencil with A = I."""
    return pairwise_sum(u * Stencil(grid, [1.0] * grid.dim).apply(u)) * grid.cell_volume


def _spatial_lp(u: np.ndarray, p: float, cellvol: float) -> float:
    return (pairwise_sum(np.abs(u) ** p) * cellvol) ** (1.0 / p)


def embedding_quotient(phi: np.ndarray, grid: Grid, s: float = 4.0) -> float:
    """Embedding quotient of one spatial test function.

    For N >= 3 this is |phi|_{2N/(N-2)} / |grad phi|_2.  For N = 2 the
    endpoint exponent degenerates and the mixed space-time inequality

        int |v|^(2 + 2(s-2)/s) dx dt
            <= c_s^2 (sup_t int v^2 dx)^((s-2)/s) int |grad v|^2 dx dt

    is probed with time-constant v, for which the time measure cancels;
    the returned value is the corresponding c_s of the test function.
    (The exponent (s-2)/s on the sup factor is forced by scaling: both
    sides must be homogeneous of the same degree in v.)
    """
    N = grid.dim
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape != grid.shape_space:
        raise DomainError(f"test function shape {phi.shape} does not match grid {grid.shape_space}")
    cellvol = grid.cell_volume
    energy = _gradient_energy(phi, grid)
    if energy <= 0.0:
        raise DomainError("test function has zero Dirichlet energy")
    if N >= 3:
        p_star = 2.0 * N / (N - 2.0)
        return _spatial_lp(phi, p_star, cellvol) / math.sqrt(energy)
    if N == 2:
        if not s > 2.0:
            raise DomainError(f"the two-dimensional embedding requires s > 2, got {s}")
        theta = (s - 2.0) / s
        p = 2.0 + 2.0 * theta
        P = pairwise_sum(np.abs(phi) ** p) * cellvol
        M = pairwise_sum(phi * phi) * cellvol
        return math.sqrt(P / (M ** theta * energy))
    raise DomainError("embedding quotient requires N >= 3, or N = 2 with parameter s")


def sobolev_constant_estimate(grid: Grid, N: int = None, s: float = 4.0,
                              tol: float = 1e-10, max_iters: int = 500) -> float:
    """Estimate the best constant of the Dirichlet embedding on the grid box.

    Maximizes the quotient of :func:`embedding_quotient` over grid
    functions vanishing on the boundary, via inverse iteration on the
    Euler-Lagrange equation starting from a positive product-sine bump:
    repeatedly solve (-Lap + c I) psi = phi^(p-1) (c = 0 for N >= 3, a
    sup-term shift for N = 2), renormalize, and stop once the quotient
    changes by less than ``tol`` relatively.  Exhausting ``max_iters``
    raises :class:`EstimationError` carrying the last quotient, which is
    still a valid certificate (any test function bounds the constant from
    below).
    """
    if N is None:
        N = grid.dim
    elif N != grid.dim:
        raise DomainError(f"N={N} disagrees with the grid dimension {grid.dim}")
    if N < 2:
        raise DomainError("embedding estimate requires N >= 3, or N = 2 with parameter s")
    if N == 2 and not s > 2.0:
        raise DomainError(f"the two-dimensional embedding requires s > 2, got {s}")
    cellvol = grid.cell_volume
    lap = Stencil(grid, [1.0] * N)

    mesh = grid.meshgrid()
    phi = np.ones(grid.shape_space)
    for k in range(N):
        lo, hi = grid.box[k]
        phi = phi * np.sin(math.pi * (mesh[k] - lo) / (hi - lo))

    if N >= 3:
        p = 2.0 * N / (N - 2.0)
        theta = 0.0
    else:
        theta = (s - 2.0) / s
        p = 2.0 + 2.0 * theta

    cg_tol = 1e-12
    cg_cap = 20 * grid.num_cells
    quotient = embedding_quotient(phi, grid, s)
    for _ in range(int(max_iters)):
        rhs = np.abs(phi) ** (p - 1.0) * np.sign(phi)
        if theta > 0.0:
            energy = _gradient_energy(phi, grid)
            mass = pairwise_sum(phi * phi) * cellvol
            shift = theta * energy / mass
        else:
            shift = 0.0

        psi, _, _ = conjugate_gradient(lambda x, shift=shift: lap.apply(x) + shift * x, rhs,
                                      lap.diagonal + shift, phi, cg_tol, cg_cap)
        psi = psi / _spatial_lp(psi, 2.0, cellvol)
        new_quotient = embedding_quotient(psi, grid, s)
        phi = psi
        if abs(new_quotient - quotient) <= tol * max(abs(new_quotient), 1e-30):
            return new_quotient
        quotient = new_quotient
    raise EstimationError(
        f"embedding estimate did not settle within {max_iters} sweeps "
        f"(last quotient {quotient:.12g})", last_quotient=quotient)
