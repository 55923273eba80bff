"""Space-time Lebesgue norms and sup functionals.

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

from parabolab.errors import DomainError, RangeError
from parabolab.fields import SPACETIME, Field
from parabolab.reductions import pairwise_sum

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
