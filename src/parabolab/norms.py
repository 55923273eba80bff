"""Space-time Lebesgue norms and sup functionals.

Quadrature is the midpoint rule in space (fields are sampled at cell
midpoints) combined with the right-endpoint rule in time, which is the
rule the implicit stepper integrates exactly for piecewise-constant
integrands: the initial slice is parabolic-boundary data and is excluded
from integral norms, while sup-type functionals run over every sample.

All reductions go through :func:`parabolab.reductions.pairwise_sum`,
whose order depends only on the element count, so norms are
bit-reproducible on one numpy build regardless of thread count.

Every sum of exp(p * x) goes through one log-space kernel,
:func:`log_power_sums`: norms with p >= 32 (on x = log|v|) and the whole
Moser chain.  A value whose log passes LOG_FLOAT_MAX (about 709.78) is
inf.  Exponents p < 32 use direct powers and raise :class:`RangeError`
if they overflow.
"""

import math
import sys

import numpy as np

from parabolab.errors import DomainError, RangeError
from parabolab.fields import SPACETIME, Field
from parabolab.reductions import pairwise_sum

LOG_SPACE_THRESHOLD = 32.0
LOG_FLOAT_MAX = math.log(sys.float_info.max)


def exp_or_inf(log_value: float) -> float:
    """exp(log_value), or inf once log_value passes LOG_FLOAT_MAX."""
    return math.exp(log_value) if log_value <= LOG_FLOAT_MAX else math.inf


def log_power_sums(support: np.ndarray, zeros: int, exponents) -> list:
    """log(zeros + sum_i exp(p * s_i)) for each p > 0, over a finite support s.

    The samples of some x pass as its nonzero ones (the support) and the
    count of its zeros, which add exactly 1 each.  The support is shifted
    in place by its max (by 0 when zeros exist and 0 is larger), so no
    exponential overflows.  Nothing at all gives -inf.
    """
    if support.size == 0:
        return [math.log(zeros) if zeros else -math.inf for _ in exponents]
    top = max(float(np.max(support)), 0.0) if zeros else float(np.max(support))
    support -= top
    scaled = np.empty_like(support)
    out = []
    for p in exponents:
        np.exp(np.multiply(support, p, out=scaled), out=scaled)
        total = pairwise_sum(scaled) + (zeros * math.exp(-p * top) if zeros else 0.0)
        out.append(p * top + math.log(total))
    return out


def lq_spacetime(field: Field, p: float) -> float:
    """L^p norm of a spacetime field over Omega_T, measure dx dt (weight
    cellvol * dt per sample).  An identically zero field has norm 0."""
    if field.kind != SPACETIME:
        raise DomainError("lq_spacetime requires a spacetime field")
    if not p >= 1.0 or not math.isfinite(p):
        raise DomainError(f"exponent must satisfy 1 <= p < infinity, got {p}")
    p = float(p)
    vals = field.values[1:]
    vals = np.abs(vals[vals != 0.0])   # zero samples add nothing to a power sum
    weight = field.grid.cell_volume * field.grid.dt
    if p >= LOG_SPACE_THRESHOLD:
        log_sum, = log_power_sums(np.log(vals), 0, [p])
        return math.exp((log_sum + math.log(weight)) / p)
    with np.errstate(over="ignore"):
        total = pairwise_sum(vals ** p)
    if not math.isfinite(total):
        raise RangeError(f"L^{p} accumulation overflowed; normalize the field, "
                         "or use an exponent >= 32 for the log-space path")
    return (total * weight) ** (1.0 / p)


def ess_sup(field: Field) -> float:
    """Maximum of |values| over every sample, the initial slice included."""
    return float(np.max(np.abs(field.values)))


def sup_t_spatial_l1(values: np.ndarray, cell_volume: float) -> float:
    """sup over time levels of the spatial L^1 norm of one slice.

    values holds one spatial slice per time level, the initial one first.
    """
    return max((pairwise_sum(np.abs(level)) for level in values), default=0.0) * cell_volume
