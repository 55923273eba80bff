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
:func:`log_power_sums`: every L^p norm (on x = log|v|) and the whole
Moser chain.  A value whose log passes LOG_FLOAT_MAX (about 709.78) is
inf, so a norm reads inf only when the norm itself passes the largest
double, never because its sum of p-th powers does.
"""

import math
import sys

import numpy as np

from parabolab.errors import DomainError
from parabolab.fields import SPACETIME, Field
from parabolab.reductions import pairwise_sum

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


def lq_spacetime(field: Field, ps) -> list:
    """L^p norms of a spacetime field over Omega_T, one for each p in ps,
    measure dx dt (weight cellvol * dt per sample).  The field's nonzero
    samples are read once for all of them.  An identically zero field has
    norm 0."""
    if field.kind != SPACETIME:
        raise DomainError("lq_spacetime requires a spacetime field")
    ps = [float(p) for p in ps]
    for p in ps:
        if not p >= 1.0 or not math.isfinite(p):
            raise DomainError(f"exponent must satisfy 1 <= p < infinity, got {p}")
    vals = field.values[1:]
    support = np.log(np.abs(vals[vals != 0.0]))   # zero samples add nothing to a power sum
    log_weight = math.log(field.grid.cell_volume * field.grid.dt)
    return [exp_or_inf((log_sum + log_weight) / p)
            for p, log_sum in zip(ps, log_power_sums(support, 0, ps))]


def ess_sup(field: Field) -> float:
    """Maximum of |values| over every sample, the initial slice included."""
    return float(np.max(np.abs(field.values)))


def sup_t_spatial_l1(values: np.ndarray, cell_volume: float) -> float:
    """sup over time levels of the spatial L^1 norm of one slice.

    values holds one spatial slice per time level, the initial one first.
    """
    return max((pairwise_sum(np.abs(level)) for level in values), default=0.0) * cell_volume
