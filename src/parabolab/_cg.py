"""Matrix-free conjugate gradients.

Used for the symmetric positive definite systems produced by the implicit
time stepper.  All inner products go through
:func:`parabolab.reductions.pairwise_sum`, whose order depends only on the
vector length, so solves are bit-reproducible on one numpy build.
"""

import math

import numpy as np

from parabolab.errors import SolverError
from parabolab.reductions import pairwise_sum


def conjugate_gradient(apply_op, b, x0, tol, max_iters):
    """Solve ``apply_op(x) = b`` for SPD ``apply_op``, starting from ``x0``.

    Convergence criterion: two-norm of the residual relative to
    ``|b|_2 <= tol``; r.r is both that test and the step scalar.  Returns
    ``(x, rel_residual, iterations)``.  Raises :class:`SolverError`
    before the first iteration if ``|b|_2`` overflows a double, and
    carrying the last relative residual if ``max_iters`` is exhausted, or
    if the operator reveals a non-positive curvature direction (not SPD).

    ``b`` and ``x0`` are left unchanged, and so is every array
    ``apply_op`` returns; the iterates are updated in place.
    """
    b = np.asarray(b, dtype=np.float64)
    with np.errstate(over="ignore"):
        work = b * b
        bnorm = math.sqrt(pairwise_sum(work))
    if not math.isfinite(bnorm):
        raise SolverError("the right side's 2-norm overflows a double")
    if bnorm == 0.0:
        return np.zeros_like(b), 0.0, 0
    x = np.array(x0, dtype=np.float64, copy=True)
    r = b - apply_op(x)
    np.multiply(r, r, out=work)
    rr = pairwise_sum(work)
    rel = math.sqrt(rr) / bnorm
    if rel <= tol:
        return x, rel, 0
    p = r.copy()
    for iteration in range(1, int(max_iters) + 1):
        Ap = apply_op(p)
        np.multiply(p, Ap, out=work)
        pAp = pairwise_sum(work)
        if pAp <= 0.0:
            raise SolverError(
                f"operator is not positive definite along a search direction (p^T A p = {pAp:.3e})",
                residual=rel)
        alpha = rr / pAp
        np.multiply(alpha, p, out=work)
        x += work
        np.multiply(alpha, Ap, out=work)
        r -= work
        np.multiply(r, r, out=work)
        rr_next = pairwise_sum(work)
        rel = math.sqrt(rr_next) / bnorm
        if rel <= tol:
            return x, rel, iteration
        p *= rr_next / rr
        p += r
        rr = rr_next
    raise SolverError(
        f"conjugate gradients stalled at relative residual {rel:.3e} "
        f"after {int(max_iters)} iterations (tol {tol:.1e})",
        residual=rel)
