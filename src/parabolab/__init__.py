"""Numerical laboratory for sup-norm diagnostics of linear parabolic problems.

The package solves the initial-boundary value problem

    d_t phi - div(A grad phi) + omega * phi = f     on Omega x (0, T],
    phi = 0 on the lateral boundary,   phi(., 0) = phi0,

on axis-aligned boxes Omega in R^N (N = 1, 2, 3) with an implicit
backward-Euler finite-difference scheme, and instruments the solution with
the diagnostics needed to probe a logarithmic sup-norm estimate:

    sup |phi|  <=  sup |phi0| + c * |f|_{1+N/2} * (ln(|f|_q + 1) + 1),

valid whenever the forcing integrability exponent q exceeds the critical
value 1 + N/2.  The diagnostics follow the iteration that proves the
estimate: normalization of the inhomogeneous part, an exponential change
of variables, an exponential moment bound, an L^1 contraction check, a
geometric ladder of growing Lebesgue exponents whose limit recovers the
essential sup, and the closed-form exponent bookkeeping that assembles
the final bound.
"""

from parabolab.fields import Grid, ProblemSpec, sample, sample_initial
from parabolab.solver import SolveOptions, Solution, solve_ibvp, solve_split
from parabolab.norms import lq_spacetime, ess_sup, sup_t_spatial_l1
from parabolab.moser import exp_moment, l1_check, chi, ladder, exponents, trace, assemble_bound
from parabolab.constants import build_ledger
from parabolab.experiments import BumpFamily, bump, diagnose, run_sweep, fit_log_law

__version__ = "0.1.0"

__all__ = [
    "Grid", "ProblemSpec", "sample", "sample_initial",
    "SolveOptions", "Solution", "solve_ibvp", "solve_split",
    "lq_spacetime", "ess_sup", "sup_t_spatial_l1",
    "exp_moment", "l1_check", "chi", "ladder",
    "exponents", "trace", "assemble_bound",
    "build_ledger",
    "BumpFamily", "bump", "diagnose", "run_sweep", "fit_log_law",
]
