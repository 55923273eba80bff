"""Backward-Euler finite-difference solver for the Dirichlet problem

    dphi/dt - div(A grad phi) + omega phi = f,   phi = 0 on the lateral
    boundary,  phi(., 0) = phi0,

on a cell-centered grid.  Each step solves (L + I/dt) phi^{n+1} =
phi^n/dt + f^{n+1} where L discretizes -div(A grad .) + omega with
coefficients frozen at the new time level (fully implicit).  L + I/dt
is the :class:`Stencil` with omega shifted by 1/dt, and its docstring
states the discretisation.  Each step is one matrix-free
conjugate-gradient solve on :meth:`Stencil.apply`, and every reduction goes
through :func:`parabolab.reductions.pairwise_sum`, so repeated runs on
one numpy build are bit-identical.
"""

from dataclasses import dataclass, replace

import numpy as np

from parabolab._cg import conjugate_gradient
from parabolab.errors import ConfigurationError, SolverError
from parabolab.fields import Grid, ProblemSpec, at_level


@dataclass(frozen=True)
class SolveOptions:
    """The CG tolerance, the one key of a config's ``[solver]`` section;
    the time scheme and the iteration cap (10 x the unknown count) are fixed."""
    tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.tol <= 1e-4:
            raise ConfigurationError(f"solver tolerance must lie in (0, 1e-4], got {self.tol}")


@dataclass(frozen=True)
class Solution:
    """Every time level ``phi`` of one march on ``grid``, with its CG history."""
    grid: Grid
    phi: np.ndarray
    residuals: tuple
    iterations: tuple

    @property
    def steps(self) -> int:
        return len(self.residuals)

    @property
    def total_iterations(self) -> int:
        return int(sum(self.iterations))


def _sl(nd: int, axis: int, s, other=slice(None)) -> tuple:
    idx = [other] * nd
    idx[axis] = s
    return tuple(idx)


class Stencil:
    """L u = -div(A grad u) + omega u with homogeneous Dirichlet walls.

    Diagonal diffusion uses two-point face fluxes.  An interior face
    takes the mean of its two cells' a_kk; a wall face takes twice the
    edge cell's a_kk, since the half-cell gradient 2 u / h points toward
    the wall value 0.  Each axis keeps one face array, n + 1 long along
    that axis and divided by h^2.  Scalar coefficients are broadcast
    first, so a scalar and the same constant array give the same
    operator bit for bit.

    Off-diagonal entries a_kj use ghost-cell central differences together
    with their exact adjoints, so L is symmetric by construction and
    conjugate gradients applies; the M-matrix (maximum-principle)
    structure is guaranteed only for diagonal A.  The central difference
    reads odd ghosts (ghost = -edge cell, wall value 0), and its
    transpose reads even ghosts with the sign reversed.

    :meth:`apply` works in scratch arrays fixed at construction, so one
    instance must not be applied from two threads at once; every solve
    builds its own.
    """

    def __init__(self, grid: Grid, diag_coeffs, cross=(), omega=0.0):
        shape = grid.shape_space
        nd = grid.dim
        self.h = grid.h
        self.cross = tuple(cross)
        self.omega = omega
        self.faces = []
        for axis, (h, a) in enumerate(zip(self.h, diag_coeffs)):
            a = np.broadcast_to(np.asarray(a, dtype=np.float64), shape)
            face = np.concatenate([2.0 * a[_sl(nd, axis, slice(0, 1))],
                                   0.5 * (a[_sl(nd, axis, slice(None, -1))]
                                          + a[_sl(nd, axis, slice(1, None))]),
                                   2.0 * a[_sl(nd, axis, slice(-1, None))]], axis=axis) / (h * h)
            self.faces.append(face)
        # scratch of apply: u inside a zero wall on every side, per-axis
        # scratch, and the central difference along each axis a cross
        # term couples
        self._walled = np.zeros(tuple(n + 2 for n in shape))
        self._inner = (slice(1, -1),) * nd
        self._axes = [_AxisScratch(axis, h, face)
                      for axis, (h, face) in enumerate(zip(self.h, self.faces))]
        self._term = np.empty(shape)
        self._psi = np.empty(shape)
        self._grads = {axis: np.empty(shape) for k, j, _ in self.cross for axis in (k, j)}

    @classmethod
    def at(cls, spec: ProblemSpec, t_index: int, shift: float = 0.0) -> "Stencil":
        """The operator with the coefficients of ``spec`` frozen at time level
        t_index and ``shift`` added to omega; shift = 1/dt gives the
        backward-Euler step operator L + I/dt."""
        g = spec.grid
        cross = []
        for k in range(g.dim):
            for j in range(k + 1, g.dim):
                c = at_level(g, spec.A[k, j], t_index)
                if not (np.isscalar(c) and c == 0.0):
                    cross.append((k, j, c))
        return cls(g, [at_level(g, spec.A[k, k], t_index) for k in range(g.dim)],
                   cross, at_level(g, spec.omega, t_index) + shift)

    def apply(self, u: np.ndarray) -> np.ndarray:
        """L u, as a new array that the caller owns."""
        # Every ufunc below writes to a contiguous array: numpy 2.4 with
        # AVX-512 stores wrong values for np.negative from one strided
        # view into another.
        out = self.omega * u
        term = self._term
        walled = self._walled
        walled[self._inner] = u
        for ax in self._axes:
            np.subtract(walled[ax.wall_hi], walled[ax.wall_lo], out=ax.flux)
            ax.flux *= ax.face
            np.subtract(ax.flux[ax.hi], ax.flux[ax.lo], out=term)
            out -= term
        for axis, grad in self._grads.items():
            ax = self._axes[axis]
            ax.ghost(u, -u[ax.first], -u[ax.last])
            np.subtract(ax.ghosted[ax.hi2], ax.ghosted[ax.lo2], out=grad)
            grad /= ax.width
        for k, j, c in self.cross:
            self._add_adjoint(out, c, self._grads[j], self._axes[k])
            self._add_adjoint(out, c, self._grads[k], self._axes[j])
        return out

    def _add_adjoint(self, out, c, grad, ax):
        """out += the transpose of ax's central difference, applied to c * grad."""
        psi, term = self._psi, self._term
        np.multiply(c, grad, out=psi)
        ax.ghost(psi, psi[ax.first], psi[ax.last])
        np.subtract(ax.ghosted[ax.lo2], ax.ghosted[ax.hi2], out=term)
        term /= ax.width
        out += term


class _AxisScratch:
    """The slices and scratch arrays of one axis of a :class:`Stencil`."""

    def __init__(self, axis: int, h: float, face: np.ndarray):
        nd = face.ndim
        self.face = face
        self.flux = np.empty(face.shape)
        self.width = 2.0 * h
        # differences along the axis of the zero-walled u, inside the
        # wall on every other axis
        self.wall_hi = _sl(nd, axis, slice(1, None), slice(1, -1))
        self.wall_lo = _sl(nd, axis, slice(None, -1), slice(1, -1))
        self.hi = _sl(nd, axis, slice(1, None))
        self.lo = _sl(nd, axis, slice(None, -1))
        # u with one ghost cell at each end of the axis
        shape = list(face.shape)
        shape[axis] += 1
        self.ghosted = np.empty(shape)
        self.inner = _sl(nd, axis, slice(1, -1))
        self.first = _sl(nd, axis, slice(0, 1))
        self.last = _sl(nd, axis, slice(-1, None))
        self.hi2 = _sl(nd, axis, slice(2, None))
        self.lo2 = _sl(nd, axis, slice(None, -2))

    def ghost(self, values, first, last):
        """Fill ``ghosted`` with values and the given ghost cells."""
        self.ghosted[self.inner] = values
        self.ghosted[self.first] = first
        self.ghosted[self.last] = last


def solve_ibvp(spec: ProblemSpec, opts: SolveOptions = None) -> Solution:
    """March the initial-boundary value problem over all nt steps."""
    opts = opts or SolveOptions()
    g = spec.grid
    cap = 10 * g.num_cells
    phi = np.empty(g.shape_spacetime)
    phi[0] = spec.phi0
    static = spec.static
    residuals = []
    iterations = []
    dt = g.dt
    for n in range(g.nt):
        if n == 0 or not static:
            step = Stencil.at(spec, n + 1, 1.0 / dt)
        rhs = phi[n] / dt + at_level(g, spec.f, n + 1)
        try:
            x, rel, iters = conjugate_gradient(step.apply, rhs, phi[n], opts.tol, cap)
        except SolverError as err:
            raise SolverError(f"step {n + 1}: {err}", residual=err.residual,
                              step_index=n + 1) from err
        phi[n + 1] = x
        residuals.append(rel)
        iterations.append(iters)
    return Solution(g, phi, tuple(residuals), tuple(iterations))


def solve_split(spec: ProblemSpec, opts: SolveOptions = None):
    """Split phi = phi1 + phi2: forcing with zero data, data with zero forcing.

    Returns (phi1, phi2): each the array of every time level of one march,
    or the number 0.0, with no solve, when its data (f for phi1, phi0 for
    phi2) vanish.  If the other datum is already zero, spec is marched as is.
    """
    has_f, has_phi0 = np.any(spec.f), np.any(spec.phi0)
    phi1 = solve_ibvp(replace(spec, phi0=0.0) if has_phi0 else spec, opts).phi if has_f else 0.0
    phi2 = solve_ibvp(replace(spec, f=0.0) if has_f else spec, opts).phi if has_phi0 else 0.0
    return phi1, phi2


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def export_solution(solution: Solution, path: str) -> None:
    """Dump a solution as text.

    Layout: header line `N nx... nt T`, a second header carrying the box
    extents, then one value per line, time-major and row-major per slice.
    """
    g = solution.grid
    with open(path, "w") as fh:
        fh.write("# " + " ".join([str(g.dim)] + [str(n) for n in g.nx]
                                 + [str(g.nt), repr(g.T)]) + "\n")
        fh.write("# box " + " ".join(f"{lo!r},{hi!r}" for lo, hi in g.box) + "\n")
        for level in solution.phi:
            fh.write("".join(f"{v:.17g}\n" for v in level.flat))
