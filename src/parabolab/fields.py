"""Box-domain space-time grids and validated problem data.

The continuous problem lives on Omega_T = Omega x (0, T) where Omega is an
axis-aligned box in R^N, N in {1, 2, 3}.  Each axis is split into nx
uniform cells and data are sampled at cell midpoints; time is split into
nt uniform steps with samples at the nt + 1 levels t_n = n * dt.  The
homogeneous Dirichlet condition lives on ghost faces, so no boundary nodes
are stored.  :class:`Grid` checks its extents and counts when it is built.

Every datum (an entry of A, omega, f, phi0) is a finite number or a
finite float64 array, and :func:`check_entry` is the one check of that;
A itself is a dict from index pairs (i, j), i <= j, to its entries.
It varies in time exactly when its array has the space-time shape
(nt + 1, *nx); a spatial array (*nx), or a number, is the same at every
level.  :func:`at_level` reads one level of any of them.

Problem data is admissible when the coefficient matrix A is uniformly
elliptic (its smallest eigenvalue >= lambda at every sample), the
zeroth-order coefficient omega is nonnegative, and the forcing
integrability exponent q lies strictly above the critical value 1 + N/2.
:class:`ProblemSpec` checks these standing hypotheses when it is built,
so every spec that exists is admissible.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from parabolab.errors import ConfigurationError, EvaluationError

# Tolerance on ellipticity: the smallest eigenvalue of A must reach
# lam - _H1_SLACK.
_H1_SLACK = 1e-10


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on a space-time box.

    ``box`` is a sequence of finite (lo, hi) pairs (one per axis, up to
    three), ``nx`` the per-axis cell counts (>= 4 each), ``T`` > 0 the
    finite final time and ``nt`` >= 2 the number of steps; construction
    converts them to tuples of floats and ints and raises
    :class:`ConfigurationError`, naming the offending axis, otherwise.
    Spacings are the single-division values h_k = (hi_k - lo_k) / nx_k and
    dt = T / nt.  Two grids compare equal iff all four defining tuples
    match exactly.
    """

    box: tuple
    nx: tuple
    T: float
    nt: int

    def __post_init__(self):
        box = tuple((float(lo), float(hi)) for lo, hi in self.box)
        nx = tuple(int(n) for n in (self.nx if np.iterable(self.nx) else [self.nx]))
        if not 1 <= len(box) <= 3:
            raise ConfigurationError(f"spatial dimension must be 1, 2 or 3, got {len(box)}")
        if len(nx) != len(box):
            raise ConfigurationError(f"nx has {len(nx)} entries for a {len(box)}-dimensional box")
        for k, ((lo, hi), n) in enumerate(zip(box, nx)):
            if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
                raise ConfigurationError(f"axis {k}: box requires finite lo < hi, got ({lo}, {hi})")
            if n < 4:
                raise ConfigurationError(f"axis {k}: at least 4 cells required, got {n}")
        T, nt = float(self.T), int(self.nt)
        if not (math.isfinite(T) and T > 0):
            raise ConfigurationError(f"final time must be positive and finite, got {T}")
        if nt < 2:
            raise ConfigurationError(f"at least 2 time steps required, got {nt}")
        for name, value in (("box", box), ("nx", nx), ("T", T), ("nt", nt)):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return len(self.box)

    @property
    def h(self) -> tuple:
        return tuple((hi - lo) / n for (lo, hi), n in zip(self.box, self.nx))

    @property
    def dt(self) -> float:
        return self.T / self.nt

    @property
    def shape_space(self) -> tuple:
        return tuple(self.nx)

    @property
    def shape_spacetime(self) -> tuple:
        return (self.nt + 1,) + tuple(self.nx)

    @property
    def num_cells(self) -> int:
        return int(np.prod(self.nx))

    @property
    def cell_volume(self) -> float:
        out = 1.0
        for s in self.h:
            out *= s
        return out

    @property
    def volume(self) -> float:
        """|Omega|, the measure of the spatial box."""
        out = 1.0
        for lo, hi in self.box:
            out *= hi - lo
        return out

    @property
    def spacetime_volume(self) -> float:
        """|Omega_T| = |Omega| * T."""
        return self.volume * self.T

    def midpoints(self, axis: int) -> np.ndarray:
        lo, hi = self.box[axis]
        n = self.nx[axis]
        h = (hi - lo) / n
        return lo + (np.arange(n) + 0.5) * h

    def time_levels(self) -> np.ndarray:
        return np.arange(self.nt + 1) * self.dt

    def meshgrid(self) -> tuple:
        """Spatial midpoint coordinate arrays, each of shape ``shape_space``."""
        axes = [self.midpoints(k) for k in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij"))


def _grid_point(grid: Grid, idx) -> tuple:
    """Coordinates of an array index: cell midpoints, then the time level's t
    for an index into a space-time array."""
    idx = tuple(int(i) for i in idx)
    if len(idx) > grid.dim:
        return _grid_point(grid, idx[1:]) + (idx[0] * grid.dt,)
    return tuple(float(grid.midpoints(k)[i]) for k, i in enumerate(idx))


def at_level(grid: Grid, entry, n: int):
    """Time level n of a space-time array; a scalar or a spatial array is
    the same at every level and comes back as it is."""
    return entry[n] if np.ndim(entry) > grid.dim else entry


def sample(fn, grid: Grid) -> np.ndarray:
    """Sample ``fn(x1, ..., xN, t)`` at cell midpoints and all time levels.

    ``fn`` must accept numpy coordinate arrays (vectorized evaluation) and
    is called once per time level.
    """
    mesh = grid.meshgrid()
    out = np.empty(grid.shape_spacetime)
    for n, t in enumerate(grid.time_levels()):
        out[n] = np.broadcast_to(fn(*mesh, t), grid.shape_space)
    return out


def sample_initial(fn, grid: Grid) -> np.ndarray:
    """Sample ``fn(x1, ..., xN)`` at cell midpoints."""
    return np.broadcast_to(fn(*grid.meshgrid()), grid.shape_space).copy()


def check_entry(grid: Grid, value, name: str):
    """A datum as stored: a finite number as a float, or a finite float64
    array of the spatial shape (static in time) or the space-time shape.

    Anything else raises :class:`ConfigurationError` naming the datum by
    its config key (``coefficients.axx``, ``forcing.f``); a non-finite
    array value raises :class:`EvaluationError` naming the datum and the
    first offending point.
    """
    if isinstance(value, numbers.Real):
        if not math.isfinite(value):
            raise ConfigurationError(f"{name} is not finite: {value!r}")
        return float(value)
    if not isinstance(value, np.ndarray):
        raise ConfigurationError(f"{name}: expected a number or an array, "
                                 f"got {type(value).__name__}")
    vals = np.asarray(value, dtype=np.float64)
    if vals.shape not in (grid.shape_space, grid.shape_spacetime):
        raise ConfigurationError(
            f"{name}: shape {vals.shape} is neither spatial {grid.shape_space} "
            f"nor space-time {grid.shape_spacetime}")
    if not np.isfinite(vals).all():
        point = _grid_point(grid, np.argwhere(~np.isfinite(vals))[0])
        raise EvaluationError(f"{name}: non-finite field value at point {point}")
    return vals


def entry_name(i: int, j: int) -> str:
    """The name of a_ij, for i <= j: axx, axy, ..., azz."""
    return f"a{'xyz'[i]}{'xyz'[j]}"


def _lowest(grid: Grid, values):
    """The smallest sample of a scalar or array and, for an array, the text
    ' at point (...)' naming where it is."""
    if np.isscalar(values):
        return float(values), ""
    idx = np.unravel_index(np.argmin(values), values.shape)
    return float(values[idx]), f" at point {_grid_point(grid, idx)}"


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Full problem data: grid, coefficients, forcing, initial state.

    ``A`` maps index pairs (i, j), i <= j < N, to the entries a_ij of the
    symmetric coefficient matrix; a missing diagonal entry reads 1.0 and a
    missing off-diagonal one 0.0, so ``{}`` is the identity, and any other
    key is refused.  Construction stores the full dict, with every pair.
    Each a_ij, ``omega``, ``f`` and ``phi0`` passes :func:`check_entry`:
    each is a number, a spatial array or a space-time array, except that
    ``phi0`` may not vary in time.  ``lam`` is the claimed ellipticity
    constant, ``q`` the integrability exponent of the forcing used by the
    diagnostics.

    Construction also checks the standing hypotheses: the smallest
    eigenvalue of A reaches lam - 1e-10 at every sample, omega is
    nonnegative, and q exceeds 1 + N/2 strictly.  One
    :class:`ConfigurationError` lists every violation with its witness
    value (at full precision) and, for an array entry, the sample point
    where it is worst.
    """

    grid: Grid
    A: dict
    omega: object
    f: object
    phi0: object
    lam: float = 1.0
    q: float = 4.0

    def __post_init__(self):
        N = self.grid.dim
        pairs = [(i, j) for i in range(N) for j in range(i, N)]
        for key in self.A:
            if key not in pairs:
                raise ConfigurationError(f"A has no entry {key!r}: its keys are the pairs "
                                         f"(i, j) with i <= j < {N}")
        object.__setattr__(self, "A", {
            (i, j): check_entry(self.grid, self.A.get((i, j), float(i == j)),
                                f"coefficients.{entry_name(i, j)}") for i, j in pairs})
        for section, key in (("coefficients", "omega"), ("forcing", "f"), ("forcing", "phi0")):
            object.__setattr__(self, key, check_entry(self.grid, getattr(self, key),
                                                      f"{section}.{key}"))
        if np.ndim(self.phi0) > self.grid.dim:
            raise ConfigurationError("forcing.phi0 must not vary in time, got the space-time "
                                     f"shape {self.phi0.shape}")
        violations = []
        if not self.lam > 0:
            violations.append(f"ellipticity constant must be positive, got {self.lam!r}")
        else:
            # stack a_ij over the broadcast shape of the entries: a constant A
            # is one N x N matrix, an array A one matrix per sample
            entries = [self.A[min(i, j), max(i, j)] for i in range(N) for j in range(N)]
            shape = np.broadcast_shapes(*(np.shape(a) for a in entries))
            stacked = np.stack([np.broadcast_to(a, shape) for a in entries], axis=-1)
            lowest = np.linalg.eigvalsh(stacked.reshape(shape + (N, N)))[..., 0]
            if float(np.min(lowest)) < self.lam - _H1_SLACK:
                value, where = _lowest(self.grid, lowest if shape else float(lowest))
                violations.append(f"smallest eigenvalue of A drops to {value!r}{where}, "
                                  f"below lambda = {self.lam!r}")
        if float(np.min(self.omega)) < 0:
            value, where = _lowest(self.grid, self.omega)
            violations.append(f"omega must be nonnegative, reaches {value!r}{where}")
        critical = 1.0 + N / 2.0
        if not self.q > critical:
            violations.append(f"q must exceed the critical exponent 1 + N/2 = {critical!r}, "
                              f"got {self.q!r}")
        if violations:
            raise ConfigurationError("problem data violate the standing hypotheses: "
                                     + "; ".join(violations))

    @property
    def static(self) -> bool:
        """True when no entry of A and not omega varies in time, so one
        operator serves every step."""
        return all(np.ndim(entry) <= self.grid.dim for entry in [*self.A.values(), self.omega])
