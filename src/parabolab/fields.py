"""Box-domain space-time grids, sampled fields, and validated problem data.

The continuous problem lives on Omega_T = Omega x (0, T) where Omega is an
axis-aligned box in R^N, N in {1, 2, 3}.  Each axis is split into nx
uniform cells and fields are sampled at cell midpoints; time is split into
nt uniform steps with samples at the nt + 1 levels t_n = n * dt.  The
homogeneous Dirichlet condition lives on ghost faces, so no boundary nodes
are stored.

Problem data is admissible when the coefficient matrix A is uniformly
elliptic (its smallest eigenvalue >= lambda at every sample), the
zeroth-order coefficient omega is nonnegative, and the forcing
integrability exponent q lies strictly above the critical value 1 + N/2.  ``validate`` reports every violation with a witness point; an
empty report means the spec is admissible.
"""

from dataclasses import dataclass

import numpy as np

from parabolab.errors import ConfigurationError, EvaluationError

SPACETIME = "spacetime"
TIMESLICE = "timeslice"

# Tolerance on ellipticity: the smallest eigenvalue of A must reach
# lam - _H1_SLACK.
_H1_SLACK = 1e-10


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on a space-time box.

    ``box`` holds (lo, hi) per spatial axis, ``nx`` the cell counts,
    ``T`` the final time, and ``nt`` the number of time steps.  Spacings
    are the single-division values h_k = (hi_k - lo_k) / nx_k and
    dt = T / nt.  Two grids compare equal iff all four defining tuples
    match exactly.
    """

    box: tuple
    nx: tuple
    T: float
    nt: int

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


def make_grid(box, nx, T, nt) -> Grid:
    """Construct a validated grid.

    ``box`` is a sequence of (lo, hi) pairs (one per axis, up to three),
    ``nx`` the per-axis cell counts (>= 4 each), ``T`` > 0 the final time
    and ``nt`` >= 2 the number of steps.  Errors name the offending axis.
    """
    box = tuple((float(lo), float(hi)) for lo, hi in box)
    nx = tuple(int(n) for n in (nx if np.iterable(nx) else [nx]))
    if not 1 <= len(box) <= 3:
        raise ConfigurationError(f"spatial dimension must be 1, 2 or 3, got {len(box)}")
    if len(nx) != len(box):
        raise ConfigurationError(f"nx has {len(nx)} entries for a {len(box)}-dimensional box")
    for k, ((lo, hi), n) in enumerate(zip(box, nx)):
        if not hi > lo:
            raise ConfigurationError(f"axis {k}: box requires lo < hi, got ({lo}, {hi})")
        if n < 4:
            raise ConfigurationError(f"axis {k}: at least 4 cells required, got {n}")
    T = float(T)
    nt = int(nt)
    if not T > 0:
        raise ConfigurationError(f"final time must be positive, got {T}")
    if nt < 2:
        raise ConfigurationError(f"at least 2 time steps required, got {nt}")
    return Grid(box=box, nx=nx, T=T, nt=nt)


def _grid_point(grid: Grid, idx, spacetime: bool) -> tuple:
    """Coordinates of an array index: cell midpoints, then the time level's t
    for a space-time array."""
    idx = tuple(int(i) for i in idx)
    if spacetime:
        return _grid_point(grid, idx[1:], False) + (idx[0] * grid.dt,)
    return tuple(float(grid.midpoints(k)[i]) for k, i in enumerate(idx))


@dataclass(frozen=True, eq=False)
class Field:
    """Sampled scalar field on a grid.

    ``kind`` is 'spacetime' (shape (nt+1, *nx), one slice per time level)
    or 'timeslice' (shape (*nx)).  Values must be finite; construction
    raises :class:`EvaluationError` naming the first offending point
    otherwise.  Fields are treated as immutable once built.
    """

    grid: Grid
    values: np.ndarray
    kind: str = SPACETIME

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", vals)
        if self.kind not in (SPACETIME, TIMESLICE):
            raise ConfigurationError(f"unknown field kind {self.kind!r}")
        want = self.grid.shape_spacetime if self.kind == SPACETIME else self.grid.shape_space
        if vals.shape != want:
            raise ConfigurationError(
                f"{self.kind} field shape {vals.shape} does not match grid shape {want}")
        if not np.isfinite(vals).all():
            point = _grid_point(self.grid, np.argwhere(~np.isfinite(vals))[0],
                                self.kind == SPACETIME)
            raise EvaluationError(f"non-finite field value at point {point}")

    @classmethod
    def zeros(cls, grid: Grid, kind: str = SPACETIME) -> "Field":
        shape = grid.shape_spacetime if kind == SPACETIME else grid.shape_space
        return cls(grid, np.zeros(shape), kind)

def sample(fn, grid: Grid) -> Field:
    """Sample ``fn(x1, ..., xN, t)`` at cell midpoints and all time levels.

    ``fn`` must accept numpy coordinate arrays (vectorized evaluation) and
    is called once per time level.  Non-finite results raise
    :class:`EvaluationError` naming the first offending point.
    """
    mesh = grid.meshgrid()
    out = np.empty(grid.shape_spacetime)
    for n, t in enumerate(grid.time_levels()):
        out[n] = np.broadcast_to(fn(*mesh, t), grid.shape_space)
    return Field(grid, out, SPACETIME)


def sample_initial(fn, grid: Grid) -> Field:
    """Sample the initial datum ``fn(x1, ..., xN)`` at cell midpoints."""
    mesh = grid.meshgrid()
    vals = np.broadcast_to(fn(*mesh), grid.shape_space).copy()
    return Field(grid, vals, TIMESLICE)


def _check_coefficient_shape(grid: Grid, value, name: str):
    """Coefficient entries are scalars, static space arrays, or space-time arrays."""
    if np.isscalar(value):
        return float(value)
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape not in (grid.shape_space, grid.shape_spacetime):
        raise ConfigurationError(
            f"coefficient {name}: shape {arr.shape} is neither spatial {grid.shape_space} "
            f"nor space-time {grid.shape_spacetime}")
    if not np.isfinite(arr).all():
        raise ConfigurationError(f"coefficient {name} contains non-finite values")
    return arr


class MatrixCoefficient:
    """Symmetric N x N coefficient matrix A on a grid.

    Diagonal entries are stored per axis, off-diagonal entries per
    unordered pair {i, j}; each entry is a scalar (constant in space and
    time), a spatial array (static in time), or a full space-time array.
    Missing off-diagonal entries are zero.
    """

    def __init__(self, grid: Grid, diag, off=None):
        self.grid = grid
        diag = list(diag)
        if len(diag) != grid.dim:
            raise ConfigurationError(
                f"A needs {grid.dim} diagonal entries, got {len(diag)}")
        self.diag = [_check_coefficient_shape(grid, d, f"a{k}{k}") for k, d in enumerate(diag)]
        self.off = {}
        for (i, j), value in (off or {}).items():
            if i == j or not (0 <= i < grid.dim and 0 <= j < grid.dim):
                raise ConfigurationError(f"invalid off-diagonal index pair ({i}, {j})")
            key = (min(i, j), max(i, j))
            self.off[key] = _check_coefficient_shape(grid, value, f"a{key[0]}{key[1]}")

    @classmethod
    def identity(cls, grid: Grid) -> "MatrixCoefficient":
        return cls(grid, [1.0] * grid.dim)

    def component(self, i: int, j: int):
        """Entry a_ij as stored: scalar, spatial array, or space-time array."""
        if i == j:
            return self.diag[i]
        return self.off.get((min(i, j), max(i, j)), 0.0)

    def at_time(self, i: int, j: int, t_index: int):
        """Entry a_ij at one time level: scalar or spatial array."""
        value = self.component(i, j)
        if np.isscalar(value) or value.shape == self.grid.shape_space:
            return value
        return value[t_index]


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Full problem data: grid, coefficients, forcing, initial state.

    ``omega`` may be a scalar or a Field (timeslice = static in time).
    ``lam`` is the claimed ellipticity constant, ``q`` the integrability
    exponent of the forcing used by the diagnostics.
    """

    grid: Grid
    A: MatrixCoefficient
    omega: object
    f: Field
    phi0: Field
    lam: float = 1.0
    q: float = 4.0

    def __post_init__(self):
        if self.A.grid != self.grid:
            raise ConfigurationError("A lives on a different grid")
        if self.f.grid != self.grid or self.f.kind != SPACETIME:
            raise ConfigurationError("f must be a spacetime field on the same grid")
        if self.phi0.grid != self.grid or self.phi0.kind != TIMESLICE:
            raise ConfigurationError("phi0 must be a timeslice field on the same grid")
        if isinstance(self.omega, Field) and self.omega.grid != self.grid:
            raise ConfigurationError("omega lives on a different grid")

    def omega_at(self, t_index: int):
        """omega at one time level: scalar or spatial array."""
        if isinstance(self.omega, Field):
            if self.omega.kind == TIMESLICE:
                return self.omega.values
            return self.omega.values[t_index]
        return float(self.omega)


@dataclass(frozen=True)
class Violation:
    hypothesis: str
    message: str
    point: tuple = None
    value: float = None


@dataclass(frozen=True)
class HypothesisReport:
    violations: tuple

    @property
    def admissible(self) -> bool:
        return len(self.violations) == 0


def _worst_point(grid: Grid, arr, reducer):
    """Locate the reducing sample of a scalar-or-array coefficient expression."""
    if np.isscalar(arr):
        return None, float(arr)
    idx = np.unravel_index(reducer(arr), arr.shape)
    return _grid_point(grid, idx, arr.shape == grid.shape_spacetime), float(arr[idx])


def validate(spec: ProblemSpec) -> HypothesisReport:
    """Check ellipticity, sign, and exponent hypotheses on a problem spec.

    The smallest eigenvalue of A must stay above lam - 1e-10 at every
    sample (the violation names the worst one).  omega must be
    nonnegative and q must exceed 1 + N/2 strictly.  The call is pure:
    equal specs produce equal reports.
    """
    grid = spec.grid
    N = grid.dim
    violations = []

    if not spec.lam > 0:
        violations.append(Violation(
            "H1", f"ellipticity constant must be positive, got {spec.lam}"))
    else:
        # stack a_ij over the broadcast shape of the entries: a constant A
        # is one N x N matrix, an array A one matrix per sample
        entries = [spec.A.component(i, j) for i in range(N) for j in range(N)]
        shape = np.broadcast_shapes(*(np.shape(a) for a in entries))
        stacked = np.stack([np.broadcast_to(a, shape) for a in entries], axis=-1)
        lowest = np.linalg.eigvalsh(stacked.reshape(shape + (N, N)))[..., 0]
        if float(np.min(lowest)) < spec.lam - _H1_SLACK:
            point, value = _worst_point(grid, lowest if shape else float(lowest), np.argmin)
            violations.append(Violation(
                "H1", f"smallest eigenvalue of A drops to {value:.6g} < lambda={spec.lam}",
                point=point, value=value))

    omega = spec.omega.values if isinstance(spec.omega, Field) else spec.omega
    low = float(np.min(omega))
    if low < 0:
        point, value = _worst_point(grid, omega, np.argmin)
        violations.append(Violation(
            "H2", f"omega must be nonnegative, reaches {value:.6g}",
            point=point, value=value))

    critical = 1.0 + N / 2.0
    if not spec.q > critical:
        violations.append(Violation(
            "H2", f"q must exceed the critical exponent 1 + N/2 = {critical}, got {spec.q}",
            value=float(spec.q)))

    return HypothesisReport(violations=tuple(violations))
