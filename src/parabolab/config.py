"""Plain-text problem configuration.

Grammar: INI sections with `key = value` lines.

  [grid]          box = 0,1 0,1   nx = 96,96   T = 0.26   nt = 1088
  [coefficients]  a = 1.0 (isotropic) or 1.0,2.0 (diagonal), individual
                  entries axx, ayy, azz, axy, axz, ayz (for the grid's
                  axes) and omega, lambda, q
  [forcing]       f, phi0
  [sweep]         eps = 0.25,0.125,...  gamma, x0, t0, amplitude, beta0,
                  i_max, moment_cap (all optional except eps)
  [solver]        tol (optional)

Only [grid] is required.  An unlisted section or key is refused, naming
section.key, and so is a non-finite sample, naming its key and point.
An entry of A left unset is that of the identity.
Values are read literally: `%` has no meaning.

Every a_ij, omega, f and phi0 is a number or a function, read by one
rule: a number, constant or zero is a float; radial, or a sine without
decay, is one spatial array; a decaying sine or a bump is a space-time
array, which varies in time, so phi0 may not be one.  Function values
are `name key=val ...`, taking only the parameters listed, one number
each (comma-separated for center, x0).  Names:

  zero
  constant value=V
  sine amplitude=A decay=D      A * prod_k sin(pi (x_k-lo_k)/L_k) * e^(-D t)
  radial amplitude=A center=a,b exponent=P     A * |x - center|^P
  bump eps=E gamma=G x0=a,b t0=C

A bump datum and the [sweep] section share their defaults: x0 at the box
centre, t0 = 0.6 T, gamma = 2 (and amplitude 1, which only [sweep] sets).
Both pass experiments.check_bump, whose messages name the datum's key or
sweep.*.

A bare number is shorthand for `constant value=<number>`.  A radial
omega with P slightly above -2 stays integrable while damping a
self-similar bump family by a nearly scale-free amount per octave of
eps, which keeps the sweep's sup growth close to linear in ln|f|_q.
"""

import configparser
import math
import os
from dataclasses import dataclass

import numpy as np

from parabolab.errors import ConfigurationError
from parabolab.experiments import BumpFamily, bump
from parabolab.fields import Grid, ProblemSpec, entry_name, sample, sample_initial
from parabolab.solver import SolveOptions

@dataclass(frozen=True)
class SweepSettings:
    eps: tuple
    family: BumpFamily
    beta0: float = 1.0
    i_max: int = 12
    moment_cap: float = 10.0


@dataclass(frozen=True)
class ConfigBundle:
    spec: ProblemSpec
    sweep: SweepSettings       # None when the file has no [sweep] section
    solve_options: SolveOptions


def parse_numbers(text: str, key: str, kind=float):
    """Comma- or space-separated numbers of kind; a ConfigurationError names key,
    also for an empty component (``32,,32``, ``0.25,``)."""
    parts = text.split(",")
    if len(parts) > 1 and not all(part.strip() for part in parts):
        raise ConfigurationError(f"{key}: empty component in {text!r}")
    try:
        return [kind(tok) for part in parts for tok in part.split()]
    except ValueError as err:
        raise ConfigurationError(f"{key}: cannot parse numbers from {text!r}") from err


def _scalar(parser, section: str, key: str, kind=float, default=None):
    """section.key parsed by kind (float or int), or default when absent."""
    if not parser.has_option(section, key):
        return default
    try:
        return kind(parser[section][key])
    except ValueError as err:
        raise ConfigurationError(
            f"{section}.{key}: cannot parse a number from {parser[section][key]!r}") from err


# the parameters each registered function takes; center and x0 are vectors
_FUNCTIONS = {"zero": (), "constant": ("value",), "sine": ("amplitude", "decay"),
              "radial": ("amplitude", "center", "exponent"),
              "bump": ("eps", "gamma", "x0", "t0")}
_VECTORS = ("center", "x0")


def _parse_function(text: str, key: str):
    """Split `name k=v k=v` into (name, params): a float per parameter, a
    tuple for center and x0.  Unknown names and parameters are refused."""
    tokens = text.split()
    if not tokens:
        raise ConfigurationError(f"{key}: empty function value")
    name = tokens[0]
    if name not in _FUNCTIONS:
        raise ConfigurationError(f"{key}: unknown function {name!r} "
                                 f"(choose {', '.join(_FUNCTIONS)})")
    params = {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise ConfigurationError(f"{key}: expected k=v parameter, got {tok!r}")
        pkey, pval = tok.split("=", 1)
        if pkey not in _FUNCTIONS[name]:
            raise ConfigurationError(f"{key}: {name} takes no parameter {pkey!r} "
                                     f"(takes {', '.join(_FUNCTIONS[name]) or 'none'})")
        vals = parse_numbers(pval, f"{key}.{pkey}")
        if not vals or (len(vals) > 1 and pkey not in _VECTORS):
            raise ConfigurationError(f"{key}.{pkey}: needs one number (components for "
                                     f"center and x0), got {pval!r}")
        params[pkey] = tuple(vals) if pkey in _VECTORS else vals[0]
    return name, params


def _sine_fn(grid: Grid, amplitude: float = 1.0, decay: float = 0.0):
    def fn(*args):
        if len(args) == grid.dim:
            xs, t = args, 0.0
        else:
            xs, t = args[:-1], args[-1]
        out = amplitude * math.exp(-decay * float(t))
        for k, (lo, hi) in enumerate(grid.box):
            out = out * np.sin(math.pi * (xs[k] - lo) / (hi - lo))
        return out
    return fn


def _datum(text: str, key: str, grid: Grid):
    """The datum a config value describes, for every a_ij, omega, f and
    phi0: a float for a number, constant or zero; a spatial array for
    radial or a sine without decay; a space-time array for a decaying sine
    or a bump.  :class:`ProblemSpec` checks what it returns."""
    try:
        return float(text)
    except ValueError:
        name, params = _parse_function(text, key)
    if name == "zero":
        return 0.0
    if name == "constant":
        return params.get("value", 1.0)
    if name == "sine":
        decay = params.get("decay", 0.0)
        fn = _sine_fn(grid, params.get("amplitude", 1.0), decay)
        return sample(fn, grid) if decay != 0.0 else sample_initial(fn, grid)
    if name == "radial":
        center = params.get("center", tuple(0.5 * (lo + hi) for lo, hi in grid.box))
        if len(center) != grid.dim:
            raise ConfigurationError(f"{key}: radial center needs {grid.dim} components")
        mesh = grid.meshgrid()
        r2 = np.zeros(grid.shape_space)
        for k in range(grid.dim):
            r2 = r2 + (mesh[k] - center[k]) ** 2
        with np.errstate(divide="ignore"):
            return params.get("amplitude", 1.0) * r2 ** (0.5 * params.get("exponent", -1.0))
    # bump, the one registered function left
    if "eps" not in params:
        raise ConfigurationError(f"{key}: bump needs eps=...")
    return bump(_family(params, grid), params["eps"], grid, key)


def _family(params, grid: Grid) -> BumpFamily:
    """The bump family of a bump datum or the [sweep] section: x0 at the box
    centre, t0 = 0.6 T, gamma = 2 and amplitude 1 unless params say otherwise."""
    return BumpFamily(params.get("x0", tuple(0.5 * (lo + hi) for lo, hi in grid.box)),
                      params.get("t0", 0.6 * grid.T), params.get("gamma", 2.0),
                      params.get("amplitude", 1.0))


def _build_coefficient(section, grid: Grid) -> dict:
    """A as :class:`ProblemSpec` takes it: ``a`` sets the diagonal, each a_ij
    key its entry, and ProblemSpec fills in the rest of the identity."""
    N = grid.dim
    A = {}
    if "a" in section:
        vals = parse_numbers(section["a"], "coefficients.a")
        if len(vals) not in (1, N):
            raise ConfigurationError(f"coefficients.a needs 1 or {N} values, got {len(vals)}")
        A = {(k, k): vals[k % len(vals)] for k in range(N)}
    for i in range(N):
        for j in range(i, N):
            key = entry_name(i, j)
            if key in section:
                A[i, j] = _datum(section[key], f"coefficients.{key}", grid)
    return A


# the keys of each section; [coefficients] also takes an a_ij per pair of axes
_KEYS = {"grid": ("box", "nx", "T", "nt"),
         "coefficients": ("a", "lambda", "q", "omega"),
         "forcing": ("f", "phi0"),
         "sweep": ("eps", "x0", "t0", "gamma", "amplitude", "beta0", "i_max", "moment_cap"),
         "solver": ("tol",)}


def _check_keys(parser, N: int) -> None:
    """Refuse a section or key the grammar lacks, an a_ij off N axes included."""
    for name in parser.sections():
        if name not in _KEYS:
            raise ConfigurationError(f"[{name}]: unknown section (sections: {', '.join(_KEYS)})")
        known = _KEYS[name]
        if name == "coefficients":
            known += tuple(entry_name(i, j) for i in range(N) for j in range(i, N))
        for key in parser[name]:
            if key not in known:
                raise ConfigurationError(f"{name}.{key}: unknown key "
                                         f"([{name}] takes {', '.join(known)})")


def load_config(path: str) -> ConfigBundle:
    """Parse a configuration file into grid, problem spec, and settings."""
    if not os.path.exists(path):
        raise ConfigurationError(f"configuration file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read(path)
    except configparser.Error as err:
        raise ConfigurationError(f"{path}: {err}") from err
    for need in _KEYS["grid"]:
        if not parser.has_option("grid", need):
            raise ConfigurationError(f"{path}: [grid] missing {need}")
    gs = parser["grid"]
    pairs = gs["box"].split()
    box = []
    for token in pairs:
        vals = parse_numbers(token, "grid.box")
        if len(vals) != 2:
            raise ConfigurationError(f"grid.box: each axis needs lo,hi, got {token!r}")
        box.append((vals[0], vals[1]))
    nx = parse_numbers(gs["nx"], "grid.nx", int)
    grid = Grid(box, nx, _scalar(parser, "grid", "T"), _scalar(parser, "grid", "nt", int))
    _check_keys(parser, grid.dim)

    cs = parser["coefficients"] if "coefficients" in parser else {}
    A = _build_coefficient(cs, grid)
    lam = _scalar(parser, "coefficients", "lambda", default=1.0)
    q = _scalar(parser, "coefficients", "q", default=4.0)
    omega, f, phi0 = (_datum(parser.get(section, key, fallback="0.0"), f"{section}.{key}", grid)
                      for section, key in (("coefficients", "omega"), ("forcing", "f"),
                                           ("forcing", "phi0")))
    spec = ProblemSpec(grid, A, omega, f, phi0, lam, q)

    sweep = None
    if "sweep" in parser:
        ss = parser["sweep"]
        if "eps" not in ss:
            raise ConfigurationError(f"{path}: [sweep] missing eps")
        eps = tuple(parse_numbers(ss["eps"], "sweep.eps"))
        params = {key: _scalar(parser, "sweep", key) for key in ("t0", "gamma", "amplitude")
                  if key in ss}
        if "x0" in ss:
            params["x0"] = tuple(parse_numbers(ss["x0"], "sweep.x0"))
        moment_cap = _scalar(parser, "sweep", "moment_cap", default=10.0)
        if not (math.isfinite(moment_cap) and moment_cap > 0.0):
            raise ConfigurationError(f"sweep.moment_cap must be positive and finite, "
                                     f"got {moment_cap}")
        sweep = SweepSettings(eps, _family(params, grid),
                              _scalar(parser, "sweep", "beta0", default=1.0),
                              _scalar(parser, "sweep", "i_max", int, 12), moment_cap)

    return ConfigBundle(spec, sweep,
                        SolveOptions(_scalar(parser, "solver", "tol", default=1e-10)))
