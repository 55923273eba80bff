"""Grid, data-entry, coefficient, and hypothesis-validation tests."""

import ast
import math
import re

import numpy as np
import pytest

from parabolab.errors import ConfigurationError, EvaluationError
from parabolab.fields import Grid, ProblemSpec, at_level, check_entry, sample, sample_initial


def test_grid_geometry():
    g = Grid([(0.0, 1.0), (0.0, 2.0)], [4, 8], 0.5, 10)
    assert g.dim == 2
    assert g.h == (0.25, 0.25)
    assert g.dt == 0.05
    assert g.shape_space == (4, 8)
    assert g.shape_spacetime == (11, 4, 8)
    assert g.num_cells == 32
    assert math.isclose(g.cell_volume, 0.0625)
    assert math.isclose(g.volume, 2.0)
    assert math.isclose(g.spacetime_volume, 1.0)


def test_midpoints_are_cell_centers():
    g = Grid([(1.0, 2.0)], [5], 1.0, 2)
    xs = g.midpoints(0)
    assert np.allclose(xs, 1.0 + (np.arange(5) + 0.5) * 0.2)
    assert np.allclose(g.time_levels(), [0.0, 0.5, 1.0])


@pytest.mark.parametrize("box,nx,T,nt", [
    ([(0, 1)], [0], 1.0, 4),
    ([(0, 1)], [4], 0.0, 4),
    ([(0, 1)], [4], 1.0, 0),
    ([(1, 1)], [4], 1.0, 4),
    ([(0, 1)] * 4, [4] * 4, 1.0, 4),
    ([(0, 1), (0, 1)], [4], 1.0, 4),
    # an infinite extent once solved: dt = inf made every step a steady solve
    ([(0, 1)], [8], math.inf, 4),
    ([(0, math.inf)], [8], 1.0, 4),
    ([(-math.inf, 1)], [8], 1.0, 4),
    ([(0, 1)], [8], math.nan, 4),
])
def test_bad_grids_rejected(box, nx, T, nt):
    with pytest.raises(ConfigurationError):
        Grid(box, nx, T, nt)


def test_field_shape_and_finiteness():
    g = Grid([(0.0, 1.0)], [4], 1.0, 2)
    with pytest.raises(ConfigurationError):
        check_entry(g, np.zeros((5,)), "f")
    bad = np.zeros((3, 4))
    bad[1, 2] = np.inf
    with pytest.raises(EvaluationError):
        check_entry(g, bad, "f")
    spatial = check_entry(g, np.zeros(g.shape_space, dtype=int), "f")
    assert spatial.shape == (4,) and spatial.dtype == np.float64
    assert check_entry(g, np.zeros((3, 4)), "f").shape == g.shape_spacetime
    assert check_entry(g, 2, "f") == 2.0 and isinstance(check_entry(g, 2, "f"), float)


def test_non_finite_value_names_its_grid_point():
    # index [1, 2] is time level 1 (t = dt = 0.5) at the third midpoint, x = 0.625
    g = Grid([(0, 1)], [4], 1.0, 2)
    bad = np.zeros((3, 4))
    bad[1, 2] = np.inf
    with pytest.raises(EvaluationError, match=r"at point \(0\.625, 0\.5\)$"):
        check_entry(g, bad, "f")


def test_sample_matches_manual_evaluation():
    g = Grid([(0.0, 1.0), (0.0, 1.0)], [6, 6], 0.3, 3)
    fn = lambda x, y, t: np.sin(math.pi * x) * np.cos(y) * math.exp(-t)
    f = sample(fn, g)
    X, Y = g.meshgrid()
    for k, t in enumerate(g.time_levels()):
        assert np.allclose(f[k], np.sin(math.pi * X) * np.cos(Y) * math.exp(-t))
    f0 = sample_initial(lambda x, y: x + y, g)
    assert f.shape == g.shape_spacetime and f0.shape == g.shape_space
    assert np.allclose(f0, X + Y)


def test_matrix_coefficient_components():
    g = Grid([(0.0, 1.0), (0.0, 1.0)], [4, 4], 1.0, 2)
    # the spec stores every pair i <= j, the unset ones from the identity
    assert _spec(g).A == {(0, 0): 1.0, (0, 1): 0.0, (1, 1): 1.0}
    B = _spec(g, A={(1, 1): 3.0, (0, 1): 0.5}, lam=0.5).A
    assert B == {(0, 0): 1.0, (0, 1): 0.5, (1, 1): 3.0}
    assert at_level(g, B[0, 0], 7) == 1.0
    spatial = np.full(g.shape_space, 1.5)
    C = _spec(g, A={(0, 0): spatial}).A
    assert at_level(g, C[0, 0], 0).shape == g.shape_space


@pytest.mark.parametrize("key", [(1, 0), (0, 2), (2, 2), (-1, 0), "axx", (0,)])
def test_a_key_outside_the_upper_triangle_is_refused(key):
    g = Grid([(0.0, 1.0), (0.0, 1.0)], [4, 4], 1.0, 2)
    with pytest.raises(ConfigurationError, match=r"^A has no entry .*: its keys are the pairs "
                                                 r"\(i, j\) with i <= j < 2$"):
        _spec(g, A={key: 0.1})


def test_problem_spec_grid_mismatch():
    g = Grid([(0.0, 1.0)], [4], 1.0, 2)
    g2 = Grid([(0.0, 1.0)], [5], 1.0, 2)
    A = {}
    f = np.zeros(g.shape_spacetime)
    phi0 = np.zeros(g.shape_space)
    with pytest.raises(ConfigurationError):
        ProblemSpec(g2, A, 0.0, f, phi0)
    with pytest.raises(ConfigurationError, match=r"^coefficients\.axx: shape"):
        ProblemSpec(g, {(0, 0): np.ones(g2.shape_space)}, 0.0, f, phi0)
    with pytest.raises(ConfigurationError, match=r"^forcing\.f: shape"):
        ProblemSpec(g, A, 0.0, np.zeros(g2.shape_spacetime), phi0)
    with pytest.raises(ConfigurationError, match=r"^forcing\.phi0 must not vary in time"):
        ProblemSpec(g, A, 0.0, f, np.zeros(g.shape_spacetime))


def test_omega_at_all_storage_kinds():
    g = Grid([(0.0, 1.0)], [4], 1.0, 2)
    A = {}
    f = np.zeros(g.shape_spacetime)
    phi0 = np.zeros(g.shape_space)
    s = ProblemSpec(g, A, 2.0, f, phi0)
    assert at_level(g, s.omega, 1) == 2.0 and s.static
    s = ProblemSpec(g, A, np.arange(4.0), f, phi0)
    assert np.array_equal(at_level(g, s.omega, 2), np.arange(4.0)) and s.static
    s = ProblemSpec(g, A, np.arange(12.0).reshape(3, 4), f, phi0)
    assert np.array_equal(at_level(g, s.omega, 1), np.array([4.0, 5.0, 6.0, 7.0]))
    assert not s.static
    # an entry of A that varies in time makes the spec time-dependent too
    axx = np.ones(g.shape_spacetime)
    assert not ProblemSpec(g, {(0, 0): axx}, 2.0, f, phi0).static


def _spec(g, A=None, omega=0.0, lam=1.0, q=4.0):
    return ProblemSpec(g, A if A is not None else {}, omega, 0.0, 0.0, lam, q)


def _violations(g, **kwargs):
    """The messages ProblemSpec refuses _spec(g, **kwargs) with, one per violation."""
    with pytest.raises(ConfigurationError) as err:
        _spec(g, **kwargs)
    prefix = "problem data violate the standing hypotheses: "
    assert str(err.value).startswith(prefix)
    return str(err.value)[len(prefix):].split("; ")


def _witness(message):
    """(value, point) a violation message names; point is None for a scalar."""
    value = re.search(r"(?:drops to|reaches|got) (\S+?),? ", message + " ").group(1)
    point = re.search(r" at point (\([^)]*\))", message)
    return float(value), None if point is None else ast.literal_eval(point.group(1))


def test_validate_admissible_identity():
    g = Grid([(0.0, 1.0), (0.0, 1.0)], [5, 5], 1.0, 4)
    spec = _spec(g)
    assert spec.lam == 1.0 and spec.q == 4.0


def test_validate_flags_weak_diagonal():
    g = Grid([(0.0, 1.0)], [5], 1.0, 4)
    weak = {(0, 0): 0.5}
    bad = _violations(g, A=weak, lam=1.0)
    assert len(bad) == 1 and "smallest eigenvalue of A" in bad[0]
    assert _witness(bad[0]) == (0.5, None)


def test_validate_flags_cross_term_degeneracy():
    # axx = ayy = 1 with axy = 0.6 drops the form to 0.4 along (e0 - e1)
    g = Grid([(0.0, 1.0), (0.0, 1.0)], [4, 4], 1.0, 2)
    A = {(0, 0): 1.0, (1, 1): 1.0, (0, 1): 0.6}
    bad = [m for m in _violations(g, A=A, lam=1.0) if "smallest eigenvalue" in m]
    assert bad and math.isclose(_witness(bad[0])[0], 0.4, rel_tol=1e-12)
    # the same matrix is fine against a weaker claimed constant
    _spec(g, A=A, lam=0.4)


def test_validate_catches_indefinite_a_between_probe_directions():
    # every e_i and (e_i +- e_j)/sqrt2 form stays >= 0.1, yet the smallest
    # eigenvalue is 5.05 - sqrt(4.95^2 + 1.1^2) = -0.0207
    g = Grid([(0.0, 1.0), (0.0, 1.0)], [4, 4], 1.0, 2)
    A = {(0, 0): 10.0, (1, 1): 0.1, (0, 1): 1.1}
    bad = [m for m in _violations(g, A=A, lam=0.1) if "smallest eigenvalue" in m]
    assert len(bad) == 1
    value, point = _witness(bad[0])
    assert math.isclose(value, 5.05 - math.hypot(4.95, 1.1), rel_tol=1e-12)
    assert point is None
    # an array entry reports the sample where the eigenvalue is lowest
    axx = np.full((4, 4), 10.0)
    axx[2, 1] = 0.5
    A = {(0, 0): axx, (1, 1): 1.0, (0, 1): 0.6}
    bad = _violations(g, A=A, lam=0.2)
    assert len(bad) == 1
    value, point = _witness(bad[0])
    assert point == (0.625, 0.375)
    assert math.isclose(value, 0.1, rel_tol=1e-12)


def test_validate_flags_negative_omega_with_location():
    g = Grid([(0.0, 1.0)], [8], 1.0, 2)
    w = np.zeros(8)
    w[3] = -0.25
    bad = [m for m in _violations(g, omega=w) if "omega" in m]
    assert len(bad) == 1
    value, point = _witness(bad[0])
    assert value == -0.25
    assert math.isclose(point[0], (3 + 0.5) / 8)


# a nan entry once passed the hypothesis check: eigvalsh returned nan, and
# nan < lambda is false, so CG met the nan instead
def test_coefficient_entries_are_finite_numbers_or_arrays():
    g = Grid([(0.0, 1.0), (0.0, 1.0)], [4, 4], 1.0, 2)
    with pytest.raises(ConfigurationError, match=r"^coefficients\.axx is not finite: nan$"):
        _spec(g, A={(0, 0): math.nan, (1, 1): 1.0})
    with pytest.raises(ConfigurationError, match=r"^coefficients\.axy is not finite: inf$"):
        _spec(g, A={(0, 0): 1.0, (1, 1): 1.0, (0, 1): math.inf})
    with pytest.raises(ConfigurationError, match=r"^coefficients\.omega is not finite: nan$"):
        _spec(g, omega=float("nan"))
    bad = np.ones(g.shape_space)
    bad[1, 2] = np.inf
    with pytest.raises(ConfigurationError, match=r"^coefficients\.omega: non-finite field value "
                                                 r"at point \(0\.375, 0\.625\)$"):
        _spec(g, omega=bad)
    with pytest.raises(ConfigurationError, match=r"^coefficients\.omega: expected a number or an "
                                                 "array, got list$"):
        _spec(g, omega=[0.0] * 4)


def test_forcing_and_data_pass_the_entry_check():
    g = Grid([(0.0, 1.0), (0.0, 1.0)], [4, 4], 1.0, 2)
    A = {}
    with pytest.raises(ConfigurationError, match=r"^forcing\.f is not finite: nan$"):
        ProblemSpec(g, A, 0.0, math.nan, 0.0)
    bad = np.zeros(g.shape_space)
    bad[1, 2] = -np.inf
    with pytest.raises(EvaluationError, match=r"^forcing\.phi0: non-finite field value "
                                              r"at point \(0\.375, 0\.625\)$"):
        ProblemSpec(g, A, 0.0, 0.0, bad)
    with pytest.raises(ConfigurationError, match=r"^forcing\.f: expected a number or an array"):
        ProblemSpec(g, A, 0.0, None, 0.0)
    # a number or a spatial array is the same at every level
    spec = ProblemSpec(g, A, 0.0, 3, np.ones(g.shape_space))
    assert spec.f == 3.0 and at_level(g, spec.f, 2) == 3.0
    assert at_level(g, spec.phi0, 1).shape == g.shape_space


def test_validate_critical_q_is_excluded():
    g = Grid([(0.0, 1.0), (0.0, 1.0)], [4, 4], 1.0, 2)
    bad = _violations(g, q=2.0)   # q = 1 + N/2 exactly
    assert len(bad) == 1 and bad[0].startswith("q must exceed")
    assert _witness(bad[0]) == (2.0, None)
    _spec(g, q=2.0 + 1e-9)
