"""Grid, field, coefficient, and hypothesis-validation tests."""

import math

import numpy as np
import pytest

from parabolab.errors import ConfigurationError, EvaluationError
from parabolab.fields import (SPACETIME, TIMESLICE, Field, MatrixCoefficient,
                              ProblemSpec, make_grid, sample, sample_initial,
                              validate)
from parabolab.solver import solve_ibvp


def test_grid_geometry():
    g = make_grid([(0.0, 1.0), (0.0, 2.0)], [4, 8], 0.5, 10)
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
    g = make_grid([(1.0, 2.0)], [5], 1.0, 2)
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
])
def test_bad_grids_rejected(box, nx, T, nt):
    with pytest.raises(ConfigurationError):
        make_grid(box, nx, T, nt)


def test_field_shape_and_finiteness():
    g = make_grid([(0.0, 1.0)], [4], 1.0, 2)
    with pytest.raises(ConfigurationError):
        Field(g, np.zeros((4,)), SPACETIME)
    bad = np.zeros((3, 4))
    bad[1, 2] = np.inf
    with pytest.raises(EvaluationError):
        Field(g, bad, SPACETIME)
    f = Field.zeros(g, TIMESLICE)
    assert f.values.shape == (4,)


def test_non_finite_value_names_its_grid_point():
    # index [1, 2] is time level 1 (t = dt = 0.5) at the third midpoint, x = 0.625
    g = make_grid([(0, 1)], [4], 1.0, 2)
    bad = np.zeros((3, 4))
    bad[1, 2] = np.inf
    with pytest.raises(EvaluationError, match=r"at point \(0\.625, 0\.5\)$"):
        Field(g, bad, SPACETIME)


def test_sample_matches_manual_evaluation():
    g = make_grid([(0.0, 1.0), (0.0, 1.0)], [6, 6], 0.3, 3)
    fn = lambda x, y, t: np.sin(math.pi * x) * np.cos(y) * math.exp(-t)
    f = sample(fn, g)
    X, Y = g.meshgrid()
    for k, t in enumerate(g.time_levels()):
        assert np.allclose(f.values[k], np.sin(math.pi * X) * np.cos(Y) * math.exp(-t))
    f0 = sample_initial(lambda x, y: x + y, g)
    assert f0.kind == TIMESLICE
    assert np.allclose(f0.values, X + Y)


def test_matrix_coefficient_components():
    g = make_grid([(0.0, 1.0), (0.0, 1.0)], [4, 4], 1.0, 2)
    A = MatrixCoefficient.identity(g)
    assert A.component(0, 0) == 1.0
    assert A.component(0, 1) == 0.0
    B = MatrixCoefficient(g, [2.0, 3.0], {(0, 1): 0.5})
    assert B.component(1, 1) == 3.0
    # symmetric access
    assert B.component(1, 0) == B.component(0, 1) == 0.5
    assert B.at_time(0, 0, 7) == 2.0
    spatial = np.full(g.shape_space, 1.5)
    C = MatrixCoefficient(g, [spatial, 1.0])
    assert C.at_time(0, 0, 0).shape == g.shape_space


def test_problem_spec_grid_mismatch():
    g = make_grid([(0.0, 1.0)], [4], 1.0, 2)
    g2 = make_grid([(0.0, 1.0)], [5], 1.0, 2)
    A = MatrixCoefficient.identity(g)
    f = Field.zeros(g, SPACETIME)
    phi0 = Field.zeros(g, TIMESLICE)
    with pytest.raises(ConfigurationError):
        ProblemSpec(g2, A, 0.0, f, phi0)
    with pytest.raises(ConfigurationError):
        ProblemSpec(g, A, 0.0, Field.zeros(g2, SPACETIME), phi0)
    with pytest.raises(ConfigurationError):
        ProblemSpec(g, A, 0.0, f, Field.zeros(g, SPACETIME))


def test_omega_at_all_storage_kinds():
    g = make_grid([(0.0, 1.0)], [4], 1.0, 2)
    A = MatrixCoefficient.identity(g)
    f = Field.zeros(g, SPACETIME)
    phi0 = Field.zeros(g, TIMESLICE)
    s = ProblemSpec(g, A, 2.0, f, phi0)
    assert s.omega_at(1) == 2.0
    slab = Field(g, np.arange(4.0), TIMESLICE)
    s = ProblemSpec(g, A, slab, f, phi0)
    assert np.array_equal(s.omega_at(2), np.arange(4.0))
    cube = Field(g, np.arange(12.0).reshape(3, 4), SPACETIME)
    s = ProblemSpec(g, A, cube, f, phi0)
    assert np.array_equal(s.omega_at(1), np.array([4.0, 5.0, 6.0, 7.0]))


def _spec(g, A=None, omega=0.0, lam=1.0, q=4.0):
    A = A if A is not None else MatrixCoefficient.identity(g)
    return ProblemSpec(g, A, omega, Field.zeros(g, SPACETIME),
                       Field.zeros(g, TIMESLICE), lam, q)


def test_validate_admissible_identity():
    g = make_grid([(0.0, 1.0), (0.0, 1.0)], [5, 5], 1.0, 4)
    report = validate(_spec(g))
    assert report.admissible
    assert report.violations == ()


def test_validate_flags_weak_diagonal():
    g = make_grid([(0.0, 1.0)], [5], 1.0, 4)
    weak = MatrixCoefficient(g, [0.5])
    report = validate(_spec(g, A=weak, lam=1.0))
    assert not report.admissible
    assert any(v.hypothesis == "H1" for v in report.violations)


def test_validate_flags_cross_term_degeneracy():
    # axx = ayy = 1 with axy = 0.6 drops the form to 0.4 along (e0 - e1)
    g = make_grid([(0.0, 1.0), (0.0, 1.0)], [4, 4], 1.0, 2)
    A = MatrixCoefficient(g, [1.0, 1.0], {(0, 1): 0.6})
    report = validate(_spec(g, A=A, lam=1.0))
    msgs = [v.message for v in report.violations if v.hypothesis == "H1"]
    assert msgs and "0.4" in msgs[0]
    # the same matrix is fine against a weaker claimed constant
    assert validate(_spec(g, A=A, lam=0.4)).admissible


def test_validate_catches_indefinite_a_between_probe_directions():
    # every e_i and (e_i +- e_j)/sqrt2 form stays >= 0.1, yet the smallest
    # eigenvalue is 5.05 - sqrt(4.95^2 + 1.1^2) = -0.0207
    g = make_grid([(0.0, 1.0), (0.0, 1.0)], [4, 4], 1.0, 2)
    A = MatrixCoefficient(g, [10.0, 0.1], {(0, 1): 1.1})
    report = validate(_spec(g, A=A, lam=0.1))
    bad = [v for v in report.violations if v.hypothesis == "H1"]
    assert len(bad) == 1
    assert math.isclose(bad[0].value, 5.05 - math.hypot(4.95, 1.1), rel_tol=1e-12)
    with pytest.raises(ConfigurationError):
        solve_ibvp(_spec(g, A=A, lam=0.1))
    # an array entry reports the sample where the eigenvalue is lowest
    axx = np.full((4, 4), 10.0)
    axx[2, 1] = 0.5
    A = MatrixCoefficient(g, [axx, 1.0], {(0, 1): 0.6})
    bad = validate(_spec(g, A=A, lam=0.2)).violations
    assert len(bad) == 1 and bad[0].point == (0.625, 0.375)
    assert math.isclose(bad[0].value, 0.1, rel_tol=1e-12)


def test_validate_flags_negative_omega_with_location():
    g = make_grid([(0.0, 1.0)], [8], 1.0, 2)
    w = np.zeros(8)
    w[3] = -0.25
    report = validate(_spec(g, omega=Field(g, w, TIMESLICE)))
    bad = [v for v in report.violations if "omega" in v.message]
    assert len(bad) == 1
    assert bad[0].value == -0.25
    assert math.isclose(bad[0].point[0], (3 + 0.5) / 8)


def test_validate_critical_q_is_excluded():
    g = make_grid([(0.0, 1.0), (0.0, 1.0)], [4, 4], 1.0, 2)
    assert not validate(_spec(g, q=2.0)).admissible   # q = 1 + N/2 exactly
    assert validate(_spec(g, q=2.0 + 1e-9)).admissible
