"""Backward Euler solver: spectral oracle, linearity, stability, round trips."""

import math
import os

import numpy as np
import pytest

from parabolab.errors import ConfigurationError
from parabolab.fields import (SPACETIME, TIMESLICE, Field, MatrixCoefficient,
                              ProblemSpec, make_grid, sample_initial)
from parabolab.solver import (SolveOptions, Stencil, export_solution, load_solution,
                              solve_ibvp, solve_split, step)


def _heat_spec(g, f=None, phi0=None, omega=0.0, diag=None):
    A = MatrixCoefficient.identity(g) if diag is None else MatrixCoefficient(g, diag)
    return ProblemSpec(g, A,
                       omega,
                       f if f is not None else Field.zeros(g, SPACETIME),
                       phi0 if phi0 is not None else Field.zeros(g, TIMESLICE))


def test_step_reproduces_discrete_eigenmode_decay():
    # sin(pi x) sampled at midpoints is an exact eigenvector of the
    # 1-D operator with eigenvalue mu = (2 - 2 cos(pi h)) / h^2, so a
    # backward Euler step is exactly division by 1 + dt mu.
    g = make_grid([(0.0, 1.0)], [16], 0.1, 10)
    h, dt = g.h[0], g.dt
    mu = (2.0 - 2.0 * math.cos(math.pi * h)) / h ** 2
    phi0 = sample_initial(lambda x: np.sin(math.pi * x), g)
    spec = _heat_spec(g, phi0=phi0)
    state = phi0
    for k in range(3):
        state = step(state, spec, g, t_index=k)
    expected = phi0.values / (1.0 + dt * mu) ** 3
    assert np.max(np.abs(state.values - expected)) < 1e-12


def test_zero_problem_stays_zero_without_iterations():
    g = make_grid([(0.0, 1.0), (0.0, 1.0)], [8, 8], 1.0, 6)
    sol = solve_ibvp(_heat_spec(g))
    assert np.all(sol.phi.values == 0.0)
    assert sol.total_iterations == 0
    assert max(sol.residuals) == 0.0


def test_superposition_of_forcings():
    rng = np.random.default_rng(21)
    g = make_grid([(0.0, 1.0), (0.0, 2.0)], [10, 12], 0.4, 8)
    f1 = Field(g, rng.normal(size=g.shape_spacetime), SPACETIME)
    f2 = Field(g, rng.normal(size=g.shape_spacetime), SPACETIME)
    both = Field(g, f1.values + f2.values, SPACETIME)
    omega = Field(g, rng.uniform(0.0, 2.0, g.shape_space), TIMESLICE)
    diag = [rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)]
    a = solve_ibvp(_heat_spec(g, f=f1, omega=omega, diag=diag)).phi.values
    b = solve_ibvp(_heat_spec(g, f=f2, omega=omega, diag=diag)).phi.values
    c = solve_ibvp(_heat_spec(g, f=both, omega=omega, diag=diag)).phi.values
    scale = np.max(np.abs(c)) + 1.0
    assert np.max(np.abs(a + b - c)) < 1e-8 * scale


def test_split_parts_sum_to_full_solution():
    rng = np.random.default_rng(33)
    g = make_grid([(0.0, 1.0)], [24], 0.5, 12)
    f = Field(g, rng.normal(size=g.shape_spacetime), SPACETIME)
    phi0 = Field(g, rng.normal(size=g.shape_space), TIMESLICE)
    spec = _heat_spec(g, f=f, phi0=phi0, omega=0.3)
    full = solve_ibvp(spec).phi.values
    forced, drift = solve_split(spec)
    total = forced.phi.values + drift.phi.values
    sup = np.max(np.abs(full))
    assert np.max(np.abs(total - full)) <= 1e-6 * (1.0 + sup)


def test_split_shortcuts_skip_work():
    g = make_grid([(0.0, 1.0)], [8], 0.5, 4)
    phi0 = sample_initial(lambda x: x * (1.0 - x), g)
    forced, drift = solve_split(_heat_spec(g, phi0=phi0))
    assert np.all(forced.phi.values == 0.0) and forced.total_iterations == 0
    assert np.max(np.abs(drift.phi.values)) > 0.0


def test_initial_data_contracts_in_sup_norm():
    rng = np.random.default_rng(2)
    g = make_grid([(0.0, 1.0), (0.0, 1.0)], [12, 12], 1.0, 10)
    phi0 = Field(g, rng.normal(size=g.shape_space), TIMESLICE)
    sol = solve_ibvp(_heat_spec(g, phi0=phi0, omega=0.5))
    assert np.max(np.abs(sol.phi.values)) <= np.max(np.abs(phi0.values)) + 1e-12


def test_maximum_principle_smoke():
    rng = np.random.default_rng(4)
    g = make_grid([(0.0, 1.0)], [16], 0.6, 8)
    f = Field(g, rng.uniform(0.0, 3.0, g.shape_spacetime), SPACETIME)
    phi0 = Field(g, rng.uniform(0.0, 1.0, g.shape_space), TIMESLICE)
    sol = solve_ibvp(_heat_spec(g, f=f, phi0=phi0, diag=[1.7]))
    assert np.min(sol.phi.values) >= -1e-12


def test_large_steps_remain_stable_and_bounded():
    # dt = 2.5 is far beyond any explicit stability limit
    g = make_grid([(0.0, 1.0)], [32], 10.0, 4)
    f = Field(g, np.full(g.shape_spacetime, 2.0), SPACETIME)
    phi0 = Field(g, np.full(g.shape_space, 1.0), TIMESLICE)
    sol = solve_ibvp(_heat_spec(g, f=f, phi0=phi0))
    bound = 1.0 + 10.0 * 2.0
    assert np.max(np.abs(sol.phi.values)) <= bound
    assert np.all(np.isfinite(sol.phi.values))


def test_cross_terms_keep_solver_symmetric():
    # indefinite-looking anisotropy with axy = 0.4 stays elliptic and
    # the CG path must converge on it
    rng = np.random.default_rng(8)
    g = make_grid([(0.0, 1.0), (0.0, 1.0)], [10, 10], 0.3, 6)
    A = MatrixCoefficient(g, [1.0, 1.3], {(0, 1): 0.4})
    f = Field(g, rng.normal(size=g.shape_spacetime), SPACETIME)
    spec = ProblemSpec(g, A, 0.0, f, Field.zeros(g, TIMESLICE), lam=0.5)
    sol = solve_ibvp(spec)
    assert np.all(np.isfinite(sol.phi.values))
    assert max(sol.residuals) < 1e-9
    # <u, L v> = <L u, v> with a varying axx, a varying cross term and a varying omega
    axx = 1.0 + 0.5 * rng.random(g.shape_space)
    axy = 0.3 * rng.uniform(-1.0, 1.0, g.shape_space)
    omega = Field(g, rng.random(g.shape_space), TIMESLICE)
    A = MatrixCoefficient(g, [axx, 1.3], {(0, 1): axy})
    L = Stencil.at(ProblemSpec(g, A, omega, f, Field.zeros(g, TIMESLICE)), 1)
    u, v = rng.normal(size=(2, *g.shape_space))
    assert math.isclose(np.sum(u * L.apply(v)), np.sum(L.apply(u) * v), rel_tol=1e-12)


def _unit_responses(L, shape):
    """(L e_i)_i for every unit vector e_i."""
    out = np.empty(shape)
    for i in np.ndindex(shape):
        e = np.zeros(shape)
        e[i] = 1.0
        out[i] = L.apply(e)[i]
    return out


@pytest.mark.parametrize("box, nx", [([(0.0, 1.0)], [7]),
                                     ([(0.0, 1.0), (0.0, 0.75)], [5, 6]),
                                     ([(0.0, 1.0), (0.0, 0.75), (0.0, 2.0)], [4, 5, 4])])
def test_stencil_diagonal_is_exact(box, nx):
    rng = np.random.default_rng(len(nx))
    g = make_grid(box, nx, 1.0, 2)
    shape = g.shape_space
    idx = np.indices(shape)
    on_both = np.all([(idx[k] == 0) | (idx[k] == n - 1) for k, n in enumerate(shape[:2])], axis=0)
    spatial = 0.5 + rng.random(shape)
    for a in (2.0, spatial, np.full(shape, 2.0)):
        coeffs = [a * (k + 1) for k in range(g.dim)]
        for omega in (0.0, 1.5, rng.random(shape)):
            L = Stencil(g, coeffs, omega=omega)
            assert np.array_equal(L.diagonal, _unit_responses(L, shape))
            if g.dim > 1:
                # a cross term reaches the diagonal only on cells at the
                # boundary of both its axes, where the Jacobi diagonal omits it
                Lx = Stencil(g, coeffs, [(0, 1, 0.2 * spatial)], omega)
                differs = Lx.diagonal != _unit_responses(Lx, shape)
                assert differs.any()
                assert not np.any(differs & ~on_both)
    # a scalar coefficient and the same constant array give the same operator
    u = rng.normal(size=shape)
    scalar = Stencil(g, [2.0] * g.dim, omega=1.5)
    array = Stencil(g, [np.full(shape, 2.0)] * g.dim, omega=1.5)
    assert np.array_equal(scalar.apply(u), array.apply(u))
    assert np.array_equal(scalar.diagonal, array.diagonal)


def test_time_dependent_omega_matches_manual_stepping():
    g = make_grid([(0.0, 1.0)], [12], 0.5, 5)
    ramp = np.broadcast_to(np.linspace(0.0, 2.0, 6)[:, None], (6, 12)).copy()
    omega = Field(g, ramp, SPACETIME)
    f = Field(g, np.ones(g.shape_spacetime), SPACETIME)
    spec = _heat_spec(g, f=f, omega=omega)
    sol = solve_ibvp(spec)
    state = Field.zeros(g, TIMESLICE)
    for k in range(5):
        state = step(state, spec, g, t_index=k)
    assert np.array_equal(sol.phi.values[-1], state.values)


def test_export_import_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    g = make_grid([(0.0, 0.75), (0.25, 1.0)], [6, 5], 0.3, 4)
    f = Field(g, rng.normal(size=g.shape_spacetime), SPACETIME)
    sol = solve_ibvp(_heat_spec(g, f=f))
    path = os.path.join(tmp_path, "solution.txt")
    export_solution(sol, path)
    back = load_solution(path)
    assert back.grid.box == g.box
    assert back.grid.nx == g.nx
    assert back.grid.nt == g.nt
    assert math.isclose(back.grid.T, g.T, rel_tol=1e-15)
    assert np.array_equal(back.values, sol.phi.values)


def test_solve_options_validation():
    with pytest.raises(ConfigurationError):
        SolveOptions(tol=0.0)
    with pytest.raises(ConfigurationError):
        SolveOptions(tol=1e-3)
    with pytest.raises(ConfigurationError):
        SolveOptions(tol=1e-10, max_iters=0)


def test_inadmissible_spec_is_rejected():
    g = make_grid([(0.0, 1.0)], [8], 1.0, 4)
    bad = _heat_spec(g, omega=-1.0)
    with pytest.raises(ConfigurationError):
        solve_ibvp(bad)
