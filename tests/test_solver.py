"""Backward Euler solver: spectral oracle, linearity, stability, round trips."""

import math
import os

import numpy as np
import pytest

from parabolab import solver
from parabolab._cg import conjugate_gradient
from parabolab.errors import ConfigurationError, SolverError
from parabolab.fields import Grid, ProblemSpec, sample_initial
from parabolab.reductions import pairwise_sum
from parabolab.solver import SolveOptions, Stencil, export_solution, solve_ibvp, solve_split


def _heat_spec(g, f=0.0, phi0=0.0, omega=0.0, diag=None):
    A = {} if diag is None else {(k, k): d for k, d in enumerate(diag)}
    return ProblemSpec(g, A, omega, f, phi0)


def test_step_reproduces_discrete_eigenmode_decay():
    # sin(pi x) sampled at midpoints is an exact eigenvector of the
    # 1-D operator with eigenvalue mu = (2 - 2 cos(pi h)) / h^2, so a
    # backward Euler step is exactly division by 1 + dt mu.
    g = Grid([(0.0, 1.0)], [16], 0.1, 10)
    h, dt = g.h[0], g.dt
    mu = (2.0 - 2.0 * math.cos(math.pi * h)) / h ** 2
    phi0 = sample_initial(lambda x: np.sin(math.pi * x), g)
    phi = solve_ibvp(_heat_spec(g, phi0=phi0)).phi
    expected = phi0 / (1.0 + dt * mu) ** 3
    assert np.max(np.abs(phi[3] - expected)) < 1e-12


def test_zero_problem_stays_zero_without_iterations():
    g = Grid([(0.0, 1.0), (0.0, 1.0)], [8, 8], 1.0, 6)
    sol = solve_ibvp(_heat_spec(g))
    assert np.all(sol.phi == 0.0)
    assert sol.total_iterations == 0
    assert max(sol.residuals) == 0.0


def test_superposition_of_forcings():
    rng = np.random.default_rng(21)
    g = Grid([(0.0, 1.0), (0.0, 2.0)], [10, 12], 0.4, 8)
    f1 = rng.normal(size=g.shape_spacetime)
    f2 = rng.normal(size=g.shape_spacetime)
    both = f1 + f2
    omega = rng.uniform(0.0, 2.0, g.shape_space)
    diag = [rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)]
    a = solve_ibvp(_heat_spec(g, f=f1, omega=omega, diag=diag)).phi
    b = solve_ibvp(_heat_spec(g, f=f2, omega=omega, diag=diag)).phi
    c = solve_ibvp(_heat_spec(g, f=both, omega=omega, diag=diag)).phi
    scale = np.max(np.abs(c)) + 1.0
    assert np.max(np.abs(a + b - c)) < 1e-8 * scale


def test_split_parts_sum_to_full_solution():
    rng = np.random.default_rng(33)
    g = Grid([(0.0, 1.0)], [24], 0.5, 12)
    f = rng.normal(size=g.shape_spacetime)
    phi0 = rng.normal(size=g.shape_space)
    spec = _heat_spec(g, f=f, phi0=phi0, omega=0.3)
    full = solve_ibvp(spec).phi
    phi1, phi2 = solve_split(spec)
    total = phi1 + phi2
    sup = np.max(np.abs(full))
    assert np.max(np.abs(total - full)) <= 1e-6 * (1.0 + sup)


# a half whose data vanish is the number 0.0 and costs no solve
def test_split_shortcuts_skip_work(monkeypatch):
    g = Grid([(0.0, 1.0)], [8], 0.5, 4)
    calls = []

    def counting(spec, opts=None):
        calls.append(spec)
        return solve_ibvp(spec, opts)

    monkeypatch.setattr(solver, "solve_ibvp", counting)
    for f, phi0, marches in ((0.0, 1.0, 1), (2.0, 0.0, 1), (2.0, 1.0, 2), (0.0, 0.0, 0)):
        calls.clear()
        phi1, phi2 = solve_split(_heat_spec(g, f=f, phi0=phi0))
        assert len(calls) == marches
        for half, data in ((phi1, f), (phi2, phi0)):
            if data:
                assert half.shape == g.shape_spacetime and np.max(np.abs(half)) > 0.0
            else:
                assert half == 0.0


def test_number_and_spatial_data_solve_like_their_space_time_copies():
    # a number or a spatial array is the same at every level: the solve
    # reads it through at_level, bit for bit as its space-time copy
    rng = np.random.default_rng(9)
    g = Grid([(0.0, 1.0)], [10], 0.5, 5)
    steady = rng.normal(size=g.shape_space)
    for f in (2.0, steady):
        copy = np.broadcast_to(f, g.shape_spacetime).copy()
        want = solve_ibvp(_heat_spec(g, f=copy, phi0=np.ones(g.shape_space))).phi
        got = solve_ibvp(_heat_spec(g, f=f, phi0=1.0)).phi
        assert np.array_equal(got, want)
    # a split half that vanishes is the number 0.0
    assert solve_split(_heat_spec(g, f=2.0))[1] == 0.0


def test_initial_data_contracts_in_sup_norm():
    rng = np.random.default_rng(2)
    g = Grid([(0.0, 1.0), (0.0, 1.0)], [12, 12], 1.0, 10)
    phi0 = rng.normal(size=g.shape_space)
    sol = solve_ibvp(_heat_spec(g, phi0=phi0, omega=0.5))
    assert np.max(np.abs(sol.phi)) <= np.max(np.abs(phi0)) + 1e-12


def test_maximum_principle_smoke():
    rng = np.random.default_rng(4)
    g = Grid([(0.0, 1.0)], [16], 0.6, 8)
    f = rng.uniform(0.0, 3.0, g.shape_spacetime)
    phi0 = rng.uniform(0.0, 1.0, g.shape_space)
    sol = solve_ibvp(_heat_spec(g, f=f, phi0=phi0, diag=[1.7]))
    assert np.min(sol.phi) >= -1e-12


def test_large_steps_remain_stable_and_bounded():
    # dt = 2.5 is far beyond any explicit stability limit
    g = Grid([(0.0, 1.0)], [32], 10.0, 4)
    f = np.full(g.shape_spacetime, 2.0)
    phi0 = np.full(g.shape_space, 1.0)
    sol = solve_ibvp(_heat_spec(g, f=f, phi0=phi0))
    bound = 1.0 + 10.0 * 2.0
    assert np.max(np.abs(sol.phi)) <= bound
    assert np.all(np.isfinite(sol.phi))


def test_cross_terms_keep_solver_symmetric():
    # indefinite-looking anisotropy with axy = 0.4 stays elliptic and
    # the CG path must converge on it
    rng = np.random.default_rng(8)
    g = Grid([(0.0, 1.0), (0.0, 1.0)], [10, 10], 0.3, 6)
    A = {(0, 0): 1.0, (1, 1): 1.3, (0, 1): 0.4}
    f = rng.normal(size=g.shape_spacetime)
    spec = ProblemSpec(g, A, 0.0, f, 0.0, lam=0.5)
    sol = solve_ibvp(spec)
    assert np.all(np.isfinite(sol.phi))
    assert max(sol.residuals) < 1e-9
    # <u, L v> = <L u, v> with a varying axx, a varying cross term and a varying omega
    axx = 1.0 + 0.5 * rng.random(g.shape_space)
    axy = 0.3 * rng.uniform(-1.0, 1.0, g.shape_space)
    omega = rng.random(g.shape_space)
    A = {(0, 0): axx, (1, 1): 1.3, (0, 1): axy}
    L = Stencil.at(ProblemSpec(g, A, omega, f, 0.0, lam=0.5), 1)
    u, v = rng.normal(size=(2, *g.shape_space))
    assert math.isclose(np.sum(u * L.apply(v)), np.sum(L.apply(u) * v), rel_tol=1e-12)


@pytest.mark.parametrize("box, nx", [([(0.0, 1.0)], [7]),
                                     ([(0.0, 1.0), (0.0, 0.75)], [5, 6]),
                                     ([(0.0, 1.0), (0.0, 0.75), (0.0, 2.0)], [4, 5, 4])])
def test_scalar_and_constant_array_coefficients_give_one_operator(box, nx):
    rng = np.random.default_rng(len(nx))
    g = Grid(box, nx, 1.0, 2)
    shape = g.shape_space
    u = rng.normal(size=shape)
    scalar = Stencil(g, [2.0] * g.dim, omega=1.5)
    array = Stencil(g, [np.full(shape, 2.0)] * g.dim, omega=1.5)
    assert np.array_equal(scalar.apply(u), array.apply(u))


def _sl(nd, axis, s):
    idx = [slice(None)] * nd
    idx[axis] = s
    return tuple(idx)


def _reference_apply(L, u):
    """L u written with np.diff and concatenated ghost cells."""
    def central_odd(v, axis, h):
        first, last = v[_sl(v.ndim, axis, slice(0, 1))], v[_sl(v.ndim, axis, slice(-1, None))]
        padded = np.concatenate([-first, v, -last], axis=axis)
        return (padded[_sl(v.ndim, axis, slice(2, None))]
                - padded[_sl(v.ndim, axis, slice(None, -2))]) / (2.0 * h)

    def central_even_adjoint(psi, axis, h):
        first, last = psi[_sl(psi.ndim, axis, slice(0, 1))], psi[_sl(psi.ndim, axis, slice(-1, None))]
        padded = np.concatenate([first, psi, last], axis=axis)
        return (padded[_sl(psi.ndim, axis, slice(None, -2))]
                - padded[_sl(psi.ndim, axis, slice(2, None))]) / (2.0 * h)

    out = L.omega * u
    for axis, face in enumerate(L.faces):
        out -= np.diff(face * np.diff(u, axis=axis, prepend=0.0, append=0.0), axis=axis)
    for k, j, c in L.cross:
        dku, dju = central_odd(u, k, L.h[k]), central_odd(u, j, L.h[j])
        out += central_even_adjoint(c * dju, k, L.h[k])
        out += central_even_adjoint(c * dku, j, L.h[j])
    return out


def _random_stencil_args(rng, nx):
    g = Grid([(0.0, rng.uniform(0.5, 2.0)) for _ in nx], nx, 1.0, 2)
    shape = g.shape_space

    def coefficient(low, high):
        return rng.uniform(low, high) if rng.random() < 0.5 else rng.uniform(low, high, shape)

    cross = [(k, j, coefficient(-0.3, 0.3)) for k in range(g.dim) for j in range(k + 1, g.dim)
             if rng.random() < 0.7]
    return g, [coefficient(0.5, 2.0) for _ in nx], cross, coefficient(0.0, 1.0)


def test_stencil_apply_matches_the_diff_form_bit_for_bit():
    rng = np.random.default_rng(17)
    cases = [_random_stencil_args(rng, list(rng.integers(4, 30 if d < 3 else 10, d)))
             for d in (1, 2, 3) for _ in range(12)]
    # the 6x8x8 grid with an array a_22, on which wall ghosts written by
    # np.negative from one strided view into another came out wrong
    g = Grid([(0.0, 1.0)] * 3, [6, 8, 8], 1.0, 2)
    cases.append((g, [1.0, 1.3, 0.5 + rng.random(g.shape_space)], [(1, 2, 0.2)], 0.0))
    for g, coeffs, cross, omega in cases:
        L = Stencil(g, coeffs, cross, omega)
        u, v = rng.normal(size=(2, *g.shape_space))
        Lu, Lv = L.apply(u), L.apply(v)
        assert np.array_equal(Lu, _reference_apply(L, u))
        assert np.array_equal(Lv, _reference_apply(L, v))
        # the scratch a first apply leaves behind does not reach the second
        assert np.array_equal(Lv, Stencil(g, coeffs, cross, omega).apply(v))
        # each result belongs to the caller: changing it leaves the next apply alone
        Lu[...] = np.nan
        assert np.array_equal(L.apply(v), Lv)


def _textbook_cg(apply_op, b, x0, tol, max_iters):
    """Unpreconditioned CG with fresh arrays at every update."""
    bnorm = math.sqrt(pairwise_sum(b * b))
    x = x0.copy()
    r = b - apply_op(x)
    rr = pairwise_sum(r * r)
    rel = math.sqrt(rr) / bnorm
    if rel <= tol:
        return x, rel, 0
    p = r.copy()
    for iteration in range(1, max_iters + 1):
        Ap = apply_op(p)
        alpha = rr / pairwise_sum(p * Ap)
        x = x + alpha * p
        r = r - alpha * Ap
        rr_next = pairwise_sum(r * r)
        rel = math.sqrt(rr_next) / bnorm
        if rel <= tol:
            return x, rel, iteration
        p = r + (rr_next / rr) * p
        rr = rr_next
    return x, rel, max_iters


def _cross_term_step_system():
    rng = np.random.default_rng(5)
    g = Grid([(0.0, 1.0), (0.0, 0.8)], [14, 11], 0.2, 4)
    axx = 1.0 + 0.5 * rng.random(g.shape_space)
    A = {(0, 0): axx, (1, 1): 1.3, (0, 1): 0.3 * rng.uniform(-1.0, 1.0, g.shape_space)}
    omega = rng.random(g.shape_space)
    spec = ProblemSpec(g, A, omega, 0.0, 0.0, lam=0.5)
    apply_op = Stencil.at(spec, 1, 1.0 / g.dt).apply
    history = rng.normal(size=(3, *g.shape_space))
    b = history[1] / g.dt + rng.normal(size=g.shape_space)
    return apply_op, b, history


def test_cg_matches_textbook_cg_and_leaves_its_inputs_alone():
    apply_op, b, history = _cross_term_step_system()
    x0 = history[1]
    saved = [a.copy() for a in (b, history)]
    returned = []

    def recording_op(u):
        y = apply_op(u)
        returned.append((y, y.copy()))
        return y

    x, rel, iters = conjugate_gradient(recording_op, b, x0, 1e-10, 500)
    want_x, want_rel, want_iters = _textbook_cg(apply_op, b, x0, 1e-10, 500)
    assert iters == want_iters > 5
    assert rel == want_rel <= 1e-10
    assert np.array_equal(x, want_x)
    for before, after in zip(saved, (b, history)):
        assert np.array_equal(before, after)
    assert all(np.array_equal(y, copy) for y, copy in returned)


def test_cg_failures_carry_their_residuals():
    apply_op, b, history = _cross_term_step_system()
    with pytest.raises(SolverError, match="not positive definite") as err:
        conjugate_gradient(lambda u: -u, b, np.zeros_like(b), 1e-10, 50)
    assert err.value.residual == 1.0
    _, stalled_rel, _ = _textbook_cg(apply_op, b, history[0], 1e-10, 3)
    with pytest.raises(SolverError, match="stalled") as err:
        conjugate_gradient(apply_op, b, history[0], 1e-10, 3)
    assert err.value.residual == stalled_rel > 1e-10
    with pytest.raises(SolverError, match="^the right side's 2-norm overflows a double$"):
        conjugate_gradient(apply_op, np.full_like(b, 1e160), history[0], 1e-10, 3)


def test_an_empty_a_solves_like_the_identity():
    g = Grid([(0.0, 1.0), (0.0, 0.75)], [8, 6], 0.2, 5)
    f = np.random.default_rng(3).normal(size=g.shape_spacetime)
    empty = solve_ibvp(ProblemSpec(g, {}, 0.5, f, 0.0))
    identity = solve_ibvp(ProblemSpec(g, {(0, 0): 1.0, (1, 1): 1.0}, 0.5, f, 0.0))
    assert np.array_equal(empty.phi, identity.phi)
    assert empty.iterations == identity.iterations


def test_time_dependent_omega_matches_manual_stepping():
    g = Grid([(0.0, 1.0)], [12], 0.5, 5)
    ramp = np.broadcast_to(np.linspace(0.0, 2.0, 6)[:, None], (6, 12)).copy()
    f = np.ones(g.shape_spacetime)
    spec = _heat_spec(g, f=f, omega=ramp)
    sol = solve_ibvp(spec)
    # each step rebuilt by hand from the operator frozen at the new level
    state = np.zeros(g.shape_space)
    for k in range(5):
        rhs = state / g.dt + spec.f[k + 1]
        state, _, _ = conjugate_gradient(Stencil.at(spec, k + 1, 1.0 / g.dt).apply, rhs, state,
                                         1e-10, 10 * g.num_cells)
        assert np.array_equal(sol.phi[k + 1], state)


def test_export_import_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    g = Grid([(0.0, 0.75), (0.25, 1.0)], [6, 5], 0.3, 4)
    f = rng.normal(size=g.shape_spacetime)
    sol = solve_ibvp(_heat_spec(g, f=f))
    path = os.path.join(tmp_path, "solution.txt")
    export_solution(sol, path)
    with open(path) as fh:
        header = fh.readline().split()
        box_line = fh.readline().split()
    assert header[0] == "#" and box_line[:2] == ["#", "box"]
    dim = int(header[1])
    nx = tuple(int(v) for v in header[2:2 + dim])
    nt = int(header[2 + dim])
    box = tuple(tuple(float(v) for v in token.split(",")) for token in box_line[2:])
    assert box == g.box
    assert nx == g.nx
    assert nt == g.nt
    assert math.isclose(float(header[3 + dim]), g.T, rel_tol=1e-15)
    values = np.loadtxt(path, skiprows=2).reshape((nt + 1, *nx))
    assert np.array_equal(values, sol.phi)


def test_solve_options_validation():
    with pytest.raises(ConfigurationError):
        SolveOptions(tol=0.0)
    with pytest.raises(ConfigurationError):
        SolveOptions(tol=1e-3)


def test_inadmissible_spec_is_rejected():
    g = Grid([(0.0, 1.0)], [8], 1.0, 4)
    with pytest.raises(ConfigurationError, match="omega must be nonnegative"):
        _heat_spec(g, omega=-1.0)
