"""Configuration file parsing."""

import os

import numpy as np
import pytest

from parabolab.config import load_config
from parabolab.errors import ConfigurationError, EvaluationError

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def _write(tmp_path, text):
    path = os.path.join(tmp_path, "case.cfg")
    with open(path, "w") as fh:
        fh.write(text)
    return path


def test_demo_config_loads():
    bundle = load_config(os.path.join(CONFIGS, "demo.cfg"))
    g = bundle.spec.grid
    assert g.dim == 2 and g.nx == (32, 32) and g.nt == 128
    assert bundle.spec.omega == 0.5
    assert bundle.spec.f.shape == g.shape_spacetime and bundle.spec.phi0.shape == g.shape_space
    assert bundle.sweep is None
    assert bundle.solve_options.tol == 1e-10


def test_sweep_config_loads_family_settings():
    bundle = load_config(os.path.join(CONFIGS, "sweep_small.cfg"))
    s = bundle.sweep
    assert s is not None
    assert len(s.eps) == 4 and s.eps[1] == 0.25
    assert s.family.center == (0.375, 0.375)
    assert s.family.t0 == 0.13
    assert s.family.amplitude == 24.0
    assert s.beta0 == 1.0 and s.i_max == 12
    # the radial potential is finite because the center is a cell corner
    w = bundle.spec.omega
    assert w.shape == bundle.spec.grid.shape_space
    assert np.all(np.isfinite(w)) and np.min(w) > 0.0


def test_radial_potential_on_a_sample_point_is_rejected(tmp_path):
    # nx = 5 puts a midpoint exactly on the center, where |x|^-1 blows up
    path = _write(tmp_path, """
[grid]
box = 0,1 0,1
nx = 5,5
T = 0.1
nt = 4
[coefficients]
omega = radial amplitude=1.0 center=0.5,0.5 exponent=-1.0
""")
    with pytest.raises(EvaluationError, match=r"^coefficients\.omega: non-finite field value "
                                              r"at point \(0\.5, 0\.5\)$"):
        load_config(path)


def test_scalar_shorthand_and_defaults(tmp_path):
    path = _write(tmp_path, """
[grid]
box = 0,1
nx = 8
T = 0.5
nt = 4
[forcing]
f = 2.5
""")
    bundle = load_config(path)
    assert bundle.spec.f == 2.5 and bundle.spec.phi0 == 0.0
    assert bundle.spec.q == 4.0 and bundle.spec.lam == 1.0


def test_anisotropic_matrix_entries(tmp_path):
    path = _write(tmp_path, """
[grid]
box = 0,1 0,1
nx = 8,8
T = 0.5
nt = 4
[coefficients]
a = 2.0,3.0
axy = 0.5
lambda = 0.5
""")
    bundle = load_config(path)
    A = bundle.spec.A
    assert A == {(0, 0): 2.0, (0, 1): 0.5, (1, 1): 3.0}


# a decaying a_ij once loaded as its t = 0 slice, static in time
def test_time_varying_matrix_entry_keeps_its_decay(tmp_path):
    path = _write(tmp_path, """
[grid]
box = 0,1
nx = 32
T = 0.5
nt = 8
[coefficients]
axx = sine amplitude=5.0 decay=4.0
lambda = 0.01
""")
    bundle = load_config(path)
    g = bundle.spec.grid
    axx = bundle.spec.A[0, 0]
    assert axx.shape == g.shape_spacetime
    profile = 5.0 * np.sin(np.pi * g.midpoints(0))
    for n, t in enumerate(g.time_levels()):
        np.testing.assert_allclose(axx[n], profile * np.exp(-4.0 * t), rtol=1e-14, atol=0)


def test_every_datum_follows_one_storage_rule(tmp_path):
    # numbers stay numbers, radial and steady sines are spatial, decaying
    # sines and bumps vary in time, for f as for a coefficient
    body = ("[grid]\nbox = 0,1\nnx = 16\nT = 0.5\nnt = 40\n"
            "[coefficients]\nomega = {omega}\n[forcing]\nf = {f}\n")
    forms = {"constant value=2.0": (), "zero": (), "3.5": (),
             "sine amplitude=2.0": (16,), "radial amplitude=2.0 exponent=2.0": (16,),
             "sine amplitude=2.0 decay=1.0": (41, 16), "bump eps=0.25 t0=0.25": (41, 16)}
    for text, shape in forms.items():
        for key in ("omega", "f"):
            values = {"omega": "0.0", "f": "0.0", key: text}
            datum = getattr(load_config(_write(tmp_path, body.format(**values))).spec, key)
            assert np.shape(datum) == shape, (key, text)
            if not shape:
                assert isinstance(datum, float)


# a decaying phi0 once loaded as its t = 0 slice, the decay ignored
def test_time_varying_initial_data_is_refused(tmp_path):
    path = _write(tmp_path, "[grid]\nbox = 0,1\nnx = 8\nT = 0.5\nnt = 4\n"
                            "[forcing]\nphi0 = sine amplitude=0.3 decay=1.0\n")
    with pytest.raises(ConfigurationError, match=r"^forcing\.phi0 must not vary in time"):
        load_config(path)


@pytest.mark.parametrize("mutation", [
    ("missing_file", None),
    ("no_grid", "[coefficients]\na = 1.0\n"),
    ("no_eps", "[grid]\nbox = 0,1\nnx = 8\nT = 0.5\nnt = 4\n[sweep]\ngamma = 2\n"),
    ("bad_box", "[grid]\nbox = 0\nnx = 8\nT = 0.5\nnt = 4\n"),
    ("bump_phi0", "[grid]\nbox = 0,1\nnx = 16\nT = 0.5\nnt = 40\n"
                  "[forcing]\nphi0 = bump eps=0.25 t0=0.25\n"),
    ("unknown_fn", "[grid]\nbox = 0,1\nnx = 8\nT = 0.5\nnt = 4\n"
                   "[forcing]\nf = wavelet scale=2\n"),
])
def test_malformed_configs_raise(tmp_path, mutation):
    name, text = mutation
    if text is None:
        path = os.path.join(tmp_path, "absent.cfg")
    else:
        path = _write(tmp_path, text)
    with pytest.raises(ConfigurationError):
        load_config(path)
