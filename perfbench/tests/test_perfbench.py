"""The benchmark's own tests: metric names, tracer hygiene, the reference gate.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import importlib
import io
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _child(checks=(), wall=1.0, layer_metrics=None):
    rec = {"mode": "plain", "setup_s": 0.3, "wall_s": wall, "calibration_s": 0.44,
           "peak_rss_mb": 100.0, "checks": list(checks), "load": [0.1, 0.2],
           "numpy": "x", "python": "y"}
    if layer_metrics is not None:
        rec.update(mode="traced", layers=layer_metrics, step_s=[0.01, 0.02])
    return rec


def _report(reps, setups, trace):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        correct = run.report("sweep_mid", 0, trace, reps, setups)
    lines = buf.getvalue().splitlines()
    return correct, lines, json.loads(lines[-1])


def test_tracer_computes_exactly_the_declared_layer_metrics():
    _, per_layer = run.declared_metrics()
    assert set(layers.Tracer().metrics()) | {"trace_overhead_s"} == set(per_layer)


@pytest.mark.parametrize("trace", [False, True])
def test_every_printed_metric_is_declared(trace):
    end_to_end, per_layer = run.declared_metrics()
    declared = per_layer if trace else end_to_end
    if trace:
        pair = [_child(wall=1.0), _child(wall=1.1, layer_metrics=layers.Tracer().metrics())]
        correct, lines, result = _report([pair], [], True)
    else:
        correct, lines, result = _report([[_child()]], [_child()], False)
    assert correct and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(declared)
    assert all(m["unit"] == declared[name] for name, m in result["metrics"].items())
    summary = [ln.split()[0] for ln in lines[1:] if ln.startswith("  ")]
    # besides the declared metrics: the raw times behind the normalized ones, and error_rate
    assert set(summary) == set(declared) | {"wall_s", "setup_s", "calibration_s", "error_rate"}


def test_tracer_restores_every_attribute_it_replaces():
    originals = {}
    for module_name, attr, _ in layers.WRAPS:
        module = importlib.import_module(module_name)
        originals[(module_name, attr)] = getattr(module, attr)
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        for (module_name, attr), fn in originals.items():
            assert getattr(sys.modules[module_name], attr) is not fn
        from parabolab.fields import (SPACETIME, TIMESLICE, Field, MatrixCoefficient,
                                      ProblemSpec, make_grid)
        import parabolab.solver as solver
        grid = make_grid([(0.0, 1.0)] * 2, [8, 8], 0.1, 4)
        spec = ProblemSpec(grid, MatrixCoefficient.identity(grid),
                           Field.zeros(grid, TIMESLICE),
                           Field(grid, np.ones(grid.shape_spacetime), SPACETIME),
                           Field.zeros(grid, TIMESLICE))
        solver.solve_ibvp(spec)
        with pytest.raises(ZeroDivisionError):
            tracer.span("boom", lambda: 1 / 0)()
    finally:
        tracer.uninstall()
    for (module_name, attr), fn in originals.items():
        assert getattr(sys.modules[module_name], attr) is fn
    metrics = tracer.metrics()
    assert metrics["solver.steps"] == 4
    assert metrics["solver.cg_iters"] > 0
    assert metrics["solver.apply_calls"] >= metrics["solver.cg_iters"]
    assert metrics["fields.validate_calls"] == 1
    assert tracer._open == []


def test_perturbed_reference_value_drives_error_rate_above_zero():
    with open(workloads.REFERENCE) as fh:
        reference = json.load(fh)
    assert set(reference) == set(workloads.WORKLOADS)
    for name, values in reference.items():
        checks = workloads.Checks()
        workloads.compare_reference(checks, dict(values), values)
        assert not checks.failed(), name
        # reordered sums move results by far less than the tolerance
        checks = workloads.Checks()
        workloads.compare_reference(checks, {k: v * (1 + 1e-9) for k, v in values.items()},
                                    values)
        assert not checks.failed(), name
        key = max(values, key=lambda k: abs(values[k]))
        wrong = dict(values, **{key: values[key] * (1.0 + 1e-6)})
        checks = workloads.Checks()
        workloads.compare_reference(checks, wrong, values)
        assert [c["name"] for c in checks.failed()] == [f"ref:{key}"], name

        correct, lines, result = _report([[_child(checks.items)]], [_child()], False)
        assert not correct and result["failed"] == 1
        assert result["attempted"] == len(values)
        rate = [ln for ln in lines if ln.split()[:1] == ["error_rate"]]
        assert float(rate[0].split()[1]) > 0


def test_missing_outputs_and_dead_children_count_as_failures():
    checks = workloads.Checks()
    workloads.compare_reference(checks, {}, {"a": 1.0})
    assert len(checks.failed()) == 1
    dead = {"mode": "plain", "error": "plain child exited 1", "load": [0.0, 0.0]}
    correct, _, result = _report([[dead]], [_child()], False)
    assert not correct and result["failed"] == 1


def test_seed_perturbs_inputs_without_changing_sizes():
    for name in workloads.WORKLOADS:
        a, b = workloads.config_text(name, 0), workloads.config_text(name, 1)
        assert a == workloads.config_text(name, 0)
        assert a != b

        def sizes(text):
            return [ln for ln in text.splitlines()
                    if ln.split(" =")[0] in ("nx", "nt", "box", "eps")]
        assert sizes(a) == sizes(b)
