"""Benchmark workloads: input generation, the timed body, and its checks.

Runs as a child process of ``run.py``, one process per measured
repetition, so that peak memory belongs to one workload run:

    python3 perfbench/workloads.py <workload> <seed> <workdir> setup|plain|traced

The child imports parabolab from ``src/`` of the checkout it lives in,
writes the inputs generated from the seed, loads them with
``load_config`` (the set-up), then runs the workload and its checks (the
timed part) and prints one JSON line as the last line of its output.

    python3 perfbench/workloads.py record

re-records ``reference.json`` (outputs at the default seed).
"""

import configparser
import contextlib
import io
import json
import math
import os
import random
import re
import resource
import shutil
import sys
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
ACCEPTANCE_CFG = os.path.join(ROOT, "configs", "sweep_acceptance.cfg")
REFERENCE = os.path.join(HERE, "reference.json")

DEFAULT_SEED = 0
# Outputs at the default seed must match reference.json to this relative
# tolerance.  Solving every step to CG tol 1e-12 instead of 1e-10 moved no
# output by more than 1.7e-9 relative, and a constant instead of the
# Jacobi preconditioner by no more than 1.3e-10, so reordered sums or
# another preconditioner at tol 1e-10 pass, while a wrong answer of about
# 1e-6 relative fails.
REF_RTOL = 1e-7
REF_ATOL = 1e-12

SWEEP_CHECKS = ("fit_r_squared", "sublinearity", "implied_c_spread", "moment_spread",
                "l1", "interpolation", "ladder_monotone")
DIAGNOSE_CHECKS = ("l1", "interpolation", "ladder_monotone", "data_contraction")

# sweep_mid: the acceptance geometry at a third of its resolution, sized so
# one repetition takes a few seconds and a run holds several.  48x48 puts
# the resolution guard (eps >= 4h) at 0.0875 and nt = 136 the time guard
# (eps^2 >= 4 dt) at 0.0874, so the five half-octaves 2^-1.5 .. 2^-3.5 fit;
# the support guard (t0 - eps^2 >= 0) keeps 2^-1.5 the largest.
MID_NX, MID_NT = 48, 136
MID_EPS = tuple(2.0 ** -(k / 2.0) for k in range(3, 8))

# aniso_split: array axx (radial profile centred outside the box, so it
# varies smoothly between 0.71 and 2.1), a cross term axy, and nonzero f
# and phi0, so diagnose solves two split problems.
ANISO_NX, ANISO_NT = 40, 96
ANISO_TEMPLATE = """\
[grid]
box = 0,1 0,1
nx = {nx},{nx}
T = 0.25
nt = {nt}

[coefficients]
axx = radial amplitude={axx!r} center=-0.5,-0.5 exponent=1.0
ayy = 1.0
axy = {axy!r}
lambda = 0.3
q = 4.0
omega = {omega!r}

[forcing]
f = sine amplitude=40.0 decay=1.0
phi0 = sine amplitude=0.5

[solver]
tol = 1e-10
"""

WORKLOADS = ("sweep_mid", "aniso_split")

# Host-speed calibration.  The host's speed drifts by up to a third over
# minutes, and the workloads and the set-up drift with it, so each child
# times a fixed loop of the same kind of work (numpy calls on small vectors
# from a Python loop), half of it before the workload and half after, and
# wall_norm_s and setup_s rescale the child's times by CALIBRATION_REF_S /
# the loop's time.  CALIBRATION_REF_S is the loop's median time on the
# reference box; it only sets the scale.
CALIBRATION_N, CALIBRATION_LOOPS = 2304, 30000
CALIBRATION_REF_S = 0.44


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _rng(workload, seed):
    return random.Random(f"{workload}/{seed}")


def _shifted_sweep_config(workload, seed, nx, nt, eps):
    """The acceptance config with the bump and radial centres moved together.

    The shift is below 0.4 h on each axis, so the radial singularity (on a
    cell face at the unshifted centre) never lands on a sample point.
    """
    parser = configparser.ConfigParser()
    parser.optionxform = str
    if not parser.read(ACCEPTANCE_CFG):
        raise FileNotFoundError(ACCEPTANCE_CFG)
    box = [[float(v) for v in tok.split(",")] for tok in parser["grid"]["box"].split()]
    rng = _rng(workload, seed)
    x0 = [float(v) for v in parser["sweep"]["x0"].split(",")]
    centre = [c + rng.uniform(-0.4, 0.4) * (hi - lo) / nx
              for c, (lo, hi) in zip(x0, box)]
    text = ",".join(repr(c) for c in centre)
    parser["grid"]["nx"] = ",".join([str(nx)] * len(box))
    parser["grid"]["nt"] = str(nt)
    parser["sweep"]["x0"] = text
    parser["sweep"]["eps"] = ",".join(repr(e) for e in eps)
    omega = parser["coefficients"]["omega"]
    parser["coefficients"]["omega"] = re.sub(r"center=\S+", f"center={text}", omega)
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def config_text(workload, seed):
    """The generated input file of a workload at a seed."""
    if workload == "sweep_mid":
        return _shifted_sweep_config(workload, seed, MID_NX, MID_NT, MID_EPS)
    if workload == "aniso_split":
        rng = _rng(workload, seed)
        axx, axy, omega = (v * rng.uniform(0.9, 1.1) for v in (1.0, 0.3, 1.0))
        return ANISO_TEMPLATE.format(nx=ANISO_NX, nt=ANISO_NT, axx=axx, axy=axy, omega=omega)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

class Checks:
    """Every check attempted, with its verdict; a failure is never dropped."""

    def __init__(self):
        self.items = []

    def add(self, name, passed, detail=""):
        self.items.append({"name": name, "passed": bool(passed), "detail": str(detail)})

    def failed(self):
        return [c for c in self.items if not c["passed"]]


def compare_reference(checks, outputs, reference, rtol=REF_RTOL, atol=REF_ATOL):
    """One check per reference value: present and within tolerance."""
    for key, want in sorted(reference.items()):
        got = outputs.get(key)
        if got is None:
            checks.add(f"ref:{key}", False, "missing from outputs")
            continue
        ok = abs(got - want) <= rtol * max(abs(got), abs(want)) + atol
        checks.add(f"ref:{key}", ok, f"got {got!r}, reference {want!r}")


def _cli(argv):
    """Run one parabolab command, returning (exit code, captured stdout)."""
    import parabolab.cli as cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


def _check_lines(checks, text, expected, prefix):
    found = dict(re.findall(r"^check (\S+): (PASS|FAIL)$", text, re.M))
    for name in sorted(set(expected) | set(found)):
        verdict = found.get(name)
        checks.add(f"{prefix}:{name}", verdict == "PASS", verdict or "not reported")


def _values(text):
    """The `name = number` lines of a command's report, keyed like `sup_phi`."""
    out = {}
    for name, value in re.findall(r"^([\w |]+?)\s+= (\S+)$", text, re.M):
        out[re.sub(r"\W+", "_", name).strip("_")] = float(value)
    for name, lhs, rhs in re.findall(r"^(\w+) lhs/rhs\s+= (\S+) / (\S+)$", text, re.M):
        out[f"{name}_lhs"], out[f"{name}_rhs"] = float(lhs), float(rhs)
    return out


# ---------------------------------------------------------------------------
# workload bodies
# ---------------------------------------------------------------------------

def run_sweep_mid(ctx, checks):
    out = os.path.join(ctx["workdir"], "sweep")
    code, text = _cli(["sweep", "--config", ctx["config"], "--out", out,
                       "--check", "--threads", "1"])
    checks.add("sweep:exit_code", code == 0, code)
    _check_lines(checks, text, SWEEP_CHECKS, "sweep")
    outputs = {}
    csv = os.path.join(out, "sweep.csv")
    if os.path.exists(csv):
        with open(csv) as fh:
            header = fh.readline().strip().split(",")
            rows = [line.strip().split(",") for line in fh if line.strip()]
        for i, row in enumerate(rows):
            for col, value in zip(header, row):
                outputs[f"row{i}.{col}"] = float(value)
        checks.add("sweep:rows", len(rows) == len(MID_EPS), f"{len(rows)} rows")
    else:
        checks.add("sweep:rows", False, "sweep.csv not written")
    return outputs


def run_aniso_split(ctx, checks):
    out = os.path.join(ctx["workdir"], "solve")
    code, text = _cli(["solve", "--config", ctx["config"], "--out", out])
    checks.add("solve:exit_code", code == 0, code)
    solved = _values(text)
    checks.add("solve:steps", solved.get("steps") == ANISO_NT, solved.get("steps"))
    checks.add("solve:residual", solved.get("max_residual", math.inf) <= 1e-10,
               solved.get("max_residual"))
    path = os.path.join(out, "solution.txt")
    lines = 0
    if os.path.exists(path):
        with open(path, "rb") as fh:
            head = fh.readline()
            lines = 1 + sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
        checks.add("solve:export_header", head.split() == [b"#", b"2", str(ANISO_NX).encode(),
                                                          str(ANISO_NX).encode(),
                                                          str(ANISO_NT).encode(), b"0.25"],
                   head)
    want = 2 + ANISO_NX * ANISO_NX * (ANISO_NT + 1)
    checks.add("solve:export_lines", lines == want, f"{lines} lines, want {want}")

    code, text = _cli(["diagnose", "--config", ctx["config"], "--check"])
    checks.add("diagnose:exit_code", code == 0, code)
    _check_lines(checks, text, DIAGNOSE_CHECKS, "diagnose")
    diagnosed = _values(text)
    # split superposition: phi1 + phi2 must reproduce the unsplit solve
    a, b = solved.get("sup_phi"), diagnosed.get("sup_phi")
    checks.add("split_superposition",
               a is not None and b is not None and abs(a - b) <= 1e-8 * abs(a), f"{a} vs {b}")
    outputs = {f"diagnose.{k}": v for k, v in diagnosed.items()}
    if a is not None:
        outputs["solve.sup_phi"] = a
    return outputs


BODIES = {"sweep_mid": run_sweep_mid, "aniso_split": run_aniso_split}


# ---------------------------------------------------------------------------
# child process
# ---------------------------------------------------------------------------

def calibrate():
    """Seconds taken by the fixed calibration loop; parabolab is not called."""
    import numpy as np
    a = np.linspace(0.0, 1.0, CALIBRATION_N)
    b = a[::-1].copy()
    start = time.perf_counter()
    for _ in range(CALIBRATION_LOOPS):
        float((a * b + a) @ b)
    return time.perf_counter() - start


def setup(workload, seed, workdir, tracer=None):
    """Import parabolab, write the generated input and load it: the set-up.

    A tracer is installed after the import and before ``load_config``.
    """
    if not os.path.isdir(os.path.join(SRC, "parabolab")):
        raise FileNotFoundError(f"parabolab sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import parabolab  # noqa: F401  (the import is part of the set-up)
    import parabolab.cli  # noqa: F401
    import parabolab.config
    if tracer is not None:
        tracer.install()
    os.makedirs(workdir, exist_ok=True)
    path = os.path.join(workdir, f"{workload}.cfg")
    with open(path, "w") as fh:
        fh.write(config_text(workload, seed))
    return {"workdir": workdir, "config": path,
            "bundle": parabolab.config.load_config(path)}


def run_workload(workload, ctx):
    """The timed body: the workload and its own checks."""
    checks = Checks()
    outputs = BODIES[workload](ctx, checks)
    return checks, outputs


def check_reference(checks, workload, outputs):
    """Compare with the outputs recorded at the default seed."""
    try:
        with open(REFERENCE) as fh:
            reference = json.load(fh).get(workload)
    except (OSError, ValueError) as err:
        checks.add("ref:present", False, err)
        return
    if reference is None:
        checks.add("ref:present", False, "no reference recorded for this workload")
    else:
        compare_reference(checks, outputs, reference)


def child_main(workload, seed, workdir, mode):
    tracer = layers.Tracer() if mode == "traced" else None
    ctx = setup(workload, seed, workdir, tracer)
    setup_end = time.monotonic()
    result = {"setup_end": setup_end}
    calibration_s = calibrate()
    if mode != "setup":
        start = time.monotonic()
        checks, outputs = run_workload(workload, ctx)
        if seed == DEFAULT_SEED:
            check_reference(checks, workload, outputs)
        end = time.monotonic()
        result.update(wall_s=end - start, checks=checks.items, outputs=outputs)
        if tracer is not None:
            tracer.uninstall()
            result.update(layers=tracer.metrics(), step_s=tracer.step_s,
                          missing_wraps=tracer.missing)
    result["calibration_s"] = calibration_s + calibrate()
    import numpy
    result.update(peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  numpy=numpy.__version__, python=sys.version.split()[0])
    print(json.dumps(result))


def record_main():
    """Rewrite reference.json from fresh runs at the default seed."""
    reference = {}
    for workload in WORKLOADS:
        workdir = os.path.join(HERE, "_work", f"record-{workload}")
        ctx = setup(workload, DEFAULT_SEED, workdir)
        checks, outputs = run_workload(workload, ctx)
        shutil.rmtree(workdir)
        bad = checks.failed()
        if bad:
            raise SystemExit(f"{workload}: checks failed, reference not written: {bad}")
        reference[workload] = outputs
        print(f"{workload}: {len(outputs)} values")
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["record"]:
        record_main()
    else:
        name, seed_arg, work, run_mode = sys.argv[1:5]
        child_main(name, int(seed_arg), work, run_mode)
