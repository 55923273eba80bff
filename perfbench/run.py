"""parabolab benchmark.

    python3 perfbench/run.py --workload sweep_mid|aniso_split|all
                             [--seed N] [--seconds S] [--trace 0|1]

Each measured repetition is a fresh child process (``workloads.py``) with
one thread and the BLAS/OpenMP pools pinned to one, so its peak memory is
its own.  Repetitions take a few seconds each and run until their measured
time reaches ``--seconds`` (at least one); a time metric is the median
over the run's repetitions.  With ``--trace 0`` the run also starts a few
set-up-only children and reports the end-to-end metrics; with
``--trace 1`` each repetition is a plain child followed by a traced one,
repeated until the traced steps are enough for a p99, and the run reports
the per-layer metrics and the tracing overhead.  Metric names and units
come from BENCHMARK.json.

Standard output: a readable summary, a ``record:`` line (seed, git sha,
versions, nproc, load averages), and as its last line one JSON object
with the keys correct, attempted, failed and metrics.  ``error_rate`` is
failed / attempted over every check of the run.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import layers
import workloads
from workloads import HERE, ROOT

BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

SETUP_RUNS = 3
BUDGET_S = 165.0   # a run must end within 180 s
P99_MIN_STEPS = 1000   # so that solver.step_ms_p99 has ten steps beyond it
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def declared_metrics():
    """{name: unit} for the end-to-end and the per-layer metrics."""
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return "unknown (not a git checkout)"
    return "unknown"


def spawn(workload, seed, workdir, mode, deadline):
    """Run one child to completion; returns its result or an ``error`` record."""
    load_before = os.getloadavg()[0]
    start = time.monotonic()
    argv = [sys.executable, workloads.__file__, workload, str(seed), workdir, mode]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                              env={**os.environ, **PINNED},
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        rec = {"error": f"{mode} child killed at the {BUDGET_S:.0f} s budget"}
    else:
        lines = proc.stdout.strip().splitlines()
        try:
            rec = json.loads(lines[-1])
        except (IndexError, ValueError):
            tail = proc.stderr.strip().splitlines()[-3:]
            rec = {"error": f"{mode} child exited {proc.returncode}: {' | '.join(tail)}"}
        else:
            rec["setup_s"] = rec["setup_end"] - start
    rec["mode"] = mode
    rec["load"] = [load_before, os.getloadavg()[0]]
    return rec


def quartiles(values):
    """(q1, median, q3); a single value stands for all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def measure(workload, seed, seconds, trace):
    """All children of one run: returns (repetitions, set-up records)."""
    deadline = time.monotonic() + BUDGET_S
    workdir = os.path.join(HERE, "_work", f"{workload}-{seed}-{os.getpid()}")
    modes = ("plain", "traced") if trace else ("plain",)
    setups, reps = [], []
    try:
        if not trace:
            setups = [spawn(workload, seed, workdir, "setup", deadline)
                      for _ in range(SETUP_RUNS)]
        measured, steps = 0.0, 0
        while True:
            began = time.monotonic()
            pair = [spawn(workload, seed, workdir, mode, deadline) for mode in modes]
            reps.append(pair)
            measured += sum(r.get("wall_s", 0.0) for r in pair)
            steps += sum(len(r.get("step_s", ())) for r in pair)
            took = time.monotonic() - began
            enough = measured >= seconds and (not trace or steps >= P99_MIN_STEPS)
            if (enough or any("error" in r for r in pair)
                    or time.monotonic() + took > deadline):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    return reps, setups


def normalized(rec, name):
    """A child's time ``name`` rescaled to the reference host speed."""
    return rec[name] * workloads.CALIBRATION_REF_S / rec["calibration_s"]


def summarize(reps, setups, trace):
    """Checks and metric samples of a run."""
    checks = []
    for rec in [r for pair in reps for r in pair] + setups:
        if "error" in rec:
            checks.append({"name": f"child:{rec['mode']}", "passed": False,
                           "detail": rec["error"]})
        else:
            checks.extend(rec.get("checks", ()))
    plain = [pair[0] for pair in reps if "error" not in pair[0]]
    samples = {}
    if not trace:
        samples["wall_norm_s"] = [normalized(r, "wall_s") for r in plain]
        samples["setup_s"] = [normalized(r, "setup_s") for r in setups + plain
                              if "error" not in r]
        samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in plain]
    else:
        traced = [pair[1] for pair in reps if "error" not in pair[1]]
        for rec in traced:
            for name, value in rec["layers"].items():
                samples.setdefault(name, []).append(value)
        if traced:
            # one traced child has too few steps for a p99: pool them all
            pooled = [d for rec in traced for d in rec["step_s"]]
            samples.update({name: [value] for name, value
                            in layers.step_percentiles(pooled).items()})
        if plain and traced:
            samples["trace_overhead_s"] = [
                statistics.median(r["wall_s"] for r in traced)
                - statistics.median(r["wall_s"] for r in plain)]
    return checks, samples


def report(workload, seed, trace, reps, setups):
    """Print the summary, the record line and the result line; True if correct."""
    end_to_end, per_layer = declared_metrics()
    units = per_layer if trace else end_to_end
    checks, samples = summarize(reps, setups, trace)
    failed = [c for c in checks if not c["passed"]]
    attempted = max(1, len(checks))
    print(f"parabolab benchmark: workload {workload}, seed {seed}, trace {int(trace)}, "
          f"{len(reps)} repetition(s)")
    metrics = {}
    for name, unit in units.items():
        values = samples.get(name)
        if not values:
            print(f"  {name:28s} missing")
            continue
        q1, med, q3 = quartiles(values)
        metrics[name] = {"value": med, "unit": unit}
        print(f"  {name:28s} {med:14.6g} {unit:6s} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
    plain = [pair[0] for pair in reps if "wall_s" in pair[0]]
    for name in ("wall_s", "setup_s", "calibration_s") if plain else ():
        q1, med, q3 = quartiles([r[name] for r in plain])
        print(f"  {name + ' (raw)':28s} {med:14.6g} {'s':6s} "
              f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(plain)})")
    print(f"  {'error_rate':28s} {len(failed) / attempted:14.6g} {'1':6s} "
          f"({len(failed)} of {len(checks)} checks failed)")
    for c in failed:
        print(f"  FAILED {c['name']}: {c['detail']}")
    done = [r for pair in reps for r in pair] + setups
    nproc = os.cpu_count()
    loads = [r["load"] for r in done]
    first = next((r for r in done if "numpy" in r), {})
    record = {"workload": workload, "seed": seed, "trace": int(trace), "git_sha": git_sha(),
              "python": first.get("python"), "numpy": first.get("numpy"), "nproc": nproc,
              "wall_s": [[r["mode"], r["wall_s"]] for r in done if "wall_s" in r],
              "setup_s": [[r["mode"], r["setup_s"]] for r in done if "setup_s" in r],
              "calibration_s": [[r["mode"], r["calibration_s"]] for r in done
                                if "calibration_s" in r],
              "missing_wraps": sorted({m for r in done for m in r.get("missing_wraps", ())}),
              "load_before_after": loads,
              "shared_machine": any(before > 0.75 * nproc for before, _ in loads)}
    print("record: " + json.dumps(record))
    correct = not failed and len(metrics) == len(units)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))
    return correct


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for need in (os.path.join(workloads.SRC, "parabolab", "__init__.py"),
                 workloads.ACCEPTANCE_CFG, BENCHMARK_JSON):
        if not os.path.isfile(need):
            print(f"perfbench: {need} not found; run from a parabolab checkout",
                  file=sys.stderr)
            return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        reps, setups = measure(name, args.seed, args.seconds, bool(args.trace))
        ok = report(name, args.seed, bool(args.trace), reps, setups) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
