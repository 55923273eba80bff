"""Command-line front end.

Subcommands: solve (march one problem), diagnose (solve + full
diagnostic chain), ledger (closed-form exponents), sweep (bump-family
sweep with CSV/SVG export), convergence (manufactured-solution order
study).  Exit codes: 0 success, 1 configuration problems, 2
solver/diagnostic failures, 3 failed --check assertions.  All floats
print with 12 significant digits so output is golden-file comparable.
"""

import argparse
import math
import os
import sys

import numpy as np

from parabolab.config import load_config
from parabolab.constants import build_ledger, ledger_to_text
from parabolab.errors import (ConfigurationError, ConsistencyError, DomainError,
                              EstimationError, EvaluationError, FitError,
                              RangeError, ResolutionError, SolverError)
from parabolab.experiments import _sweep_text, diagnose, export, run_sweep
from parabolab.fields import (TIMESLICE, Field, MatrixCoefficient, ProblemSpec, make_grid,
                              sample, sample_initial)
from parabolab.moser import assemble_bound, bound_to_text, trace_to_csv
from parabolab.norms import ess_sup
from parabolab.solver import SolveOptions, export_solution, solve_ibvp, solve_split


def _print_checks(checks) -> int:
    failed = False
    for name, passed in checks:
        print(f"check {name}: {'PASS' if passed else 'FAIL'}")
        failed = failed or not passed
    return 3 if failed else 0


def _ensure_out(out: str) -> str:
    os.makedirs(out, exist_ok=True)
    return out


def _cmd_solve(args) -> int:
    bundle = load_config(args.config)
    sol = solve_ibvp(bundle.spec, opts=bundle.solve_options)
    print(f"steps            = {sol.steps}")
    print(f"sup |phi|        = {ess_sup(sol.phi):.12g}")
    print(f"max residual     = {max(sol.residuals):.12g}")
    print(f"total iterations = {sol.total_iterations}")
    if args.out:
        path = os.path.join(_ensure_out(args.out), "solution.txt")
        export_solution(sol, path)
        print(f"wrote {path}")
    return 0


def _ladder_monotone(tr) -> bool:
    return all(a.norm <= b.norm * (1 + 1e-12) for a, b in zip(tr.ladder, tr.ladder[1:]))


def _cmd_diagnose(args) -> int:
    bundle = load_config(args.config)
    spec = bundle.spec
    beta0 = args.beta0 if args.beta0 is not None else \
        (bundle.sweep.beta0 if bundle.sweep else 1.0)
    i_max = bundle.sweep.i_max if bundle.sweep else 12
    forced, drift = solve_split(spec, opts=bundle.solve_options)
    d = diagnose(forced.phi, drift.phi, spec.phi0, spec.f, spec.q, beta0, i_max)
    report = assemble_bound(d.phi_sup, d.sup_phi0, d.f_norm_crit, d.f_norm_q,
                            spec.q, spec.grid.dim, beta0)
    l1_lhs, l1_rhs, l1_ok = d.l1
    int_lhs, int_rhs, int_ok = d.interpolation
    tr = d.trace

    print(bound_to_text(report), end="")
    print(f"scale            = {d.scale:.12g}")
    print(f"l1 lhs/rhs       = {l1_lhs:.12g} / {l1_rhs:.12g}")
    print(f"interp lhs/rhs   = {int_lhs:.12g} / {int_rhs:.12g}")
    print(f"chi              = {tr.chi:.12g}")
    print(f"ladder rungs     = {len(tr.ladder)} (top p = {tr.ladder[-1].exponent:.12g})")
    print(f"extrapolated sup = {tr.extrapolated_sup:.12g}")
    print(f"measured sup     = {tr.measured_sup:.12g}")
    if args.out:
        out = _ensure_out(args.out)
        with open(os.path.join(out, "trace.csv"), "w") as fh:
            fh.write(trace_to_csv(tr))
        with open(os.path.join(out, "report.txt"), "w") as fh:
            fh.write(bound_to_text(report))
        print(f"wrote {out}/trace.csv, {out}/report.txt")
    if args.check:
        return _print_checks([
            ("l1", l1_ok),
            ("interpolation", int_ok),
            ("ladder_monotone", _ladder_monotone(tr)),
            ("data_contraction", d.drift_sup <= d.sup_phi0 + 1e-12),
        ])
    return 0


def _cmd_ledger(args) -> int:
    ledger = build_ledger(args.N, args.q, args.beta0, args.alpha)
    text = ledger_to_text(ledger)
    print(text, end="")
    if args.out:
        path = os.path.join(_ensure_out(args.out), "ledger.txt")
        with open(path, "w") as fh:
            fh.write(text)
        print(f"wrote {path}")
    return 0


def _cmd_sweep(args) -> int:
    bundle = load_config(args.config)
    if bundle.sweep is None:
        raise ConfigurationError(f"{args.config}: sweep requires a [sweep] section")
    settings = bundle.sweep
    eps = settings.eps
    if args.eps_list:
        eps = tuple(float(tok) for tok in args.eps_list.split(","))
    result = run_sweep(bundle.spec, settings.family, eps,
                       opts=bundle.solve_options, threads=args.threads,
                       beta0=settings.beta0, i_max=settings.i_max,
                       moment_cap=settings.moment_cap)
    out = _ensure_out(args.out or ".")
    export(result, os.path.join(out, "sweep.csv"), "csv")
    export(result, os.path.join(out, "sweep.svg"), "svg-plot")
    if result.traces:
        # trace of the smallest eps: the most concentrated forcing
        with open(os.path.join(out, "trace.csv"), "w") as fh:
            fh.write(trace_to_csv(result.traces[-1]))
    grid = bundle.spec.grid
    ledger = build_ledger(grid.dim, bundle.spec.q, settings.beta0, result.alpha,
                          lam=bundle.spec.lam, measure=grid.volume, T=grid.T)
    with open(os.path.join(out, "ledger.txt"), "w") as fh:
        fh.write(ledger_to_text(ledger))
    print(_sweep_text(result), end="")
    print(f"wrote sweep.csv, sweep.svg, trace.csv, ledger.txt to {out}")
    if args.check:
        return _print_checks(_sweep_checks(result))
    return 0


def _sweep_checks(result):
    rows = result.rows
    fit_ok = result.fit is not None and result.fit.r_squared >= 0.9
    ratios = [r.phi_sup / r.f_norm_q for r in rows if r.f_norm_q > 0]
    sublinear_ok = len(ratios) == len(rows) and \
        all(ratios[i] > ratios[i + 1] for i in range(len(ratios) - 1))
    cs = [r.implied_c for r in rows]
    c_ok = bool(cs) and min(cs) > 0 and max(cs) / min(cs) < 3.0
    moments = [r.exp_moment for r in rows]
    moment_ok = bool(moments) and max(moments) / min(moments) <= 10.0
    l1_ok = all(item[2] for item in result.l1)
    interp_ok = all(item[2] for item in result.interpolation)
    ladder_ok = all(_ladder_monotone(t) for t in result.traces)
    return [
        ("fit_r_squared", fit_ok),
        ("sublinearity", sublinear_ok),
        ("implied_c_spread", c_ok),
        ("moment_spread", moment_ok),
        ("l1", l1_ok),
        ("interpolation", interp_ok),
        ("ladder_monotone", ladder_ok),
    ]


def _mms_error(dim: int, n: int) -> float:
    """Sup error of the manufactured solution prod sin(pi x_k) e^-t."""
    T = 0.5
    nt = max(2, round(T * n * n))  # dt = h^2 on the unit box
    grid = make_grid([(0.0, 1.0)] * dim, [n] * dim, T, nt)

    def exact(*args):
        xs, t = args[:-1], args[-1]
        out = math.exp(-float(t)) * np.ones(np.broadcast_shapes(
            *[np.shape(x) for x in xs]))
        for x in xs:
            out = out * np.sin(math.pi * x)
        return out

    k = dim * math.pi ** 2 - 1.0

    def forcing(*args):
        return k * exact(*args)

    spec = ProblemSpec(grid, MatrixCoefficient.identity(grid),
                       Field.zeros(grid, TIMESLICE), sample(forcing, grid),
                       sample_initial(lambda *xs: exact(*xs, 0.0), grid))
    sol = solve_ibvp(spec, opts=SolveOptions(tol=1e-11))
    return float(np.max(np.abs(sol.phi.values - sample(exact, grid).values)))


def _cmd_convergence(args) -> int:
    all_ok = True
    for dim in (1, 2):
        sizes = (16, 32, 64)
        errors = [_mms_error(dim, n) for n in sizes]
        print(f"{dim}-D manufactured solution:")
        prev = None
        for n, err in zip(sizes, errors):
            line = f"  nx = {n:3d}  sup error = {err:.12g}"
            if prev is not None:
                order = math.log2(prev / err)
                line += f"  order = {order:.12g}"
                all_ok = all_ok and order >= 1.7
            print(line)
            prev = err
    if args.check:
        return _print_checks([("convergence_order", all_ok)])
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parabolab",
        description="Sup-norm diagnostics for linear parabolic Dirichlet problems")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="configuration file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--check", action="store_true",
                       help="turn diagnostics into assertions (exit 3 on failure)")
        p.add_argument("--threads", type=int, default=1,
                       help="worker pool size for sweeps")

    p_solve = sub.add_parser("solve", help="march the configured problem")
    common(p_solve)
    p_solve.set_defaults(handler=_cmd_solve)

    p_diag = sub.add_parser("diagnose", help="solve and run the diagnostic chain")
    common(p_diag)
    p_diag.add_argument("--beta0", type=float, default=None)
    p_diag.set_defaults(handler=_cmd_diagnose)

    p_led = sub.add_parser("ledger", help="closed-form exponent ledger")
    p_led.add_argument("--N", type=int, required=True)
    p_led.add_argument("--q", type=float, required=True)
    p_led.add_argument("--beta0", type=float, default=1.0)
    p_led.add_argument("--alpha", type=float, default=1.0)
    p_led.add_argument("--out", default=None)
    p_led.set_defaults(handler=_cmd_ledger)

    p_sweep = sub.add_parser("sweep", help="bump-family sweep with exports")
    common(p_sweep)
    p_sweep.add_argument("--eps-list", default=None,
                         help="comma-separated eps values overriding the config")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_conv = sub.add_parser("convergence", help="manufactured-solution order study")
    p_conv.add_argument("--check", action="store_true")
    p_conv.set_defaults(handler=_cmd_convergence)
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return args.handler(args)
    except (ConfigurationError, ResolutionError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 1
    except (SolverError, RangeError, DomainError, EvaluationError,
            EstimationError, FitError, ConsistencyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
