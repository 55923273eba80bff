"""Command-line front end.

Subcommands: solve (march one problem), diagnose (solve + full
diagnostic chain), ledger (closed-form exponents), sweep (bump-family
sweep with CSV/SVG export), convergence (manufactured-solution order
study).  Exit codes: 0 success, 1 configuration problems, 2
solver/diagnostic failures, 3 failed --check assertions.  All floats
print with 12 significant digits so output is golden-file comparable.
"""

import argparse
import os
import sys

from parabolab.config import load_config, parse_numbers
from parabolab.constants import build_ledger, ledger_to_text
from parabolab.errors import (ConfigurationError, ConsistencyError, DomainError, FitError,
                              RangeError, ResolutionError, SolverError)
from parabolab.experiments import (Check, _svg_plot, _sweep_csv, _sweep_text,
                                   convergence_orders, diagnose, diagnosis_checks, run_sweep,
                                   sweep_checks)
from parabolab.moser import assemble_bound, bound_to_text, check_ladder, trace_to_csv
from parabolab.norms import ess_sup
from parabolab.solver import export_solution, solve_ibvp, solve_split


def _print_checks(checks) -> int:
    for check in checks:
        print(f"check {check.name}: {'PASS' if check.passed else 'FAIL'}")
    return 0 if all(check.passed for check in checks) else 3


def _ensure_out(out):
    """Create the output directory, if one is named, before any work is done."""
    if out:
        os.makedirs(out, exist_ok=True)
    return out


def _cmd_solve(args) -> int:
    out = _ensure_out(args.out)
    bundle = load_config(args.config)
    sol = solve_ibvp(bundle.spec, opts=bundle.solve_options)
    print(f"steps            = {sol.steps}")
    print(f"sup |phi|        = {ess_sup(sol.phi):.12g}")
    print(f"max residual     = {max(sol.residuals):.12g}")
    print(f"total iterations = {sol.total_iterations}")
    if out:
        path = os.path.join(out, "solution.txt")
        export_solution(sol, path)
        print(f"wrote {path}")
    return 0


def _cmd_diagnose(args) -> int:
    out = _ensure_out(args.out)
    bundle = load_config(args.config)
    spec = bundle.spec
    beta0 = args.beta0 if args.beta0 is not None else \
        (bundle.sweep.beta0 if bundle.sweep else 1.0)
    i_max = bundle.sweep.i_max if bundle.sweep else 12
    check_ladder(beta0, i_max, spec.q)
    d = diagnose(spec, *solve_split(spec, opts=bundle.solve_options), beta0, i_max)
    report = assemble_bound(d.phi_sup, d.sup_phi0, d.f_norm_crit, d.f_norm_q,
                            spec.q, spec.grid.dim, beta0)
    l1_lhs, l1_rhs, _ = d.l1
    int_lhs, int_rhs, _ = d.trace.interpolation
    tr = d.trace

    print(bound_to_text(report), end="")
    print(f"scale            = {d.scale:.12g}")
    print(f"l1 lhs/rhs       = {l1_lhs:.12g} / {l1_rhs:.12g}")
    print(f"interp lhs/rhs   = {int_lhs:.12g} / {int_rhs:.12g}")
    print(f"chi              = {tr.chi:.12g}")
    print(f"ladder rungs     = {len(tr.ladder)} (top p = {tr.ladder[-1].exponent:.12g})")
    print(f"extrapolated sup = {tr.extrapolated_sup:.12g}")
    print(f"measured sup     = {tr.measured_sup:.12g}")
    if out:
        with open(os.path.join(out, "trace.csv"), "w") as fh:
            fh.write(trace_to_csv(tr))
        with open(os.path.join(out, "report.txt"), "w") as fh:
            fh.write(bound_to_text(report))
        print(f"wrote {out}/trace.csv, {out}/report.txt")
    if args.check:
        contraction = d.drift_sup - d.sup_phi0
        return _print_checks(diagnosis_checks([d]) + [
            Check("data_contraction", contraction, contraction <= 1e-12)])
    return 0


def _cmd_ledger(args) -> int:
    out = _ensure_out(args.out)
    ledger = build_ledger(args.N, args.q, args.beta0, args.alpha)
    text = ledger_to_text(ledger)
    print(text, end="")
    if out:
        path = os.path.join(out, "ledger.txt")
        with open(path, "w") as fh:
            fh.write(text)
        print(f"wrote {path}")
    return 0


def _cmd_sweep(args) -> int:
    out = _ensure_out(args.out or ".")
    bundle = load_config(args.config)
    if bundle.sweep is None:
        raise ConfigurationError(f"{args.config}: sweep requires a [sweep] section")
    settings = bundle.sweep
    eps = settings.eps
    if args.eps_list:
        eps = parse_numbers(args.eps_list, "--eps-list")
    result = run_sweep(bundle.spec, settings.family, eps,
                       opts=bundle.solve_options, threads=args.threads,
                       beta0=settings.beta0, i_max=settings.i_max,
                       moment_cap=settings.moment_cap)
    with open(os.path.join(out, "sweep.csv"), "w") as fh:
        fh.write(_sweep_csv(result))
    with open(os.path.join(out, "sweep.svg"), "w") as fh:
        fh.write(_svg_plot(result))
    if result.diagnoses:
        # trace of the smallest eps: the most concentrated forcing
        with open(os.path.join(out, "trace.csv"), "w") as fh:
            fh.write(trace_to_csv(result.diagnoses[-1].trace))
    grid = bundle.spec.grid
    ledger = build_ledger(grid.dim, bundle.spec.q, settings.beta0, result.alpha,
                          lam=bundle.spec.lam, measure=grid.volume, T=grid.T)
    with open(os.path.join(out, "ledger.txt"), "w") as fh:
        fh.write(ledger_to_text(ledger))
    print(_sweep_text(result), end="")
    print(f"wrote sweep.csv, sweep.svg, trace.csv, ledger.txt to {out}")
    if args.check:
        return _print_checks(sweep_checks(result))
    return 0


def _cmd_convergence(args) -> int:
    orders = []
    for dim, n, err, order in convergence_orders():
        line = f"  nx = {n:3d}  sup error = {err:.12g}"
        if order is None:
            print(f"{dim}-D manufactured solution:")
        else:
            line += f"  order = {order:.12g}"
            orders.append(order)
        print(line)
    if args.check:
        worst = min(orders)
        return _print_checks([Check("convergence_order", worst, worst >= 1.7)])
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parabolab",
        description="Sup-norm diagnostics for linear parabolic Dirichlet problems")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="configuration file")
        p.add_argument("--out", default=None, help="output directory")

    def check(p):
        p.add_argument("--check", action="store_true",
                       help="turn diagnostics into assertions (exit 3 on failure)")

    p_solve = sub.add_parser("solve", help="march the configured problem")
    common(p_solve)
    p_solve.set_defaults(handler=_cmd_solve)

    p_diag = sub.add_parser("diagnose", help="solve and run the diagnostic chain")
    common(p_diag)
    check(p_diag)
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
    check(p_sweep)
    p_sweep.add_argument("--eps-list", default=None,
                         help="comma-separated eps values overriding the config")
    p_sweep.add_argument("--threads", type=int, default=1,
                         help="worker pool size for the sweep")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_conv = sub.add_parser("convergence", help="manufactured-solution order study")
    check(p_conv)
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
    except (ConfigurationError, ResolutionError, OSError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 1
    except (SolverError, RangeError, DomainError, FitError, ConsistencyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
