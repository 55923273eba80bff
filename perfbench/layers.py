"""Per-layer timing from outside the program.

:class:`Tracer` replaces the module attributes that callers look up
(``parabolab.solver.conjugate_gradient``, ``pairwise_sum`` in each module
that imports it, ...) with wrappers that record spans, and puts the
originals back on :meth:`Tracer.uninstall`.  A span's self time is its
duration minus the durations of the spans it encloses; spans are summed
per name as they close, so nothing grows with the run but the list of
step durations.
"""

import importlib
import math
import os
import time

# (module, attribute, span name): every place a layer's public function is
# looked up on the paths the workloads run.  A name missing from a later
# version of the program is skipped and listed in Tracer.missing.
WRAPS = (
    ("parabolab.config", "load_config", "config.load"),
    ("parabolab.cli", "load_config", "config.load"),
    ("parabolab.solver", "validate", "fields.validate"),
    ("parabolab.solver", "solve_ibvp", "solver.solve"),
    ("parabolab.cli", "solve_ibvp", "solver.solve"),
    ("parabolab.cli", "solve_split", "solver.split"),
    ("parabolab.solver", "conjugate_gradient", "solver.cg"),
    ("parabolab.norms", "conjugate_gradient", "solver.cg"),
    ("parabolab.cli", "export_solution", "solver.export"),
    ("parabolab.reductions", "pairwise_sum", "reductions"),
    ("parabolab._cg", "pairwise_sum", "reductions"),
    ("parabolab.norms", "pairwise_sum", "reductions"),
    ("parabolab.moser", "pairwise_sum", "reductions"),
    ("parabolab.experiments", "pairwise_sum", "reductions"),
    ("parabolab.moser", "lq_spacetime", "norms.lq"),
    ("parabolab.experiments", "lq_spacetime", "norms.lq"),
    ("parabolab.moser", "ess_sup", "norms.ess_sup"),
    ("parabolab.experiments", "ess_sup", "norms.ess_sup"),
    ("parabolab.cli", "ess_sup", "norms.ess_sup"),
    ("parabolab.moser", "sup_t_spatial_l1", "norms.sup_t_l1"),
    ("parabolab.experiments", "normalize", "moser.normalize"),
    ("parabolab.cli", "normalize", "moser.normalize"),
    ("parabolab.experiments", "exp_change", "moser.exp_change"),
    ("parabolab.cli", "exp_change", "moser.exp_change"),
    ("parabolab.experiments", "trace", "moser.trace"),
    ("parabolab.cli", "trace", "moser.trace"),
    ("parabolab.moser", "exp_moment", "moser.exp_moment"),
    ("parabolab.experiments", "exp_moment", "moser.exp_moment"),
    ("parabolab.experiments", "interpolation_check", "moser.interpolation"),
    ("parabolab.cli", "interpolation_check", "moser.interpolation"),
    ("parabolab.experiments", "l1_check", "moser.l1_check"),
    ("parabolab.cli", "l1_check", "moser.l1_check"),
    ("parabolab.cli", "assemble_bound", "moser.assemble_bound"),
    ("parabolab.experiments", "solve_split", "experiments.probe"),
    ("parabolab.experiments", "bump", "experiments.bump"),
    ("parabolab.experiments", "fit_log_law", "experiments.fit"),
    ("parabolab.experiments", "run_sweep", "experiments.sweep"),
    ("parabolab.cli", "run_sweep", "experiments.sweep"),
    ("parabolab.cli", "export", "experiments.export"),
    ("parabolab.cli", "run", "cli"),
)

# per-layer metric -> span name, for self times and for call counts; the
# other counts are gathered by the span hooks below
SELF_TIMES = {
    "config.load_s": "config.load",
    "fields.validate_s": "fields.validate",
    "solver.solve_s": "solver.solve",
    "solver.cg_s": "solver.cg",
    "solver.apply_s": "solver.apply",
    "solver.export_s": "solver.export",
    "reductions.s": "reductions",
    "norms.lq_s": "norms.lq",
    "norms.ess_sup_s": "norms.ess_sup",
    "norms.sup_t_l1_s": "norms.sup_t_l1",
    "moser.normalize_s": "moser.normalize",
    "moser.exp_change_s": "moser.exp_change",
    "moser.trace_s": "moser.trace",
    "moser.exp_moment_s": "moser.exp_moment",
    "moser.interpolation_s": "moser.interpolation",
    "moser.l1_check_s": "moser.l1_check",
    "moser.assemble_bound_s": "moser.assemble_bound",
    "experiments.bump_s": "experiments.bump",
    "experiments.fit_s": "experiments.fit",
    "experiments.export_s": "experiments.export",
    "cli.self_s": "cli",
}
CALLS = {
    "fields.validate_calls": "fields.validate",
    "solver.apply_calls": "solver.apply",
    "reductions.calls": "reductions",
    "norms.lq_calls": "norms.lq",
    "moser.exp_moment_calls": "moser.exp_moment",
    "experiments.probes": "experiments.probe",
}


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def step_percentiles(step_s):
    """``solver.step_ms_p50`` and ``solver.step_ms_p99`` of step durations in seconds."""
    steps = sorted(step_s)
    return {"solver.step_ms_p50": 1e3 * _percentile(steps, 50),
            "solver.step_ms_p99": 1e3 * _percentile(steps, 99)}


class Tracer:
    """Wraps the layer entry points, sums self time per span name."""

    def __init__(self):
        self.self_s = {}
        self.calls = {}
        self.counts = {"solver.steps": 0, "solver.cg_iters": 0, "solver.export_bytes": 0,
                       "reductions.elements": 0, "moser.rungs": 0}
        self.step_s = []
        self.iters = []
        self.missing = []
        self._open = []       # enclosed time of each open span, innermost last
        self._saved = []      # (module, attribute, original)
        self._hooks = {
            "solver.solve": self._after_solve,
            "solver.export": self._after_export,
            "reductions": self._after_reduction,
            "moser.trace": self._after_trace,
        }

    # -- installation -----------------------------------------------------

    def install(self):
        for module_name, attr, name in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            if name == "solver.cg":
                wrapper = self._cg_span(original)
            else:
                wrapper = self.span(name, original, self._hooks.get(name))
            setattr(module, attr, wrapper)

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- spans ------------------------------------------------------------

    def _close(self, name, duration):
        enclosed = self._open.pop()
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - enclosed
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._open:
            self._open[-1] += duration

    def span(self, name, fn, after=None):
        """``fn`` wrapped in a span; ``after(args, result, duration)`` runs on return."""
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self._close(name, duration)
            if after is not None:
                after(args, result, duration)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _cg_span(self, fn):
        # the apply_op handed to CG gets a span of its own
        def cg(apply_op, *args, **kwargs):
            return fn(self.span("solver.apply", apply_op), *args, **kwargs)
        return self.span("solver.cg", cg, self._after_cg)

    # -- hooks ------------------------------------------------------------

    def _after_solve(self, args, solution, duration):
        self.counts["solver.steps"] += solution.steps

    def _after_cg(self, args, result, duration):
        self.counts["solver.cg_iters"] += result[2]
        self.iters.append(result[2])
        self.step_s.append(duration)

    def _after_export(self, args, result, duration):
        self.counts["solver.export_bytes"] += os.path.getsize(args[1])

    def _after_reduction(self, args, result, duration):
        self.counts["reductions.elements"] += getattr(args[0], "size", 1)

    def _after_trace(self, args, result, duration):
        self.counts["moser.rungs"] += len(result.ladder)

    # -- report -----------------------------------------------------------

    def metrics(self):
        """Every per-layer metric except trace_overhead_s, by name."""
        out = {m: self.self_s.get(span, 0.0) for m, span in SELF_TIMES.items()}
        out.update({m: self.calls.get(span, 0) for m, span in CALLS.items()})
        out.update(self.counts)
        out.update(step_percentiles(self.step_s))
        out["solver.iters_per_step_mean"] = (sum(self.iters) / len(self.iters)
                                             if self.iters else 0.0)
        out["solver.iters_per_step_max"] = max(self.iters, default=0)
        calls = out["solver.apply_calls"]
        out["solver.apply_us"] = 1e6 * out["solver.apply_s"] / calls if calls else 0.0
        elements = out["reductions.elements"]
        out["reductions.ns_per_element"] = (1e9 * out["reductions.s"] / elements
                                            if elements else 0.0)
        return out
