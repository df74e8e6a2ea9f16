"""Spans around the calls into each phaseflow layer, installed from the
benchmark's own files by wrapping callables by name.

A span records its name, start, end and parent; spans stay in memory and
are reduced to the per-layer metrics when the repetition ends.  Counters
are taken at the same boundaries, from the arguments and results of the
wrapped calls.  A hook whose target no longer exists is reported as
absent instead of raising, so the program can drop or rename internals
without the benchmark failing.
"""

import functools
import importlib
import inspect
import os
import sys
from time import perf_counter

import numpy as np

MODULES = ("dynamics", "kernels", "grids", "diagnostics", "steady",
           "config", "models")


def _array_bytes(values):
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


def _on_step(rec, args, kwargs, out):
    report = out[1]
    rec.count("dynamics.newton_iters", report.newton_iters)
    rec.count("dynamics.damping_events", report.damping_events)


def _on_linear_solve(rec, args, kwargs, out):
    jac, rhs = args[0], args[1]
    scale = float(np.linalg.norm(rhs))
    if scale > 0.0:
        rel = float(np.linalg.norm(jac @ out - rhs)) / scale
        rec.maximum("dynamics.linear_residual_max", rel)


def _on_arrays(rec, args, kwargs, out):
    # computed from array sizes: what the call reads and returns
    outs = out if isinstance(out, tuple) else (out,)
    rec.count("kernels.computed_bytes",
              _array_bytes(args) + _array_bytes(outs))


def _on_snapshot(rec, args, kwargs, out):
    rec.count("grids.snapshot_bytes", os.path.getsize(args[0]))


def _on_stationary(rec, args, kwargs, out):
    rec.count("steady.newton_iters", out.newton_iters)


def _on_catalog(rec, args, kwargs, out):
    rec.count("steady.solutions", len(out))


#: (span name, module, attribute path, result hook)
HOOKS = (
    ("dynamics.run", "phaseflow.dynamics", "run", None),
    ("dynamics.step", "phaseflow.dynamics", "Stepper.step", _on_step),
    ("dynamics.stepper_init", "phaseflow.dynamics", "Stepper.__init__",
     None),
    ("dynamics.jacobian", "phaseflow.dynamics", "Stepper._jacobian", None),
    ("dynamics.residual", "phaseflow.dynamics", "Stepper._residual", None),
    ("dynamics.residual", "phaseflow.dynamics", "Stepper._residual_norm",
     None),
    ("dynamics.linear_solve", "phaseflow.dynamics", "spsolve",
     _on_linear_solve),
    # the constitutive and energy evaluations are entered through the
    # stepper, which is the boundary every kernel lane shares
    ("kernels.constitutive", "phaseflow.dynamics", "Stepper.constitutive",
     _on_arrays),
    ("kernels.energy", "phaseflow.dynamics", "Stepper.energy", _on_arrays),
    ("kernels.energy", "phaseflow.dynamics", "discrete_energy", None),
    ("grids.workspace_build", "phaseflow.grids",
     "OperatorWorkspace.__init__", None),
    ("grids.dual_norm", "phaseflow.grids",
     "OperatorWorkspace.dual_norm_weak", None),
    ("grids.dual_norm", "phaseflow.grids", "OperatorWorkspace.vstar_norm",
     None),
    ("grids.dual_norm", "phaseflow.grids",
     "OperatorWorkspace.vstar_neumann_norm", None),
    ("grids.norm", "phaseflow.grids", "OperatorWorkspace.h_norm", None),
    ("grids.norm", "phaseflow.grids", "OperatorWorkspace.c0_norm", None),
    ("grids.norm", "phaseflow.grids", "OperatorWorkspace.v_norm", None),
    ("grids.norm", "phaseflow.grids", "OperatorWorkspace.r_norm", None),
    ("grids.norm", "phaseflow.grids", "OperatorWorkspace.vcal_norm", None),
    ("grids.norm", "phaseflow.grids", "norm", None),
    ("grids.snapshot_write", "phaseflow.grids", "write_records",
     _on_snapshot),
    ("diagnostics.dissipation", "phaseflow.diagnostics",
     "check_dissipation", None),
    ("diagnostics.omega", "phaseflow.diagnostics", "detect_omega_limit",
     None),
    ("diagnostics.monitors", "phaseflow.diagnostics", "monitor_bounds",
     None),
    ("diagnostics.source_report", "phaseflow.diagnostics", "source_report",
     None),
    ("diagnostics.fit", "phaseflow.diagnostics", "EnergyTrace.from_csv",
     None),
    ("diagnostics.fit", "phaseflow.diagnostics", "fit_rate", None),
    ("diagnostics.fit", "phaseflow.diagnostics", "estimate_lojasiewicz",
     None),
    ("steady.catalog", "phaseflow.steady", "solve_catalog", _on_catalog),
    ("steady.solve", "phaseflow.steady", "solve_stationary", _on_stationary),
    ("config.build", "phaseflow.config", "parse_raw", None),
    ("config.build", "phaseflow.config", "build_config", None),
    ("models.validate", "phaseflow.models", "validate_hypotheses", None),
)

#: per-layer metric -> the span whose inclusive time it reports
TIMES = {
    "dynamics.linear_solve_s": "dynamics.linear_solve",
    "dynamics.jacobian_s": "dynamics.jacobian",
    "dynamics.residual_s": "dynamics.residual",
    "dynamics.stepper_init_s": "dynamics.stepper_init",
    "kernels.constitutive_s": "kernels.constitutive",
    "kernels.energy_s": "kernels.energy",
    "grids.dual_norm_s": "grids.dual_norm",
    "grids.norm_s": "grids.norm",
    "grids.snapshot_write_s": "grids.snapshot_write",
    "grids.workspace_build_s": "grids.workspace_build",
    "diagnostics.dissipation_s": "diagnostics.dissipation",
    "diagnostics.omega_s": "diagnostics.omega",
    "diagnostics.monitors_s": "diagnostics.monitors",
    "diagnostics.source_report_s": "diagnostics.source_report",
    "diagnostics.fit_s": "diagnostics.fit",
    "steady.catalog_s": "steady.catalog",
    "config.build_s": "config.build",
    "models.validate_s": "models.validate",
}

#: per-layer metric -> the span whose self time it reports
SELF_TIMES = {
    "dynamics.step_self_s": "dynamics.step",
    "dynamics.run_self_s": "dynamics.run",
}

#: per-layer metric -> the span whose number of calls it reports
CALLS = {
    "dynamics.linear_solves": "dynamics.linear_solve",
    "kernels.constitutive_calls": "kernels.constitutive",
    "grids.dual_norm_calls": "grids.dual_norm",
}

COUNTERS = ("dynamics.newton_iters", "dynamics.damping_events",
            "kernels.computed_bytes", "grids.snapshot_bytes",
            "steady.newton_iters", "steady.solutions")

#: unit of every per-layer metric the benchmark reports
UNITS = {
    **{k: "s" for k in TIMES}, **{k: "s" for k in SELF_TIMES},
    **{k: "count" for k in CALLS}, **{k: "count" for k in COUNTERS},
    **{f"{m}.self_s": "s" for m in MODULES},
    "kernels.computed_bytes": "bytes", "grids.snapshot_bytes": "bytes",
    "grids.trace_bytes": "bytes", "dynamics.linear_residual_max": "1",
    "dynamics.steps": "count", "dynamics.step_failures": "count",
    "dynamics.rejected_step_ratio": "1",
    "dynamics.newton_iters_per_step": "1",
    "dynamics.step_ms_p50": "ms", "dynamics.step_ms_p99": "ms",
    "trace_overhead_frac": "1",
}


class Recorder:
    """In-memory span and counter store of one repetition."""

    def __init__(self):
        self.names = []      # span name
        self.starts = []
        self.ends = []
        self.parents = []    # index of the enclosing span, -1 at top level
        self.outer = []      # False when nested in a span of the same name
        self.ok = []         # False when the call raised
        self.counters = {}
        self.hidden = {}     # span index -> seconds spent in result hooks
        self.absent = []     # hook targets that do not exist
        self._stack = []
        self._active = {}

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name, value):
        self.counters[name] = max(self.counters.get(name, 0.0), value)

    def wrap(self, name, fn, on_result):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rec.names)
            parent = rec._stack[-1] if rec._stack else -1
            rec.names.append(name)
            rec.parents.append(parent)
            rec.outer.append(not rec._active.get(name))
            rec.ok.append(False)
            rec.ends.append(0.0)
            rec._active[name] = rec._active.get(name, 0) + 1
            rec._stack.append(idx)
            rec.starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
                rec.ok[idx] = True
            finally:
                rec.ends[idx] = perf_counter()
                rec._stack.pop()
                rec._active[name] -= 1
            if on_result is not None:
                on_result(rec, args, kwargs, out)
                # the hook's own cost is kept out of the parent's self time
                rec.hidden[parent] = (rec.hidden.get(parent, 0.0)
                                      + perf_counter() - rec.ends[idx])
            return out

        return traced

    def metrics(self):
        """Reduce the spans to the per-layer metrics (times in seconds)."""
        names = np.array(self.names, dtype=object)
        dur = np.array(self.ends) - np.array(self.starts)
        parents = np.array(self.parents, dtype=int)
        outer = np.array(self.outer, dtype=bool)
        ok = np.array(self.ok, dtype=bool)
        child = np.zeros(dur.size)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        for idx, seconds in self.hidden.items():
            if idx >= 0:
                child[idx] += seconds
        self_time = dur - child

        def of(span):
            return names == span

        out = {}
        for metric, span in TIMES.items():
            out[metric] = float(dur[of(span) & outer].sum())
        for metric, span in SELF_TIMES.items():
            out[metric] = float(self_time[of(span)].sum())
        for metric, span in CALLS.items():
            out[metric] = int(of(span).sum())
        for name in COUNTERS:
            out[name] = self.counters.get(name, 0)
        out["dynamics.linear_residual_max"] = self.counters.get(
            "dynamics.linear_residual_max", 0.0)
        steps = of("dynamics.step")
        done = int((steps & ok).sum())
        out["dynamics.steps"] = done
        out["dynamics.step_failures"] = int((steps & ~ok).sum())
        out["dynamics.rejected_step_ratio"] = (
            out["dynamics.step_failures"] / max(int(steps.sum()), 1))
        out["dynamics.newton_iters_per_step"] = (
            out["dynamics.newton_iters"] / max(done, 1))
        step_ms = 1e3 * dur[steps & ok]
        out["dynamics.step_ms_p50"] = float(
            np.percentile(step_ms, 50)) if step_ms.size else 0.0
        out["dynamics.step_ms_p99"] = float(
            np.percentile(step_ms, 99)) if step_ms.size else 0.0
        module = np.array([n.split(".", 1)[0] for n in self.names],
                          dtype=object)
        for mod in MODULES:
            out[f"{mod}.self_s"] = float(self_time[module == mod].sum())
        return out


def _resolve(module_name, path):
    """(owner, attribute, raw value) of a hook target, or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if inspect.isclass(owner):
        raw = inspect.getattr_static(owner, parts[-1], None)
    else:
        raw = getattr(owner, parts[-1], None)
    if raw is None:
        return None
    return owner, parts[-1], raw


def install(rec):
    """Wrap every hook target present; returns the absent targets."""
    for name, module_name, path, on_result in HOOKS:
        found = _resolve(module_name, path)
        if found is None:
            rec.absent.append(f"{module_name}:{path}")
            continue
        owner, attr, raw = found
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attr,
                    type(raw)(rec.wrap(name, raw.__func__, on_result)))
            continue
        traced = rec.wrap(name, raw, on_result)
        setattr(owner, attr, traced)
        if not inspect.isclass(owner):
            rebind(raw, traced)
    return rec.absent


def rebind(original, replacement):
    """Point every phaseflow module that imported a phaseflow function by
    name at its replacement; foreign callables (``spsolve``) are replaced
    only where the hook names them."""
    if not getattr(original, "__module__", "").startswith("phaseflow"):
        return
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or mod_name.split(".")[0] != "phaseflow":
            continue
        for key, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, key, replacement)
