"""Declarative experiment configuration.

The file format is line-oriented ``section.key = value`` with ``#`` comments,
for example::

    model.j = caginalp_j
    model.w = quartic_W
    model.lambda = linear_lambda
    grid.dimension = 1
    grid.extents = 1.0
    grid.nodes = 128
    bc.kind = dirichlet
    initial.chi = cosine
    initial.chi.amplitude = 0.1
    run.dt = 1e-3
    run.t_end = 2.0

Parsing is split from validation: ``parse_raw`` only reads the key/value
tree (ParseError on malformed lines), ``build_config`` resolves it into live
objects and reports every constraint violation at once (ValidationError).
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .dynamics import SourceSpec, State, TrajectoryConfig, free_energy
from .errors import (InvalidParameter, ParseError, SnapshotError,
                     UnknownModel, ValidationError)
from .grids import (BoundarySpec, Field, Grid, OperatorWorkspace,
                    grid_mismatch, read_records)
from .models import ModelSpec, builtin, builtin_names

_INF = float("inf")

#: float keys that may be infinite (an integrability tag of the source)
_INF_KEYS = ("source.p", "source.q")


def parse_raw(path):
    """Read the flat dotted-key tree of a UTF-8 config file; a file that
    cannot be opened or decoded is a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read config '{path}': {exc}") from None
    raw = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(f"{path}:{lineno}: expected 'key = value', "
                             f"got {stripped!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ParseError(f"{path}:{lineno}: empty key or value")
        if key in raw:
            raise ParseError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def _bool(text):
    if text.lower() not in ("true", "false"):
        raise ValueError(text)
    return text.lower() == "true"


def _floats(text):
    return tuple(float(x) for x in text.split())


def _ints(text):
    return tuple(int(x) for x in text.split())


#: how a violation names a value that a parser rejects
_REJECTED = {float: "is not a number: ", int: "is not an integer: ",
             _bool: "must be true or false, got ",
             _floats: "is not a number list: ",
             _ints: "is not an integer list: "}


class _Reader:
    """Pulls typed values out of the raw tree, accumulating violations."""

    def __init__(self, raw):
        self.raw = dict(raw)
        self.seen = set()
        self.violations = []

    def read(self, key, parse, default=None, required=False, choices=None):
        """``parse`` (str, float, int, _bool, _floats or _ints) of the
        value of ``key``; ``default`` when the key is absent or its value
        is rejected, with a violation.  A float must be finite, except
        that the integrability tags may be infinite."""
        self.seen.add(key)
        if key not in self.raw:
            if required:
                self.violations.append(f"missing required key '{key}'")
            return default
        text = self.raw[key]
        try:
            val = parse(text)
        except ValueError:
            self.violations.append(f"'{key}' {_REJECTED[parse]}{text!r}")
            return default
        values = val if isinstance(val, tuple) else (val,)
        if parse in (float, _floats) and not all(
                math.isfinite(v) or (math.isinf(v) and key in _INF_KEYS)
                for v in values):
            kind = "a number" if key in _INF_KEYS else "finite"
            self.violations.append(f"'{key}' must be {kind}, got "
                                   f"{' '.join(map(repr, values))}")
            return default
        if choices is not None and val not in choices:
            self.violations.append(
                f"'{key}' must be one of {sorted(choices)}, got {val!r}")
            return default
        return val

    def params_under(self, prefix):
        """All numeric parameters below a dotted prefix."""
        out = {}
        for key in self.raw:
            if key.startswith(prefix + "."):
                value = self.read(key, float)
                if value is not None:
                    out[key[len(prefix) + 1:]] = value
        return out

    def unknown_keys(self):
        return sorted(set(self.raw) - self.seen)


# ----------------------------------------------------------------------
# built-in schedules and profiles
# ----------------------------------------------------------------------

def _make_trace_schedule(theta_inf, amp, env):
    # bound in its own scope: the caller's `env`/`amp` names are reused
    # for the volumetric source afterwards
    if env is None or amp == 0.0:
        return None
    return lambda t: theta_inf + amp * env(t)


def make_envelope(rd, prefix):
    """The time envelope of kind ``{prefix}.envelope``, None for "zero".
    Every kind's parameter is read, and so checked, whichever kind is
    set; only the chosen kind's is used."""
    kind = rd.read(f"{prefix}.envelope", str, "zero",
                   choices={"zero", "constant", "exp", "power", "compact"})
    rate = rd.read(f"{prefix}.rate", float, 1.0)
    power = rd.read(f"{prefix}.power", float, 3.0)
    t_off = rd.read(f"{prefix}.t_off", float, 1.0)
    return {"zero": None,
            "constant": lambda t: 1.0,
            "exp": lambda t: math.exp(-rate * t),
            "power": lambda t: (1.0 + t) ** (-power),
            "compact": lambda t: 1.0 if t <= t_off else 0.0}[kind]


def make_profile(kind, amplitude, grid_extents):
    """Spatial source profile of a ``source.profile`` kind (read with its
    choices, so an invalid kind arrives here as "zero")."""
    if kind == "zero":
        return None
    if kind == "constant":
        return lambda *xs: amplitude * np.ones_like(xs[0])
    if kind == "sin_pi":
        def prof(*xs):
            out = amplitude * np.sin(np.pi * xs[0] / grid_extents[0])
            if len(xs) > 1:
                out = out * np.sin(np.pi * xs[1] / grid_extents[1])
            return out
        return prof

    def bump(*xs):
        out = np.ones_like(xs[0]) * amplitude
        for ax, x in enumerate(xs):
            c = 0.5 * grid_extents[ax]
            wdt = grid_extents[ax] / 8.0
            out = out * np.exp(-((x - c) / wdt) ** 2)
        return out
    return bump


def make_initial_field(rd, prefix, grid, default_value=0.0):
    """The initial field under ``prefix``, or None after a violation or
    without a grid (``grid`` None), whose keys are read all the same.  An
    overflow reads inf, which Field reports as a non-finite value."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return _initial_field(rd, prefix, grid, default_value)
    except InvalidParameter as exc:
        rd.violations.append(f"'{prefix}': {exc}")
        return None


def _initial_field(rd, prefix, grid, default_value):
    # every kind's parameters are read, and so checked and legal keys,
    # whichever kind is set: a sweep may switch the kind and keep the rest
    kind = rd.read(prefix, str, "constant",
                   choices={"constant", "cosine", "tanh", "snapshot"})
    value = rd.read(f"{prefix}.value", float, default_value)
    amp = rd.read(f"{prefix}.amplitude", float, 0.1)
    mode = rd.read(f"{prefix}.mode", float, 1.0)
    offset = rd.read(f"{prefix}.offset", float, 0.0)
    center = rd.read(f"{prefix}.center", float,
                     None if grid is None else 0.5 * grid.extents[0])
    width = rd.read(f"{prefix}.width", float, 1.0)
    left = rd.read(f"{prefix}.left", float, -1.0)
    right = rd.read(f"{prefix}.right", float, 1.0)
    path = rd.read(f"{prefix}.path", str, required=kind == "snapshot")
    index = rd.read(f"{prefix}.index", int, 0)
    if grid is None:
        return None
    if kind == "constant":
        return Field.full(grid, value)
    if kind == "cosine":
        def fn(*xs):
            out = amp * np.cos(mode * np.pi * xs[0] / grid.extents[0])
            if len(xs) > 1:
                out = out * np.cos(mode * np.pi * xs[1] / grid.extents[1])
            return offset + out
        return Field.from_function(grid, fn)
    if kind == "tanh":
        def fn(*xs):
            s = 0.5 * (1.0 + np.tanh((xs[0] - center) / width))
            return left + (right - left) * s
        return Field.from_function(grid, fn)
    # snapshot
    if path is None:
        return None
    try:
        records = read_records(path)
    except SnapshotError as exc:
        rd.violations.append(f"cannot load snapshot '{path}': {exc}")
        return None
    if not 0 <= index < len(records):
        rd.violations.append(
            f"'{prefix}.index' = {index} is out of range: snapshot "
            f"'{path}' holds {len(records)} record(s)")
        return None
    fld, _ = records[index]
    if fld.grid != grid:
        rd.violations.append(grid_mismatch(path, fld.grid, grid))
        return None
    return Field(grid, fld.values)


# ----------------------------------------------------------------------
# the experiment config
# ----------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    model: ModelSpec
    grid: Grid
    bc: BoundarySpec
    source: SourceSpec
    initial_theta: Field
    initial_chi: Field
    run: TrajectoryConfig
    diagnostics: dict
    steady: dict
    out_dir: str

    def initial_state(self):
        return State.make(0.0, self.initial_theta, self.initial_chi,
                          self.model)


def _read_model(rd):
    """The ModelSpec under the ``model.*`` keys, or None after a
    violation."""
    model = None
    j = w = lam = None
    j_name = rd.read("model.j", str, required=True)
    w_name = rd.read("model.w", str, required=True)
    lam_name = rd.read("model.lambda", str, required=True)
    for name, attr in ((j_name, "model.j"), (w_name, "model.w"),
                       (lam_name, "model.lambda")):
        if name is not None and name not in builtin_names():
            rd.violations.append(
                f"'{attr}': unknown built-in '{name}' "
                f"(available: {', '.join(builtin_names())})")
    try:
        if j_name in builtin_names():
            j = builtin(j_name, **rd.params_under("model.j"))
        if w_name in builtin_names():
            w = builtin(w_name, **rd.params_under("model.w"))
        if lam_name in builtin_names():
            lam = builtin(lam_name, **rd.params_under("model.lambda"))
        if j is not None and w is not None and lam is not None:
            model = ModelSpec(j, w, lam)
    except (InvalidParameter, UnknownModel) as exc:
        rd.violations.append(str(exc))
    return model


def build_config(raw, base_dir="."):
    """Resolve a raw key tree into an ExperimentConfig, collecting every
    violation into a single ValidationError."""
    rd = _Reader(raw)
    model = _read_model(rd)

    # grid
    grid = None
    dim = rd.read("grid.dimension", int, 1)
    extents = rd.read("grid.extents", _floats, (1.0,))
    nodes = rd.read("grid.nodes", _ints, (65,))
    try:
        if len(extents) != dim or len(nodes) != dim:
            rd.violations.append("grid.dimension must match the lengths of "
                                 "grid.extents and grid.nodes")
        else:
            grid = Grid(extents, nodes)
    except InvalidParameter as exc:
        rd.violations.append(f"grid: {exc}")

    # boundary conditions
    bc = None
    bc_kind = rd.read("bc.kind", str, "dirichlet",
                      choices={"dirichlet", "robin"})
    eta = rd.read("bc.eta", float, required=bc_kind == "robin")
    amp = rd.read("bc.theta_gamma.amplitude", float, 0.0)
    env = make_envelope(rd, "bc.theta_gamma")
    if bc_kind == "dirichlet":
        bc = BoundarySpec("dirichlet")
    else:
        theta_inf = model.j.theta_inf if model is not None else 0.0
        trace = _make_trace_schedule(theta_inf, amp, env)
        try:
            if eta is not None:
                bc = BoundarySpec("robin", eta=eta, theta_gamma=trace)
        except InvalidParameter as exc:
            rd.violations.append(f"bc: {exc}")

    # source
    prof_kind = rd.read("source.profile", str, "zero",
                        choices={"zero", "constant", "sin_pi", "bump"})
    amp = rd.read("source.amplitude", float, 1.0)
    env = make_envelope(rd, "source")
    prof = make_profile(prof_kind, amp, grid.extents if grid else (1.0, 1.0))
    p_tag = rd.read("source.p", float, _INF)
    if not p_tag > 0:
        rd.violations.append(f"'source.p' must be positive, got {p_tag!r}")
    q_tag = rd.read("source.q", float, None)
    delta_src = rd.read("source.delta_src", float, None)
    source = SourceSpec(profile=prof, envelope=env, p_tag=p_tag,
                        q_tag=q_tag, delta_src=delta_src)

    # run parameters
    dt = rd.read("run.dt", float, required=True)
    t_end = rd.read("run.t_end", float, required=True)
    run_cfg = None
    allow_unstable = rd.read("run.allow_unstable", _bool, False)
    settings = dict(
        newton_tol=rd.read("run.newton_tol", float, 1e-10),
        max_newton=rd.read("run.max_newton", int, 50),
        trace_every=rd.read("run.trace_every", int, 1),
        snapshot_every=rd.read("run.snapshot_every", int, 0),
        stop_on_converged=rd.read("run.stop_on_converged", _bool, False))
    try:
        if dt is not None and t_end is not None:
            run_cfg = TrajectoryConfig(dt=dt, t_end=t_end, **settings)
    except InvalidParameter as exc:
        rd.violations.append(f"run.{exc}")

    if model is not None and run_cfg is not None:
        kappa = model.w.kappa
        if run_cfg.dt > 1.0 / kappa and not allow_unstable:
            rd.violations.append(
                f"run.dt = {run_cfg.dt} exceeds the accuracy guard "
                f"1/kappa = {1.0 / kappa}; set run.allow_unstable = true "
                "to override")

    # initial data, read whatever the grid: built only on a grid
    theta_default = model.j.theta_inf if model is not None else 0.0
    initial_theta = make_initial_field(rd, "initial.theta", grid,
                                       default_value=theta_default)
    initial_chi = make_initial_field(rd, "initial.chi", grid,
                                     default_value=0.0)

    # diagnostics options
    diagnostics = {
        "dissipation": rd.read("diagnostics.dissipation", _bool, True),
        "dissipation_tol": rd.read("diagnostics.dissipation_tol", float,
                                   1e-9),
        "omega": rd.read("diagnostics.omega", _bool, True),
        "assert_converged": rd.read("diagnostics.assert_converged", _bool,
                                    False),
        "monitors": rd.read("diagnostics.monitors", _bool, False),
        "assert_bounded": rd.read("diagnostics.assert_bounded", _bool, False),
        "s": rd.read("diagnostics.s", float, 1.0),
        "validate_model": rd.read("diagnostics.validate_model", _bool, True),
        "reference_steady": rd.read("diagnostics.reference_steady", str, None),
    }
    for key in ("dissipation_tol", "s"):
        value = diagnostics[key]
        if not (math.isfinite(value) and value >= 0):
            rd.violations.append(f"'diagnostics.{key}' must be finite and "
                                 f"non-negative, got {value!r}")

    if diagnostics["assert_bounded"] and not diagnostics["monitors"]:
        rd.violations.append("diagnostics.assert_bounded = true needs "
                             "diagnostics.monitors = true")

    # the monitors read two unit windows from s on
    if diagnostics["monitors"] and run_cfg is not None \
            and run_cfg.t_end < diagnostics["s"] + 2.0 - 1e-12:
        rd.violations.append(
            f"diagnostics.monitors needs run.t_end >= diagnostics.s + 2, "
            f"got t_end = {run_cfg.t_end} and s = {diagnostics['s']}")

    out_dir = rd.read("output.dir", str, "out")

    # settings of the steady entry point
    steady = {
        "guesses": rd.read("steady.guesses", str, "constants",
                           choices={"constants", "layers", "both"}),
        "tol": rd.read("steady.tol", float, 1e-10),
        "layers": rd.read("steady.layers", int, 3),
    }
    if not steady["tol"] > 0:
        rd.violations.append(
            f"'steady.tol' must be positive, got {steady['tol']!r}")
    if steady["layers"] < 1:
        rd.violations.append(
            f"'steady.layers' must be at least 1, got {steady['layers']!r}")

    for key in rd.unknown_keys():
        rd.violations.append(f"unknown key '{key}'")

    # initial admissibility: finite energy
    if not rd.violations and model is not None and grid is not None:
        try:
            st = State.make(0.0, initial_theta, initial_chi, model)
            # an overflow reads inf, and inf - inf NaN: both are refused
            with np.errstate(over="ignore", invalid="ignore"):
                e0 = free_energy(st.theta.flat, st.chi.flat, model,
                                 OperatorWorkspace(grid, None))
            if not math.isfinite(e0):
                rd.violations.append("initial energy is not finite")
        except Exception as exc:  # noqa: BLE001 - reported as a violation
            rd.violations.append(f"initial data inadmissible: {exc}")

    if rd.violations:
        raise ValidationError(rd.violations)

    return ExperimentConfig(
        model=model, grid=grid, bc=bc, source=source,
        initial_theta=initial_theta, initial_chi=initial_chi,
        run=run_cfg, diagnostics=diagnostics, steady=steady,
        out_dir=os.path.join(base_dir, out_dir) if not os.path.isabs(out_dir)
        else out_dir)


def parse_model(path):
    """Read and validate only the ``model.*`` keys of a config file; the
    other keys are neither checked nor resolved."""
    rd = _Reader(parse_raw(path))
    model = _read_model(rd)
    if rd.violations:
        raise ValidationError(rd.violations)
    return model


def parse_config(path, out_dir=None):
    """Parse and validate a config file into an ExperimentConfig;
    ``out_dir``, when given, overrides ``output.dir``."""
    raw = parse_raw(path)
    if out_dir:
        raw["output.dir"] = out_dir
    return build_config(raw, base_dir=os.getcwd())
