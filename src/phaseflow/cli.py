"""Command-line front end.

Subcommands:

    run <cfg>                          execute one experiment
    steady <cfg>                       solve the stationary catalog
    fit <trace.csv> <steady.pfld>      decay-rate / exponent fits of a run
    sweep <cfg> <key> <values...>      one-key parameter sweep
    validate <cfg>                     parse and validate only

Common flags, given before the subcommand: --out DIR (overrides
output.dir; a sweep writes under sweep_out without it), --quiet.

Exit codes: 0 success, 2 configuration error (including an unreadable
snapshot file), 3 solver failure, 4 diagnostic assertion failed.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import diagnostics as diag
from . import steady as steady_mod
from .config import build_config, parse_config, parse_model, parse_raw
from .dynamics import run as run_trajectory
from .errors import (DegenerateJacobian, DomainExhausted, DomainViolation,
                     InsufficientDecay, InsufficientSamples, InvalidParameter,
                     NewtonDiverged, OracleFailed, ParseError, PhaseflowError,
                     SingularSolve, SnapshotError, ValidationError)
from .grids import Field, OperatorWorkspace, grid_mismatch, read_records
from .models import validate_hypotheses

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_DIAGNOSTIC = 4

_SOLVER_ERRORS = (NewtonDiverged, DomainExhausted, DegenerateJacobian,
                  SingularSolve, OracleFailed, DomainViolation)


def _say(quiet, *msg):
    if not quiet:
        print(*msg)


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def run_experiment(config, quiet=False):
    """Execute the configured pipeline; returns a process exit code."""
    os.makedirs(config.out_dir, exist_ok=True)
    report = {"files": ["trace.csv"]}
    opts = config.diagnostics

    if opts["validate_model"]:
        hyp = validate_hypotheses(config.model)
        report["hypotheses"] = hyp.as_dict()
        _say(quiet, hyp.summary())

    try:
        traj = run_trajectory(config.initial_state(), config.run,
                              config.model, config.grid, config.bc,
                              config.source, out_dir=config.out_dir)
    except _SOLVER_ERRORS as exc:
        _say(quiet, f"solver failure: {exc}")
        report["solver_error"] = str(exc)
        _write_json(os.path.join(config.out_dir, "diagnostics.json"), report)
        return EXIT_SOLVER

    report["files"].extend(os.path.basename(p) for p in traj.snapshot_files)
    report["run_stats"] = traj.stats
    failed_assertions = []

    if opts["omega"]:
        report["omega"] = asdict(traj.verdict)
        _say(quiet, f"omega verdict: {traj.verdict.status}")
    if opts["assert_converged"] and not traj.verdict.converged:
        failed_assertions.append("omega limit not reached")

    if opts["dissipation"]:
        dis = diag.check_dissipation(traj.energies, traj.g_dual,
                                     np.diff(traj.times),
                                     opts["dissipation_tol"])
        report["dissipation"] = asdict(dis)
        _say(quiet, f"dissipation check: "
                    f"{'pass' if dis.passed else 'FAIL'} "
                    f"(max excess {dis.max_excess:.3e})")
        if not dis.passed:
            failed_assertions.append("energy inequality violated")

    if opts["monitors"]:
        # build_config checks the horizon; a run stopped at convergence
        # can still end before s + 2
        try:
            mon = diag.monitor_bounds(traj, opts["s"])
        except InvalidParameter as exc:
            report["monitors_error"] = str(exc)
            failed_assertions.append(f"regularity monitors: {exc}")
        else:
            report["monitors"] = asdict(mon)
            _say(quiet, f"monitors finite: {mon.finite()}, "
                        f"unbounded trend: {mon.unbounded}")
            if opts["assert_bounded"] and (mon.unbounded
                                           or not mon.finite()):
                failed_assertions.append("regularity monitor unbounded")

    if config.source.delta_src is not None or config.bc.kind == "robin" \
            or not config.source.is_zero:
        src = diag.source_report(traj)
        report["source"] = asdict(src)

    ref_path = opts.get("reference_steady")
    if ref_path:
        try:
            ref_field, _ = read_records(ref_path)[0]
            if ref_field.grid != config.grid:
                raise SnapshotError(grid_mismatch(ref_path, ref_field.grid,
                                                  config.grid))
        except SnapshotError as exc:
            report["reference_error"] = str(exc)
        else:
            report["distance_to_reference"] = traj.stepper.ws.h_norm(
                traj.final_state.chi.flat - ref_field.flat)

    _write_json(os.path.join(config.out_dir, "diagnostics.json"), report)
    _say(quiet, f"wrote {os.path.join(config.out_dir, 'diagnostics.json')}")

    if failed_assertions:
        _say(quiet, "failed assertions: " + "; ".join(failed_assertions))
        return EXIT_DIAGNOSTIC
    return EXIT_OK


def _steady_guesses(config):
    kind = config.steady["guesses"]
    n_layers = config.steady["layers"]
    grid = config.grid
    guesses = []
    zeros = config.model.w.d1_zeros or (0.0,)
    if kind in ("constants", "both"):
        guesses.extend(Field.full(grid, z) for z in zeros)
    if kind in ("layers", "both"):
        lo, hi = min(zeros), max(zeros)
        x = grid.meshgrid()[0]
        length = grid.extents[0]
        for k in range(1, n_layers + 1):
            center = length * k / (n_layers + 1.0)
            prof = lo + (hi - lo) * 0.5 * (1.0 + np.tanh(
                (x - center) / max(length / 20.0, 1e-3)))
            guesses.append(Field(grid, prof))
    return guesses


def steady_command(config, quiet=False):
    try:
        found = steady_mod.solve_catalog(_steady_guesses(config),
                                         config.model, config.grid,
                                         tol=config.steady["tol"],
                                         out_dir=config.out_dir)
    except _SOLVER_ERRORS as exc:
        _say(quiet, f"solver failure: {exc}")
        return EXIT_SOLVER
    _say(quiet, f"found {len(found)} distinct stationary solutions "
                f"(catalog in {config.out_dir})")
    for k, st in enumerate(found):
        _say(quiet, f"  [{k}] residual={st.residual:.3e} "
                    f"energy={st.energy:.6g} "
                    f"range=[{st.observed_range[0]:.4g}, "
                    f"{st.observed_range[1]:.4g}] "
                    f"constant={st.is_constant}")
    return EXIT_OK


def fit_command(trace_path, steady_path, config_path=None, eps_loj=0.1,
                quiet=False):
    diag.EnergyTrace.from_csv(trace_path)       # checked: a bad one exits 2
    ref_field, _ = read_records(steady_path)[0]
    run_dir = os.path.dirname(os.path.abspath(trace_path))
    snaps = sorted(p for p in os.listdir(run_dir)
                   if p.startswith("snap_") and p.endswith(".pfld"))
    if not snaps:
        print("no snapshots next to the trace; rerun with "
              "run.snapshot_every > 0", file=sys.stderr)
        return EXIT_CONFIG

    ws = OperatorWorkspace(ref_field.grid, None)
    times, dists, chis = [], [], []
    for name in snaps:
        records = read_records(os.path.join(run_dir, name))
        chi, t = records[1] if len(records) > 1 else records[0]
        if chi.grid != ref_field.grid:
            print(grid_mismatch(steady_path, ref_field.grid, chi.grid)
                  + f" of the snapshot {name}", file=sys.stderr)
            return EXIT_CONFIG
        times.append(t)
        chis.append(chi.flat)
        dists.append(ws.h_norm(chi.flat - ref_field.flat))
    payload = {"files": [os.path.basename(trace_path)] + snaps}
    code = EXIT_OK
    try:
        rate = diag.fit_rate(np.asarray(times), np.asarray(dists))
        payload["rate_fit"] = asdict(rate)
        _say(quiet, f"decay fit: beta={rate.beta:.4g} "
                    f"(window from t={rate.t_star:.4g}, "
                    f"{rate.n_points} points)")
    except InsufficientDecay as exc:
        _say(quiet, f"rate fit unavailable: {exc}")
        payload["rate_fit_error"] = str(exc)
        code = EXIT_DIAGNOSTIC

    if config_path is not None:
        model = parse_model(config_path)
        resid = [steady_mod.residual_stationary(chi, model, ws.grid, ws)
                 for chi in chis]
        try:
            loj = diag.estimate_lojasiewicz_states(
                chis, resid, ref_field.flat, model, ws, eps_loj=eps_loj)
            payload["loj_fit"] = asdict(loj)
            _say(quiet, f"exponent fit: zeta={loj.zeta:.4g} "
                        f"({loj.n_admitted} samples)")
        except InsufficientSamples as exc:
            _say(quiet, f"exponent fit unavailable: {exc}")
            payload["loj_fit_error"] = str(exc)
            code = EXIT_DIAGNOSTIC

    out_json = os.path.join(run_dir, "diagnostics.json")
    merged = {}
    if os.path.exists(out_json):
        with open(out_json) as fh:
            merged = json.load(fh)
    merged.update(payload)
    _write_json(out_json, merged)
    return code


def sweep_command(config_path, key, values, out_dir, quiet=False):
    raw_base = parse_raw(config_path)
    jobs = []
    for i, value in enumerate(values):
        raw = dict(raw_base)
        raw[key] = value
        sub_out = os.path.join(out_dir, f"sweep_{i:03d}")
        raw["output.dir"] = sub_out
        try:
            cfg = build_config(raw, base_dir=os.getcwd())
        except ValidationError as exc:
            print(f"[{i}] {key}={value}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        os.makedirs(sub_out, exist_ok=True)
        with open(os.path.join(sub_out, "config.cfg"), "w") as fh:
            for k in sorted(raw):
                fh.write(f"{k} = {raw[k]}\n")
        jobs.append((i, value, cfg))

    worst = EXIT_OK
    for i, value, cfg in jobs:
        code = run_experiment(cfg, quiet=True)
        _say(quiet, f"[{i}] {key} = {value}: exit {code}")
        worst = max(worst, code)
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="phaseflow",
        description="Phase-field simulation and long-time diagnostics")
    parser.add_argument("--out", default=None,
                        help="output directory (overrides the config's "
                             "output.dir)")
    parser.add_argument("--quiet", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("config")
    p_steady = sub.add_parser("steady", help="solve the stationary catalog")
    p_steady.add_argument("config")
    p_fit = sub.add_parser("fit", help="fit decay rates of a finished run")
    p_fit.add_argument("trace")
    p_fit.add_argument("steady")
    p_fit.add_argument("--config", default=None,
                       help="experiment config (enables the exponent fit)")
    p_fit.add_argument("--eps-loj", type=float, default=0.1)
    p_sweep = sub.add_parser("sweep", help="vary one key over values")
    p_sweep.add_argument("config")
    p_sweep.add_argument("key")
    p_sweep.add_argument("values", nargs="+")
    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("config")

    args = parser.parse_args(argv)

    try:
        if args.command == "validate":
            parse_config(args.config, args.out)
            _say(args.quiet, "OK")
            return EXIT_OK
        if args.command == "run":
            cfg = parse_config(args.config, args.out)
            return run_experiment(cfg, quiet=args.quiet)
        if args.command == "steady":
            cfg = parse_config(args.config, args.out)
            return steady_command(cfg, quiet=args.quiet)
        if args.command == "fit":
            return fit_command(args.trace, args.steady,
                               config_path=args.config,
                               eps_loj=args.eps_loj, quiet=args.quiet)
        if args.command == "sweep":
            return sweep_command(args.config, args.key, args.values,
                                 args.out or "sweep_out", quiet=args.quiet)
    except (ParseError, ValidationError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except _SOLVER_ERRORS as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except PhaseflowError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DIAGNOSTIC
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
