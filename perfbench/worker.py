"""One repetition of a workload, in a fresh process started by run.py.

    python3 perfbench/worker.py WORKLOAD CONFIG OUT_DIR T0 TRACE

T0 is the ``time.monotonic()`` reading taken just before the process was
started, so ``setup_s`` covers interpreter start, imports, config parse and
validation and the initial state.  The last stdout line is one JSON object
with the repetition's timings, per-repetition check failures, the digest of
its trace rows and, when TRACE is 1, the per-layer metrics.
"""

import dataclasses
import hashlib
import json
import math
import os
import resource
import sys
from time import monotonic, perf_counter

import tracing
import workloads

#: The exponent fit of a nondegenerate equilibrium sits at its clamp of
#: 1/2 up to the fit error (about 5e-4 here); a degenerate one is far below.
ZETA_TOL = 0.01


def rebind_run(dynamics, sink):
    """Time ``dynamics.run`` and keep its trajectory, for the CLI
    workloads where the trajectory stays inside the CLI pipeline."""
    original = dynamics.run

    def run(*args, **kwargs):
        start = perf_counter()
        traj = original(*args, **kwargs)
        sink["run_s"] = perf_counter() - start
        sink["traj"] = traj
        return traj

    tracing.rebind(original, run)
    dynamics.run = run


def load_config(config_mod, path, out_dir):
    # what `phaseflow run CONFIG --out OUT_DIR` does
    raw = config_mod.parse_raw(path)
    raw["output.dir"] = out_dir
    return config_mod.build_config(raw, base_dir=os.getcwd())


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def rows_digest(traj):
    """Digest of a trajectory's trace rows (the library workloads write no
    trace.csv): the row times and every trace column, bit for bit."""
    h = hashlib.sha256(traj.times.tobytes())
    for key in sorted(traj.columns):
        h.update(key.encode())
        h.update(traj.columns[key].tobytes())
    return h.hexdigest()


def h_norm(grids, field):
    # not grids.norm: in a traced run that would add spans of the checks
    w = grids.quad_weights(field.grid)
    return math.sqrt(float(w @ field.flat ** 2))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def library_pipeline(name, cfg_path, out_dir, t0, trace):
    from phaseflow import config as config_mod
    from phaseflow import dynamics, grids

    rec = install_tracing(trace)
    cfg = load_config(config_mod, cfg_path, out_dir)
    state = cfg.initial_state()
    result = {"setup_s": monotonic() - t0}

    start = perf_counter()
    traj = dynamics.run(state, cfg.run, cfg.model, cfg.grid, cfg.bc,
                        cfg.source)
    result["wall_s"] = result["run_s"] = perf_counter() - start

    energies = traj.energies
    failures = []
    if not energies[-1] < energies[0]:
        failures.append(f"final energy {energies[-1]!r} not below the "
                        f"initial energy {energies[0]!r}")
    final = traj.final_state
    result.update(
        sim_time=final.t, digest=rows_digest(traj), trace_bytes=0,
        failures=failures, newton_tol=cfg.run.newton_tol,
        fingerprint={"energy": float(energies[-1]),
                     "theta_h": h_norm(grids, final.theta),
                     "chi_h": h_norm(grids, final.chi)})
    return result, rec


def cli_pipeline(name, cfg_path, out_dir, t0, trace):
    from phaseflow import cli, dynamics, grids
    from phaseflow import config as config_mod

    rec = install_tracing(trace)
    sink = {}
    rebind_run(dynamics, sink)
    run_dir = os.path.join(out_dir, "run")
    cfg = load_config(config_mod, cfg_path, run_dir)
    result = {"setup_s": monotonic() - t0}

    start = perf_counter()
    codes = {"run": cli.run_experiment(cfg, quiet=True)}
    trace_csv = os.path.join(run_dir, "trace.csv")
    if name == "relax":
        steady_dir = os.path.join(out_dir, "steady")
        codes["steady"] = cli.steady_command(
            dataclasses.replace(cfg, out_dir=steady_dir), quiet=True)
        final_chi = sink["traj"].final_state.chi
        catalog = sorted(p for p in os.listdir(steady_dir)
                         if p.endswith(".pfld"))

        def distance(p):
            chi, _ = grids.read_records(os.path.join(steady_dir, p))[0]
            return h_norm(grids, grids.Field(chi.grid,
                                             chi.values - final_chi.values))

        nearest = os.path.join(steady_dir, min(catalog, key=distance))
        codes["fit"] = cli.fit_command(trace_csv, nearest,
                                       config_path=cfg_path, quiet=True)
    result["wall_s"] = perf_counter() - start

    failures = [f"{stage} exited {code}" for stage, code in codes.items()
                if code != 0]
    report = read_json(os.path.join(run_dir, "diagnostics.json"))
    if not report.get("dissipation", {}).get("passed"):
        failures.append("dissipation check did not pass")
    traj = sink["traj"]
    if name == "relax":
        if not traj.verdict.converged:
            failures.append(f"verdict {traj.verdict.status}, not CONVERGED")
        rate = report.get("rate_fit", {}).get("beta")
        zeta = report.get("loj_fit", {}).get("zeta")
        if rate != math.inf or zeta is None or abs(zeta - 0.5) > ZETA_TOL:
            failures.append(f"fit gave beta={rate}, zeta={zeta}; expected "
                            "beta=inf, zeta=0.5")
    result.update(
        run_s=sink["run_s"], sim_time=traj.final_state.t,
        converged=traj.verdict.converged, digest=file_digest(trace_csv),
        trace_bytes=os.path.getsize(trace_csv), failures=failures,
        newton_tol=cfg.run.newton_tol)
    return result, rec


def install_tracing(trace):
    """Installed after the imports and before the config is built."""
    if not trace:
        return None
    rec = tracing.Recorder()
    tracing.install(rec)
    return rec


def main(argv):
    name, cfg_path, out_dir, t0, trace = argv
    os.makedirs(out_dir, exist_ok=True)
    pipeline = (library_pipeline if name in workloads.LIBRARY
                else cli_pipeline)
    result, rec = pipeline(name, cfg_path, out_dir, float(t0), trace == "1")
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    import phaseflow
    result["phaseflow_file"] = phaseflow.__file__
    if rec is not None:
        layers = rec.metrics()
        layers["grids.trace_bytes"] = result["trace_bytes"]
        result["layers"] = layers
        result["absent"] = rec.absent
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
