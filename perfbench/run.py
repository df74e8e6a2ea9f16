#!/usr/bin/env python3
"""The phaseflow benchmark: a workload, measured for a fixed time.

    python3 perfbench/run.py --workload line1d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; the program is imported from its ``src``.
Each repetition runs in a fresh single process, started only after the
previous one has finished (one client, closed loop), with BLAS and OpenMP
pinned to one thread.  A new repetition starts only while it is expected
to end within ``--seconds``.

``--trace 0`` reports the end-to-end metrics of untraced repetitions.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones plus the tracing overhead.  Every
repetition's outputs are checked; a failed check, an exception or a nonzero
exit counts as a failed repetition.  Human-readable lines come first; the
last stdout line is the JSON result.  ``--workload all`` runs the four
workloads in turn, each for ``--seconds`` and each ending in its own
result line.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

#: A repetition that takes longer than this is killed and counted failed.
REP_TIMEOUT_S = 60
MIN_REPS = 3

#: unit of every end-to-end metric of the JSON result
END_TO_END = {"setup_s": "s", "wall_s": "s", "sim_time_per_s": "1",
              "peak_rss_mb": "MB"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def environment():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "PHASEFLOW_BACKEND": os.environ.get("PHASEFLOW_BACKEND")}


def run_rep(name, cfg_path, rep_dir, trace):
    """One repetition in a fresh process; returns its result dict, or a
    dict with only ``failures`` when it produced none."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), name,
             cfg_path, rep_dir, repr(t0), "1" if trace else "0"],
            cwd=rep_dir, env=env,
            capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"failures": [f"timed out after {REP_TIMEOUT_S} s"]}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"failures": [f"exit code {proc.returncode}: {tail[0]}"]}
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"failures": ["no result line"]}
    if not os.path.abspath(result["phaseflow_file"]).startswith(SRC + os.sep):
        result["failures"].append(
            f"imported phaseflow from {result['phaseflow_file']}, not {SRC}")
    return result


def reference_failures(name, result, reference):
    """Agreement of the final state with the stored default-seed
    reference, at a tolerance tied to the Newton tolerance."""
    tol = reference["tol_per_newton_tol"] * result["newton_tol"]
    out = []
    for key, want in reference[name].items():
        got = result["fingerprint"][key]
        if abs(got - want) > tol * max(1.0, abs(want)):
            out.append(f"{key} = {got!r} differs from the reference {want!r} "
                       f"by more than {tol:g}")
    return out


def tally(reps, reference=None, name=None):
    """Mark failed repetitions in place; returns the number failed.

    A repetition fails on any check of its own, on a trace digest that
    differs from the one most repetitions share (tracing and repetition
    must not change a single output byte), and, when a reference is given,
    on disagreement with it.
    """
    digests = Counter(r["digest"] for r in reps if "digest" in r)
    common = digests.most_common(1)[0][0] if digests else None
    for r in reps:
        if "digest" in r and r["digest"] != common:
            r["failures"].append("trace digest differs between repetitions")
        if reference is not None and "fingerprint" in r:
            r["failures"].extend(reference_failures(name, r, reference))
    return sum(1 for r in reps if r["failures"])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def end_to_end(reps):
    """Per-repetition end-to-end samples of the untraced repetitions."""
    samples = {"setup_s": [], "wall_s": [], "sim_time_per_s": [],
               "peak_rss_mb": [], "time_to_converged_s": []}
    for r in reps:
        if "wall_s" not in r:
            continue
        samples["setup_s"].append(r["setup_s"])
        samples["wall_s"].append(r["wall_s"])
        samples["sim_time_per_s"].append(r["sim_time"] / r["run_s"])
        samples["peak_rss_mb"].append(r["peak_rss_mb"])
        if r.get("converged"):
            samples["time_to_converged_s"].append(r["run_s"])
    return {k: v for k, v in samples.items() if v}


def per_layer(traced, plain_wall):
    """Median over the traced repetitions of every per-layer metric."""
    keys = traced[0]["layers"]
    layers = {k: statistics.median(r["layers"][k] for r in traced)
              for k in keys}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    layers["trace_overhead_frac"] = traced_wall / plain_wall - 1.0
    return layers


def report_layers(reps, plain_wall):
    """Print the module split and absent hooks; returns the per-layer
    metrics of the traced repetitions."""
    traced = [r for r in reps if r["traced"] and "layers" in r]
    if not traced:
        fail("no traced repetition completed")
    layers = per_layer(traced, plain_wall)
    spans = sum(layers[m + ".self_s"] for m in tracing.MODULES)
    split = ", ".join(f"{m} {100 * layers[m + '.self_s'] / spans:.1f}%"
                      for m in tracing.MODULES)
    print(f"  self-time split of the traced spans: {split}")
    wall = statistics.median(r["wall_s"] for r in traced)
    shares = ", ".join(f"{k} {100 * layers[k] / wall:.1f}%"
                       for k in tracing.TIMES if layers[k] >= 0.005 * wall)
    print(f"  traced wall_s median {wall:.6g} s; inclusive shares: {shares}")
    absent = sorted({a for r in traced for a in r["absent"]})
    print("  absent hooks: " + (", ".join(absent) or "none"))
    return {k: {"value": v, "unit": tracing.UNITS[k]}
            for k, v in sorted(layers.items())}


def run_workload(name, args, reference):
    """Measure one workload for ``args.seconds``; prints its summary and
    its JSON result line."""
    work = os.path.join(WORK, name)
    shutil.rmtree(work, ignore_errors=True)
    try:
        cfg_path = workloads.write_inputs(name, args.seed,
                                          os.path.join(work, "input"),
                                          toy=args.toy)
        reps, took = [], []
        start = time.monotonic()
        min_reps = MIN_REPS if not args.trace else 2 * MIN_REPS
        # another repetition starts only while it is expected to end
        # within --seconds
        while len(reps) < min_reps or (
                time.monotonic() - start + statistics.median(took)
                <= args.seconds):
            traced = bool(args.trace) and len(reps) % 2 == 1
            rep_dir = os.path.join(work, f"rep{len(reps):03d}")
            os.makedirs(rep_dir)
            began = time.monotonic()
            result = run_rep(name, cfg_path, rep_dir, traced)
            took.append(time.monotonic() - began)
            result["traced"] = traced
            reps.append(result)
            shutil.rmtree(rep_dir, ignore_errors=True)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    check_ref = (name in workloads.LIBRARY and not args.toy
                 and args.seed == reference["seed"])
    failed = tally(reps, reference if check_ref else None, name)
    plain = [r for r in reps if not r["traced"]]
    samples = end_to_end(plain)

    print(f"workload {name}, seed {args.seed}: {len(reps)} "
          f"repetitions ({len(plain)} untraced), {failed} failed")
    for r in reps:
        for msg in r["failures"]:
            print(f"  FAILED: {msg}")
    for key, values in samples.items():
        q1, q2, q3 = quartiles(values)
        print(f"  {key:<20} median {q2:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"n={len(values)}")
    print(f"  {'failed_fraction':<20} {failed / len(reps):.6g} "
          f"({failed}/{len(reps)})")
    if "wall_s" not in samples:
        fail("no untraced repetition completed")

    if args.trace:
        metrics = report_layers(reps, statistics.median(samples["wall_s"]))
    else:
        metrics = {k: {"value": statistics.median(samples[k]), "unit": u}
                   for k, u in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES + ("all",),
                        help="one workload, or 'all' to run the four in "
                             "turn, each for --seconds")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy sizes, for the benchmark's self-test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "phaseflow", "__init__.py")):
        fail(f"no phaseflow package under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    print("env: " + json.dumps(environment(), sort_keys=True))
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        run_workload(name, args, reference)
    return 0


if __name__ == "__main__":
    sys.exit(main())
