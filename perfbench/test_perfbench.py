"""Self-test of the benchmark, at toy sizes.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_declared_metric_is_printed_with_its_unit(name, trace):
    spec = _declared()
    proc = _bench("--workload", name, "--seed", "3", "--seconds", "0",
                  "--trace", trace, "--toy")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("env: ")
    for key in ("python", "numpy", "scipy", "nproc", "numba_importable",
                "PHASEFLOW_BACKEND"):
        assert key in json.loads(lines[0][len("env: "):])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    declared = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert "failed_fraction" in proc.stdout
        assert ("time_to_converged_s" in proc.stdout) == (name == "relax")


def test_all_runs_every_workload():
    proc = _bench("--workload", "all", "--seconds", "0", "--toy")
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    assert [r["correct"] for r in results] == [True] * len(workloads.NAMES)
    for name in workloads.NAMES:
        assert f"workload {name}," in proc.stdout


def test_corrupted_trace_counts_as_failure(tmp_path):
    cfg = workloads.write_inputs("robin_wall", 3, str(tmp_path / "input"),
                                 toy=True)
    reps = []
    for k in range(3):
        rep_dir = tmp_path / f"rep{k}"
        rep_dir.mkdir()
        reps.append(run.run_rep("robin_wall", cfg, str(rep_dir), k == 1))
    assert run.tally(reps) == 0, [r["failures"] for r in reps]

    trace_csv = tmp_path / "rep2" / "run" / "trace.csv"
    data = bytearray(trace_csv.read_bytes())
    data[-3] = ord("7") if data[-3] != ord("7") else ord("8")
    trace_csv.write_bytes(bytes(data))
    reps[2]["digest"] = worker.file_digest(str(trace_csv))
    assert run.tally(reps) == 1
    assert reps[2]["failures"] == ["trace digest differs between "
                                   "repetitions"]


def test_reference_disagreement_counts_as_failure():
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    good = {"failures": [], "digest": "d", "newton_tol": 1e-8,
            "fingerprint": dict(reference["line1d"])}
    bad = json.loads(json.dumps(good))
    bad["fingerprint"]["energy"] += 1e-4
    assert run.tally([good, bad], reference, "line1d") == 1
    assert bad["failures"] and not good["failures"]


def test_missing_hook_target_is_absent_not_raised(monkeypatch):
    monkeypatch.setattr(tracing, "HOOKS", (
        ("dynamics.linear_solve", "phaseflow.dynamics", "no_such_solver",
         None),
        ("dynamics.linear_solve", "phaseflow.no_such_module", "solve",
         None),
    ))
    absent = tracing.install(tracing.Recorder())
    assert absent == ["phaseflow.dynamics:no_such_solver",
                      "phaseflow.no_such_module:solve"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "line1d", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
