"""``tools/output_diff.py`` on small trees written here: which files and
quantities it reports, and its exit code."""

import importlib.util
import json
import math
import os
import runpy
import sys

import numpy as np
import pytest

from phaseflow import Field, Grid
from phaseflow.dynamics import TRACE_HEADER
from phaseflow.grids import write_records

TOOL = os.path.join(os.path.dirname(__file__), "..", "tools",
                    "output_diff.py")
_spec = importlib.util.spec_from_file_location("output_diff", TOOL)
output_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_diff)

TRACE_ROWS = [[0.0, 1.5, 0.25, 0.0, 0.5, 1e-3, 0.0],
              [0.1, 1.25, 0.125, 2.0, 0.25, 1e-4, 3.0]]
DIAGNOSTICS = {"verdict": "CONVERGED",
               "run_stats": {"newton_iters": 7, "steps": [2.0, 4.5]}}


def _tree(top, trace=TRACE_ROWS, chi=(0.5, -0.25, 1.0),
          diagnostics=DIAGNOSTICS):
    """One run's outputs: trace.csv, a two-record snapshot and
    diagnostics.json."""
    os.makedirs(top / "run")
    with open(top / "run" / "trace.csv", "w", newline="\n") as fh:
        fh.write(TRACE_HEADER + "\n")
        for row in trace:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")
    grid = Grid((1.0,), (3,))
    write_records(str(top / "run" / "snap_00000000.pfld"),
                  [(Field(grid, np.zeros(3)), 0.0),
                   (Field(grid, np.array(chi)), 0.0)])
    with open(top / "run" / "diagnostics.json", "w") as fh:
        json.dump(diagnostics, fh)
    return str(top)


def _main(a, b, capsys, monkeypatch):
    """Exit code and printed lines of the tool's command line."""
    monkeypatch.setattr(sys, "argv", [TOOL, a, b])
    monkeypatch.setattr(sys, "path", list(sys.path))   # the tool prepends
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(TOOL, run_name="__main__")
    return stop.value.code, capsys.readouterr().out.splitlines()


def test_identical_trees_give_no_rows(tmp_path, capsys, monkeypatch):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    assert output_diff.diff_trees(a, b) == []
    assert _main(a, b, capsys, monkeypatch) == (0, [])


def test_trace_column_reports_its_relative_difference(tmp_path, capsys,
                                                      monkeypatch):
    rows = [list(r) for r in TRACE_ROWS]
    rows[1][1] = 1.25 * (1 + 1e-12)
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b", trace=rows)
    got = output_diff.diff_trees(a, b)
    assert [(rel, what) for rel, what, _ in got] == [
        ("run/trace.csv", name) for name in TRACE_HEADER.split(",")]
    values = dict((what, value) for _, what, value in got)
    assert values.pop("energy") == pytest.approx(1e-12 / (1 + 1e-12),
                                                 rel=1e-3)
    assert set(values.values()) == {0.0}
    code, lines = _main(a, b, capsys, monkeypatch)
    assert code == 0 and "run/trace.csv  energy  1e-12" in lines


def test_snapshot_record_is_reported_by_index(tmp_path):
    a = _tree(tmp_path / "a")
    b = _tree(tmp_path / "b", chi=(0.5, -0.25, 1.0 + 2 ** -40))
    assert output_diff.diff_trees(a, b) == [
        ("run/snap_00000000.pfld", "record 0", 0.0),
        ("run/snap_00000000.pfld", "record 1",
         2 ** -40 / (1.0 + 2 ** -40))]


def test_json_number_is_reported_under_its_dotted_key(tmp_path):
    changed = {"verdict": "CONVERGED",
               "run_stats": {"newton_iters": 7, "steps": [2.0, 5.0]}}
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b", diagnostics=changed)
    assert output_diff.diff_trees(a, b) == [
        ("run/diagnostics.json", "run_stats.steps.1", 0.1)]


def test_unmeasurable_differences_exit_1(tmp_path, capsys, monkeypatch):
    pending = dict(DIAGNOSTICS, verdict="PENDING")
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b", diagnostics=pending)
    (tmp_path / "b" / "run" / "extra.txt").write_text("x\n")
    assert output_diff.diff_trees(a, b) == [
        ("run/diagnostics.json", "verdict differs", None),
        ("run/extra.txt", f"only in {b}", None)]
    code, lines = _main(a, b, capsys, monkeypatch)
    assert code == 1
    assert lines == ["run/diagnostics.json  verdict differs",
                     f"run/extra.txt  only in {b}"]


def test_relative_of_nan_pairs():
    nan = float("nan")
    assert output_diff.relative([nan, 1.0], [nan, 1.0]) == 0.0
    assert math.isnan(output_diff.relative([nan, 1.0], [0.5, 1.0]))
    assert math.isnan(output_diff.relative(1.0, nan))
    assert output_diff.relative([], []) == 0.0
    assert output_diff.relative([0.0, -2.0], [0.0, -1.0]) == 0.5
