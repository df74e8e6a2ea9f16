import json
import os
import subprocess
import sys
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest

import phaseflow
from phaseflow.cli import fit_command, main, run_experiment
from phaseflow.config import build_config, parse_config, parse_raw
from phaseflow.diagnostics import (check_dissipation,
                                   estimate_lojasiewicz_states,
                                   estimate_lojasiewicz_trajectory)
from phaseflow.dynamics import TRACE_HEADER, State, run
from phaseflow.errors import InvalidParameter, ParseError, ValidationError
from phaseflow.grids import (Field, Grid, OperatorWorkspace, read_records,
                             write_records)
from phaseflow.steady import residual_stationary

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def write_cfg(path, raw):
    path.write_text("\n".join(f"{k} = {v}" for k, v in raw.items()) + "\n")
    return str(path)


def early_stop_raw(**overrides):
    """Monitors on a run that converges at once and stops long before the
    two windows the monitors read."""
    return minimal_raw(**{"initial.chi": "constant",
                          "initial.chi.value": "1.0",
                          "run.dt": "1e-2", "run.t_end": "2.0",
                          "run.stop_on_converged": "true",
                          "diagnostics.monitors": "true",
                          "diagnostics.s": "0.0"}, **overrides)


#: what a bad setting needs besides minimal_raw to be used by the run
BAD_SETTING_CONTEXT = {"bc.eta": {"bc.kind": "robin"}}


def minimal_raw(**overrides):
    raw = {
        "model.j": "caginalp_j",
        "model.w": "quartic_W",
        "model.lambda": "linear_lambda",
        "grid.dimension": "1",
        "grid.extents": "1.0",
        "grid.nodes": "33",
        "bc.kind": "dirichlet",
        "initial.chi": "cosine",
        "initial.chi.amplitude": "0.1",
        "run.dt": "1e-3",
        "run.t_end": "0.01",
    }
    raw.update(overrides)
    return raw


class TestParseRaw:
    def test_comments_and_blanks(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("# header\n\nmodel.j = caginalp_j  # trailing\n")
        assert parse_raw(p) == {"model.j": "caginalp_j"}

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("model.j caginalp_j\n")
        with pytest.raises(ParseError):
            parse_raw(p)

    def test_duplicate_key(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("run.dt = 1\nrun.dt = 2\n")
        with pytest.raises(ParseError):
            parse_raw(p)


class TestValidation:
    def test_minimal_valid(self):
        cfg = build_config(minimal_raw())
        assert cfg.grid.nodes == (33,)
        assert cfg.bc.kind == "dirichlet"
        assert cfg.run.dt == 1e-3

    def test_all_violations_collected(self):
        raw = minimal_raw(**{"model.w": "no_such_well",
                             "run.dt": "10.0",
                             "run.t_end": "20.0",
                             "mystery.key": "1",
                             "run.keep_states": "true",
                             "diagnostics.eps_loj": "0.1",
                             "initial.chi.amplitud": "0.1"})
        with pytest.raises(ValidationError) as err:
            build_config(raw)
        text = str(err.value)
        assert "no_such_well" in text
        for key in ("mystery.key", "run.keep_states", "diagnostics.eps_loj",
                    "initial.chi.amplitud"):
            assert f"unknown key '{key}'" in text

    def test_stability_bound(self):
        raw = minimal_raw(**{"run.dt": "10.0", "run.t_end": "20.0"})
        with pytest.raises(ValidationError) as err:
            build_config(raw)
        assert "1/kappa" in str(err.value)
        raw["run.allow_unstable"] = "true"
        assert build_config(raw).run.dt == 10.0

    def test_horizon_alignment(self):
        raw = minimal_raw(**{"run.dt": "3e-3", "run.t_end": "0.01"})
        with pytest.raises(ValidationError) as err:
            build_config(raw)
        assert "integer multiple" in str(err.value)

    def test_inadmissible_initial_data(self):
        raw = minimal_raw(**{"model.j": "mixed_j",
                             "initial.theta": "constant",
                             "initial.theta.value": "-2.0"})
        with pytest.raises(ValidationError) as err:
            build_config(raw)
        assert "inadmissible" in str(err.value)

    def test_robin_requires_eta(self):
        raw = minimal_raw(**{"bc.kind": "robin"})
        with pytest.raises(ValidationError):
            build_config(raw)
        raw["bc.eta"] = "0.5"
        assert build_config(raw).bc.eta == 0.5

    def test_truncated_snapshot_initial_data(self, tmp_path):
        path = tmp_path / "init.pfld"
        write_records(path, [(build_config(minimal_raw()).initial_chi, 0.0)])
        path.write_bytes(path.read_bytes()[:-8])
        raw = minimal_raw(**{"initial.chi": "snapshot",
                             "initial.chi.path": str(path)})
        with pytest.raises(ValidationError) as err:
            build_config(raw)
        assert "cannot load snapshot" in str(err.value)
        assert "truncated" in str(err.value)

    def test_snapshot_initial_data(self, tmp_path):
        cfg0 = build_config(minimal_raw())
        path = tmp_path / "init.pfld"
        write_records(path, [(cfg0.initial_theta, 0.0),
                             (cfg0.initial_chi, 0.0)])
        raw = minimal_raw(**{
            "initial.theta": "snapshot", "initial.theta.path": str(path),
            "initial.theta.index": "0",
            "initial.chi": "snapshot", "initial.chi.path": str(path),
            "initial.chi.index": "1"})
        cfg = build_config(raw)
        np.testing.assert_array_equal(cfg.initial_chi.values,
                                      cfg0.initial_chi.values)

    def test_snapshot_index_out_of_range(self, tmp_path, capsys):
        cfg0 = build_config(minimal_raw())
        path = tmp_path / "init.pfld"
        write_records(path, [(cfg0.initial_theta, 0.0),
                             (cfg0.initial_chi, 0.0)])
        for index in ("-1", "5"):
            raw = minimal_raw(**{"initial.chi": "snapshot",
                                 "initial.chi.path": str(path),
                                 "initial.chi.index": index})
            with pytest.raises(ValidationError) as err:
                build_config(raw)
            text = str(err.value)
            assert f"'initial.chi.index' = {index} is out of range" in text
            assert "holds 2 record(s)" in text
            p = write_cfg(tmp_path / "c.cfg", raw)
            assert main(["--quiet", "run", p]) == 2
            assert "out of range" in capsys.readouterr().err

    def test_snapshot_on_other_extents(self, tmp_path, capsys):
        # same node count, other extents: the message names both extents
        path = tmp_path / "init.pfld"
        wide = Grid((2.0,), (33,))
        write_records(path, [(Field(wide, np.zeros(33)), 0.0)])
        raw = minimal_raw(**{"initial.chi": "snapshot",
                             "initial.chi.path": str(path)})
        assert main(["validate", write_cfg(tmp_path / "c.cfg", raw)]) == 2
        err = capsys.readouterr().err
        assert "(33,) nodes on (2.0,)" in err
        assert "does not match (33,) nodes on (1.0,)" in err

    def test_monitors_need_two_windows(self, tmp_path, capsys):
        raw = minimal_raw(**{"diagnostics.monitors": "true",
                             "diagnostics.s": "1.0", "run.t_end": "2.9"})
        with pytest.raises(ValidationError) as err:
            build_config(raw)
        assert "run.t_end >= diagnostics.s + 2" in str(err.value)
        out = tmp_path / "m"
        assert main(["--quiet", "--out", str(out), "run",
                     write_cfg(tmp_path / "c.cfg", raw)]) == 2
        assert not out.exists()       # rejected before running
        raw["run.t_end"] = "3.0"
        assert build_config(raw).run.t_end == 3.0

    @pytest.mark.parametrize("key, value, message", [
        ("run.newton_tol", "abc", "'run.newton_tol' is not a number: 'abc'"),
        ("run.trace_every", "2.5",
         "'run.trace_every' is not an integer: '2.5'"),
        ("run.stop_on_converged", "yes",
         "'run.stop_on_converged' must be true or false, got 'yes'"),
        ("grid.extents", "1 x", "'grid.extents' is not a number list: '1 x'"),
        ("grid.nodes", "3 x", "'grid.nodes' is not an integer list: '3 x'"),
        ("bc.kind", "neumann",
         "'bc.kind' must be one of ['dirichlet', 'robin'], got 'neumann'"),
        ("model.j.tau_c", "x", "'model.j.tau_c' is not a number: 'x'"),
        ("source.envelope", "cosh", "'source.envelope' must be one of "
         "['compact', 'constant', 'exp', 'power', 'zero'], got 'cosh'"),
        ("run.dt", None, "missing required key 'run.dt'")])
    def test_violation_message(self, key, value, message):
        raw = {k: v for k, v in minimal_raw(**{key: value}).items()
               if v is not None}
        with pytest.raises(ValidationError) as err:
            build_config(raw)
        assert message in err.value.violations

    def test_missing_dt_leaves_run_keys_known(self):
        raw = minimal_raw(**{"run.trace_every": "5"})
        del raw["run.dt"]
        with pytest.raises(ValidationError) as err:
            build_config(raw)
        assert err.value.violations == ["missing required key 'run.dt'"]

    def test_shipped_configs_are_valid(self):
        for name in os.listdir(CONFIG_DIR):
            parse_config(os.path.join(CONFIG_DIR, name))

    def test_shipped_configs_run_end_to_end(self, tmp_path):
        # every shipped config must execute, not merely validate; the
        # horizon is shortened so the whole sweep stays quick
        for name in sorted(os.listdir(CONFIG_DIR)):
            raw = parse_raw(os.path.join(CONFIG_DIR, name))
            dt = float(raw["run.dt"])
            raw["run.t_end"] = repr(min(float(raw["run.t_end"]), 200 * dt))
            raw["run.stop_on_converged"] = "false"
            raw.pop("diagnostics.assert_converged", None)
            raw["output.dir"] = str(tmp_path / name.replace(".", "_"))
            cfg = build_config(raw)
            assert run_experiment(cfg, quiet=True) == 0, name


class TestConfigKinds:
    """Each kind a config can name, against its closed form."""

    def test_tanh_initial_fields(self):
        cfg = build_config(minimal_raw(**{
            "initial.theta": "tanh", "initial.theta.width": "0.2",
            "initial.chi": "tanh", "initial.chi.center": "0.3",
            "initial.chi.width": "0.1", "initial.chi.left": "-0.8",
            "initial.chi.right": "0.6"}))
        x = cfg.grid.axes()[0]

        def tanh(center, width, left, right):
            s = 0.5 * (1.0 + np.tanh((x - center) / width))
            return left + (right - left) * s
        np.testing.assert_allclose(cfg.initial_theta.values,
                                   tanh(0.5, 0.2, -1.0, 1.0), atol=1e-15)
        np.testing.assert_allclose(cfg.initial_chi.values,
                                   tanh(0.3, 0.1, -0.8, 0.6), atol=1e-15)

    def test_compact_envelope(self):
        env = build_config(minimal_raw(**{
            "source.profile": "constant", "source.envelope": "compact",
            "source.t_off": "0.3"})).source.envelope
        assert [env(t) for t in (0.0, 0.3, 0.30001, 5.0)] == [1, 1, 0, 0]
        env = build_config(minimal_raw(**{
            "source.profile": "constant",
            "source.envelope": "compact"})).source.envelope
        assert (env(1.0), env(1.001)) == (1.0, 0.0)

    def test_constant_profile(self):
        cfg = build_config(minimal_raw(**{
            "source.profile": "constant", "source.amplitude": "0.7",
            "source.envelope": "constant"}))
        x = cfg.grid.axes()[0]
        np.testing.assert_array_equal(cfg.source.profile(x),
                                      np.full(x.shape, 0.7))

    def test_2d_cosine_and_sin_pi(self):
        cfg = build_config(minimal_raw(**{
            "grid.dimension": "2", "grid.extents": "1.0 2.0",
            "grid.nodes": "9 17", "initial.chi.amplitude": "0.1",
            "initial.chi.mode": "2", "initial.chi.offset": "0.05",
            "source.profile": "sin_pi", "source.amplitude": "0.3",
            "source.envelope": "constant"}))
        x, y = cfg.grid.meshgrid()
        np.testing.assert_allclose(
            cfg.initial_chi.values,
            0.05 + 0.1 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y / 2.0),
            atol=1e-15)
        np.testing.assert_allclose(
            cfg.source.profile(x, y),
            0.3 * np.sin(np.pi * x) * np.sin(np.pi * y / 2.0), atol=1e-15)


class TestRunExperiment:
    def test_equilibrium_constant_trace(self, tmp_path):
        raw = minimal_raw(**{"initial.chi": "constant",
                             "initial.chi.value": "1.0",
                             "output.dir": str(tmp_path / "eq")})
        code = run_experiment(build_config(raw), quiet=True)
        assert code == 0
        lines = (tmp_path / "eq" / "trace.csv").read_text().splitlines()
        energies = {line.split(",")[1] for line in lines[1:]}
        assert energies == {"0"}

    def test_rerun_binary_identical(self, tmp_path):
        blobs = []
        for sub in ("one", "two"):
            raw = minimal_raw(**{"output.dir": str(tmp_path / sub)})
            assert run_experiment(build_config(raw), quiet=True) == 0
            blobs.append((tmp_path / sub / "trace.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_diagnostics_files_exist(self, tmp_path):
        raw = minimal_raw(**{"output.dir": str(tmp_path / "d"),
                             "run.snapshot_every": "5"})
        assert run_experiment(build_config(raw), quiet=True) == 0
        payload = json.loads((tmp_path / "d" /
                              "diagnostics.json").read_text())
        for name in payload["files"]:
            assert (tmp_path / "d" / name).exists()

    def test_failed_assertion_exit_code(self, tmp_path):
        raw = minimal_raw(**{"output.dir": str(tmp_path / "f"),
                             "diagnostics.assert_converged": "true"})
        assert run_experiment(build_config(raw), quiet=True) == 4

    def test_assert_converged_without_omega_report(self, tmp_path):
        # the assertion reads the run's verdict; omega = false only drops
        # the report
        raw = minimal_raw(**{"grid.nodes": "17", "run.t_end": "0.1",
                             "output.dir": str(tmp_path / "f"),
                             "diagnostics.omega": "false",
                             "diagnostics.assert_converged": "true"})
        assert run_experiment(build_config(raw), quiet=True) == 4
        payload = json.loads((tmp_path / "f" /
                              "diagnostics.json").read_text())
        assert "omega" not in payload

    def test_assert_bounded_needs_monitors(self, tmp_path, capsys):
        raw = minimal_raw(**{"diagnostics.assert_bounded": "true"})
        with pytest.raises(ValidationError) as err:
            build_config(raw)
        assert "diagnostics.assert_bounded" in str(err.value)
        assert "diagnostics.monitors" in str(err.value)
        out = tmp_path / "b"
        assert main(["--quiet", "--out", str(out), "run",
                     write_cfg(tmp_path / "c.cfg", raw)]) == 2
        assert not out.exists()
        assert "diagnostics.assert_bounded" in capsys.readouterr().err

    def test_reference_steady_on_other_grid(self, tmp_path):
        ref = tmp_path / "ref.pfld"
        write_records(ref, [(build_config(minimal_raw(**{
            "grid.nodes": "17"})).initial_chi, 0.0)])
        raw = minimal_raw(**{"output.dir": str(tmp_path / "r"),
                             "diagnostics.reference_steady": str(ref)})
        assert run_experiment(build_config(raw), quiet=True) == 0
        payload = json.loads((tmp_path / "r" /
                              "diagnostics.json").read_text())
        assert "does not match" in payload["reference_error"]
        assert "distance_to_reference" not in payload

    def test_reference_steady_distance(self, tmp_path):
        ref = tmp_path / "ref.pfld"
        ref_chi = build_config(minimal_raw(**{
            "initial.chi.amplitude": "0.05"})).initial_chi
        write_records(ref, [(ref_chi, 0.0)])
        raw = minimal_raw(**{"output.dir": str(tmp_path / "r"),
                             "diagnostics.reference_steady": str(ref)})
        cfg = build_config(raw)
        assert run_experiment(cfg, quiet=True) == 0
        payload = json.loads((tmp_path / "r" /
                              "diagnostics.json").read_text())
        assert "reference_error" not in payload
        traj = run(cfg.initial_state(), cfg.run, cfg.model, cfg.grid,
                   cfg.bc, cfg.source)
        want = traj.stepper.ws.h_norm(traj.final_state.chi.flat
                                      - ref_chi.flat)
        assert want > 0
        assert payload["distance_to_reference"] == want

    def test_infinite_initial_energy(self, tmp_path, capsys):
        raw = minimal_raw(**{"initial.theta.value": "1e200"})
        assert main(["validate", write_cfg(tmp_path / "c.cfg", raw)]) == 2
        assert "initial energy is not finite" in capsys.readouterr().err
        cfg = build_config(minimal_raw())
        hot = State.make(0.0, Field.full(cfg.grid, 1e200), cfg.initial_chi,
                         cfg.model)
        with pytest.raises(InvalidParameter,
                           match="initial energy is not finite"):
            run(hot, cfg.run, cfg.model, cfg.grid, cfg.bc, cfg.source)

    def test_monitors_after_early_stop(self, tmp_path):
        raw = early_stop_raw(**{"output.dir": str(tmp_path / "e")})
        assert run_experiment(build_config(raw), quiet=True) == 4
        payload = json.loads((tmp_path / "e" /
                              "diagnostics.json").read_text())
        assert "s+2" in payload["monitors_error"]
        assert "monitors" not in payload
        assert payload["omega"]["status"] == "CONVERGED"

    def test_monitors_without_window_rows(self, tmp_path):
        # rows at t = 0 and t = 2.5 only: no monitor window holds a row
        raw = minimal_raw(**{"grid.nodes": "9", "run.dt": "1e-2",
                             "run.t_end": "2.5", "run.trace_every": "250",
                             "diagnostics.monitors": "true",
                             "diagnostics.s": "0.5"})
        path = write_cfg(tmp_path / "c.cfg", raw)
        assert main(["--quiet", "--out", str(tmp_path / "m"), "run",
                     path]) == 4
        payload = json.loads((tmp_path / "m" /
                              "diagnostics.json").read_text())
        assert "[0.5, 1.5)" in payload["monitors_error"]
        assert "monitors" not in payload

    def test_partial_final_row_allowance(self, tmp_path):
        # 105 steps at one row per 10: the last row gap is 5 steps, and
        # its source allowance must use that gap, not 10 steps
        raw = minimal_raw(**{"source.profile": "sin_pi",
                             "source.envelope": "constant",
                             "run.t_end": "0.105", "run.trace_every": "10",
                             "output.dir": str(tmp_path / "p")})
        assert main(["--quiet", "run",
                     write_cfg(tmp_path / "c.cfg", raw)]) == 0
        payload = json.loads((tmp_path / "p" /
                              "diagnostics.json").read_text())
        cfg = build_config(raw)
        traj = run(cfg.initial_state(), cfg.run, cfg.model, cfg.grid,
                   cfg.bc, cfg.source)
        gaps = np.diff(traj.times)
        assert gaps[-1] == pytest.approx(5e-3, abs=1e-12)
        tol = cfg.diagnostics["dissipation_tol"]
        expected = check_dissipation(traj.energies, traj.g_dual, gaps, tol)
        assert payload["dissipation"]["max_excess"] == expected.max_excess
        uniform = check_dissipation(traj.energies, traj.g_dual, 1e-2, tol)
        assert expected.max_excess != uniform.max_excess

    def test_solver_failure_exit_code(self, tmp_path):
        raw = minimal_raw(**{
            "model.w": "logarithmic_W",
            "initial.chi.amplitude": "0.5",
            "run.dt": "10.0", "run.t_end": "20.0",
            "run.allow_unstable": "true", "run.max_newton": "2",
            "output.dir": str(tmp_path / "s")})
        assert run_experiment(build_config(raw), quiet=True) == 3

    def test_singular_robin_pivot_exit_code(self, tmp_path, capsys):
        # eta = 1e-320 leaves K_B the singular Neumann stiffness
        raw = parse_raw(os.path.join(CONFIG_DIR, "robin_exchange.cfg"))
        raw.update({"bc.eta": "1e-320", "run.t_end": "0.01"})
        path = write_cfg(tmp_path / "c.cfg", raw)
        assert main(["--quiet", "--out", str(tmp_path / "o"), "run",
                     path]) == 3
        assert "pivot factorization failed" in capsys.readouterr().err

    @pytest.mark.parametrize("name, key, what", [
        ("caginalp_quartic.cfg", "model.lambda.ell", "Newton matrix"),
        ("decaying_source.cfg", "source.amplitude", "residual norm")])
    def test_non_finite_newton_system_exit_code(self, tmp_path, capsys,
                                                name, key, what):
        # 1e308 overflows the Jacobian's lam'(chi) / dt, or the residual's
        # H norm: a typed solver failure naming it, and no numpy warning
        raw = parse_raw(os.path.join(CONFIG_DIR, name))
        raw.update({key: "1e308", "grid.nodes": "17", "run.t_end": "0.005"})
        path = write_cfg(tmp_path / name, raw)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["--out", str(tmp_path / "o"), "run", path])
        assert code == 3
        assert caught == []
        out, err = capsys.readouterr()
        assert f"solver failure: step to t = 0.001: non-finite {what}" in out
        assert "Traceback" not in out + err


class TestCliEntry:
    def test_validate_ok(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("\n".join(f"{k} = {v}"
                               for k, v in minimal_raw().items()) + "\n")
        assert main(["validate", str(p)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_bad_config_exit_2(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("model.j = martian_law\n")
        assert main(["validate", str(p)]) == 2

    @pytest.mark.parametrize("key, value", [
        ("run.dt", "nan"), ("run.t_end", "inf"), ("run.trace_every", "0"),
        ("run.max_newton", "0"), ("diagnostics.dissipation_tol", "nan"),
        ("source.p", "0"), ("diagnostics.s", "nan"),
        ("grid.extents", "nan"), ("initial.chi.amplitude", "nan"),
        ("initial.theta.value", "inf"), ("bc.eta", "nan"),
        ("source.amplitude", "nan"), ("steady.tol", "nan"),
        ("steady.layers", "0"), ("run.snapshot_every", "-3"),
        ("bc.theta_gamma.rate", "abc")])
    def test_validate_bad_setting_exit_2(self, tmp_path, capsys, key,
                                         value):
        # each once ended in a traceback, a crash after the run, a wrong
        # exit code, or (the NaN tolerances) a check that passed everything
        raw = minimal_raw(**BAD_SETTING_CONTEXT.get(key, {}), **{key: value})
        path = write_cfg(tmp_path / "c.cfg", raw)
        assert main(["validate", path]) == 2
        assert key in capsys.readouterr().err

    def test_fit_truncated_snapshot_exit_2(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text(TRACE_HEADER + "\n0,1,0,0,0,0,0\n1,0.5,0,0,0,0,3\n")
        steady = tmp_path / "steady.pfld"
        write_records(steady,
                      [(build_config(minimal_raw()).initial_chi, 0.0)])
        blob = steady.read_bytes()
        for cut in (10, len(blob) - 3):      # in the header, in the values
            steady.write_bytes(blob[:cut])
            assert main(["--quiet", "fit", str(trace), str(steady)]) == 2
            assert "truncated snapshot" in capsys.readouterr().err

    def test_fit_bad_trace_exit_2(self, tmp_path, capsys):
        steady = tmp_path / "steady.pfld"
        write_records(steady,
                      [(build_config(minimal_raw()).initial_chi, 0.0)])
        trace = tmp_path / "trace.csv"
        good = TRACE_HEADER + "\n0,1,0,0,0,0,0\n1,0.5,0,0,0,0,3\n"
        for text in (good[:-9],                  # row cut to 3 fields
                     good[:-2],                  # last field empty
                     good.replace("norm_u_V", "norm_u"),
                     good.replace("\n1,", "\n-1,")):   # times decrease
            trace.write_text(text)
            assert main(["--quiet", "fit", str(trace), str(steady)]) == 2
            assert "trace" in capsys.readouterr().err
        missing = str(tmp_path / "missing.csv")
        assert main(["--quiet", "fit", missing, str(steady)]) == 2

    def test_unreadable_config_exit_2(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text(TRACE_HEADER + "\n0,1,0,0,0,0,0\n1,0.5,0,0,0,0,3\n")
        steady = tmp_path / "steady.pfld"
        fld = build_config(minimal_raw()).initial_chi
        write_records(steady, [(fld, 0.0)])
        write_records(tmp_path / "snap_00000000.pfld", [(fld, 0.0)])
        missing = str(tmp_path / "missing.cfg")
        latin1 = tmp_path / "latin1.cfg"
        latin1.write_bytes("model.j = caginalp_j # \xe9t\xe9\n"
                           .encode("latin-1"))
        for path in (missing, str(latin1)):
            for argv in (["validate", path], ["run", path],
                         ["sweep", path, "run.dt", "1e-3"],
                         ["fit", str(trace), str(steady), "--config", path]):
                assert main(["--quiet"] + argv) == 2
                assert "cannot read config" in capsys.readouterr().err

    def test_fit_missing_snapshot_exit_2(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text(TRACE_HEADER + "\n0,1,0,0,0,0,0\n1,0.5,0,0,0,0,3\n")
        missing = str(tmp_path / "missing.pfld")
        assert main(["--quiet", "fit", str(trace), missing]) == 2
        assert "cannot open snapshot" in capsys.readouterr().err

    def test_fit_empty_snapshot_exit_2(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text(TRACE_HEADER + "\n0,1,0,0,0,0,0\n1,0.5,0,0,0,0,3\n")
        empty = tmp_path / "empty.pfld"
        empty.write_bytes(b"")
        assert main(["--quiet", "fit", str(trace), str(empty)]) == 2
        assert "empty snapshot" in capsys.readouterr().err

    def test_fit_grid_mismatch_exit_2(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text(TRACE_HEADER + "\n0,1,0,0,0,0,0\n1,0.5,0,0,0,0,3\n")
        steady = tmp_path / "steady.pfld"
        write_records(steady, [(build_config(minimal_raw(**{
            "grid.nodes": "17"})).initial_chi, 0.0)])
        write_records(tmp_path / "snap_00000000.pfld",
                      [(build_config(minimal_raw()).initial_chi, 0.0)])
        assert fit_command(str(trace), str(steady), quiet=True) == 2
        assert "does not match" in capsys.readouterr().err

    def test_import_skips_scipy_optimize(self):
        code = ("import sys, phaseflow.cli; "
                "assert 'scipy.optimize' not in sys.modules")
        src = os.path.dirname(os.path.dirname(phaseflow.__file__))
        subprocess.run([sys.executable, "-c", code], check=True,
                       env=dict(os.environ, PYTHONPATH=src))

    def test_module_entry_point(self, tmp_path):
        # `python -m phaseflow`, the entry point the README documents
        src = os.path.dirname(os.path.dirname(phaseflow.__file__))
        bad = write_cfg(tmp_path / "c.cfg", minimal_raw(**{"run.dtt": "1"}))
        for path, code in ((os.path.join(CONFIG_DIR, "equilibrium.cfg"), 0),
                           (bad, 2)):
            done = subprocess.run(
                [sys.executable, "-m", "phaseflow", "validate", path],
                capture_output=True, text=True,
                env=dict(os.environ, PYTHONPATH=src))
            assert done.returncode == code, done.stderr
        assert "unknown key 'run.dtt'" in done.stderr

    def test_inactive_kind_value_checked(self, tmp_path, capsys):
        # a value under a kind that is not set is checked all the same
        path = write_cfg(tmp_path / "c.cfg", minimal_raw(**{
            "initial.chi": "constant", "initial.chi.amplitude": "nan"}))
        assert main(["validate", path]) == 2
        assert "'initial.chi.amplitude' must be finite" in \
            capsys.readouterr().err

    def test_grid_violation_alone(self, tmp_path, capsys):
        # the initial keys are read without a grid: none is unknown
        raw = parse_raw(os.path.join(CONFIG_DIR, "caginalp_quartic.cfg"))
        raw["grid.nodes"] = "2"
        assert main(["validate", write_cfg(tmp_path / "c.cfg", raw)]) == 2
        violations = [line for line in capsys.readouterr().err.splitlines()
                      if line.startswith("  - ")]
        assert violations == ["  - grid: need at least 3 nodes per axis"]

    def test_huge_integer_setting(self, tmp_path, capsys):
        # an integer too large for a float is a value, not a traceback
        path = write_cfg(tmp_path / "c.cfg",
                         minimal_raw(**{"run.max_newton": "1" + "0" * 400}))
        assert main(["validate", path]) == 0

    @pytest.mark.parametrize("name", ["caginalp_quartic.cfg",
                                      "mixed_wall.cfg"])
    @pytest.mark.parametrize("nodes", ["1" + "0" * 400,
                                       f"{2 ** 40} {2 ** 40}"],
                             ids=["1d_400_digits", "2d_2_to_80"])
    def test_node_count_beyond_any_array(self, tmp_path, capsys, name,
                                         nodes):
        # counts numpy rejects before it allocates anything: a violation
        # naming the key, not numpy's traceback
        raw = parse_raw(os.path.join(CONFIG_DIR, name))
        raw["grid.dimension"] = str(len(nodes.split()))
        raw["grid.extents"] = " ".join(["1.0"] * len(nodes.split()))
        raw["grid.nodes"] = nodes
        assert main(["validate", write_cfg(tmp_path / name, raw)]) == 2
        assert "grid.nodes give" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("grid.extents", "1e308"),
                                            ("initial.chi.mode", "1e308")])
    def test_overflowing_initial_field(self, key, value):
        # the overflow reads inf without a numpy warning, which this suite
        # turns into an error
        raw = parse_raw(os.path.join(CONFIG_DIR, "caginalp_quartic.cfg"))
        raw[key] = value
        with pytest.raises(ValidationError) as err:
            build_config(raw)
        assert err.value.violations == [
            "'initial.chi': field contains non-finite values"]

    @pytest.mark.parametrize("name, key, values", [
        ("robin_exchange.cfg", "bc.kind", ("robin", "dirichlet")),
        ("decaying_source.cfg", "source.envelope", ("power", "exp"))])
    def test_sweep_switches_kind(self, tmp_path, name, key, values):
        # the other kind's keys stay in the file and are legal
        raw = parse_raw(os.path.join(CONFIG_DIR, name))
        raw["run.t_end"] = "0.01"
        path = write_cfg(tmp_path / name, raw)
        out = tmp_path / "sw"
        assert main(["--quiet", "--out", str(out), "sweep", path, key,
                     *values]) == 0
        for k in range(len(values)):
            assert (out / f"sweep_{k:03d}" / "trace.csv").exists()

    def test_run_with_out_flag(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("\n".join(f"{k} = {v}"
                               for k, v in minimal_raw().items()) + "\n")
        out = tmp_path / "flagged"
        assert main(["--quiet", "--out", str(out), "run", str(p)]) == 0
        assert (out / "trace.csv").exists()

    def test_steady_catalog(self, tmp_path):
        p = tmp_path / "c.cfg"
        raw = minimal_raw(**{"steady.guesses": "both",
                             "steady.layers": "1"})
        p.write_text("\n".join(f"{k} = {v}" for k, v in raw.items()) + "\n")
        out = tmp_path / "steady"
        assert main(["--quiet", "--out", str(out), "steady", str(p)]) == 0
        catalog = (out / "steady_catalog.csv").read_text().splitlines()
        assert len(catalog) >= 4   # header + three constants
        k = len(catalog) - 2
        assert (out / f"steady_{k}.pfld").exists()

    def test_sweep(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("\n".join(f"{k} = {v}"
                               for k, v in minimal_raw().items()) + "\n")
        out = tmp_path / "sw"
        code = main(["--quiet", "--out", str(out), "sweep", str(p),
                     "initial.chi.amplitude", "0.05", "0.1"])
        assert code == 0
        for k in range(2):
            sub = out / f"sweep_{k:03d}"
            assert (sub / "trace.csv").exists()
            assert (sub / "config.cfg").exists()

    def test_sweep_survives_monitors_error(self, tmp_path, capsys):
        p = write_cfg(tmp_path / "c.cfg", early_stop_raw())
        out = tmp_path / "sw"
        code = main(["--out", str(out), "sweep", str(p),
                     "run.stop_on_converged", "true", "false"])
        assert code == 4
        lines = capsys.readouterr().out.splitlines()
        assert "[0] run.stop_on_converged = true: exit 4" in lines
        assert "[1] run.stop_on_converged = false: exit 0" in lines
        for k in range(2):
            assert (out / f"sweep_{k:03d}" / "diagnostics.json").exists()

    def test_fit_pipeline(self, tmp_path):
        p = tmp_path / "c.cfg"
        raw = minimal_raw(**{"run.t_end": "2.0",
                             "run.snapshot_every": "100",
                             "grid.nodes": "48"})
        p.write_text("\n".join(f"{k} = {v}" for k, v in raw.items()) + "\n")
        out = tmp_path / "fitrun"
        assert main(["--quiet", "--out", str(out), "run", str(p)]) == 0
        steady_out = tmp_path / "fitsteady"
        assert main(["--quiet", "--out", str(steady_out), "steady",
                     str(p)]) == 0
        # the run decays to the middle (zero) stationary state
        steady_file = None
        for rec in sorted(steady_out.glob("steady_*.pfld")):
            fld, _ = read_records(rec)[0]
            if abs(fld.values).max() < 1e-6:
                steady_file = rec
        assert steady_file is not None
        code = main(["--quiet", "fit", str(out / "trace.csv"),
                     str(steady_file), "--config", str(p)])
        assert code == 0
        payload = json.loads((out / "diagnostics.json").read_text())
        assert "rate_fit" in payload
        assert "loj_fit" in payload
        assert 0 < payload["loj_fit"]["zeta"] <= 0.5

    def test_fit_reads_only_the_model(self, tmp_path):
        # fit --config uses the model alone, so the run's initial snapshot
        # may be gone by the time the fit runs
        grid = Grid((1.0,), (32,))
        snap = tmp_path / "initial_chi.pfld"
        write_records(snap, [(Field(grid, 0.1 * np.cos(
            np.pi * grid.axes()[0])), 0.0)])
        p = write_cfg(tmp_path / "c.cfg", minimal_raw(**{
            "grid.nodes": "32", "initial.chi": "snapshot",
            "initial.chi.path": str(snap), "run.dt": "1e-2",
            "run.t_end": "20.0", "run.stop_on_converged": "true",
            "run.snapshot_every": "5"}))
        out, steady_out = tmp_path / "run", tmp_path / "steady"
        assert main(["--quiet", "--out", str(out), "run", p]) == 0
        assert main(["--quiet", "--out", str(steady_out), "steady", p]) == 0
        steady_file = next(
            rec for rec in sorted(steady_out.glob("steady_*.pfld"))
            if abs(read_records(rec)[0][0].values).max() < 1e-6)
        argv = ["--quiet", "fit", str(out / "trace.csv"), str(steady_file),
                "--config", p]
        keys = ("rate_fit", "loj_fit", "rate_fit_error", "loj_fit_error")

        def fit():
            code = main(argv)
            payload = json.loads((out / "diagnostics.json").read_text())
            return code, {k: payload.get(k) for k in keys}

        with_snapshot = fit()
        assert with_snapshot[0] == 0
        snap.unlink()
        assert fit() == with_snapshot


    def test_fit_exponent_is_the_library_estimate(self, tmp_path):
        # one snapshot per trace row: the fit's states and residuals are
        # the run's kept states and its residual column
        p = write_cfg(tmp_path / "c.cfg", minimal_raw(**{
            "grid.nodes": "32", "run.dt": "1e-2", "run.t_end": "20.0",
            "run.stop_on_converged": "true", "run.trace_every": "5",
            "run.snapshot_every": "5"}))
        out = tmp_path / "run"
        assert main(["--quiet", "--out", str(out), "run", p]) == 0
        cfg = parse_config(p)
        steady = tmp_path / "zero.pfld"
        write_records(steady, [(Field.zeros(cfg.grid), 0.0)])
        assert main(["--quiet", "fit", str(out / "trace.csv"), str(steady),
                     "--config", p]) == 0
        got = json.loads((out / "diagnostics.json").read_text())["loj_fit"]
        traj = run(cfg.initial_state(), replace(cfg.run, keep_states=True),
                   cfg.model, cfg.grid, cfg.bc, cfg.source)
        want = estimate_lojasiewicz_trajectory(traj, Field.zeros(cfg.grid))
        assert got == asdict(want)


    def test_fit_residuals_are_the_snapshots_own(self, tmp_path):
        # snapshots off the trace rows: each is fitted with its own
        # stationary residual, not one interpolated from the trace
        p = write_cfg(tmp_path / "c.cfg", minimal_raw(**{
            "grid.nodes": "32", "run.dt": "1e-2", "run.t_end": "20.0",
            "run.stop_on_converged": "true", "run.trace_every": "3",
            "run.snapshot_every": "5"}))
        out = tmp_path / "run"
        assert main(["--quiet", "--out", str(out), "run", p]) == 0
        cfg = parse_config(p)
        steady = tmp_path / "zero.pfld"
        write_records(steady, [(Field.zeros(cfg.grid), 0.0)])
        assert main(["--quiet", "fit", str(out / "trace.csv"), str(steady),
                     "--config", p]) == 0
        got = json.loads((out / "diagnostics.json").read_text())["loj_fit"]
        ws = OperatorWorkspace(cfg.grid, None)
        chis = [read_records(snap)[1][0].flat
                for snap in sorted(out.glob("snap_*.pfld"))]
        resid = [residual_stationary(chi, cfg.model, cfg.grid, ws)
                 for chi in chis]
        want = estimate_lojasiewicz_states(
            chis, resid, np.zeros(cfg.grid.n_total), cfg.model, ws)
        assert got == asdict(want)

class TestPublicSurface:
    def test_all_names_resolve(self):
        for name in phaseflow.__all__:
            assert hasattr(phaseflow, name), name

    def test_star_import(self):
        ns = {}
        exec("from phaseflow import *", ns)
        assert set(phaseflow.__all__) <= set(ns)
