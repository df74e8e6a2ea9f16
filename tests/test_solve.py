"""The Newton solve layer: the interleaved banded LU in 1D, the kept
sparse LU of the 2D chord iteration, and the counters a run reports."""

import json
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sps
from scipy.linalg import solve_banded
from scipy.sparse.linalg import spsolve

from phaseflow import (BoundarySpec, Field, Grid, ModelSpec, State, Stepper,
                       TrajectoryConfig, builtin, run, zero_source)
from phaseflow import cli, grids, steady
from phaseflow import dynamics as dyn
from phaseflow.config import build_config
from phaseflow.diagnostics import check_dissipation
from phaseflow.errors import NewtonDiverged

from conftest import cosine_state

SOLVE_CASES = [((129,), "dirichlet"), ((129,), "robin"),
               ((16, 12), "dirichlet"), ((16, 12), "robin")]


@pytest.fixture
def wall_model():
    return ModelSpec(builtin("mixed_j", tau_c=1.0), builtin("quartic_W"),
                     builtin("tanh_lambda"))


def _bc(kind):
    return BoundarySpec("robin", eta=0.5) if kind == "robin" \
        else BoundarySpec("dirichlet")


def _near_wall_state(grid, model):
    """theta within 0.03 of the flux law's wall at -1, chi a cosine."""
    x = grid.meshgrid()[0]
    y = grid.meshgrid()[-1] if grid.dim == 2 else 0.0
    theta = -0.5 + 0.47 * np.cos(2 * np.pi * x) * np.cos(np.pi * y)
    chi = 0.2 * np.cos(np.pi * x) * np.cos(2 * np.pi * y)
    return State.make(0.0, Field(grid, theta), Field(grid, chi), model)


def _newton_system(stepper, state, dt, chi_new):
    """Jacobian data and Newton right-hand side at the iterate
    (theta of the state, chi_new) of a step from the state."""
    theta = state.theta.flat
    lam_old = stepper.model.lam.value(state.chi.flat)
    arrays = stepper.constitutive(theta, state.chi.flat, lam_old, chi_new)
    g = stepper.g_density(state.t + dt)
    z_old = np.concatenate([theta[stepper.act], state.chi.flat])
    z = np.concatenate([theta[stepper.act], chi_new])
    return (stepper._jacobian(arrays, dt),
            -stepper._residual(arrays, z, z_old, dt, g)[0])


def _spsolve(stepper, data, rhs):
    jac = sps.coo_matrix((data, (stepper._jrows, stepper._jcols)),
                         shape=stepper._jshape).tocsc()
    return spsolve(jac, rhs)


def _spsolve_step(self, data, rhs):
    # never keeps a factor, so every 2D iteration assembles its Jacobian:
    # exact Newton
    return _spsolve(self, data, rhs), 1


class TestLinearSolve:
    @pytest.mark.parametrize("nodes, kind", SOLVE_CASES)
    def test_matches_spsolve(self, wall_model, nodes, kind):
        grid = Grid((1.0,) * len(nodes), nodes)
        state = _near_wall_state(grid, wall_model)
        stepper = Stepper(wall_model, grid, _bc(kind), zero_source())
        data, rhs = _newton_system(stepper, state, 1e-2, state.chi.flat)
        ref = _spsolve(stepper, data, rhs)
        x, factorizations = stepper.linear_solve(data, rhs)
        assert factorizations == 1
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("nodes", [(17,), (8, 8)])
    def test_zero_rhs_solves_nothing(self, wall_model, nodes):
        grid = Grid((1.0,) * len(nodes), nodes)
        state = _near_wall_state(grid, wall_model)
        stepper = Stepper(wall_model, grid, _bc("dirichlet"), zero_source())
        data, rhs = _newton_system(stepper, state, 1e-2, state.chi.flat)
        x, factorizations = stepper.linear_solve(data, np.zeros_like(rhs))
        assert factorizations == 0
        np.testing.assert_array_equal(x, np.zeros_like(rhs))
        assert stepper._lu is None

    @pytest.mark.parametrize("kind", ["dirichlet", "robin"])
    def test_1d_solve_matches_solve_banded_bitwise(self, wall_model, kind):
        # pins the gbsv storage: the band a[i, j] in row lower + upper +
        # i - j, under ``lower`` rows left for the factor's fill-in
        grid = Grid((1.0,), (129,))
        state = _near_wall_state(grid, wall_model)
        stepper = Stepper(wall_model, grid, _bc(kind), zero_source())
        data, rhs = _newton_system(stepper, state, 1e-2, state.chi.flat)
        size, perm = rhs.size, stepper._perm
        dense = np.zeros((size, size))
        np.add.at(dense, (stepper._jrows, stepper._jcols), data)
        banded = dense[np.ix_(perm, perm)]
        lower, upper = stepper._band
        ab = np.zeros((lower + upper + 1, size))
        for d in range(-lower, upper + 1):     # d = j - i
            ab[upper - d, max(d, 0):size + min(d, 0)] = np.diagonal(banded, d)
        ref = np.empty(size)
        ref[perm] = solve_banded((lower, upper), ab, rhs[perm])
        assert np.array_equal(stepper.linear_solve(data, rhs)[0], ref)

    @pytest.mark.parametrize("nodes, cause", [((33,), "singular matrix"),
                                              ((8, 8), "exactly singular")])
    def test_zero_matrix_diverges(self, wall_model, nodes, cause):
        # LAPACK gbsv's info > 0 in 1D, SuperLU's factor error in 2D
        grid = Grid((1.0,) * len(nodes), nodes)
        state = _near_wall_state(grid, wall_model)
        stepper = Stepper(wall_model, grid, _bc("robin"), zero_source())
        _, rhs = _newton_system(stepper, state, 1e-2, state.chi.flat)
        with pytest.raises(NewtonDiverged,
                           match=f"^singular linearization in step solve "
                                 f"\\(.*{cause}"):
            stepper.linear_solve(np.zeros(stepper._jrows.size), rhs)

    def test_1d_band_is_two_wide(self, wall_model):
        for kind in ("dirichlet", "robin"):
            stepper = Stepper(wall_model, Grid((1.0,), (33,)), _bc(kind),
                              zero_source())
            assert stepper._band == (2, 2)

    def test_2d_factor_is_lagged(self, wall_model):
        grid = Grid((1.0, 1.0), (16, 12))
        state = _near_wall_state(grid, wall_model)
        stepper = Stepper(wall_model, grid, _bc("robin"), zero_source())
        data, rhs = _newton_system(stepper, state, 1e-2, state.chi.flat)
        assert stepper.linear_solve(data, rhs)[1] == 1
        # the second system is solved with the factor of the first
        x, factorizations = stepper.linear_solve(1.01 * data, rhs)
        assert factorizations == 0
        ref = _spsolve(stepper, data, rhs)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("nodes", [(33,), (8, 8)])
    def test_singular_linearization_diverges(self, wall_model, nodes,
                                             monkeypatch):
        # a fresh Stepper keeps no 2D factor, so its first iteration
        # factors the zero Jacobian
        grid = Grid((1.0,) * len(nodes), nodes)
        state = _near_wall_state(grid, wall_model)
        stepper = Stepper(wall_model, grid, _bc("robin"), zero_source())
        cfg = TrajectoryConfig(dt=1e-2, t_end=1e-2)
        monkeypatch.setattr(dyn.Stepper, "_jacobian",
                            lambda self, arrays, dt: np.zeros(
                                self._jrows.size))
        with pytest.raises(NewtonDiverged, match="singular"):
            stepper.step(state, cfg)


class TestLaggedFactorRun:
    def test_near_wall_robin_refactors_and_matches_spsolve(
            self, wall_model, monkeypatch):
        grid = Grid((1.0, 1.0), (24, 24))
        bc = _bc("robin")
        state = _near_wall_state(grid, wall_model)
        cfg = TrajectoryConfig(dt=2e-3, t_end=0.2)
        traj = run(state, cfg, wall_model, grid, bc, zero_source())
        stats = traj.stats
        assert 1 < stats["factorizations"] < stats["linear_solves"]
        dis = check_dissipation(traj.energies, traj.g_dual,
                                np.diff(traj.times), 0.0)
        assert dis.passed

        monkeypatch.setattr(dyn.Stepper, "linear_solve", _spsolve_step)
        ref = run(state, cfg, wall_model, grid, bc, zero_source())
        for name in ("theta", "chi"):
            got = getattr(traj.final_state, name).values
            want = getattr(ref.final_state, name).values
            assert np.max(np.abs(got - want)) <= cfg.newton_tol

    def test_chord_matches_exact_newton(self, monkeypatch):
        # plate2d's laws on a 32x32 Dirichlet box, 20 steps
        model = ModelSpec(builtin("mixed_j", tau_c=1.0),
                          builtin("quartic_W"), builtin("tanh_lambda"))
        grid = Grid((1.0, 1.0), (32, 32))
        x, y = grid.meshgrid()
        chi = 0.2 * np.cos(np.pi * x) * np.cos(2 * np.pi * y) \
            - 0.1 * np.cos(2 * np.pi * x) + 0.05 * np.cos(np.pi * y)
        state = State.make(0.0, Field.zeros(grid), Field(grid, chi), model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=0.02, newton_tol=1e-8)
        bc = _bc("dirichlet")
        traj = run(state, cfg, model, grid, bc, zero_source())
        assert traj.stats["factorizations"] < traj.stats["linear_solves"]

        monkeypatch.setattr(dyn.Stepper, "linear_solve", _spsolve_step)
        exact = run(state, cfg, model, grid, bc, zero_source())
        for name in ("theta", "chi"):
            got = getattr(traj.final_state, name).values
            want = getattr(exact.final_state, name).values
            assert np.max(np.abs(got - want)) <= cfg.newton_tol

    def test_stale_factor_after_dt_change(self, wall_model):
        # the retry's case: a factor built at dt serves a step of dt/2
        grid = Grid((1.0, 1.0), (24, 24))
        bc = _bc("robin")
        state = _near_wall_state(grid, wall_model)
        cfg = TrajectoryConfig(dt=2e-3, t_end=2e-3)
        stepper = Stepper(wall_model, grid, bc, zero_source())
        stepper.step(state, cfg)
        assert stepper._lu is not None
        half = replace(cfg, dt=0.5 * cfg.dt)
        new, report = stepper.step(state, half)
        assert report.residual <= half.newton_tol
        fresh, _ = Stepper(wall_model, grid, bc, zero_source()).step(state,
                                                                     half)
        for name in ("theta", "chi"):
            got = getattr(new, name).values
            want = getattr(fresh, name).values
            assert np.max(np.abs(got - want)) <= half.newton_tol

    def test_determinism_bitwise_2d(self, caginalp_model, dirichlet_bc,
                                    tmp_path):
        grid = Grid((1.0, 1.0), (12, 10))
        x, y = grid.meshgrid()
        state = State.make(0.0, Field.zeros(grid),
                           Field(grid, 0.1 * np.cos(np.pi * x)
                                 * np.cos(np.pi * y)), caginalp_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=0.03)
        out = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            run(state, cfg, caginalp_model, grid, dirichlet_bc,
                zero_source(), out_dir=str(d))
            out.append((d / "trace.csv").read_bytes())
        assert out[0] == out[1]


class TestRunStats:
    def test_counts_in_1d(self, caginalp_model, unit_grid, dirichlet_bc):
        st = cosine_state(unit_grid, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=0.02)
        traj = run(st, cfg, caginalp_model, unit_grid, dirichlet_bc,
                   zero_source())
        stats = traj.stats
        assert set(stats) == set(dyn.RUN_STATS)
        assert stats["newton_iters"] == int(
            np.sum(traj.columns["newton_iters"]))
        # the accepting iteration of each of the 20 steps solves nothing
        assert stats["linear_solves"] == stats["newton_iters"] - 20
        assert stats["factorizations"] == stats["linear_solves"]
        assert stats["retried_steps"] == 0


def _robin_wall_raw(tmp_path):
    """The settings of the robin_wall benchmark workload, with a cosine
    in place of its seeded initial chi."""
    return {
        "model.j": "mixed_j", "model.j.tau_c": "1.0", "model.w": "quartic_W",
        "model.lambda": "tanh_lambda",
        "grid.dimension": "1", "grid.extents": "1.0", "grid.nodes": "128",
        "bc.kind": "robin", "bc.eta": "0.5",
        "bc.theta_gamma.amplitude": "0.2", "bc.theta_gamma.envelope": "exp",
        "bc.theta_gamma.rate": "2.0",
        "source.profile": "bump", "source.amplitude": "0.5",
        "source.envelope": "exp", "source.rate": "1.0",
        "source.delta_src": "1.0",
        "initial.theta": "cosine", "initial.theta.offset": "-0.5",
        "initial.theta.amplitude": "0.47", "initial.theta.mode": "2",
        "initial.chi": "cosine", "initial.chi.amplitude": "0.2",
        "run.dt": "2e-3", "run.t_end": "2.0", "run.trace_every": "1",
        "run.newton_tol": "1e-8", "run.snapshot_every": "10",
        "diagnostics.dissipation": "true", "diagnostics.monitors": "true",
        "diagnostics.s": "0.0", "diagnostics.validate_model": "true",
        "output.dir": str(tmp_path / "run"),
    }


def _count_calls(monkeypatch, owner, counts):
    original = owner.__init__

    def counted(self, *args, **kwargs):
        counts[owner.__name__] = counts.get(owner.__name__, 0) + 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(owner, "__init__", counted)


class TestOneBuildPerRun:
    def test_cli_run_builds_one_stepper(self, tmp_path, monkeypatch):
        counts = {}
        _count_calls(monkeypatch, dyn.Stepper, counts)
        cfg = build_config(_robin_wall_raw(tmp_path))
        assert cli.run_experiment(cfg, quiet=True) == cli.EXIT_OK
        assert counts == {"Stepper": 1}
        report = json.loads((tmp_path / "run" / "diagnostics.json")
                            .read_text())
        assert set(report["run_stats"]) == set(dyn.RUN_STATS)
        assert report["run_stats"]["linear_solves"] > 0

    def test_catalog_builds_one_workspace(self, caginalp_model,
                                          monkeypatch):
        g = Grid((10.0,), (129,))
        x = g.axes()[0]
        guesses = [Field.full(g, v) for v in (-1.0, 0.0, 1.0)]
        guesses.append(Field(g, np.tanh(x - 5.0)))
        alone = [steady.solve_stationary(guess, caginalp_model, g)
                 for guess in guesses]
        counts = {}
        _count_calls(monkeypatch, grids.OperatorWorkspace, counts)
        found = steady.solve_catalog(guesses, caginalp_model, g)
        assert counts == {"OperatorWorkspace": 1}
        assert len(found) == len(alone) == 4
        for got, want in zip(found, alone):
            assert got.residual == want.residual
            assert got.energy == want.energy
            assert got.observed_range == want.observed_range
            np.testing.assert_array_equal(got.chi.values, want.chi.values)
