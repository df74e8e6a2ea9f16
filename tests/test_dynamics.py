import re
from dataclasses import replace

import numpy as np
import pytest

from phaseflow import (BoundarySpec, Field, Grid, ModelSpec,
                       OperatorWorkspace, SourceSpec, State, Stepper,
                       TrajectoryConfig, builtin, free_energy, integrate,
                       oracle_step, regularize, residual_stationary, run,
                       step, zero_source)
from phaseflow import dynamics as dyn
from phaseflow import models
from phaseflow.config import make_profile
from phaseflow.diagnostics import source_report
from phaseflow.errors import (DomainExhausted, DomainViolation,
                              InvalidParameter, NewtonDiverged)
from phaseflow.grids import quad_weights, read_records

from conftest import cosine_state


class TestState:
    def test_domain_enforced(self, mixed_model, unit_grid):
        with pytest.raises(DomainViolation):
            State.make(0.0, Field.full(unit_grid, -1.5),
                       Field.full(unit_grid, 0.0), mixed_model)

    def test_fields_on_one_grid(self, caginalp_model, unit_grid):
        with pytest.raises(InvalidParameter, match="grid"):
            State.make(0.0, Field.full(unit_grid, 0.0),
                       Field.full(Grid((2.0,), (65,)), 0.0), caginalp_model)

    @pytest.mark.parametrize("other", [Grid((2.0,), (65,)),
                                       Grid((1.0,), (33,))])
    def test_run_on_another_grid(self, caginalp_model, unit_grid,
                                 dirichlet_bc, other):
        # other extents on the same node count, and another node count
        cfg = TrajectoryConfig(dt=1e-3, t_end=2e-3)
        with pytest.raises(InvalidParameter, match="grid"):
            run(cosine_state(other, caginalp_model), cfg, caginalp_model,
                unit_grid, dirichlet_bc, zero_source())


def _energy(st, model, grid, bc):
    return free_energy(st.theta.flat, st.chi.flat, model,
                       OperatorWorkspace(grid, bc))


class TestDiscreteEnergy:
    def test_equilibrium_is_zero(self, caginalp_model, unit_grid,
                                 dirichlet_bc):
        st = State.make(0.0, Field.full(unit_grid, 0.0),
                        Field.full(unit_grid, 1.0), caginalp_model)
        assert _energy(st, caginalp_model, unit_grid, dirichlet_bc) == 0.0

    def test_constant_well_value(self, caginalp_model, unit_grid,
                                 dirichlet_bc):
        st = State.make(0.0, Field.full(unit_grid, 0.0),
                        Field.full(unit_grid, 0.0), caginalp_model)
        assert _energy(st, caginalp_model, unit_grid,
                       dirichlet_bc) == pytest.approx(0.25)

    def test_linear_profile(self, caginalp_model, dirichlet_bc):
        g = Grid((1.0,), (101,))
        x = g.axes()[0]
        st = State.make(0.0, Field.full(g, 0.0), Field(g, x.copy()),
                        caginalp_model)
        expected = 0.5 + 0.25 * (1.0 / 5.0 - 2.0 / 3.0 + 1.0)
        assert _energy(st, caginalp_model, g, dirichlet_bc) \
            == pytest.approx(expected, abs=1e-4)


def _cooling_stall(model):
    """Strong cooling against the wall of mixed_j at -1: at dt 1e-3 the
    residual of the first step levels off near 6.7e-10 from about
    iteration 10, above newton_tol.  Returns (state, problem)."""
    g = Grid((1.0,), (9,))
    cooling = SourceSpec(profile=lambda x: np.full(x.shape, 1.0),
                         envelope=lambda t: -1e3)
    st = State.make(0.0, Field.full(g, -0.9), Field.full(g, 0.0), model)
    return st, (model, g, BoundarySpec("robin", eta=0.5), cooling)


class TestStep:
    def test_equilibrium_fixed_point(self, caginalp_model, unit_grid,
                                     dirichlet_bc):
        st = State.make(0.0, Field.full(unit_grid, 0.0),
                        Field.full(unit_grid, 1.0), caginalp_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=1e-3)
        new, rep = step(st, cfg, caginalp_model, unit_grid, dirichlet_bc,
                        zero_source())
        assert rep.newton_iters == 1
        assert np.max(np.abs(new.theta.values - st.theta.values)) < 1e-12
        assert np.max(np.abs(new.chi.values - st.chi.values)) < 1e-12

    def test_energy_decreases(self, caginalp_model, dirichlet_bc):
        g = Grid((1.0,), (128,))
        st = cosine_state(g, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=1e-3)
        stepper = Stepper(caginalp_model, g, dirichlet_bc, zero_source())
        previous = None
        for _ in range(20):
            energy = free_energy(st.theta.flat, st.chi.flat, caginalp_model,
                                 stepper.ws)
            (st, rep), previous = stepper.step(st, cfg, previous=previous), st
            assert rep.values.energy - energy <= 1e-9

    def test_report_contents(self, caginalp_model, unit_grid, dirichlet_bc):
        st = cosine_state(unit_grid, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=1e-3, newton_tol=1e-12)
        _, rep = step(st, cfg, caginalp_model, unit_grid, dirichlet_bc,
                      zero_source())
        assert rep.residual <= 1e-12
        assert rep.newton_iters >= 2

    def test_newton_diverged_with_tiny_budget(self, caginalp_model,
                                              unit_grid, dirichlet_bc):
        st = cosine_state(unit_grid, caginalp_model, amp=0.5)
        cfg = TrajectoryConfig(dt=0.5, t_end=0.5, max_newton=2)
        with pytest.raises(NewtonDiverged):
            step(st, cfg, caginalp_model, unit_grid, dirichlet_bc,
                 zero_source())

    def test_newton_diverged_says_still_falling(self, caginalp_model):
        # two iterations take the residual from 0.63 to 2.8e-4
        g = Grid((1.0,), (33,))
        cfg = TrajectoryConfig(dt=0.1, t_end=0.1, max_newton=2)
        with pytest.raises(NewtonDiverged, match=r"after 2 iterations, "
                           r"still falling$"):
            step(cosine_state(g, caginalp_model), cfg, caginalp_model, g,
                 BoundarySpec("dirichlet"), zero_source())

    def test_newton_diverged_says_stalled(self, mixed_model):
        st, problem = _cooling_stall(mixed_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=1e-3)
        with pytest.raises(NewtonDiverged) as info:
            step(st, cfg, *problem)
        found = re.search(r"^residual (\S+) .* after 50 iterations, stalled: "
                          r"smallest (\S+) first reached at iteration "
                          r"(\d+)$", str(info.value))
        assert found, str(info.value)
        last, least, first = found.groups()
        assert last == f"{info.value.residual:.3e}"
        assert float(least) <= float(last)
        assert 1 < int(first) < 50

    def test_domain_exhausted_without_damping_budget(self, monkeypatch):
        # hot start over the logarithmic well: the first Newton direction
        # overshoots the wall at +1, so with no halvings allowed the step
        # must report the exhaustion instead of leaving the domain
        model = ModelSpec(builtin("caginalp_j"), builtin("logarithmic_W"),
                          builtin("linear_lambda", ell=1.0))
        g = Grid((1.0,), (9,))
        bc = BoundarySpec("robin", eta=1e-8)
        st = State.make(0.0, Field.full(g, 5.0), Field.full(g, 0.3), model)
        cfg = TrajectoryConfig(dt=0.9, t_end=0.9, max_newton=80)
        with monkeypatch.context() as patch:
            patch.setattr(models, "MAX_HALVINGS", 0)
            with pytest.raises(DomainExhausted):
                step(st, cfg, model, g, bc, zero_source())
        new, rep = step(st, cfg, model, g, bc, zero_source())
        assert rep.damping_events > 0
        assert np.max(np.abs(new.chi.values)) < 1.0

    def test_domain_exhausted_signals_oversized_step(self):
        # far enough from equilibrium even full damping cannot keep the
        # iterates inside: the documented signal for a too-large dt
        model = ModelSpec(builtin("caginalp_j"), builtin("logarithmic_W"),
                          builtin("linear_lambda", ell=1.0))
        g = Grid((1.0,), (9,))
        bc = BoundarySpec("robin", eta=1e-8)
        st = State.make(0.0, Field.full(g, 20.0), Field.full(g, 0.3),
                        model)
        cfg = TrajectoryConfig(dt=0.9, t_end=0.9, max_newton=80)
        with pytest.raises(DomainExhausted):
            step(st, cfg, model, g, bc, zero_source())

    def test_wall_preserved_for_singular_law(self, mixed_model,
                                             dirichlet_bc):
        g = Grid((1.0,), (64,))
        x = g.axes()[0]
        theta0 = -0.95 + 0.45 * (1.0 - np.cos(2 * np.pi * x))
        st = State.make(0.0, Field(g, theta0),
                        Field(g, 0.1 * np.cos(np.pi * x)), mixed_model)
        cfg = TrajectoryConfig(dt=1e-2, t_end=1e-2)
        stepper = Stepper(mixed_model, g, dirichlet_bc, zero_source())
        previous = None
        for _ in range(50):
            (st, _), previous = stepper.step(st, cfg, previous=previous), st
            assert np.min(st.theta.values) > -1.0


class TestOracleAgreement:
    def test_equilibrium(self, caginalp_model, dirichlet_bc):
        g = Grid((1.0,), (4,))
        st = State.make(0.0, Field.full(g, 0.0), Field.full(g, 1.0),
                        caginalp_model)
        out = oracle_step(st, 1e-2, caginalp_model, g, dirichlet_bc,
                          zero_source())
        assert np.max(np.abs(out.chi.values - 1.0)) < 1e-12

    def test_random_states_match_sparse_step(self, caginalp_model,
                                             mixed_model, dirichlet_bc):
        g = Grid((1.0,), (4,))
        cfg = TrajectoryConfig(dt=1e-2, t_end=1e-2, newton_tol=1e-13)
        rng = np.random.default_rng(11)
        for model in (caginalp_model, mixed_model):
            lo = model.j.domain[0]
            for k in range(4):
                theta = rng.uniform(max(lo + 0.2, -2.0), 1.5, 4)
                chi = rng.uniform(-1.4, 1.4, 4)
                st = State.make(0.0, Field(g, theta), Field(g, chi), model)
                fast, _ = step(st, cfg, model, g, dirichlet_bc,
                               zero_source())
                ref = oracle_step(st, 1e-2, model, g, dirichlet_bc,
                                  zero_source(), seed=k)
                assert np.max(np.abs(fast.theta.values
                                     - ref.theta.values)) < 1e-10
                assert np.max(np.abs(fast.chi.values
                                     - ref.chi.values)) < 1e-10

    def test_robin_agreement(self, caginalp_model):
        g = Grid((1.0,), (4,))
        bc = BoundarySpec("robin", eta=0.8,
                          theta_gamma=lambda t: 0.2 * np.exp(-t))
        cfg = TrajectoryConfig(dt=1e-2, t_end=1e-2, newton_tol=1e-13)
        rng = np.random.default_rng(5)
        st = State.make(0.0, Field(g, rng.uniform(-0.5, 0.5, 4)),
                        Field(g, rng.uniform(-1.0, 1.0, 4)), caginalp_model)
        fast, _ = step(st, cfg, caginalp_model, g, bc, zero_source())
        ref = oracle_step(st, 1e-2, caginalp_model, g, bc, zero_source())
        assert np.max(np.abs(fast.theta.values - ref.theta.values)) < 1e-10
        assert np.max(np.abs(fast.chi.values - ref.chi.values)) < 1e-10

    def test_grid_cap(self, caginalp_model, dirichlet_bc):
        g = Grid((1.0,), (65,))
        st = cosine_state(g, caginalp_model)
        with pytest.raises(InvalidParameter):
            oracle_step(st, 1e-3, caginalp_model, g, dirichlet_bc,
                        zero_source())


class TestRun:
    def test_equilibrium_trace_constant(self, caginalp_model, unit_grid,
                                        dirichlet_bc):
        st = State.make(0.0, Field.full(unit_grid, 0.0),
                        Field.full(unit_grid, 1.0), caginalp_model)
        cfg = TrajectoryConfig(dt=1e-2, t_end=0.5)
        traj = run(st, cfg, caginalp_model, unit_grid, dirichlet_bc,
                   zero_source())
        assert np.all(traj.energies == traj.energies[0])
        assert np.all(traj.columns["norm_chit_H"] == 0.0)
        assert traj.verdict.converged

    def test_determinism_bitwise(self, caginalp_model, unit_grid,
                                 dirichlet_bc, tmp_path):
        st = cosine_state(unit_grid, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=0.05)
        out = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            run(st, cfg, caginalp_model, unit_grid, dirichlet_bc,
                zero_source(), out_dir=str(d))
            out.append((d / "trace.csv").read_bytes())
        assert out[0] == out[1]

    def test_horizon_must_align(self):
        # checked where the run settings are built, before any run
        with pytest.raises(InvalidParameter, match="integer multiple"):
            TrajectoryConfig(dt=3e-3, t_end=1.0)

    @pytest.mark.parametrize("name, bad", [
        ("dt", {"dt": float("nan")}), ("dt", {"dt": -1e-3}),
        ("t_end", {"t_end": float("inf")}),
        ("t_end", {"dt": 1.0, "t_end": 1e-12}),   # zero steps
        ("newton_tol", {"newton_tol": float("nan")}),
        ("trace_every", {"trace_every": 0}),
        ("max_newton", {"max_newton": 0})])
    def test_bad_settings_rejected(self, name, bad):
        settings = {"dt": 1e-3, "t_end": 1.0, **bad}
        with pytest.raises(InvalidParameter, match=f"^{name} must"):
            TrajectoryConfig(**settings)

    @pytest.mark.parametrize("name, bad", [
        ("max_newton", 2.5), ("trace_every", 2.5), ("snapshot_every", 1.5),
        ("max_newton", True), ("snapshot_every", False),
        ("trace_every", "3"), ("max_newton", np.float64(4.0))])
    def test_counts_must_be_integers(self, name, bad):
        # a float trace_every would trace every few steps unannounced, a
        # float max_newton die in range() inside the step
        with pytest.raises(InvalidParameter,
                           match=f"^{name} must be an integer, got"):
            TrajectoryConfig(dt=1e-3, t_end=1e-2, **{name: bad})

    @pytest.mark.parametrize("tols", [
        (1e-7, 1e-6), "1e-7", (float("nan"),) * 3, (-1.0, 1e-6, 1e-6),
        (1e-7, 0.0, 1e-6), (1e-7, 1e-6, float("inf")), (1e-7, "1e-6", 1e-6),
        (1e-7, True, 1e-6), (1e-7, 1e-6, 1e-6, 1e-6), np.array(1e-7)])
    def test_omega_tols_must_be_three_positive_numbers(self, tols):
        # a pair failed at the second trace row, a string with a raw
        # TypeError, and NaN or negative thresholds ran on to PENDING
        with pytest.raises(InvalidParameter,
                           match="^omega_tols must be three finite positive "
                                 "numbers, got"):
            TrajectoryConfig(dt=1e-3, t_end=1e-2, omega_tols=tols)

    def test_numpy_integer_counts_accepted(self):
        cfg = TrajectoryConfig(dt=1e-3, t_end=1e-2, max_newton=np.int64(3),
                               trace_every=np.int32(2),
                               snapshot_every=np.uint8(0))
        assert cfg.max_newton == 3

    def test_omega_tols_of_any_real_type_accepted(self):
        cfg = TrajectoryConfig(dt=1e-3, t_end=1e-2,
                               omega_tols=[1, np.float64(1e-6), np.int64(2)])
        scan = dyn.OmegaScan(cfg.omega_tols)
        assert [scan.push(0.0, 0.0, 0.0) for _ in range(4)][-1] == 3

    def test_retry_splits_step_once(self, caginalp_model, unit_grid,
                                    dirichlet_bc, monkeypatch):
        st = cosine_state(unit_grid, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=5e-3)
        original = dyn.Stepper.step
        calls = {"n": 0}

        def flaky(self, state, config, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise NewtonDiverged("injected failure")
            return original(self, state, config, **kwargs)

        monkeypatch.setattr(dyn.Stepper, "step", flaky)
        traj = run(st, cfg, caginalp_model, unit_grid, dirichlet_bc,
                   zero_source())
        # first step became two half steps; times stay on the grid
        np.testing.assert_allclose(np.diff(traj.times), 1e-3, atol=1e-12)
        assert traj.final_state.t == pytest.approx(5e-3)
        # each of the six accepted steps (four whole, two halves) ends in
        # a Newton iteration that solves nothing
        assert traj.stats["retried_steps"] == 1
        assert traj.stats["linear_solves"] \
            == traj.stats["newton_iters"] - 6

    def test_retry_gives_up_after_one_halving(self, caginalp_model,
                                              unit_grid, dirichlet_bc,
                                              monkeypatch):
        st = cosine_state(unit_grid, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=5e-3)

        def always_fails(self, state, config, **kwargs):
            raise NewtonDiverged("injected failure")

        monkeypatch.setattr(dyn.Stepper, "step", always_fails)
        with pytest.raises(NewtonDiverged):
            run(st, cfg, caginalp_model, unit_grid, dirichlet_bc,
                zero_source())

    def test_failed_retry_names_the_whole_step(self, mixed_model):
        # the whole first step and the first of its half steps both stall
        st, problem = _cooling_stall(mixed_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=1e-2)
        failures = []
        for config in (cfg, replace(cfg, dt=5e-4)):
            with pytest.raises(NewtonDiverged) as info:
                step(st, config, *problem)
            failures.append(info.value)
        whole, half = failures
        with pytest.raises(NewtonDiverged) as info:
            run(st, cfg, *problem)
        assert str(info.value) == (f"step to t = 0.001: {whole}; retried "
                                   f"as two half steps: {half}")
        assert info.value.residual == whole.residual
        assert str(whole) != str(half)

    def test_snapshots_written(self, caginalp_model, unit_grid,
                               dirichlet_bc, tmp_path):
        st = cosine_state(unit_grid, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=0.01, snapshot_every=5)
        traj = run(st, cfg, caginalp_model, unit_grid, dirichlet_bc,
                   zero_source(), out_dir=str(tmp_path))
        names = sorted(p.name for p in tmp_path.glob("snap_*.pfld"))
        assert names == ["snap_00000000.pfld", "snap_00000005.pfld",
                         "snap_00000010.pfld"]
        assert traj.snapshot_files

    def test_stop_writes_an_off_cadence_snapshot(self, caginalp_model,
                                                 dirichlet_bc, tmp_path):
        # converges at step 198, a trace row (every 3) between snapshots
        # (every 7): the stop adds snap_00000198 after snap_00000196
        g = Grid((1.0,), (17,))
        cfg = TrajectoryConfig(dt=1e-2, t_end=20.0, stop_on_converged=True,
                               trace_every=3, snapshot_every=7)
        traj = run(cosine_state(g, caginalp_model), cfg, caginalp_model, g,
                   dirichlet_bc, zero_source(), out_dir=str(tmp_path))
        assert traj.verdict.converged
        assert traj.times.size == 67
        assert traj.verdict.row == traj.times.size - 1
        assert traj.verdict.t == traj.times[-1] == traj.final_state.t \
            == 198 * 1e-2
        expected = [f"snap_{k:08d}.pfld" for k in range(0, 197, 7)] \
            + ["snap_00000198.pfld"]
        assert len(expected) == 30
        assert sorted(p.name for p in tmp_path.glob("snap_*.pfld")) \
            == expected
        assert traj.snapshot_files == tuple(str(tmp_path / name)
                                            for name in expected)
        (chi, t), = read_records(traj.snapshot_files[-1])[1:]
        assert t == traj.final_state.t
        assert np.array_equal(chi.values, traj.final_state.chi.values)

    def test_row_times_from_step_index(self, caginalp_model, dirichlet_bc):
        # 2000 additions of 1e-3 end at 1.9999999999998905; the row times
        # are the step index times dt instead
        g = Grid((1.0,), (9,))
        st = cosine_state(g, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=2.0, trace_every=100)
        traj = run(st, cfg, caginalp_model, g, dirichlet_bc, zero_source())
        assert traj.times.size == 21
        for i, t in enumerate(traj.times):
            assert t == (100 * i) * 1e-3
        assert traj.final_state.t == 2.0


def _fresh_step(state, config, model, grid, bc, source):
    """What a step from the old state gives: without the state before it,
    a new Stepper does not predict."""
    return Stepper(model, grid, bc, source).step(state, config)


def _same_step(a, b):
    (sa, ra), (sb, rb) = a, b
    return (ra.newton_iters == rb.newton_iters
            and np.array_equal(sa.theta.values, sb.theta.values)
            and np.array_equal(sa.chi.values, sb.chi.values))


class TestPredictor:
    def test_fewer_iterations_than_a_fresh_start(self, caginalp_model,
                                                 unit_grid, dirichlet_bc):
        problem = (caginalp_model, unit_grid, dirichlet_bc, zero_source())
        st = cosine_state(unit_grid, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=1e-3)
        stepper = Stepper(*problem)
        previous = None
        for k in range(8):
            _, fresh = _fresh_step(st, cfg, *problem)
            (st, rep), previous = stepper.step(st, cfg, previous=previous), st
            assert rep.predictor_fallbacks == 0
            if k == 0:
                assert rep.newton_iters == fresh.newton_iters
            else:
                assert rep.newton_iters < fresh.newton_iters

    def test_inadmissible_prediction_falls_back(self, dirichlet_bc):
        # a strong uniform cooling takes theta from -0.9 to about -0.99 in
        # one step, against the wall of mixed_j at -1: the extrapolation of
        # that increment lies past the wall
        model = _wall_model()
        g = Grid((1.0,), (9,))
        cooling = SourceSpec(profile=lambda x: np.full(x.shape, -1e3),
                             envelope=lambda t: 1.0)
        problem = (model, g, dirichlet_bc, cooling)
        st0 = State.make(0.0, Field.full(g, -0.9), Field.full(g, 0.0), model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=3e-3)
        stepper = Stepper(*problem)
        st1, rep1 = stepper.step(st0, cfg)
        extrapolated = 2 * st1.theta.values - st0.theta.values
        assert np.min(extrapolated) <= model.j.domain[0]
        second = stepper.step(st1, cfg, previous=st0)
        assert (rep1.predictor_fallbacks, second[1].predictor_fallbacks) \
            == (0, 1)
        assert _same_step(second, _fresh_step(st1, cfg, *problem))
        traj = run(st0, cfg, *problem)
        assert traj.stats["predictor_fallbacks"] == 1

    def test_half_steps_of_a_retry_start_from_the_old_state(
            self, caginalp_model, unit_grid, dirichlet_bc, monkeypatch):
        problem = (caginalp_model, unit_grid, dirichlet_bc, zero_source())
        st = cosine_state(unit_grid, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=5e-3)
        original = dyn.Stepper.step
        calls = []

        def flaky(self, state, config, previous=None, **kwargs):
            if len(calls) == 3:
                calls.append(None)
                raise NewtonDiverged("injected failure")
            out = original(self, state, config, previous=previous, **kwargs)
            calls.append((state, config, out, previous))
            return out

        monkeypatch.setattr(dyn.Stepper, "step", flaky)
        traj = run(st, cfg, *problem)
        monkeypatch.undo()
        assert traj.stats["retried_steps"] == 1
        assert calls[3] is None
        # steps 2 and 3 were predicted, the two half steps were not, and the
        # whole step after the retry was, from the state before the retry
        for k, predicted in ((1, True), (2, True), (4, False), (5, False),
                             (6, True)):
            state, config, out, _ = calls[k]
            assert _same_step(out, _fresh_step(state, config, *problem)) \
                is not predicted, k
        assert calls[4][1].dt == calls[5][1].dt == 5e-4
        assert calls[4][3] is calls[5][3] is None
        assert calls[6][3] is calls[4][0]
        assert calls[6][1].dt == 1e-3 and len(calls) == 7

    def test_step_without_previous_is_a_fresh_step(self, caginalp_model,
                                                   unit_grid, dirichlet_bc):
        problem = (caginalp_model, unit_grid, dirichlet_bc, zero_source())
        st = cosine_state(unit_grid, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=1e-3)
        stepper = Stepper(*problem)
        previous = None
        for _ in range(3):
            (st, _), previous = stepper.step(st, cfg, previous=previous), st
        assert _same_step(stepper.step(st, cfg),
                          _fresh_step(st, cfg, *problem))
        assert not _same_step(stepper.step(st, cfg, previous=previous),
                              _fresh_step(st, cfg, *problem))

    def test_step_changes_no_stepper_attribute(self, caginalp_model,
                                               unit_grid, dirichlet_bc):
        # in 1D a Stepper keeps no lagged factor, and a zero source needs no
        # Gram matrix: a step leaves every attribute as it found it
        stepper = Stepper(caginalp_model, unit_grid, dirichlet_bc,
                          zero_source())
        st0 = cosine_state(unit_grid, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=1e-3)
        st1, _ = stepper.step(st0, cfg)
        for previous in (None, st0):
            kept = {k: (v, v.copy() if isinstance(v, np.ndarray) else None)
                    for k, v in vars(stepper).items()}
            _, rep = stepper.step(st1, cfg, previous=previous)
            assert rep.linear_solves > 0
            assert vars(stepper).keys() == kept.keys()
            for k, (v, saved) in kept.items():
                assert vars(stepper)[k] is v, k
                if saved is not None:
                    assert np.array_equal(v, saved), k

    def test_run_matches_unpredicted_steps(self, caginalp_model, unit_grid,
                                           dirichlet_bc):
        problem = (caginalp_model, unit_grid, dirichlet_bc, zero_source())
        st = cosine_state(unit_grid, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=0.05, keep_states=True)
        traj = run(st, cfg, *problem)
        iters = 0
        gap = 0.0
        for _, theta, chi in traj.states[1:]:
            st, rep = step(st, cfg, *problem)
            iters += rep.newton_iters
            gap = max(gap, np.max(np.abs(st.theta.values - theta.values)),
                      np.max(np.abs(st.chi.values - chi.values)))
        assert traj.stats["newton_iters"] < iters
        assert gap <= cfg.newton_tol


    def test_predicted_start_is_corrected_before_acceptance(
            self, caginalp_model, dirichlet_bc):
        # near convergence the extrapolated start already meets newton_tol;
        # accepted as is, its increment would copy the previous one, and
        # consecutive rows of the phase velocity would repeat
        g = Grid((1.0,), (17,))
        st = cosine_state(g, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-2, t_end=3.0, newton_tol=1e-8)
        traj = run(st, cfg, caginalp_model, g, dirichlet_bc, zero_source())
        chit = traj.columns["norm_chit_H"][1:]
        assert traj.stats["linear_solves"] >= 300
        assert not np.any(np.isclose(chit[1:], chit[:-1], rtol=1e-12,
                                     atol=0.0))

    def test_zero_increment_needs_no_solve(self, caginalp_model, unit_grid,
                                           dirichlet_bc):
        st = State.make(0.0, Field.full(unit_grid, 0.0),
                        Field.full(unit_grid, 1.0), caginalp_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=0.01)
        traj = run(st, cfg, caginalp_model, unit_grid, dirichlet_bc,
                   zero_source())
        assert traj.stats["linear_solves"] == 0


def _wall_model():
    return ModelSpec(builtin("mixed_j", tau_c=1.0), builtin("quartic_W"),
                     builtin("tanh_lambda"))


def _counted(fn, counts, key):
    def wrapper(*args):
        counts[key] += 1
        return fn(*args)
    return wrapper


class TestTraceRows:
    def test_rows_equal_independent_evaluation(self):
        model = _wall_model()
        g = Grid((1.0,), (33,))
        x = g.axes()[0]
        bc = BoundarySpec("robin", eta=0.5)
        source = SourceSpec(
            profile=lambda x: np.exp(-((x - 0.5) / 0.125) ** 2),
            envelope=lambda t: np.exp(-t))
        st = State.make(0.0, Field(g, -0.5 + 0.4 * np.cos(2 * np.pi * x)),
                        Field(g, 0.2 * np.cos(np.pi * x)), model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=0.02, trace_every=3,
                               keep_states=True)
        traj = run(st, cfg, model, g, bc, source)
        stepper = traj.stepper
        ws = stepper.ws
        theta_inf = model.j.theta_inf
        t_prev = th_prev = ch_prev = None
        expected = {}
        for t, theta, chi in traj.states:
            th, ch = theta.flat, chi.flat
            if t_prev is None:
                chit = thetat = 0.0
            else:
                chit = ws.h_norm(ch - ch_prev) / (t - t_prev)
                thetat = ws.h_norm(th - th_prev) / (t - t_prev)
            row = {"energy": free_energy(th, ch, model, ws),
                   "norm_u_V": ws.vcal_norm(model.j.d1(th)),
                   "norm_chit_H": chit,
                   "dist_theta_H": ws.h_norm(th - theta_inf),
                   "stationary_residual": residual_stationary(chi, model, g,
                                                              ws),
                   "norm_thetat_H": thetat,
                   "norm_theta_V": ws.vcal_norm(th - theta_inf),
                   "norm_chi_H2": ws.h_norm(ws.A_fd @ ch) + ws.v_norm(ch),
                   "norm_wprime_H": ws.h_norm(model.w.d1(ch)),
                   "g_dual": stepper.g_dual_norm(t)}
            for k, v in row.items():
                expected.setdefault(k, []).append(v)
            t_prev, th_prev, ch_prev = t, th, ch
        assert traj.times.tolist() == [t for t, _, _ in traj.states]
        assert traj.times.size == 8
        got = dict(traj.columns, **traj.aux, g_dual=traj.g_dual)
        assert set(got) - set(expected) == {"newton_iters"}
        for k, values in expected.items():
            assert got[k].tolist() == values, k
        # the iteration count is the one column no state determines
        assert traj.columns["newton_iters"][0] == 0
        assert np.all(traj.columns["newton_iters"][1:] >= 1)

    def test_one_evaluation_per_row_and_step(self, dirichlet_bc):
        model = _wall_model()
        g = Grid((1.0,), (33,))
        st = cosine_state(g, model)
        counts = dict.fromkeys(("j_d1", "j_d2", "w_d1", "w_d2", "lam"), 0)
        j = replace(model.j, d1=_counted(model.j.d1, counts, "j_d1"),
                    d2=_counted(model.j.d2, counts, "j_d2"))
        w = replace(model.w, d1=_counted(model.w.d1, counts, "w_d1"),
                    d2=_counted(model.w.d2, counts, "w_d2"))
        lam = replace(model.lam,
                      value=_counted(model.lam.value, counts, "lam"))
        cfg = TrajectoryConfig(dt=1e-3, t_end=0.05, trace_every=5)
        traj = run(st, cfg, ModelSpec(j, w, lam), g, dirichlet_bc,
                   zero_source())
        iters, rows = traj.stats["newton_iters"], traj.times.size
        solves = traj.stats["linear_solves"]
        assert (iters, rows, solves) == (150, 11, 100)
        # j', W' and lam(chi) once per Newton iteration and once for the
        # initial state: a row and the next step read the accepting
        # iteration's; j'' and W'' only on iterations that solve
        assert counts == {"j_d1": iters + 1, "w_d1": iters + 1,
                          "lam": iters + 1, "j_d2": solves, "w_d2": solves}


class TestEnergyInequality:
    def test_zero_source_monotone(self, caginalp_model, dirichlet_bc):
        g = Grid((1.0,), (128,))
        st = cosine_state(g, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=0.3)
        traj = run(st, cfg, caginalp_model, g, dirichlet_bc, zero_source())
        assert np.max(np.diff(traj.energies)) <= 1e-9

    def test_source_allowance(self, caginalp_model, dirichlet_bc):
        g = Grid((1.0,), (64,))
        src = SourceSpec(profile=lambda x: 0.5 * np.sin(np.pi * x),
                         envelope=lambda t: 1.0 / (1.0 + t) ** 2,
                         q_tag=2.0, delta_src=1.0)
        st = cosine_state(g, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=0.3)
        traj = run(st, cfg, caginalp_model, g, dirichlet_bc, src)
        diffs = np.diff(traj.energies)
        allow = 0.5 * 1e-3 * traj.g_dual[1:] ** 2 + 1e-9
        assert np.all(diffs <= allow)
        # and the allowance is genuinely needed somewhere early on
        assert np.any(diffs > 0) or traj.energies[1] < traj.energies[0]

    def test_robin_internal_energy_conserved_at_vanishing_eta(
            self, caginalp_model):
        g = Grid((1.0,), (64,))
        x = g.axes()[0]
        bc = BoundarySpec("robin", eta=1e-12)
        st = State.make(0.0, Field(g, 0.2 * np.sin(2 * np.pi * x)),
                        Field(g, 0.1 * np.cos(np.pi * x)), caginalp_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=0.1, keep_states=True)
        traj = run(st, cfg, caginalp_model, g, bc, zero_source())
        masses = [integrate(g, Field(g, th.values + ch.values))
                  for _, th, ch in traj.states]
        assert np.max(np.abs(np.diff(masses))) <= 1e-10


#: unit round-off of IEEE doubles
_U = np.finfo(float).eps / 2


def _source_problem(case):
    """(model, grid, bc, source) of a 33-node right-hand side test: a
    Gaussian bump source under Robin conditions (b = 0, since j' vanishes
    at theta_inf), a cooling bump with a heated exterior schedule (e and b
    of opposite sign, so G's cross term matters), a source under Dirichlet
    conditions (b = 0), and zero sources, for which g = 0."""
    model = ModelSpec(builtin("caginalp_j"), builtin("quartic_W"),
                      builtin("linear_lambda", ell=1.0))
    grid = Grid((1.0,), (33,))
    bump = SourceSpec(profile=make_profile("bump", 0.5, (1.0,)),
                      envelope=lambda t: np.exp(-t))
    cooling = replace(bump, profile=make_profile("bump", -0.5, (1.0,)))
    robin = BoundarySpec("robin", eta=0.5)
    schedule = BoundarySpec("robin", eta=0.5,
                            theta_gamma=lambda t: 0.2 * np.exp(-2.0 * t))
    dirichlet = BoundarySpec("dirichlet")
    bc, source = {"robin_bump": (robin, bump),
                  "robin_schedule": (schedule, cooling),
                  "dirichlet_source": (dirichlet, bump),
                  "dirichlet_zero": (dirichlet, zero_source()),
                  "robin_zero": (robin, zero_source())}[case]
    return model, grid, bc, source


def _dual_form_bound(stepper, c):
    """Bound on the difference of two round-off computations of
    q = ||c0 w p + c1 gamma||_*^2 over the active nodes.  Each side solves
    with a backward-stable LU of the diagonally dominant K_B, whose forward
    error is at most cond(K_B) gamma_3n (Higham 2002, Thm 9.4), and rounds
    its inputs a few (< 5) times, so each is within
    (3n + 5) u cond(K_B) ||K_B^-1|| (|c0| ||w p|| + |c1| ||gamma||)^2 of q."""
    eig = np.linalg.eigvalsh(stepper.ws.K_B.toarray())
    n = stepper.m
    return (2 * (3 * n + 5) * _U * (eig[-1] / eig[0]) / eig[0]
            * _weak_scale(stepper, c) ** 2)


def _weak_scale(stepper, c):
    """|c0| ||w p|| + |c1| ||gamma||, the rows on the active nodes."""
    ws = stepper.ws
    p = np.zeros(ws.w.size) if stepper._profile is None else stepper._profile
    return sum(abs(ci) * np.linalg.norm(row[stepper.act])
               for ci, row in zip(c, (ws.w * p, ws.gamma)))


class TestSourceGram:
    """g(t) = e p + b gamma / w is rank two, and its dual norm is the 2x2
    Gram form of the coefficients (e, b) = Stepper.g_coefficients(t)."""

    @pytest.mark.parametrize("case", ["robin_bump", "robin_schedule",
                                      "dirichlet_source"])
    def test_gram_form_matches_vector_dual_norm(self, case):
        stepper = Stepper(*_source_problem(case))
        ws = stepper.ws
        for t in (0.0, 0.3, 1.7):
            c = stepper.g_coefficients(t)
            got = stepper.g_dual_norm(t)
            want = ws.dual_norm_weak(ws.w * stepper.g_density(t))
            assert want > 0
            # |N_a - N_b| = |q_a - q_b| / (N_a + N_b)
            assert abs(got - want) <= _dual_form_bound(stepper, c) / (
                got + want), (case, t)
        assert (stepper.g_coefficients(1.0)[1] == 0.0) \
            == (case != "robin_schedule")

    @pytest.mark.parametrize("case", ["dirichlet_zero", "robin_zero"])
    def test_zero_source_gives_exactly_zero(self, case):
        stepper = Stepper(*_source_problem(case))
        for t in (0.0, 0.5):
            assert stepper.g_coefficients(t) == (0.0, 0.0)
            assert stepper.g_dual_norm(t) == 0.0
            assert not np.any(stepper.g_density(t))

    def test_source_report_differences_coefficients(self, monkeypatch):
        # the windowed g_t sup against the same central difference taken on
        # g vectors and measured with the workspace's vector dual norm
        model, grid, bc, source = _source_problem("robin_schedule")
        st = cosine_state(grid, model)
        cfg = TrajectoryConfig(dt=1e-2, t_end=1.0)
        traj = run(st, cfg, model, grid, bc, source)
        stepper, ws = traj.stepper, traj.stepper.ws
        g, c = stepper.g_density, stepper.g_coefficients
        eps = 1e-6
        inv_k = 1.0 / np.linalg.eigvalsh(ws.K_B.toarray())[0]
        gap = tol = 0.0
        vec_sup = 0.0
        for t in traj.times:
            lo, den = max(t - eps, 0.0), eps + min(eps, t)
            vec = ws.dual_norm_weak((g(t + eps) - g(lo)) * ws.w / den)
            dc = np.subtract(c(t + eps), c(lo)) / den
            coef = stepper.coefficient_dual_norm(dc)
            vec_sup = max(vec_sup, vec)
            gap = max(gap, abs(vec - coef))
            # each entry of the two weak vectors carries at most six
            # roundings, which the difference divides by den; the
            # coefficient difference of two nearby values is exact
            spread = max(_weak_scale(stepper, c(t + eps)),
                         _weak_scale(stepper, c(lo)))
            tol = max(tol, 12 * _U * spread / den * np.sqrt(inv_k)
                      + _dual_form_bound(stepper, dc) / (vec + coef))
        # the report reads only coefficients and the Gram form built above
        with monkeypatch.context() as patch:
            for cls, name in ((Stepper, "g_density"),
                              (OperatorWorkspace, "dual_norm_weak"),
                              (OperatorWorkspace, "pivot_solve")):
                patch.setattr(cls, name, None)
            rep = source_report(traj)
        # p_tag = inf: the windowed norm is a window maximum, so the sups
        # differ by at most the largest row difference
        assert gap <= tol
        assert abs(rep.windowed_gt_sup - vec_sup) <= tol
        # and the bound is not vacuous: eps = 1e-6 amplifies round-off to
        # about 1e-9 of the sup here
        assert tol <= 1e-8 * vec_sup

    def _count_kb_solves(self, monkeypatch, case):
        calls = []
        solve = OperatorWorkspace.pivot_solve

        def counting(self, pivot, g):
            calls.append(pivot)
            return solve(self, pivot, g)

        monkeypatch.setattr(OperatorWorkspace, "pivot_solve", counting)
        model, grid, bc, source = _source_problem(case)
        cfg = TrajectoryConfig(dt=1e-2, t_end=0.5)
        traj = run(cosine_state(grid, model), cfg, model, grid, bc, source)
        assert traj.g_dual.size == 51
        assert np.all(traj.g_dual > 0) == (not source.is_zero)
        if not source.is_zero or bc.kind == "robin":
            source_report(traj)
        return calls.count("B")

    def test_robin_run_solves_with_k_b_twice(self, monkeypatch):
        # the two Gram solves serve every trace row and the g_t report
        assert self._count_kb_solves(monkeypatch, "robin_schedule") == 2

    def test_zero_source_dirichlet_run_factors_no_k_b(self, monkeypatch):
        assert self._count_kb_solves(monkeypatch, "dirichlet_zero") == 0


class TestContinuousDependence:
    def test_linear_scaling_of_perturbations(self, caginalp_model,
                                             dirichlet_bc):
        g = Grid((1.0,), (64,))
        x = g.axes()[0]
        cfg = TrajectoryConfig(dt=1e-3, t_end=1.0, keep_states=True,
                               trace_every=10)
        base_chi = 0.1 * np.cos(np.pi * x)
        pert = np.cos(2 * np.pi * x)
        w = quad_weights(g)

        def final_gap(delta):
            a = State.make(0.0, Field.full(g, 0.0), Field(g, base_chi),
                           caginalp_model)
            b = State.make(0.0, Field.full(g, 0.0),
                           Field(g, base_chi + delta * pert),
                           caginalp_model)
            ta = run(a, cfg, caginalp_model, g, dirichlet_bc, zero_source())
            tb = run(b, cfg, caginalp_model, g, dirichlet_bc, zero_source())
            gap = 0.0
            for (_, tha, cha), (_, thb, chb) in zip(ta.states, tb.states):
                d = (np.sqrt(np.dot(w, (tha.flat - thb.flat) ** 2))
                     + np.sqrt(np.dot(w, (cha.flat - chb.flat) ** 2)))
                gap = max(gap, d)
            return gap

        r4 = final_gap(1e-4) / 1e-4
        r6 = final_gap(1e-6) / 1e-6
        assert max(r4, r6) / min(r4, r6) < 2.0


class TestTemporalOrder:
    def test_observed_order_first(self, caginalp_model, dirichlet_bc):
        g = Grid((2.0,), (65,))
        x = g.axes()[0]

        def solve(dt):
            st = State.make(0.0, Field.full(g, 0.0),
                            Field(g, 0.1 * np.cos(np.pi * x / 2.0)),
                            caginalp_model)
            cfg = TrajectoryConfig(dt=dt, t_end=0.5, trace_every=10 ** 9)
            return run(st, cfg, caginalp_model, g, dirichlet_bc,
                       zero_source()).final_state

        outs = [solve(dt) for dt in (4e-3, 2e-3, 1e-3)]

        def dist(a, b):
            return (np.max(np.abs(a.chi.values - b.chi.values))
                    + np.max(np.abs(a.theta.values - b.theta.values)))

        order = np.log2(dist(outs[0], outs[1]) / dist(outs[1], outs[2]))
        assert 0.7 <= order <= 1.3


class TestTwoDimensional:
    def test_energy_decreases_on_a_2d_box(self, caginalp_model,
                                          dirichlet_bc):
        g = Grid((1.0, 1.0), (17, 17))
        chi = Field.from_function(
            g, lambda x, y: 0.1 * np.cos(np.pi * x) * np.cos(np.pi * y))
        st = State.make(0.0, Field.full(g, 0.0), chi, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=0.05)
        traj = run(st, cfg, caginalp_model, g, dirichlet_bc, zero_source())
        assert np.max(np.diff(traj.energies)) <= 1e-9

    def test_2d_oracle_agreement(self, caginalp_model, dirichlet_bc):
        g = Grid((1.0, 1.0), (4, 4))
        rng = np.random.default_rng(21)
        st = State.make(0.0, Field(g, rng.uniform(-0.5, 0.5, (4, 4))),
                        Field(g, rng.uniform(-1.0, 1.0, (4, 4))),
                        caginalp_model)
        cfg = TrajectoryConfig(dt=1e-2, t_end=1e-2, newton_tol=1e-13)
        fast, _ = step(st, cfg, caginalp_model, g, dirichlet_bc,
                       zero_source())
        ref = oracle_step(st, 1e-2, caginalp_model, g, dirichlet_bc,
                          zero_source())
        assert np.max(np.abs(fast.chi.values - ref.chi.values)) < 1e-10
        assert np.max(np.abs(fast.theta.values - ref.theta.values)) < 1e-10


class TestBoundaryConsistency:
    @pytest.fixture
    def smoothed_model(self):
        jn = regularize(builtin("mixed_j"), 1)
        assert jn.theta_inf != 0.0
        return ModelSpec(jn, builtin("quartic_W"),
                         builtin("linear_lambda", ell=1.0))

    def test_smoothed_law_dirichlet_value(self, smoothed_model):
        g = Grid((1.0,), (9,))
        st = cosine_state(g, smoothed_model, theta_value=0.1)
        cfg = TrajectoryConfig(dt=1e-2, t_end=0.05)
        traj = run(st, cfg, smoothed_model, g, BoundarySpec("dirichlet"),
                   zero_source())
        theta = traj.final_state.theta.values
        assert theta[0] == theta[-1] == smoothed_model.j.theta_inf
        assert np.max(np.diff(traj.energies)) <= 1e-9

    def test_smoothed_law_robin_exterior(self, smoothed_model):
        # without a schedule the exterior temperature is j.theta_inf
        g = Grid((1.0,), (9,))
        st = cosine_state(g, smoothed_model, theta_value=0.1)
        cfg = TrajectoryConfig(dt=1e-2, t_end=0.05)
        theta_inf = smoothed_model.j.theta_inf
        finals = [run(st, cfg, smoothed_model, g, bc,
                      zero_source()).final_state
                  for bc in (BoundarySpec("robin", eta=0.5),
                             BoundarySpec("robin", eta=0.5,
                                          theta_gamma=lambda t: theta_inf))]
        assert np.array_equal(finals[0].theta.values,
                              finals[1].theta.values)
        assert np.array_equal(finals[0].chi.values, finals[1].chi.values)

    def test_smoothed_run_converges_first_order(self):
        # the envelope error is O(1/n), so each decade of n should cut the
        # H distance to the singular run by 10; measured 3.46e-3, 3.48e-4,
        # 3.48e-5 for n = 10, 100, 1000
        g = Grid((1.0,), (33,))
        x = g.axes()[0]
        cfg = TrajectoryConfig(dt=1e-2, t_end=0.2, newton_tol=1e-8)
        bc = BoundarySpec("robin", eta=0.5)

        def final(j):
            model = ModelSpec(j, builtin("quartic_W"),
                              builtin("linear_lambda"))
            st = State.make(0.0, Field(g, 0.3 * np.cos(np.pi * x)),
                            Field(g, 0.2 * np.cos(np.pi * x)), model)
            return run(st, cfg, model, g, bc, zero_source()).final_state

        singular = final(builtin("mixed_j"))
        ws = OperatorWorkspace(g, bc)
        dists = []
        for n in (10, 100, 1000):
            st = final(regularize(builtin("mixed_j"), n))
            dists.append(ws.h_norm(st.theta.flat - singular.theta.flat)
                         + ws.h_norm(st.chi.flat - singular.chi.flat))
        assert dists[0] < 1e-2
        assert dists[1] <= dists[0] / 5 and dists[2] <= dists[1] / 5


class TestCustomPotentials:
    def test_custom_model_runs_on_numpy_lane(self, dirichlet_bc):
        from phaseflow.models import (ConvexPotential, LatentHeat,
                                      NonconvexPotential)
        j = ConvexPotential(
            "custom_quadratic", (-np.inf, np.inf),
            lambda r: 0.5 * np.asarray(r) ** 2, lambda r: np.asarray(r),
            lambda r: np.ones_like(np.asarray(r)),
            sigma=1.0, theta_inf=0.0)
        w = NonconvexPotential(
            "custom_quartic", (-np.inf, np.inf), (-2.0, 2.0),
            lambda r: 0.25 * (np.asarray(r) ** 2 - 1.0) ** 2,
            lambda r: np.asarray(r) ** 3 - np.asarray(r),
            lambda r: 3.0 * np.asarray(r) ** 2 - 1.0,
            kappa=1.0, mu=3.0, d1_zeros=(-1.0, 0.0, 1.0))
        lam = LatentHeat("custom_linear", lambda r: np.asarray(r) * 1.0,
                         lambda r: np.ones_like(np.asarray(r)),
                         lambda r: np.zeros_like(np.asarray(r)),
                         curvature_bound=1.0)
        custom = ModelSpec(j, w, lam)
        g = Grid((1.0,), (33,))
        st = cosine_state(g, custom)
        cfg = TrajectoryConfig(dt=1e-3, t_end=0.02)
        traj = run(st, cfg, custom, g, dirichlet_bc, zero_source())
        assert np.max(np.diff(traj.energies)) <= 1e-9
