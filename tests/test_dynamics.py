import numpy as np
import pytest

from phaseflow import (BoundarySpec, Field, Grid, ModelSpec, SourceSpec,
                       State, Stepper, TrajectoryConfig, builtin,
                       integrate, oracle_step, run, step, zero_source)
from phaseflow import dynamics as dyn
from phaseflow.errors import (DomainExhausted, DomainViolation,
                              InvalidParameter, NewtonDiverged)
from phaseflow.grids import quad_weights

from conftest import cosine_state


class TestState:
    def test_caches(self, caginalp_model, unit_grid):
        st = cosine_state(unit_grid, caginalp_model, theta_value=0.3)
        np.testing.assert_allclose(st.u.values, 0.3, atol=1e-14)

    def test_domain_enforced(self, mixed_model, unit_grid):
        with pytest.raises(DomainViolation):
            State.make(0.0, Field.full(unit_grid, -1.5),
                       Field.full(unit_grid, 0.0), mixed_model)

    def test_cache_tracks_flux_law(self, mixed_model, unit_grid):
        st = cosine_state(unit_grid, mixed_model, theta_value=0.5)
        expected = 0.5 - 1.0 / 1.5 + 1.0
        np.testing.assert_allclose(st.u.values, expected, atol=1e-14)


def _energy(st, model, grid, bc):
    return Stepper(model, grid, bc, zero_source()).energy(st.theta.flat,
                                                          st.chi.flat)


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
        for _ in range(20):
            st, rep = stepper.step(st, cfg)
            assert rep.energy_after - rep.energy_before <= 1e-9

    def test_report_contents(self, caginalp_model, unit_grid, dirichlet_bc):
        st = cosine_state(unit_grid, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=1e-3, newton_tol=1e-12)
        _, rep = step(st, cfg, caginalp_model, unit_grid, dirichlet_bc,
                      zero_source())
        assert rep.residual <= 1e-12
        assert rep.dt == 1e-3
        assert rep.newton_iters >= 2

    def test_newton_diverged_with_tiny_budget(self, caginalp_model,
                                              unit_grid, dirichlet_bc):
        st = cosine_state(unit_grid, caginalp_model, amp=0.5)
        cfg = TrajectoryConfig(dt=0.5, t_end=0.5, max_newton=2)
        with pytest.raises(NewtonDiverged):
            step(st, cfg, caginalp_model, unit_grid, dirichlet_bc,
                 zero_source())

    def test_domain_exhausted_without_damping_budget(self):
        # hot start over the logarithmic well: the first Newton direction
        # overshoots the wall at +1, so with no halvings allowed the step
        # must report the exhaustion instead of leaving the domain
        model = ModelSpec(builtin("caginalp_j"), builtin("logarithmic_W"),
                          builtin("linear_lambda", ell=1.0))
        g = Grid((1.0,), (9,))
        bc = BoundarySpec("robin", eta=1e-8)
        st = State.make(0.0, Field.full(g, 5.0), Field.full(g, 0.3), model)
        bad = TrajectoryConfig(dt=0.9, t_end=0.9, max_halvings=0,
                               max_newton=80)
        with pytest.raises(DomainExhausted):
            step(st, bad, model, g, bc, zero_source())
        good = TrajectoryConfig(dt=0.9, t_end=0.9, max_newton=80)
        new, rep = step(st, good, model, g, bc, zero_source())
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
        for _ in range(50):
            st, _ = stepper.step(st, cfg)
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

    def test_horizon_must_align(self, caginalp_model, unit_grid,
                                dirichlet_bc):
        st = cosine_state(unit_grid, caginalp_model)
        cfg = TrajectoryConfig(dt=3e-3, t_end=1.0)
        with pytest.raises(InvalidParameter):
            run(st, cfg, caginalp_model, unit_grid, dirichlet_bc,
                zero_source())

    def test_retry_splits_step_once(self, caginalp_model, unit_grid,
                                    dirichlet_bc, monkeypatch):
        st = cosine_state(unit_grid, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=5e-3)
        original = dyn.Stepper.step
        calls = {"n": 0}

        def flaky(self, state, config, energy_before=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise NewtonDiverged("injected failure")
            return original(self, state, config,
                            energy_before=energy_before)

        monkeypatch.setattr(dyn.Stepper, "step", flaky)
        traj = run(st, cfg, caginalp_model, unit_grid, dirichlet_bc,
                   zero_source())
        # first step became two half steps; times stay on the grid
        np.testing.assert_allclose(np.diff(traj.times), 1e-3, atol=1e-12)
        assert traj.final_state.t == pytest.approx(5e-3)

    def test_retry_gives_up_after_one_halving(self, caginalp_model,
                                              unit_grid, dirichlet_bc,
                                              monkeypatch):
        st = cosine_state(unit_grid, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=5e-3)

        def always_fails(self, state, config, energy_before=None):
            raise NewtonDiverged("injected failure")

        monkeypatch.setattr(dyn.Stepper, "step", always_fails)
        with pytest.raises(NewtonDiverged):
            run(st, cfg, caginalp_model, unit_grid, dirichlet_bc,
                zero_source())

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
    def test_dirichlet_value_must_match_equilibrium(self, caginalp_model,
                                                    unit_grid):
        bad = BoundarySpec("dirichlet", theta_inf=0.5)
        st = cosine_state(unit_grid, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=1e-3)
        with pytest.raises(InvalidParameter):
            step(st, cfg, caginalp_model, unit_grid, bad, zero_source())

    def test_flux_cache_tracks_steps(self, caginalp_model, unit_grid,
                                     dirichlet_bc):
        st = cosine_state(unit_grid, caginalp_model, theta_value=0.1)
        cfg = TrajectoryConfig(dt=1e-3, t_end=0.01)
        traj = run(st, cfg, caginalp_model, unit_grid, dirichlet_bc,
                   zero_source())
        final = traj.final_state
        np.testing.assert_allclose(
            final.u.values, final.theta.values, atol=1e-14)


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
            kappa=1.0, mu=3.0, analytic_on_core=True,
            d1_zeros=(-1.0, 0.0, 1.0))
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
