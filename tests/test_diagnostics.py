import numpy as np
import pytest

from phaseflow import (BoundarySpec, Field, Grid, SourceSpec, State,
                       TrajectoryConfig, run, solve_stationary, zero_source)
from phaseflow.diagnostics import (EnergyTrace, check_dissipation,
                                   check_phi_monotone, chi_distance_series,
                                   detect_omega_limit, estimate_lojasiewicz,
                                   estimate_lojasiewicz_trajectory,
                                   fit_rate, fit_rate_trajectory,
                                   monitor_bounds, phi_series,
                                   source_report,
                                   stability_gap, tail_statistic)
from phaseflow.errors import (ConfigMismatch, InsufficientDecay,
                              InsufficientSamples, InvalidParameter)
from phaseflow.grids import OperatorWorkspace
from phaseflow.models import evaluate
from phaseflow.oracle import _dense_neumann_stiffness, _dense_weights

from conftest import cosine_state


class TestCheckDissipation:
    def test_clean_run_passes(self, caginalp_model, unit_grid,
                              dirichlet_bc):
        st = cosine_state(unit_grid, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=0.2)
        traj = run(st, cfg, caginalp_model, unit_grid, dirichlet_bc,
                   zero_source())
        rep = check_dissipation(traj.energies, traj.g_dual, 1e-3, 1e-9)
        assert rep.passed

    def test_injected_uptick_detected(self):
        energies = 1.0 - 1e-6 * np.arange(50.0)
        energies[20] += 1e-3
        rep = check_dissipation(energies, np.zeros(50), 1e-3, 1e-9)
        assert not rep.passed
        assert rep.violations[0][0] == 20

    def test_source_allowance_enters(self):
        energies = np.array([1.0, 1.0 + 0.4e-3])   # uptick within budget
        g = np.array([0.0, 1.0])
        assert check_dissipation(energies, g, 1e-3, 0.0).passed
        assert not check_dissipation(energies, 0.5 * g, 1e-3, 0.0).passed

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
    def test_bad_tolerance_rejected(self, tol):
        # a NaN allowance would pass every row
        with pytest.raises(InvalidParameter):
            check_dissipation(np.array([1.0, 2.0]), np.zeros(2), 1e-3, tol)


class TestPhi:
    def test_monotone_without_source(self, caginalp_model, unit_grid,
                                     dirichlet_bc):
        st = cosine_state(unit_grid, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=0.2)
        traj = run(st, cfg, caginalp_model, unit_grid, dirichlet_bc,
                   zero_source())
        ok, worst = check_phi_monotone(traj.times, traj.energies,
                                       traj.g_dual, 0.0, tol=1e-9)
        assert ok, worst

    def test_monotone_with_decaying_source(self, caginalp_model,
                                           dirichlet_bc):
        g = Grid((1.0,), (64,))
        src = SourceSpec(profile=lambda x: 0.3 * np.sin(np.pi * x),
                         envelope=lambda t: (1.0 + t) ** -3, delta_src=1.0)
        st = cosine_state(g, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=0.5)
        traj = run(st, cfg, caginalp_model, g, dirichlet_bc, src)
        ok, worst = check_phi_monotone(traj.times, traj.energies,
                                       traj.g_dual, 0.0, tol=1e-9)
        assert ok, worst


    def test_partial_last_row_right_point_sum(self):
        # one row per 10 steps of 1e-3 and a horizon of 25 steps
        times = np.array([0.0, 0.01, 0.02, 0.025])
        energies = np.array([1.0, 0.9, 0.85, 0.84])
        g = np.array([0.3, 0.5, 0.7, 1.1])
        expected = [
            1.0 - 0.1 + 0.5 * (0.01 * 0.5 ** 2 + 0.01 * 0.7 ** 2
                               + 0.005 * 1.1 ** 2),
            0.9 - 0.1 + 0.5 * (0.01 * 0.7 ** 2 + 0.005 * 1.1 ** 2),
            0.85 - 0.1 + 0.5 * (0.005 * 1.1 ** 2),
            0.84 - 0.1,
        ]
        np.testing.assert_allclose(phi_series(times, energies, g, 0.1),
                                   expected, rtol=1e-14)


class TestOmegaDetection:
    def test_equilibrium_converges_immediately(self, caginalp_model,
                                               unit_grid, dirichlet_bc):
        st = State.make(0.0, Field.full(unit_grid, 0.0),
                        Field.full(unit_grid, 1.0), caginalp_model)
        cfg = TrajectoryConfig(dt=1e-2, t_end=0.1)
        traj = run(st, cfg, caginalp_model, unit_grid, dirichlet_bc,
                   zero_source())
        verdict = detect_omega_limit(traj)
        assert verdict.converged
        assert verdict.certified_residual < 1e-6

    def test_truncated_run_pending(self, caginalp_model, unit_grid,
                                   dirichlet_bc):
        st = cosine_state(unit_grid, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=0.1)
        traj = run(st, cfg, caginalp_model, unit_grid, dirichlet_bc,
                   zero_source())
        assert detect_omega_limit(traj).status == "PENDING"

    def test_certificate_recomputed_independently(self, caginalp_model,
                                                  dirichlet_bc):
        g = Grid((1.0,), (64,))
        st = cosine_state(g, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=50.0, stop_on_converged=True)
        traj = run(st, cfg, caginalp_model, g, dirichlet_bc, zero_source())
        verdict = detect_omega_limit(traj)
        assert verdict.converged
        steady = solve_stationary(traj.final_state.chi, caginalp_model, g)
        assert verdict.certified_residual < 1e-6
        assert steady.residual < 1e-10
        # the certificate again from the oracle's loop-built stiffness K
        # and weights w: sqrt(g . M^-1 g), g = K chi + w W'(chi), M = K + W
        chi = traj.final_state.chi.flat
        K, w = _dense_neumann_stiffness(g), _dense_weights(g)
        wprime = evaluate(caginalp_model.w, 1, chi)
        rhs = K @ chi + w * wprime
        M = K + np.diag(w)
        want = np.sqrt(rhs @ np.linalg.solve(M, rhs))
        # Round-off bound.  Each side forms g with at most 7 roundings per
        # term (3 stiffness products and their sum, the scaling by 1/w and
        # back by w, the addition of W'), so the two g differ by at most
        # e = 2 gamma_7 (|K||chi| + w|W'|) per node; a norm moves by at
        # most the norm of the difference, ||e||_{M^-1} <= ||e|| /
        # sqrt(lambda_min).  Each LU solve is backward stable with
        # ||dM|| <= 3 n u ||M|| (M is diagonally dominant: no pivot growth),
        # which moves g . M^-1 g by a relative 3 n u kappa(M), sqrt of it
        # by half that; two solves give 3 n u kappa(M) on the residual.
        u = np.finfo(float).eps / 2
        gamma7 = 7 * u / (1 - 7 * u)
        e = 2 * gamma7 * (np.abs(K) @ np.abs(chi) + w * np.abs(wprime))
        lam = np.linalg.eigvalsh(M)
        bound = (np.linalg.norm(e) / np.sqrt(lam[0])
                 + 3 * chi.size * u * lam[-1] / lam[0] * want)
        assert abs(verdict.certified_residual - want) <= bound

    def test_in_loop_verdict_matches_post_hoc_scan(self, caginalp_model,
                                                   unit_grid, dirichlet_bc):
        # the run keeps going past convergence, so later rows must leave
        # the first verdict alone in both scans
        st = cosine_state(unit_grid, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-2, t_end=4.0, stop_on_converged=False)
        traj = run(st, cfg, caginalp_model, unit_grid, dirichlet_bc,
                   zero_source())
        verdict = detect_omega_limit(traj, thresholds=cfg.omega_tols)
        assert traj.verdict.converged and verdict.converged
        assert traj.verdict.row < traj.times.size - 1
        assert verdict == traj.verdict

    # the converged Dirichlet case is the test above
    @pytest.mark.parametrize("bc,t_end,status", [
        (BoundarySpec("dirichlet"), 0.1, "PENDING"),
        (BoundarySpec("robin", eta=0.5), 4.0, "CONVERGED"),
        (BoundarySpec("robin", eta=0.5), 0.1, "PENDING")],
        ids=["dirichlet-pending", "robin-converged", "robin-pending"])
    def test_rescan_is_the_run_verdict(self, caginalp_model, unit_grid, bc,
                                       t_end, status):
        st = cosine_state(unit_grid, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-2, t_end=t_end)
        traj = run(st, cfg, caginalp_model, unit_grid, bc, zero_source())
        assert traj.verdict.status == status
        assert detect_omega_limit(traj, thresholds=cfg.omega_tols) \
            == traj.verdict
        if status == "CONVERGED":
            assert traj.verdict.certified_residual \
                == traj.columns["stationary_residual"][-1]


class TestFitRate:
    def test_exact_power_law(self):
        t = np.linspace(1.0, 100.0, 500)
        fit = fit_rate(t, t ** -2.0)
        assert fit.beta == pytest.approx(2.0, abs=1e-6)

    def test_consistency_gap_formula(self):
        t = np.linspace(1.0, 1000.0, 2000)
        fit = fit_rate(t, 3.0 * t ** -0.5, zeta=0.25)
        assert fit.predicted_beta == pytest.approx(0.5)
        assert fit.consistency_gap < 1e-3

    def test_exponential_sentinel(self):
        t = np.linspace(0.1, 12.0, 400)
        fit = fit_rate(t, np.exp(-1.7 * t))
        assert fit.beta == np.inf
        assert fit.exp_rate == pytest.approx(1.7, rel=1e-6)

    def test_insufficient_decay(self):
        t = np.linspace(1.0, 10.0, 100)
        with pytest.raises(InsufficientDecay):
            fit_rate(t, np.full_like(t, 2.0))

    def test_constant_prefactor_irrelevant(self):
        t = np.linspace(1.0, 100.0, 300)
        for c in (1e-6, 1.0, 1e6):
            assert fit_rate(t, c * t ** -1.5).beta \
                == pytest.approx(1.5, abs=1e-6)


class TestLojasiewicz:
    def _flow(self, m, t):
        """|v|^(2m) energy: v' = -E'(v) has closed-form decay."""
        if m == 1:
            v = np.exp(-t)          # E = v^2/2, v' = -v
            E = v ** 2 / 2.0
            res = np.abs(v)
        else:
            v = (1.0 + 8.0 * t) ** -0.5   # E = v^4, v' = -4 v^3
            E = v ** 4
            res = 4.0 * np.abs(v) ** 3
        return E, res, np.abs(v)

    def test_quadratic_energy_gives_half(self):
        t = np.linspace(0.0, 20.0, 400)
        E, res, dist = self._flow(1, t)
        fit = estimate_lojasiewicz(E, res, dist, 0.0, eps_loj=1.0)
        assert fit.zeta == pytest.approx(0.5, abs=0.03)

    def test_quartic_energy_gives_quarter(self):
        t = np.linspace(0.0, 1000.0, 2000)
        E, res, dist = self._flow(2, t)
        fit = estimate_lojasiewicz(E, res, dist, 0.0, eps_loj=1.0)
        assert fit.zeta == pytest.approx(0.25, abs=0.03)

    def test_radius_admission(self):
        t = np.linspace(0.0, 20.0, 100)
        E, res, dist = self._flow(1, t)
        with pytest.raises(InsufficientSamples):
            estimate_lojasiewicz(E, res, dist, 0.0, eps_loj=1e-12)

    def test_exponent_clamped_to_half(self):
        de = np.logspace(-8, -1, 40)
        res = de ** 0.25            # slope < 1/2 would give zeta > 1/2
        fit = estimate_lojasiewicz(de, res, np.zeros(40), 0.0, eps_loj=1.0)
        assert fit.zeta == 0.5


class TestMonitors:
    def test_equilibrium_monitors_vanish(self, caginalp_model, unit_grid,
                                         dirichlet_bc):
        st = State.make(0.0, Field.full(unit_grid, 0.0),
                        Field.full(unit_grid, 1.0), caginalp_model)
        cfg = TrajectoryConfig(dt=1e-2, t_end=3.5)
        traj = run(st, cfg, caginalp_model, unit_grid, dirichlet_bc,
                   zero_source())
        rep = monitor_bounds(traj, 1.0)
        assert rep.finite()
        assert not rep.unbounded
        assert rep.sup_thetat_window_H == 0.0
        assert rep.sup_chit_H == 0.0
        assert rep.sup_u_V == 0.0

    def test_requires_coverage(self, caginalp_model, unit_grid,
                               dirichlet_bc):
        st = cosine_state(unit_grid, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-2, t_end=1.0)
        traj = run(st, cfg, caginalp_model, unit_grid, dirichlet_bc,
                   zero_source())
        with pytest.raises(InvalidParameter):
            monitor_bounds(traj, 1.0)

    def test_partly_empty_window(self, caginalp_model, dirichlet_bc):
        # rows at 0, 1.5, 3 and the horizon 4: the window [2, 3) is empty
        g = Grid((1.0,), (9,))
        st = cosine_state(g, caginalp_model)
        cfg = TrajectoryConfig(dt=0.25, t_end=4.0, trace_every=6)
        traj = run(st, cfg, caginalp_model, g, dirichlet_bc, zero_source())
        assert traj.times.tolist() == [0.0, 1.5, 3.0, 4.0]
        with pytest.raises(InvalidParameter, match=r"\[2, 3\)"):
            monitor_bounds(traj, 0.0)

    def test_growing_trend_flagged(self, caginalp_model, unit_grid,
                                   dirichlet_bc):
        st = State.make(0.0, Field.full(unit_grid, 0.0),
                        Field.full(unit_grid, 1.0), caginalp_model)
        cfg = TrajectoryConfig(dt=1e-1, t_end=13.0)
        traj = run(st, cfg, caginalp_model, unit_grid, dirichlet_bc,
                   zero_source())
        # synthetic linear growth injected into one monitored series
        traj.columns["norm_u_V"] = traj.times.copy() + 1.0
        rep = monitor_bounds(traj, 0.0)
        assert rep.unbounded
        assert "u_V" in rep.trend_flags

    def test_q_tag_enables_l2_slot(self, caginalp_model, unit_grid,
                                   dirichlet_bc):
        st = cosine_state(unit_grid, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-2, t_end=3.5)
        traj = run(st, cfg, caginalp_model, unit_grid, dirichlet_bc,
                   zero_source())
        assert monitor_bounds(traj, 1.0).thetat_l2_tail is None
        # a zero source tagged q = 2: the same trajectory, bit for bit
        tagged = run(st, cfg, caginalp_model, unit_grid, dirichlet_bc,
                     SourceSpec(q_tag=2.0))
        rep = monitor_bounds(tagged, 1.0)
        assert rep.thetat_l2_tail is not None
        assert np.isfinite(rep.thetat_l2_tail)


class TestStabilityGap:
    def test_identical_runs_zero(self, caginalp_model, unit_grid,
                                 dirichlet_bc):
        st = cosine_state(unit_grid, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=0.05, keep_states=True)
        a = run(st, cfg, caginalp_model, unit_grid, dirichlet_bc,
                zero_source())
        b = run(st, cfg, caginalp_model, unit_grid, dirichlet_bc,
                zero_source())
        assert np.all(stability_gap(a, b) == 0.0)

    def test_grid_mismatch(self, caginalp_model, dirichlet_bc):
        cfg = TrajectoryConfig(dt=1e-3, t_end=0.01, keep_states=True)
        trajs = []
        for n in (33, 65):
            g = Grid((1.0,), (n,))
            st = cosine_state(g, caginalp_model)
            trajs.append(run(st, cfg, caginalp_model, g, dirichlet_bc,
                             zero_source()))
        with pytest.raises(ConfigMismatch):
            stability_gap(*trajs)

    def test_needs_states(self, caginalp_model, unit_grid, dirichlet_bc):
        st = cosine_state(unit_grid, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=0.01)
        a = run(st, cfg, caginalp_model, unit_grid, dirichlet_bc,
                zero_source())
        b = run(st, cfg, caginalp_model, unit_grid, dirichlet_bc,
                zero_source())
        with pytest.raises(ConfigMismatch):
            stability_gap(a, b)


class TestSourceReports:
    def test_tail_statistic_decaying_envelope(self):
        t = np.linspace(0.0, 50.0, 2000)
        g = (1.0 + t) ** -3.0
        stat = tail_statistic(t, g, 1.0)
        assert np.isfinite(stat)
        assert stat < 1.0

    def test_slowly_decaying_envelope_grows(self):
        # b = 0.4 fails the b > (2+delta)/2 criterion for delta = 1: the
        # weighted tail grows with the horizon instead of saturating
        stats = []
        for horizon in (50.0, 200.0):
            t = np.linspace(0.0, horizon, int(horizon * 40))
            stats.append(tail_statistic(t, (1.0 + t) ** -0.4, 1.0))
        assert stats[1] > 2.0 * stats[0]

    def test_source_report_fields(self, caginalp_model, unit_grid,
                                  dirichlet_bc):
        src = SourceSpec(profile=lambda x: 0.1 * np.sin(np.pi * x),
                         envelope=lambda t: (1.0 + t) ** -3,
                         p_tag=np.inf, q_tag=2.0, delta_src=1.0)
        st = cosine_state(unit_grid, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-2, t_end=2.0)
        traj = run(st, cfg, caginalp_model, unit_grid, dirichlet_bc, src)
        rep = source_report(traj)
        assert rep.tail_finite
        assert rep.windowed_gt_sup is not None
        assert np.isfinite(rep.windowed_gt_sup)


class TestTrajectoryFits:
    def test_pde_run_recovers_nondegenerate_exponent(self, caginalp_model,
                                                     dirichlet_bc):
        # the relaxation run converges to the constant zero state, a
        # nondegenerate critical point, where the exponent is exactly 1/2
        g = Grid((1.0,), (64,))
        st = cosine_state(g, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=3.0, keep_states=True,
                               trace_every=25)
        traj = run(st, cfg, caginalp_model, g, dirichlet_bc, zero_source())
        chi_inf = Field.full(g, 0.0)
        loj = estimate_lojasiewicz_trajectory(traj, chi_inf, eps_loj=0.1)
        assert loj.zeta == pytest.approx(0.5, abs=0.03)
        rate = fit_rate_trajectory(traj, chi_inf)
        assert rate.beta == np.inf         # exponential decay regime
        assert rate.exp_rate > 0

    def test_pde_run_recovers_degenerate_exponent(self):
        # near-critical box length: the first cosine mode's linear gap
        # nearly closes, the descent toward zero is governed by the cubic
        # term, and the exponent drops to 1/4 (E - E_inf ~ a^4 against a
        # residual ~ a^3).  A latent heat with ell > 1 lets the conserved
        # internal energy stabilize the otherwise unstable mean mode, so
        # the long horizon stays on the degenerate branch.
        from phaseflow import BoundarySpec, ModelSpec, builtin
        model = ModelSpec(builtin("caginalp_j"), builtin("quartic_W"),
                          builtin("linear_lambda", ell=2.0))
        length = 3.14
        g = Grid((length,), (129,))
        x = g.axes()[0]
        st = State.make(0.0, Field.full(g, 0.0),
                        Field(g, 0.3 * np.cos(np.pi * x / length)), model)
        cfg = TrajectoryConfig(dt=0.2, t_end=480.0, keep_states=True,
                               trace_every=10)
        traj = run(st, cfg, model, g, BoundarySpec("robin", eta=1e-10),
                   zero_source())
        chi_final = traj.final_state.chi.values
        assert abs(np.mean(chi_final)) < 1e-6   # mean mode stayed put
        assert 0.01 < np.max(np.abs(chi_final)) < 0.15  # still descending
        loj = estimate_lojasiewicz_trajectory(traj, Field.full(g, 0.0),
                                              eps_loj=1.0)
        assert loj.zeta == pytest.approx(0.25, abs=0.04)

    def test_wrapper_requires_aligned_states(self, caginalp_model,
                                             unit_grid, dirichlet_bc):
        st = cosine_state(unit_grid, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=0.05)
        traj = run(st, cfg, caginalp_model, unit_grid, dirichlet_bc,
                   zero_source())
        with pytest.raises(InvalidParameter):
            estimate_lojasiewicz_trajectory(traj,
                                            Field.full(unit_grid, 0.0))


class TestRobinEnergyInequality:
    def test_heated_exterior_run_converges(self):
        # the boundary trace decays back to the equilibrium temperature,
        # the exchange term dies out, and the trajectory settles into the
        # outer well; exercises the whole Robin pipeline with a nonlinear
        # latent heat
        from phaseflow import BoundarySpec, ModelSpec, builtin
        model = ModelSpec(builtin("caginalp_j"), builtin("quartic_W"),
                          builtin("tanh_lambda"))
        g = Grid((1.0,), (32,))
        x = g.axes()[0]
        bc = BoundarySpec("robin", eta=0.5,
                          theta_gamma=lambda t: 0.2 * np.exp(-2.0 * t))
        st = State.make(0.0, Field.full(g, 0.1),
                        Field(g, 0.9 + 0.05 * np.cos(np.pi * x)), model)
        cfg = TrajectoryConfig(dt=2e-3, t_end=20.0, stop_on_converged=True)
        traj = run(st, cfg, model, g, bc, zero_source())
        verdict = detect_omega_limit(traj)
        assert verdict.converged
        assert verdict.certified_residual < 1e-6
        np.testing.assert_allclose(traj.final_state.chi.values, 1.0,
                                   atol=1e-5)
        rep = check_dissipation(traj.energies, traj.g_dual, 2e-3, 1e-9)
        assert rep.passed

    def test_allowance_holds_with_boundary_exchange(self, caginalp_model):
        from phaseflow import BoundarySpec
        g = Grid((1.0,), (48,))
        bc = BoundarySpec("robin", eta=0.5,
                          theta_gamma=lambda t: 0.3 * np.exp(-2.0 * t))
        st = State.make(0.0, Field.full(g, 0.1),
                        Field(g, 0.2 * np.cos(np.pi * g.axes()[0])),
                        caginalp_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=0.5)
        traj = run(st, cfg, caginalp_model, g, bc, zero_source())
        assert np.any(traj.g_dual > 0)     # the boundary term is active
        rep = check_dissipation(traj.energies, traj.g_dual, 1e-3, 1e-9)
        assert rep.passed, rep.violations[:3]


class TestTraceCadence:
    def test_rows_follow_trace_every(self, caginalp_model, unit_grid,
                                     dirichlet_bc):
        st = cosine_state(unit_grid, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=0.1, trace_every=10)
        traj = run(st, cfg, caginalp_model, unit_grid, dirichlet_bc,
                   zero_source())
        np.testing.assert_allclose(np.diff(traj.times), 1e-2, atol=1e-12)
        # row-level backward difference approximates the phase velocity
        fine = run(st, TrajectoryConfig(dt=1e-3, t_end=0.1),
                   caginalp_model, unit_grid, dirichlet_bc, zero_source())
        coarse_chit = traj.columns["norm_chit_H"][1]
        fine_chit = fine.columns["norm_chit_H"][10]
        assert coarse_chit == pytest.approx(fine_chit, rel=0.2)


class TestEnergyTrace:
    def test_csv_roundtrip(self, caginalp_model, unit_grid, dirichlet_bc,
                           tmp_path):
        st = cosine_state(unit_grid, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=0.02)
        traj = run(st, cfg, caginalp_model, unit_grid, dirichlet_bc,
                   zero_source(), out_dir=str(tmp_path))
        trace = EnergyTrace.from_csv(tmp_path / "trace.csv")
        np.testing.assert_array_equal(trace.t, traj.times)
        np.testing.assert_array_equal(trace.energy, traj.energies)

    def test_distance_series(self, caginalp_model, unit_grid,
                             dirichlet_bc):
        st = cosine_state(unit_grid, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-3, t_end=0.02, keep_states=True)
        traj = run(st, cfg, caginalp_model, unit_grid, dirichlet_bc,
                   zero_source())
        d = chi_distance_series(traj, Field.full(unit_grid, 0.0))
        assert d.size == traj.times.size
        assert np.all(np.diff(d) <= 0)   # decaying toward zero here


class TestRunOperatorsReused:
    @pytest.mark.parametrize("bc", [BoundarySpec("dirichlet"),
                                    BoundarySpec("robin", eta=0.5)])
    def test_post_hoc_diagnostics_build_no_workspace(self, caginalp_model,
                                                     unit_grid, bc,
                                                     monkeypatch):
        st = cosine_state(unit_grid, caginalp_model)
        cfg = TrajectoryConfig(dt=1e-2, t_end=4.0, keep_states=True)
        traj = run(st, cfg, caginalp_model, unit_grid, bc, zero_source())
        builds = []
        build = OperatorWorkspace.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(args)
            build(self, *args, **kwargs)

        monkeypatch.setattr(OperatorWorkspace, "__init__", counting_init)
        chi_inf = Field.full(unit_grid, 0.0)
        # converged, so the certificate is recomputed
        assert detect_omega_limit(traj).converged
        source_report(traj)
        monitor_bounds(traj, 0.0)
        estimate_lojasiewicz_trajectory(traj, chi_inf)
        chi_distance_series(traj, chi_inf)
        stability_gap(traj, traj)
        assert builds == []
