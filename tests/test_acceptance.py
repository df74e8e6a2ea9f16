"""Acceptance suite: one test per criterion, each printing a PASS line and
pinning the stated tolerance.  Reference values come from closed forms or
from the independent oracles (dense multi-start solver, shooting profile,
exact scalar flows); nothing here is tuned to the implementation."""

import time

import numpy as np
import pytest

from phaseflow import (BoundarySpec, Field, Grid, ModelSpec, SourceSpec,
                       State, TrajectoryConfig, builtin, oracle_step, run,
                       solve_stationary, step, zero_source)
from phaseflow.diagnostics import (check_dissipation, detect_omega_limit,
                                   estimate_lojasiewicz, fit_rate,
                                   monitor_bounds, stability_gap,
                                   tail_statistic)
from phaseflow.grids import quad_weights

BC = BoundarySpec("dirichlet")


def standard_model():
    return ModelSpec(builtin("caginalp_j"), builtin("quartic_W"),
                     builtin("linear_lambda", ell=1.0))


def mixed_model():
    return ModelSpec(builtin("mixed_j", tau_c=1.0), builtin("quartic_W"),
                     builtin("linear_lambda", ell=1.0))


def cosine_initial(grid, model, amp=0.1):
    x = grid.axes()[0]
    return State.make(0.0, Field.full(grid, 0.0),
                      Field(grid, amp * np.cos(np.pi * x
                                               / grid.extents[0])), model)


def decaying_source():
    return SourceSpec(profile=lambda x: 0.1 * np.sin(np.pi * x),
                      envelope=lambda t: (1.0 + t) ** -3.0,
                      p_tag=np.inf, q_tag=2.0, delta_src=1.0)


def test_criterion_1_lyapunov_dissipation():
    model = standard_model()
    grid = Grid((1.0,), (128,))
    state = cosine_initial(grid, model)
    config = TrajectoryConfig(dt=1e-3, t_end=2.0)
    t0 = time.perf_counter()
    traj = run(state, config, model, grid, BC, zero_source())
    elapsed = time.perf_counter() - t0
    diffs = np.diff(traj.energies)
    assert diffs.size == 2000
    assert np.max(diffs) <= 1e-9
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 Lyapunov dissipation: PASS "
          f"(max dE={np.max(diffs):.3e}, {elapsed:.1f}s)")


def test_criterion_2_source_perturbed_inequality():
    model = standard_model()
    grid = Grid((1.0,), (128,))
    state = cosine_initial(grid, model)
    config = TrajectoryConfig(dt=1e-3, t_end=2.0)
    src = decaying_source()
    traj = run(state, config, model, grid, BC, src)
    report = check_dissipation(traj.energies, traj.g_dual, 1e-3, 1e-9)
    assert report.passed, report.violations[:3]
    tail = tail_statistic(traj.times, traj.g_dual, src.delta_src)
    assert np.isfinite(tail)
    print(f"\nACCEPTANCE 2 source-perturbed energy inequality: PASS "
          f"(max excess={report.max_excess:.3e}, tail sup={tail:.3e})")


def test_criterion_3_omega_limit():
    model = standard_model()
    grid = Grid((1.0,), (128,))
    state = cosine_initial(grid, model)
    # the stopping rule runs tighter than the verdict thresholds so the
    # state it stops on is deep inside the detection region
    config = TrajectoryConfig(dt=1e-3, t_end=50.0, stop_on_converged=True,
                              omega_tols=(1e-8, 1e-6, 1e-6))
    t0 = time.perf_counter()
    traj = run(state, config, model, grid, BC, zero_source())
    elapsed = time.perf_counter() - t0
    verdict = detect_omega_limit(traj)
    assert verdict.converged
    assert verdict.certified_residual < 1e-6
    assert traj.columns["dist_theta_H"][-1] < 1e-6
    steady = solve_stationary(traj.final_state.chi, model, grid)
    w = quad_weights(grid)
    dist = np.sqrt(float(np.dot(
        w, (traj.final_state.chi.flat - steady.chi.flat) ** 2)))
    assert dist < 1e-8
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 3 omega-limit convergence: PASS "
          f"(t_stop={traj.final_state.t:.2f}, residual="
          f"{verdict.certified_residual:.2e}, |chi-steady|={dist:.2e}, "
          f"{elapsed:.1f}s)")


def test_criterion_4_oracle_equivalence():
    grid = Grid((1.0,), (4,))
    config = TrajectoryConfig(dt=1e-2, t_end=1e-2, newton_tol=1e-13)
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for model in (standard_model(), mixed_model()):
        theta_lo = max(model.j.domain[0] + 0.2, -2.0)
        for k in range(20):
            state = State.make(
                0.0, Field(grid, rng.uniform(theta_lo, 1.5, 4)),
                Field(grid, rng.uniform(-1.4, 1.4, 4)), model)
            fast, _ = step(state, config, model, grid, BC, zero_source())
            ref = oracle_step(state, 1e-2, model, grid, BC, zero_source(),
                              seed=k)
            gap = max(np.max(np.abs(fast.theta.values - ref.theta.values)),
                      np.max(np.abs(fast.chi.values - ref.chi.values)))
            worst = max(worst, gap)
            assert gap < 1e-10
            if model.j.tau_c is not None:
                assert np.min(ref.theta.values) > -model.j.tau_c
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 4 oracle equivalence: PASS "
          f"(worst gap={worst:.2e} over 40 states, {elapsed:.1f}s)")


def test_criterion_5_singular_wall_preservation():
    model = mixed_model()
    grid = Grid((1.0,), (64,))
    x = grid.axes()[0]
    theta0 = -0.95 + 0.45 * (1.0 - np.cos(2 * np.pi * x))
    assert np.min(theta0 + 1.0) == pytest.approx(0.05)
    state = State.make(0.0, Field(grid, theta0),
                       Field(grid, 0.1 * np.cos(np.pi * x)), model)
    config = TrajectoryConfig(dt=1e-3, t_end=5.0, keep_states=True)
    traj = run(state, config, model, grid, BC, zero_source())
    wall_margin = min(np.min(th.values) + 1.0 for _, th, _ in traj.states)
    assert len(traj.states) == 5001
    assert wall_margin > 0.0
    assert np.max(np.diff(traj.energies)) <= 1e-9
    print(f"\nACCEPTANCE 5 singular-wall preservation: PASS "
          f"(min theta+tau_c={wall_margin:.3e} over 5000 steps)")


def test_criterion_6_convergence_orders():
    model = standard_model()
    t0 = time.perf_counter()

    def final(n, dt, t_end, length=2.0):
        grid = Grid((length,), (n,))
        state = cosine_initial(grid, model)
        config = TrajectoryConfig(dt=dt, t_end=t_end, trace_every=10 ** 9)
        return run(state, config, model, grid, BC,
                   zero_source()).final_state

    def gap(a, b, stride=1):
        return (np.max(np.abs(a.chi.values - b.chi.values[::stride]))
                + np.max(np.abs(a.theta.values - b.theta.values[::stride])))

    time_runs = [final(65, dt, 0.5) for dt in (4e-3, 2e-3, 1e-3)]
    temporal = np.log2(gap(time_runs[0], time_runs[1])
                       / gap(time_runs[1], time_runs[2]))
    space_runs = [final(n, 1e-3, 0.1) for n in (33, 65, 129)]
    spatial = np.log2(gap(space_runs[0], space_runs[1], 2)
                      / gap(space_runs[1], space_runs[2], 2))
    elapsed = time.perf_counter() - t0
    assert 0.7 <= temporal <= 1.3
    assert 1.7 <= spatial <= 2.3
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 6 convergence orders: PASS "
          f"(temporal={temporal:.2f}, spatial={spatial:.2f}, "
          f"{elapsed:.1f}s)")


def test_criterion_7_lojasiewicz_rate_pipeline():
    t0 = time.perf_counter()
    # quadratic scalar energy v^2/2, flow v' = -v: exponent 1/2
    t_quad = np.linspace(0.0, 20.0, 600)
    v = np.exp(-t_quad)
    fit_half = estimate_lojasiewicz(v ** 2 / 2.0, np.abs(v), np.abs(v),
                                    0.0, eps_loj=1.0)
    assert fit_half.zeta == pytest.approx(0.50, abs=0.03)
    # quartic scalar energy v^4, flow v' = -4 v^3: closed-form decay
    # v(t) = (1 + 8 t)^(-1/2), exponent 1/4, distance decay t^(-1/2)
    t_qrt = np.linspace(0.0, 1e4, 40000)
    v = (1.0 + 8.0 * t_qrt) ** -0.5
    fit_quarter = estimate_lojasiewicz(v ** 4, 4.0 * np.abs(v) ** 3,
                                       np.abs(v), 0.0, eps_loj=1.0)
    assert fit_quarter.zeta == pytest.approx(0.25, abs=0.03)
    rate = fit_rate(t_qrt, v, zeta=fit_quarter.zeta)
    assert rate.beta == pytest.approx(0.50, abs=0.05)
    assert rate.predicted_beta == pytest.approx(
        fit_quarter.zeta / (1.0 - 2.0 * fit_quarter.zeta), abs=1e-12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 7 exponent/rate pipeline: PASS "
          f"(zeta={fit_half.zeta:.3f}/{fit_quarter.zeta:.3f}, "
          f"beta={rate.beta:.3f}, {elapsed:.1f}s)")


def test_criterion_8_continuous_dependence(tmp_path):
    model = standard_model()
    grid = Grid((1.0,), (64,))
    x = grid.axes()[0]
    base = 0.1 * np.cos(np.pi * x)
    pert = np.cos(2 * np.pi * x)
    config = TrajectoryConfig(dt=1e-3, t_end=1.0, keep_states=True,
                              trace_every=10)

    def trajectory(delta):
        state = State.make(0.0, Field.full(grid, 0.0),
                           Field(grid, base + delta * pert), model)
        return run(state, config, model, grid, BC, zero_source())

    reference = trajectory(0.0)
    ratios = []
    for delta in (1e-4, 1e-6):
        gap = stability_gap(reference, trajectory(delta))[-1]
        assert np.isfinite(gap)
        ratios.append(gap / delta)
    spread = max(ratios) / min(ratios)
    assert spread < 2.0

    blobs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        run(State.make(0.0, Field.full(grid, 0.0), Field(grid, base),
                       model),
            config, model, grid, BC, zero_source(), out_dir=str(out))
        blobs.append((out / "trace.csv").read_bytes())
    assert blobs[0] == blobs[1]
    print(f"\nACCEPTANCE 8 continuous dependence: PASS "
          f"(gap/delta ratio spread={spread:.3f}, traces bit-identical)")


def test_criterion_9_regularity_monitors():
    model = standard_model()
    grid = Grid((1.0,), (128,))
    # the criterion-3 dynamics on a horizon long enough for unit windows
    state = cosine_initial(grid, model)
    config = TrajectoryConfig(dt=1e-3, t_end=3.5)
    traj = run(state, config, model, grid, BC, zero_source())
    report = monitor_bounds(traj, 1.0)
    assert report.finite()
    assert not report.unbounded
    # criterion-2 source with the square-integrable-derivative tag
    src = decaying_source()
    traj_src = run(cosine_initial(grid, model), config, model, grid, BC,
                   src)
    report_src = monitor_bounds(traj_src, 1.0)
    assert report_src.finite()
    assert not report_src.unbounded
    assert report_src.thetat_l2_tail is not None
    assert np.isfinite(report_src.thetat_l2_tail)
    print(f"\nACCEPTANCE 9 regularity monitors: PASS "
          f"(six norms finite, theta_t tail slot="
          f"{report_src.thetat_l2_tail:.3e})")
