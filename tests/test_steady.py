import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from phaseflow import (Field, Grid, ModelSpec, builtin, check_range,
                       residual_stationary, solve_catalog, solve_stationary)
from phaseflow import models, steady
from phaseflow.errors import (DegenerateJacobian, DomainExhausted,
                              DomainViolation)
from phaseflow.models import NonconvexPotential
from phaseflow.steady import default_confinement


def shooting_profile(length, x, start_lo=-0.9999999, start_hi=-0.9):
    """Independent reference for the 1D layer solution: integrate the
    stationary ODE from a flux-free left end and shoot on the start value
    until the right end is flux-free too (quartic well)."""

    def integrate_from(s):
        return solve_ivp(lambda t, y: [y[1], y[0] ** 3 - y[0]],
                         (0.0, length), [s, 0.0], rtol=1e-12, atol=1e-14,
                         dense_output=True)

    s0 = brentq(lambda s: integrate_from(s).y[1, -1], start_lo, start_hi,
                xtol=1e-15)
    return integrate_from(s0).sol(x)[0]


class TestConstantRoots:
    @pytest.mark.parametrize("root", [-1.0, 0.0, 1.0])
    def test_exact_fixed_points(self, caginalp_model, root):
        g = Grid((1.0,), (33,))
        st = solve_stationary(Field.full(g, root), caginalp_model, g)
        assert st.residual < 1e-12
        assert st.is_constant
        np.testing.assert_allclose(st.chi.values, root, atol=1e-12)

    def test_zero_root_energy(self, caginalp_model):
        g = Grid((1.0,), (33,))
        st = solve_stationary(Field.full(g, 0.0), caginalp_model, g)
        assert st.energy == pytest.approx(0.25)

    def test_idempotence(self, caginalp_model):
        g = Grid((10.0,), (128,))
        x = g.axes()[0]
        first = solve_stationary(Field(g, np.tanh(x - 5.0)),
                                 caginalp_model, g)
        second = solve_stationary(first.chi, caginalp_model, g)
        assert np.max(np.abs(second.chi.values - first.chi.values)) < 1e-12


class TestResidual:
    def test_constant_root_is_zero(self, caginalp_model):
        g = Grid((1.0,), (33,))
        assert residual_stationary(Field.full(g, 1.0), caginalp_model,
                                   g) < 1e-14

    def test_constant_half_hand_value(self, caginalp_model):
        g = Grid((10.0,), (64,))
        got = residual_stationary(Field.full(g, 0.5), caginalp_model, g)
        assert got == pytest.approx(0.375 * np.sqrt(10.0), rel=1e-12)

    def test_solver_output_meets_tolerance(self, caginalp_model):
        g = Grid((10.0,), (128,))
        x = g.axes()[0]
        st = solve_stationary(Field(g, np.tanh(x - 5.0)), caginalp_model,
                              g, tol=1e-10)
        assert residual_stationary(st.chi, caginalp_model, g) <= 1e-10

    def test_domain_violation(self, caginalp_model):
        g = Grid((1.0,), (9,))
        model = ModelSpec(builtin("caginalp_j"), builtin("logarithmic_W"),
                          builtin("linear_lambda"))
        with pytest.raises(DomainViolation):
            residual_stationary(Field.full(g, 2.0), model, g)


class TestLayerSolutions:
    def test_matches_shooting_oracle(self, caginalp_model):
        g = Grid((10.0,), (256,))
        x = g.axes()[0]
        layer = solve_stationary(Field(g, np.tanh(x - 5.0)),
                                 caginalp_model, g, tol=1e-10)
        reference = shooting_profile(10.0, x)
        assert layer.residual < 1e-10
        assert not layer.is_constant
        assert np.max(np.abs(layer.chi.values - reference)) < 5e-4

    def test_range_confined(self, caginalp_model):
        g = Grid((10.0,), (256,))
        x = g.axes()[0]
        layer = solve_stationary(Field(g, np.tanh(x - 5.0)),
                                 caginalp_model, g)
        report = check_range(layer, (-1.01, 1.01))
        assert report.inside

    def test_short_domain_has_no_layer(self, caginalp_model):
        # below the bifurcation length the layer guess falls back to a
        # constant solution
        g = Grid((1.0,), (65,))
        x = g.axes()[0]
        st = solve_stationary(Field(g, np.tanh((x - 0.5) * 4)),
                              caginalp_model, g)
        assert st.is_constant

    def test_catalog_grows_with_length(self, caginalp_model, tmp_path):
        def catalog(length):
            g = Grid((length,), (129,))
            x = g.axes()[0]
            guesses = [Field.full(g, v) for v in (-1.0, 0.0, 1.0)]
            guesses.append(Field(g, np.tanh(x - length / 2.0)))
            return solve_catalog(guesses, caginalp_model, g)

        assert len(catalog(1.0)) == 3           # constants only
        assert len(catalog(10.0)) == 4          # plus one layer

    def test_catalog_files(self, caginalp_model, tmp_path):
        g = Grid((1.0,), (33,))
        guesses = [Field.full(g, v) for v in (-1.0, 0.0, 1.0)]
        found = solve_catalog(guesses, caginalp_model, g,
                              out_dir=str(tmp_path))
        assert len(found) == 3
        csv = (tmp_path / "steady_catalog.csv").read_text().splitlines()
        assert csv[0] == "index,residual,energy,min,max,constant_flag"
        assert len(csv) == 4
        assert all((tmp_path / f"steady_{k}.pfld").exists()
                   for k in range(3))
        assert csv[2].endswith(",1")  # constants flagged


class TestRangeCheck:
    def test_inside(self, caginalp_model):
        g = Grid((1.0,), (17,))
        st = solve_stationary(Field.full(g, 1.0), caginalp_model, g)
        assert check_range(st, (-1.2, 1.2)).inside

    def test_offender_reported(self, caginalp_model):
        g = Grid((1.0,), (17,))
        st = solve_stationary(Field.full(g, 1.0), caginalp_model, g)
        report = check_range(st, (-0.5, 0.5))
        assert not report.inside
        assert report.worst_offender == pytest.approx(1.0)
        assert report.worst_distance == pytest.approx(0.5)

    def test_default_confinement_inflates_hull(self, caginalp_model):
        lo, hi = default_confinement(caginalp_model)
        assert (lo, hi) == pytest.approx((-1.01, 1.01))


class TestDegenerateJacobian:
    def test_flat_well_is_surfaced(self, caginalp_model):
        # W(r) = r has W'' = 0, so the linearization equals the Neumann
        # operator, which is exactly singular (constants); the solver must
        # report the degeneracy instead of silently regularizing it
        flat = NonconvexPotential(
            "tilted_plane", (-np.inf, np.inf), (-1.0, 1.0),
            lambda r: np.abs(np.asarray(r)) + 1.0,
            lambda r: np.ones_like(np.asarray(r)),
            lambda r: np.zeros_like(np.asarray(r)),
            kappa=1.0, mu=1.0)
        model = ModelSpec(caginalp_model.j, flat, caginalp_model.lam)
        g = Grid((1.0,), (17,))
        with pytest.raises(DegenerateJacobian):
            solve_stationary(Field.full(g, 0.1), model, g)

    @staticmethod
    def _layer_guess(nodes):
        g = Grid((10.0,), (nodes,))
        x = g.axes()[0]
        return g, Field(g, np.tanh((x - 5) / np.sqrt(2))
                        + 0.05 * np.cos(np.pi * x / 10))

    def test_fine_grid_layer_converges(self, caginalp_model):
        # the solve's residual grows with the node count while its
        # backward error stays at round-off: only a bound on the latter
        # lets this grid through
        g, guess = self._layer_guess(65537)
        st = solve_stationary(guess, caginalp_model, g, tol=1e-8)
        assert st.residual <= 1e-8 and st.newton_iters == 4

    def test_poisoned_factor_is_surfaced(self, caginalp_model,
                                         monkeypatch):
        # a factor whose solve is off by a relative 1e-8 is caught
        g, guess = self._layer_guess(129)
        real = steady.splu

        class Poisoned:
            def __init__(self, K):
                self.lu = real(K)
                self.L, self.U = self.lu.L, self.lu.U

            def solve(self, b):
                return self.lu.solve(b) * (1 + 1e-8)

        monkeypatch.setattr(steady, "splu", Poisoned)
        with pytest.raises(DegenerateJacobian, match="numerically singular"):
            solve_stationary(guess, caginalp_model, g, tol=1e-8)


class TestDamping:
    @pytest.fixture
    def log_model(self, caginalp_model):
        return ModelSpec(caginalp_model.j,
                         builtin("logarithmic_W", theta1=1.0, theta_c=2.0),
                         caginalp_model.lam)

    def test_converges_with_halvings(self, log_model):
        # the first Newton update from 0.70 overshoots the wall at -1
        g = Grid((1.0,), (9,))
        st = solve_stationary(Field.full(g, 0.70), log_model, g)
        assert st.newton_iters == 9 and st.residual <= 1e-10

    def test_exhausted_damping_raises_and_catalog_skips(self, log_model,
                                                        monkeypatch):
        g = Grid((1.0,), (9,))
        monkeypatch.setattr(models, "MAX_HALVINGS", 0)
        with pytest.raises(DomainExhausted, match="stationary solve"):
            solve_stationary(Field.full(g, 0.70), log_model, g)
        found = solve_catalog([Field.full(g, 0.70), Field.full(g, 0.0)],
                              log_model, g)
        assert len(found) == 1
        np.testing.assert_array_equal(found[0].chi.values, 0.0)
