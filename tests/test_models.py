import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from phaseflow import (ConvexPotential, Grid, LatentHeat, ModelSpec, builtin,
                       builtin_names, divided_difference_lambda, evaluate,
                       regularize, residual_stationary, validate_hypotheses)
from phaseflow.errors import (DomainViolation, InvalidParameter,
                              UnknownModel)
from phaseflow.models import SECANT_RTOL, secant, secant_derivative


class TestEvaluate:
    def test_caginalp_derivative_at_zero(self):
        assert evaluate(builtin("caginalp_j"), 1, 0.0) == 0.0

    def test_quartic_minimum(self):
        w = builtin("quartic_W")
        assert evaluate(w, 1, 1.0) == 0.0
        assert evaluate(w, 1, -1.0) == 0.0
        assert evaluate(w, 0, 0.0) == 0.25

    def test_penrose_fife_flux_zero_at_origin(self):
        j = builtin("penrose_fife_j", tau_c=1.0)
        assert evaluate(j, 1, 0.0) == 0.0
        assert evaluate(j, 0, 0.0) == 0.0

    def test_penrose_fife_normalized_for_other_tau(self):
        j = builtin("penrose_fife_j", tau_c=2.0)
        assert abs(evaluate(j, 0, 0.0)) < 1e-15
        assert abs(evaluate(j, 1, 0.0)) < 1e-15

    def test_domain_violation(self):
        j = builtin("mixed_j", tau_c=1.0)
        with pytest.raises(DomainViolation):
            evaluate(j, 0, -1.0)
        with pytest.raises(DomainViolation):
            evaluate(j, 1, np.array([0.0, -1.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_is_domain_violation(self, caginalp_model, bad):
        with pytest.raises(DomainViolation):
            evaluate(builtin("caginalp_j"), 1, bad)
        with pytest.raises(DomainViolation):
            evaluate(builtin("quartic_W"), 0, np.array([0.0, bad]))
        g = Grid((1.0,), (9,))
        chi = np.zeros(9)
        chi[4] = bad
        with pytest.raises(DomainViolation):
            residual_stationary(chi, caginalp_model, g)

    def test_array_evaluation(self):
        j = builtin("caginalp_j")
        r = np.linspace(-2, 2, 9)
        np.testing.assert_allclose(evaluate(j, 0, r), 0.5 * r * r)
        np.testing.assert_allclose(evaluate(j, 2, r), 1.0)

    def test_bad_order(self):
        with pytest.raises(InvalidParameter):
            evaluate(builtin("caginalp_j"), 3, 0.0)

    def test_latent_heat_any_real(self):
        lam = builtin("linear_lambda", ell=2.0)
        assert evaluate(lam, 0, 1e6) == 2e6
        assert evaluate(lam, 2, -1e6) == 0.0


class TestBuiltins:
    def test_unknown_name(self):
        with pytest.raises(UnknownModel):
            builtin("no_such_law")

    def test_bad_parameter(self):
        with pytest.raises(InvalidParameter):
            builtin("caginalp_j", frequency=3)
        with pytest.raises(InvalidParameter):
            builtin("penrose_fife_j", tau_c=-1.0)

    def test_names_catalog(self):
        assert {"caginalp_j", "penrose_fife_j", "mixed_j", "quartic_W",
                "logarithmic_W", "linear_lambda",
                "tanh_lambda"} == set(builtin_names())

    def test_quartic_constants(self):
        w = builtin("quartic_W")
        assert w.kappa == 1.0
        assert w.mu == 3.0
        assert w.core == (-2.0, 2.0)
        assert w.d1_zeros == (-1.0, 0.0, 1.0)

    def test_mixed_constants(self):
        j = builtin("mixed_j", tau_c=1.0)
        assert j.sigma == 1.0
        assert j.theta_inf == 0.0
        assert evaluate(j, 0, 0.0) == 0.0
        assert evaluate(j, 1, 0.0) == 0.0
        r = np.linspace(-0.9, 5.0, 300)
        assert np.all(evaluate(j, 2, r) >= 1.0)

    def test_logarithmic_well_minima(self):
        w = builtin("logarithmic_W")
        rstar = max(w.d1_zeros)
        assert abs(evaluate(w, 1, rstar)) < 1e-12
        assert abs(evaluate(w, 0, rstar)) < 1e-14
        vals = evaluate(w, 0, np.linspace(-0.99, 0.99, 500))
        assert np.min(vals) > -1e-12

    def test_logarithmic_well_root_matches_brentq(self):
        rstar = builtin("logarithmic_W").meta["rstar"]
        assert rstar == brentq(lambda r: np.arctanh(r) - 2.0 * r, 1e-3,
                               1.0 - 1e-12, xtol=1e-15)

    def test_logarithmic_well_unresolvable_minima(self):
        with pytest.raises(InvalidParameter):
            builtin("logarithmic_W", theta1=0.1, theta_c=2.0)


def _contract_laws():
    """Every built-in with default parameters, and the smoothing of each
    flux law and each well."""
    laws = [builtin(name) for name in builtin_names()]
    return laws + [regularize(p, 10) for p in laws
                   if not isinstance(p, LatentHeat)]


class TestLawContract:
    # the package calls laws on float64 arrays without converting inputs
    # or results, and the stepper writes into j' in place
    @pytest.mark.parametrize("law", _contract_laws(), ids=lambda p: p.name)
    @pytest.mark.parametrize("shape", [(7,), ()], ids=["vector", "point"])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_new_float_array_of_the_input_shape(self, law, shape, order):
        # inside every domain: (-1, 1) of logarithmic_W, (-1, inf) of the
        # flux laws
        x = np.linspace(-0.9, 0.9, 7) if shape else np.array(0.3)
        before = x.copy()
        out = (law.value, law.d1, law.d2)[order](x)
        assert out is not x
        assert out.shape == shape and out.dtype == np.float64
        assert np.array_equal(x, before)
        want = np.asarray(evaluate(law, order, x))
        assert out.tobytes() == want.tobytes()


class TestDividedDifference:
    def test_linear_secant(self):
        lam = builtin("linear_lambda", ell=2.0)
        assert divided_difference_lambda(lam, 0.0, 1.0) == 2.0

    def test_square_secant_is_sum(self):
        # lam(r) = r^2 via a custom tanh is awkward; use the identity on a
        # quadratic-like range of the linear law composed manually instead:
        # the secant of r -> r^2 between 1 and 3 is 4
        from phaseflow.models import LatentHeat
        sq = LatentHeat("square", lambda r: np.asarray(r) ** 2,
                        lambda r: 2.0 * np.asarray(r),
                        lambda r: 2.0 * np.ones_like(np.asarray(r)),
                        curvature_bound=2.0)
        assert divided_difference_lambda(sq, 1.0, 3.0) == 4.0

    def test_coincident_points_use_derivative(self):
        from phaseflow.models import LatentHeat
        sin = LatentHeat("sine", lambda r: np.sin(np.asarray(r)),
                         lambda r: np.cos(np.asarray(r)),
                         lambda r: -np.sin(np.asarray(r)),
                         curvature_bound=1.0)
        got = divided_difference_lambda(sin, 0.5, 0.5)
        assert got == pytest.approx(np.cos(0.5), abs=1e-15)

    def test_secant_error_decays_monotonically(self):
        from phaseflow.models import LatentHeat
        sin = LatentHeat("sine", lambda r: np.sin(np.asarray(r)),
                         lambda r: np.cos(np.asarray(r)),
                         lambda r: -np.sin(np.asarray(r)),
                         curvature_bound=1.0)
        a = 0.3
        errors = []
        for k in range(2, 9):
            b = a + 10.0 ** (-k)
            errors.append(abs(divided_difference_lambda(sin, a, b)
                              - np.cos(a)))
        assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))

    def test_secant_bounded_by_curvature(self):
        lam = builtin("tanh_lambda")
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b = rng.uniform(-3, 3, 2)
            lhat = divided_difference_lambda(lam, a, b)
            bound = lam.curvature_bound * abs(b - a) / 2.0 + 1e-9
            assert abs(lhat - float(lam.d1(np.float64(a)))) <= bound


def _secant_pair(lam_d1, lam_d2, a, b, lam_a, lam_b, lam_p_b):
    """The secant and its derivative as a step's Newton iteration that
    solves evaluates them: ``secant``, then ``secant_derivative``."""
    lhat, switch = secant(lam_d1, a, b, lam_a, lam_b)
    return lhat, secant_derivative(lam_d2, lam_p_b, lhat, switch)


class TestSecantKernel:
    def test_switch_tolerance(self):
        lam = builtin("tanh_lambda")
        a = np.array([0.5, 0.5])
        b = np.array([0.5, 0.5 + 1e-3])
        lam_a = np.asarray(lam.value(a))
        lam_b = np.asarray(lam.value(b))
        lam_p = np.asarray(lam.d1(b))
        lhat, dlhat = _secant_pair(lam.d1, lam.d2, a, b, lam_a, lam_b,
                                   lam_p)
        assert lhat[0] == pytest.approx(float(lam.d1(np.float64(0.5))))
        secant = (lam_b[1] - lam_a[1]) / 1e-3
        assert lhat[1] == pytest.approx(secant)

    def test_taylor_branch_accuracy_below_switch(self):
        # just below the switch the midpoint-derivative limit must stay
        # within third-order truncation of the true secant; the truth is
        # built from the analytic expansion, not from the (noisy) double
        # precision quotient the switch exists to avoid
        lam = builtin("tanh_lambda")
        a = np.array([0.4])
        d = 1e-6
        b = a + d
        lhat, _ = _secant_pair(
            lam.d1, lam.d2, a, b, np.asarray(lam.value(a)),
            np.asarray(lam.value(b)), np.asarray(lam.d1(b)))
        m = 0.4 + 0.5 * d
        t = np.tanh(m)
        d3 = (1.0 - t * t) * (6.0 * t * t - 2.0)   # third derivative
        truth = (1.0 - t * t) + d3 * d * d / 24.0
        assert lhat[0] == pytest.approx(truth, abs=1e-13)

    def test_chain_rule_identity(self):
        # lhat * (b - a) must reproduce lam(b) - lam(a) exactly: that is
        # the cancellation the energy estimate relies on
        lam = builtin("tanh_lambda")
        rng = np.random.default_rng(2)
        a = rng.uniform(-2, 2, 100)
        b = a + rng.uniform(-0.5, 0.5, 100)
        lam_a = np.asarray(lam.value(a))
        lam_b = np.asarray(lam.value(b))
        lhat, _ = _secant_pair(lam.d1, lam.d2, a, b, lam_a, lam_b,
                               np.asarray(lam.d1(b)))
        np.testing.assert_allclose(lhat * (b - a), lam_b - lam_a,
                                   atol=1e-15)

    def test_limits_evaluated_on_narrow_nodes_only(self):
        lam = builtin("tanh_lambda")
        points = {"d1": 0, "d2": 0}

        def counted(fn, key):
            def wrapper(r):
                points[key] += np.size(r)
                return fn(r)
            return wrapper

        rng = np.random.default_rng(3)
        a = rng.uniform(-2, 2, 50)
        b = a + rng.uniform(-0.5, 0.5, 50)
        b[::10] = a[::10]                      # coincident
        b[5::10] = a[5::10] + 1e-7             # below the switch
        narrow = np.abs(b - a) <= SECANT_RTOL * (1 + np.abs(a) + np.abs(b))
        assert np.count_nonzero(narrow) == 10
        lam_a, lam_b = np.asarray(lam.value(a)), np.asarray(lam.value(b))
        lam_p = np.asarray(lam.d1(b))
        lhat, dlhat = _secant_pair(counted(lam.d1, "d1"),
                                   counted(lam.d2, "d2"), a, b, lam_a,
                                   lam_b, lam_p)
        assert points == {"d1": 10, "d2": 10}
        # the same arrays as the limits evaluated everywhere and selected
        mid = 0.5 * (a + b)
        dsafe = np.where(narrow, 1.0, b - a)
        ref_lhat = np.where(narrow, lam.d1(mid), (lam_b - lam_a) / dsafe)
        ref_dlhat = np.where(narrow, 0.5 * lam.d2(mid),
                             (lam_p - ref_lhat) / dsafe)
        assert np.array_equal(lhat, ref_lhat)
        assert np.array_equal(dlhat, ref_dlhat)
        # no narrow node: no evaluation at all
        _secant_pair(counted(lam.d1, "d1"), counted(lam.d2, "d2"),
                     a[1:5], b[1:5], lam_a[1:5], lam_b[1:5], lam_p[1:5])
        assert points == {"d1": 10, "d2": 10}

class TestValidateHypotheses:
    def test_caginalp_spec_passes(self, caginalp_model):
        report = validate_hypotheses(caginalp_model)
        assert report.passed
        assert not report.suggestions

    def test_pure_penrose_fife_fails_convexity(self):
        spec = ModelSpec(builtin("penrose_fife_j", tau_c=1.0, sigma=0.5),
                         builtin("quartic_W"), builtin("linear_lambda"))
        report = validate_hypotheses(spec)
        check = report.check("flux_strict_convexity")
        assert not check.passed
        assert check.worst_point > 10.0  # witness at large temperature
        assert any("mixed_j" in s for s in report.suggestions)
        assert not report.passed

    def test_mixed_law_passes(self, mixed_model):
        report = validate_hypotheses(mixed_model)
        assert report.passed
        assert report.check("flux_strict_convexity").passed

    def test_deterministic(self, mixed_model):
        a = validate_hypotheses(mixed_model).as_dict()
        b = validate_hypotheses(mixed_model).as_dict()
        assert a == b

    def test_sample_count_precondition(self, caginalp_model):
        with pytest.raises(InvalidParameter):
            validate_hypotheses(caginalp_model, sample_count=50)

    def test_builtin_flux_laws_sampled_invariants(self):
        for j in (builtin("caginalp_j"), builtin("mixed_j", tau_c=1.0)):
            lo = max(j.domain[0], j.theta_inf - 50.0)
            hi = min(j.domain[1], j.theta_inf + 50.0)
            span = hi - lo
            r = np.linspace(lo + 1e-6 * span, hi - 1e-6 * span, 1000)
            assert np.all(evaluate(j, 0, r) >= 0.0)
            assert np.all(evaluate(j, 2, r) >= j.sigma - 1e-12)
            assert abs(evaluate(j, 0, j.theta_inf)) <= 1e-14


def scalar_envelope(potential, c, rho, r, order):
    """Reference: one point of env_rho[f + c Id^2/2] - c Id^2/2 by a scalar
    loop in Python floats.  The prox is clamped at a finite wall 1e-13
    inside, bracketed by doubling towards an infinite one, then bisected to
    a relative width of 1e-15."""
    lo, hi = potential.domain

    def psi(s):
        return s + rho * (float(potential.d1(np.float64(s))) + c * s) - r

    def prox():
        if np.isfinite(lo):
            a = lo + 1e-13 * (1.0 + abs(lo))
            if psi(a) >= 0.0:
                return a
        else:
            a, step = min(r, 0.0) - 1.0, 1.0
            while psi(a) > 0.0:
                step *= 2.0
                a -= step
        if np.isfinite(hi):
            b = hi - 1e-13 * (1.0 + abs(hi))
            if psi(b) <= 0.0:
                return b
        else:
            b, step = max(r, 0.0) + 1.0, 1.0
            while psi(b) < 0.0:
                step *= 2.0
                b += step
        for _ in range(90):
            m = 0.5 * (a + b)
            a, b = (m, b) if psi(m) < 0.0 else (a, m)
            if b - a <= 1e-15 * (1.0 + abs(a) + abs(b)):
                break
        return 0.5 * (a + b)

    s = prox()
    if order == 0:
        return (float(potential.value(np.float64(s))) + 0.5 * c * s * s
                + (s - r) ** 2 / (2.0 * rho) - 0.5 * c * r * r)
    at_wall = ((np.isfinite(lo) and s - lo <= 2e-13 * (1.0 + abs(lo)))
               or (np.isfinite(hi) and hi - s <= 2e-13 * (1.0 + abs(hi))))
    f2 = float(potential.d2(np.float64(s))) + c
    if order == 1:
        # g'(s) where rho g''(s) <= 1, for g = f + c Id^2/2, else (r - s)/rho
        if rho * f2 <= 1.0 and not at_wall:
            return float(potential.d1(np.float64(s))) + c * s - c * r
        return (r - s) / rho - c * r
    if at_wall:
        return 1.0 / rho - c
    return f2 / (1.0 + rho * f2) - c


class TestRegularize:
    @pytest.mark.parametrize("name, n", [("caginalp_j", 1), ("quartic_W", 10),
                                         ("logarithmic_W", 5),
                                         ("penrose_fife_j", 3),
                                         ("mixed_j", 10)])
    def test_matches_scalar_reference(self, name, n):
        # the arithmetic is the loop's; only numpy's array kernels may
        # round differently, within 4 ulp
        p = builtin(name)
        c = p.kappa if name.endswith("_W") else -0.5 * p.sigma
        pn = regularize(p, n)
        r = np.linspace(-3.0, 3.0, 121)
        for order in (0, 1, 2):
            want = np.array([scalar_envelope(p, c, 1.0 / n, x, order)
                             for x in r])
            got = evaluate(pn, order, r)
            ulp = np.spacing(np.maximum(np.abs(want), np.abs(got)))
            assert np.all(np.abs(got - want) <= 4 * ulp), order

    def test_derivative_at_a_clamped_wall(self):
        # a wall where f' stays bounded clamps the prox; there the envelope
        # is a quadratic in r, whose slope g'(s) does not give
        j = ConvexPotential("walled_quadratic", (-1.0, np.inf),
                            lambda r: 0.5 * r * r, lambda r: r.copy(),
                            np.ones_like, sigma=1.0, theta_inf=0.0)
        jn = regularize(j, 2)
        r, h = np.array([-5.0, -3.0, -1.2, 1.0]), 1e-6
        slope = (evaluate(jn, 0, r + h) - evaluate(jn, 0, r - h)) / (2 * h)
        np.testing.assert_allclose(evaluate(jn, 1, r), slope, rtol=1e-8)

    def test_quadratic_closed_form(self):
        # keeping sigma/4 r^2 explicit and smoothing the rest of r^2/2 with
        # parameter 1 turns the remainder r^2/4 into r^2/6
        j1 = regularize(builtin("caginalp_j"), 1)
        r = np.linspace(-3, 3, 25)
        np.testing.assert_allclose(evaluate(j1, 0, r),
                                   r * r * (0.25 + 1.0 / 6.0), atol=1e-12)

    def test_matches_bruteforce_envelope(self):
        j = builtin("mixed_j", tau_c=1.0)
        n = 4
        rho = 1.0 / n
        jn = regularize(j, n)
        sig = j.sigma

        def envelope_brute(r):
            def objective(s):
                phi = float(evaluate(j, 0, s)) - 0.25 * sig * s * s
                return phi + (s - r) ** 2 / (2 * rho)
            res = minimize_scalar(objective, bounds=(-1.0 + 1e-9, 30.0),
                                  method="bounded",
                                  options={"xatol": 1e-12})
            return 0.25 * sig * r * r + res.fun

        for r in (-2.0, -0.5, 0.0, 0.7, 3.0):
            assert evaluate(jn, 0, r) == pytest.approx(envelope_brute(r),
                                                       abs=1e-8)

    @pytest.mark.parametrize("n", [1, 10, 100])
    def test_smoothed_flux_keeps_half_modulus(self, n):
        jn = regularize(builtin("mixed_j", tau_c=1.0), n)
        r = np.linspace(-5, 5, 201)
        assert np.all(evaluate(jn, 2, r) >= 0.5 - 1e-10)
        assert jn.sigma == 0.5

    def test_pointwise_convergence_rate(self):
        j = builtin("caginalp_j")
        r = np.linspace(-3, 3, 41)
        previous = None
        for n in (1, 10, 100):
            jn = regularize(j, n)
            err = np.max(np.abs(evaluate(jn, 0, r) - evaluate(j, 0, r)))
            assert err <= 10.0 / n
            if previous is not None:
                assert err < previous
            previous = err

    def test_smoothed_well_semiconvex_and_below(self):
        w = builtin("quartic_W")
        wn = regularize(w, 10)
        r = np.linspace(-1.5, 1.5, 101)
        assert np.all(evaluate(wn, 2, r) >= -w.kappa - 1e-10)
        assert np.max(np.abs(evaluate(wn, 0, r) - evaluate(w, 0, r))) \
            <= 10.0 / 10
        assert wn.mu == pytest.approx(0.5 * w.mu)

    def test_finite_outside_original_domain(self):
        wl = regularize(builtin("logarithmic_W"), 5)
        assert np.isfinite(evaluate(wl, 0, 3.0))
        assert np.isfinite(evaluate(wl, 0, -10.0))
        jn = regularize(builtin("mixed_j", tau_c=1.0), 5)
        assert np.isfinite(evaluate(jn, 0, -2.0))

    @pytest.mark.parametrize("n", [1, 10])
    @pytest.mark.parametrize("name", ["caginalp_j", "quartic_W",
                                      "logarithmic_W", "penrose_fife_j",
                                      "mixed_j"])
    def test_array_equals_pointwise(self, name, n):
        # every entry of an array gets the bisection a lone scalar gets
        p = regularize(builtin(name), n)
        r = np.linspace(-3.0, 3.0, 61)
        for order in (0, 1, 2):
            each = np.array([evaluate(p, order, float(x)) for x in r])
            np.testing.assert_array_equal(evaluate(p, order, r), each)

    @pytest.mark.parametrize("r", [-10.0, -3.0, 3.0, 10.0])
    def test_log_well_near_and_past_walls(self, r):
        # at |r| = 10 the prox clamps at the wall gap 1e-13; at |r| = 3 it
        # lies 5.5e-10 off the wall.  The brute force searches the gap
        # e^-u on a log scale, s = sign(r) (1 - e^-u).
        w = builtin("logarithmic_W")
        rho = 1.0 / 5
        wn = regularize(w, 5)

        def objective(u):
            s = np.sign(r) * -np.expm1(-u)
            return (float(evaluate(w, 0, s)) + 0.5 * w.kappa * s * s
                    + (s - r) ** 2 / (2 * rho))

        res = minimize_scalar(objective, bounds=(0.0, 36.0),
                              method="bounded", options={"xatol": 1e-12})
        brute = res.fun - 0.5 * w.kappa * r * r
        assert evaluate(wn, 0, r) == pytest.approx(brute, abs=1e-8)

    @pytest.mark.parametrize("r", [-1.5, -3.0, -10.0])
    def test_penrose_fife_left_of_wall(self, r):
        j = builtin("penrose_fife_j", tau_c=1.0)
        rho = 1.0 / 5
        jn = regularize(j, 5)
        sig = j.sigma

        def objective(s):
            return (float(evaluate(j, 0, s)) - 0.25 * sig * s * s
                    + (s - r) ** 2 / (2 * rho))

        res = minimize_scalar(objective, bounds=(-1.0 + 1e-9, 30.0),
                              method="bounded", options={"xatol": 1e-12})
        brute = 0.25 * sig * r * r + res.fun
        assert evaluate(jn, 0, r) == pytest.approx(brute, abs=1e-8)

    def test_smoothing_metadata(self):
        jn = regularize(builtin("caginalp_j"), 7)
        assert jn.meta["n"] == 7
        assert jn.meta["rho"] == pytest.approx(1.0 / 7.0)
        assert jn.meta["threshold_index"] == 1

    def test_bad_index(self):
        with pytest.raises(InvalidParameter):
            regularize(builtin("caginalp_j"), 0)
        with pytest.raises(InvalidParameter):
            regularize(builtin("caginalp_j"), 1.5)

    def test_smoothed_well_coercivity_becomes_warning(self):
        wl = regularize(builtin("quartic_W"), 2)
        spec = ModelSpec(builtin("caginalp_j"), wl,
                         builtin("linear_lambda"))
        report = validate_hypotheses(spec)
        check = report.check("well_outer_coercivity")
        assert check.severity == "warning"
        # a warning never blocks the overall verdict
        assert report.passed or not check.passed
