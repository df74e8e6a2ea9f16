"""The latent-heat secant of the stepping scheme."""

import numpy as np
import pytest

from phaseflow import builtin
from phaseflow import kernels


class TestSecantKernel:
    def test_switch_tolerance(self):
        lam = builtin("tanh_lambda")
        a = np.array([0.5, 0.5])
        b = np.array([0.5, 0.5 + 1e-3])
        lam_a = np.asarray(lam.value(a))
        lam_b = np.asarray(lam.value(b))
        lam_p = np.asarray(lam.d1(b))
        lhat, dlhat = kernels.secant_arrays(lam.d1, lam.d2, a, b, lam_a,
                                            lam_b, lam_p)
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
        lhat, _ = kernels.secant_arrays(
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
        lhat, _ = kernels.secant_arrays(lam.d1, lam.d2, a, b, lam_a, lam_b,
                                        np.asarray(lam.d1(b)))
        np.testing.assert_allclose(lhat * (b - a), lam_b - lam_a,
                                   atol=1e-15)
