"""Latent-heat secant of the stepping scheme.

Every Newton iteration couples the two equations through the divided
difference (lam(b) - lam(a)) / (b - a) of the latent heat between the old
and the new order parameter, and its derivative with respect to b.  Near
a = b the quotient is replaced by its analytic limit.
"""

import numpy as np

# Relative switching tolerance of the secant (lam(b)-lam(a))/(b-a) used in
# the stepping kernels.  The quotient of nearly equal values carries
# rounding noise of order eps/|b-a|, while the midpoint-derivative limit is
# off by |lam'''| (b-a)^2 / 24, so 1e-5 balances the two near 1e-11; late
# in a run the per-step increments shrink far below that, and a smaller
# switch would let quotient noise dominate the phase-equation residual.
SECANT_RTOL = 1e-5


def secant_arrays(lam_d1, lam_d2, a, b, lam_a, lam_b, lam_p_b):
    """Secant (lam(b)-lam(a))/(b-a) and its derivative w.r.t. b, vectorized.

    Below the switching tolerance the secant degenerates to lam'(mid) and the
    derivative to lam''(mid)/2 (the analytic limits).
    """
    d = b - a
    tol = SECANT_RTOL * (1.0 + np.abs(a) + np.abs(b))
    wide = np.abs(d) > tol
    mid = 0.5 * (a + b)
    dsafe = np.where(wide, d, 1.0)
    lhat = np.where(wide, (lam_b - lam_a) / dsafe, lam_d1(mid))
    dlhat = np.where(wide, (lam_p_b - lhat) / dsafe, 0.5 * lam_d2(mid))
    return lhat, dlhat
