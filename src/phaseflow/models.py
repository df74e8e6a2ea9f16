"""Constitutive model library: heat-flux laws j, configuration potentials W,
latent heats lam and their secant, structural-hypothesis validation, and
Moreau smoothing.

A model is the triple (j, W, lam).  j is uniformly convex with its minimum
normalized to zero at the equilibrium temperature; W is a possibly singular
double well, nonconvex at most up to a quadratic (W'' >= -kappa); lam has
bounded curvature.  Every law is a value/first/second derivative triple of
vectorized callables; the built-ins are numpy closures, and custom callables
are handled the same way.

Built-in catalog (parameters):

  caginalp_j                    j(r) = r^2/2
  penrose_fife_j(tau_c)         j(r) = -log(r+tau_c) + log(tau_c) + r/tau_c
  mixed_j(tau_c)                j(r) = r^2/2 - log(r+tau_c) + log(tau_c)
                                       + r/tau_c
  quartic_W                     W(r) = (r^2-1)^2/4
  logarithmic_W(theta1, theta_c)
                                W(r) = (theta1/2)[(1+r)log(1+r)
                                       + (1-r)log(1-r)] - (theta_c/2)r^2 + c0
  linear_lambda(ell)            lam(r) = ell*r
  tanh_lambda(scale, width)     lam(r) = scale*tanh(r/width)

The Penrose-Fife law carries the additive constant log(tau_c) so that its
minimum value is 0 (every flux law here is normalized to vanish at its
equilibrium temperature); for tau_c = 1 this reduces to the classical
expression.  The constant c0 of the logarithmic well puts its minima at 0.

All constants of the built-ins are derived from the closed forms and recorded
where they are defined; none are fitted.
"""

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (DomainExhausted, DomainViolation, InvalidParameter,
                     UnknownModel)

_INF = float("inf")

#: cap on the measured ratio |j''| / (1 + |j'|^alpha) for the growth check
GROWTH_RATIO_CAP = 1e6

#: distance by which damped Newton iterates are kept off the domain walls
DOMAIN_MARGIN = 1e-8

#: step halvings of the fraction-to-the-boundary damping before a Newton
#: iterate counts as stuck at a domain wall
MAX_HALVINGS = 30


@dataclass(frozen=True)
class ConvexPotential:
    """Heat-flux law j: convex, nonnegative, minimum 0 at theta_inf."""

    name: str
    domain: tuple  # open interval J
    value: Callable
    d1: Callable
    d2: Callable
    sigma: float                 # convexity modulus, j'' >= sigma claimed
    theta_inf: float             # j'(theta_inf) = 0
    alpha: Optional[float] = None  # growth exponent for |j''| <= c(1+|j'|^a)
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class NonconvexPotential:
    """Configuration potential W: nonnegative, W'' >= -kappa, coercive tails."""

    name: str
    domain: tuple   # open interval I containing 0
    core: tuple     # open bounded I0, closure inside I, containing 0
    value: Callable
    d1: Callable
    d2: Callable
    kappa: float    # semiconvexity constant
    mu: float       # outer coercivity: W'(r)/r >= mu outside the core
    d1_zeros: Optional[tuple] = None  # known critical points, for range checks
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class LatentHeat:
    """Latent heat lam with |lam''| bounded by curvature_bound."""

    name: str
    value: Callable
    d1: Callable
    d2: Callable
    curvature_bound: float
    domain: tuple = (-_INF, _INF)


@dataclass(frozen=True)
class ModelSpec:
    """The full model (j, W, lam); both relaxation constants of the system
    are 1.  The flux law's equilibrium temperature ``j.theta_inf`` is also
    the Dirichlet boundary value and the default Robin exterior temperature
    (see grids.BoundarySpec)."""

    j: ConvexPotential
    w: NonconvexPotential
    lam: LatentHeat


def inside(potential, arr, margin=0.0):
    """True iff every entry of ``arr`` lies in the open domain of the
    potential shrunk by ``margin``; NaN and +-inf are never inside."""
    lo, hi = potential.domain
    if lo == -_INF and hi == _INF:
        return bool(np.isfinite(arr).all())
    return bool((arr > lo + margin).all() and (arr < hi - margin).all())


def damped_update(x, dx, admissible, what):
    """Fraction-to-the-boundary damping of the Newton update x + dx: the
    first x + dx / 2^k, k = 0 ... MAX_HALVINGS, that ``admissible``
    accepts, returned with k.  Raises DomainExhausted with the message
    ``what`` when none is admissible."""
    for k in range(MAX_HALVINGS + 1):
        trial = x + 0.5 ** k * dx
        if admissible(trial):
            return trial, k
    raise DomainExhausted(what)


def evaluate(potential, order, r):
    """Uniform accessor for a potential and its first two derivatives.

    order 0/1/2 selects value / first / second derivative.  Scalar input
    returns a float; array input returns an array.  Raises DomainViolation
    if any point is outside the open domain.
    """
    if order not in (0, 1, 2):
        raise InvalidParameter(f"order must be 0, 1 or 2, got {order}")
    arr = np.asarray(r, dtype=float)
    if not inside(potential, arr):
        lo, hi = potential.domain
        bad = arr[~((arr > lo) & (arr < hi))].flat[0]
        raise DomainViolation(
            f"{potential.name}: argument {bad} outside open domain "
            f"({lo}, {hi})")
    fn = (potential.value, potential.d1, potential.d2)[order]
    out = fn(arr)
    return float(out) if np.isscalar(r) or np.ndim(r) == 0 else out


#: switching tolerance of the public divided difference (its documented
#: contract); the stepper uses the coarser, noise-balanced SECANT_RTOL
#: of secant instead
DIVIDED_DIFFERENCE_RTOL = 1e-12


def divided_difference_lambda(lam, a, b):
    """Exact secant (lam(b) - lam(a)) / (b - a) with the analytic limit.

    Below the relative switching tolerance the secant is replaced by
    lam'((a+b)/2).  Multiplied by (b - a) the secant reproduces
    lam(b) - lam(a) identically, which is what makes the discrete energy
    cross terms of the coupled stepper cancel.
    """
    a = float(a)
    b = float(b)
    if abs(b - a) > DIVIDED_DIFFERENCE_RTOL * (1.0 + abs(a) + abs(b)):
        return (float(lam.value(np.float64(b)))
                - float(lam.value(np.float64(a)))) / (b - a)
    return float(lam.d1(np.float64(0.5 * (a + b))))


# Relative switching tolerance of the secant (lam(b)-lam(a))/(b-a) used in
# the stepping kernels.  The quotient of nearly equal values carries
# rounding noise of order eps/|b-a|, while the midpoint-derivative limit is
# off by |lam'''| (b-a)^2 / 24, so 1e-5 balances the two near 1e-11; late
# in a run the per-step increments shrink far below that, and a smaller
# switch would let quotient noise dominate the phase-equation residual.
SECANT_RTOL = 1e-5


def secant(lam_d1, a, b, lam_a, lam_b):
    """Secant (lam(b)-lam(a))/(b-a), vectorized, with its switch: the
    divisor ``dsafe`` (b - a, or 1 below the switching tolerance), the
    switched nodes ``narrow`` and their midpoints, which
    ``secant_derivative`` reuses.

    Below the switching tolerance the secant degenerates to lam'(mid), the
    analytic limit; lam' is evaluated on those nodes only.
    """
    d = b - a
    tol = SECANT_RTOL * (1.0 + np.abs(a) + np.abs(b))
    wide = np.abs(d) > tol
    dsafe = np.where(wide, d, 1.0)
    lhat = (lam_b - lam_a) / dsafe
    narrow = np.flatnonzero(~wide)
    mid = None
    if narrow.size:
        mid = 0.5 * (a[narrow] + b[narrow])
        lhat[narrow] = lam_d1(mid)
    return lhat, (dsafe, narrow, mid)


def secant_derivative(lam_d2, lam_p_b, lhat, switch):
    """Derivative w.r.t. b of the secant ``lhat`` with its ``switch`` from
    ``secant``, given lam_p_b = lam'(b): (lam'(b) - lhat)/(b - a), and on the
    switched nodes lam''(mid)/2, the analytic limit, with lam'' evaluated
    on those nodes only."""
    dsafe, narrow, mid = switch
    dlhat = (lam_p_b - lhat) / dsafe
    if narrow.size:
        dlhat[narrow] = 0.5 * lam_d2(mid)
    return dlhat


# ----------------------------------------------------------------------
# hypothesis validation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    passed: bool
    worst_point: Optional[float]
    worst_value: Optional[float]
    threshold: Optional[float]
    severity: str = "required"   # or "warning"
    note: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple
    suggestions: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks if c.severity == "required")

    def check(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def as_dict(self):
        return {"passed": self.passed,
                "checks": [asdict(c) for c in self.checks],
                "suggestions": list(self.suggestions)}

    def summary(self):
        lines = []
        for c in self.checks:
            tag = "pass" if c.passed else (
                "WARN" if c.severity == "warning" else "FAIL")
            where = "" if c.worst_point is None else (
                f"  worst at r={c.worst_point:.6g} "
                f"(value {c.worst_value:.6g}, threshold {c.threshold:.6g})")
            lines.append(f"[{tag}] {c.name}{where}")
        lines.extend(f"suggestion: {s}" for s in self.suggestions)
        return "\n".join(lines)


def _sample_interval(lo, hi, open_lo, open_hi, count):
    """Deterministic uniform grid, inset away from open endpoints."""
    span = hi - lo
    inset = 1e-6 * span
    a = lo + inset if open_lo else lo
    b = hi - inset if open_hi else hi
    return np.linspace(a, b, count)


def _truncated_domain(domain, center, half_width=50.0):
    lo, hi = domain
    tlo = max(lo, center - half_width)
    thi = min(hi, center + half_width)
    return tlo, thi, tlo == lo, thi == hi  # whether the open wall was hit


def validate_hypotheses(spec, sample_count=1000):
    """Sample every structural hypothesis of the model on deterministic grids.

    The hypotheses are stated almost everywhere; here they are checked on
    uniform grids of at least ``sample_count`` points over the domains
    truncated to a +-50 window around the relevant center.  Failures are
    reported as data with the worst witness point, never raised.
    """
    if sample_count < 100:
        raise InvalidParameter("sample_count must be at least 100")
    checks = []
    suggestions = []

    j, w, lam = spec.j, spec.w, spec.lam

    # heat-flux law: strict uniform convexity
    tlo, thi, olo, ohi = _truncated_domain(j.domain, j.theta_inf)
    rj = _sample_interval(tlo, thi, olo, ohi, sample_count)
    jpp = evaluate(j, 2, rj)
    i = int(np.argmin(jpp))
    checks.append(HypothesisCheck(
        "flux_strict_convexity", bool(jpp[i] >= j.sigma - 1e-12),
        float(rj[i]), float(jpp[i]), j.sigma,
        note="second derivative of the heat-flux law against its declared "
             "convexity modulus"))
    if not checks[-1].passed and "penrose_fife" in j.name:
        suggestions.append(
            f"heat-flux law '{j.name}' loses uniform convexity at large "
            "temperatures (its second derivative decays to zero); combine "
            "it with the quadratic law, i.e. use the built-in 'mixed_j'")

    # heat-flux law: nonnegative with minimum value 0 at theta_inf
    jv = evaluate(j, 0, rj)
    i = int(np.argmin(jv))
    j_at_min = abs(evaluate(j, 0, j.theta_inf))
    jp_at_min = abs(evaluate(j, 1, j.theta_inf))
    ok = jv[i] >= -1e-12 and j_at_min <= 1e-14 and jp_at_min <= 1e-12
    checks.append(HypothesisCheck(
        "flux_minimum_normalized", bool(ok), float(rj[i]), float(jv[i]), 0.0,
        note=f"j >= 0, j(theta_inf)={j_at_min:.3e}, "
             f"|j'(theta_inf)|={jp_at_min:.3e}"))

    # optional growth condition on j'' against powers of j'
    if j.alpha is not None:
        ratio = np.abs(jpp) / (1.0 + np.abs(evaluate(j, 1, rj)) ** j.alpha)
        i = int(np.argmax(ratio))
        checks.append(HypothesisCheck(
            "flux_growth_ratio", bool(ratio[i] <= GROWTH_RATIO_CAP),
            float(rj[i]), float(ratio[i]), GROWTH_RATIO_CAP,
            note=f"measured constant of |j''| <= c (1 + |j'|^{j.alpha}); "
                 "the cap is a sanity bound, the constant itself is data"))

    # configuration potential: nonnegative, semiconvex
    tlo, thi, olo, ohi = _truncated_domain(w.domain, 0.0)
    rw = _sample_interval(tlo, thi, olo, ohi, sample_count)
    wv = evaluate(w, 0, rw)
    wpp = evaluate(w, 2, rw)
    i = int(np.argmin(wv))
    k = int(np.argmin(wpp))
    checks.append(HypothesisCheck(
        "well_nonnegative", bool(wv[i] >= -1e-12), float(rw[i]),
        float(wv[i]), 0.0))
    checks.append(HypothesisCheck(
        "well_semiconvexity", bool(wpp[k] >= -w.kappa - 1e-12), float(rw[k]),
        float(wpp[k]), -w.kappa,
        note="W'' against -kappa"))

    # core interval structure
    c_lo, c_hi = w.core
    structural = (w.domain[0] < c_lo < 0.0 < c_hi < w.domain[1])
    checks.append(HypothesisCheck(
        "core_interval_structure", bool(structural), None, None, None,
        note="core interval bounded, contains 0, closure inside the domain"))

    # outer coercivity W'(r)/r >= mu outside the core; for smoothed
    # potentials this constant is a sampled target, not a theorem, so it
    # only warns (see the smoothing notes in `regularize`).
    severity = "warning" if w.meta.get("smoothed") else "required"
    tails = []
    if tlo < c_lo:
        tails.append(_sample_interval(tlo, c_lo, olo, True, sample_count // 2))
    if c_hi < thi:
        tails.append(_sample_interval(c_hi, thi, True, ohi, sample_count // 2))
    if tails:
        rt = np.concatenate(tails)
        ratio = evaluate(w, 1, rt) / rt
        i = int(np.argmin(ratio))
        checks.append(HypothesisCheck(
            "well_outer_coercivity", bool(ratio[i] >= w.mu - 1e-12),
            float(rt[i]), float(ratio[i]), w.mu, severity=severity,
            note="W'(r)/r outside the core interval"))

    # latent heat curvature bound on a fixed compact window
    rl = np.linspace(-50.0, 50.0, sample_count)
    lpp = np.abs(evaluate(lam, 2, rl))
    i = int(np.argmax(lpp))
    checks.append(HypothesisCheck(
        "latent_heat_curvature", bool(lpp[i] <= lam.curvature_bound + 1e-12),
        float(rl[i]), float(lpp[i]), lam.curvature_bound))

    return ValidationReport(tuple(checks), tuple(suggestions))


# ----------------------------------------------------------------------
# Moreau smoothing
# ----------------------------------------------------------------------

def _prox(d1, domain, rho, r, wall_gap=1e-13):
    """argmin_s f(s) + (s-r)^2/(2 rho) for convex f, entrywise over the
    array r, via the monotone optimality equation s + rho f'(s) = r
    (bisection).  Finite domain walls where f' stays bounded act as clamps,
    which realizes the closed (lower semicontinuous) extension of f; towards
    an infinite wall the bracket end doubles its step past the root."""
    psi = lambda s: s + rho * d1(s) - r
    ends = []
    clamped = np.zeros(r.shape, bool)
    at_wall = np.zeros(r.shape)
    for wall, side, name in zip(domain, (-1.0, 1.0), ("left", "right")):
        # side * psi(end) < 0: the end lies short of the root
        if math.isfinite(wall):
            end = np.full(r.shape, wall - side * wall_gap * (1.0 + abs(wall)))
            clamp = ~clamped & (side * psi(end) <= 0.0)
            at_wall = np.where(clamp, end, at_wall)
            clamped |= clamp
        else:
            end = side * (np.maximum(side * r, 0.0) + 1.0)
            step = 1.0
            short = ~clamped & (side * psi(end) < 0.0)
            while short.any():
                step *= 2.0
                if step > 1e12:
                    raise InvalidParameter(
                        f"proximal bracketing failed ({name})")
                end = np.where(short, end + side * step, end)
                short &= side * psi(end) < 0.0
        ends.append(end)
    return np.where(clamped, at_wall, _bisect(psi, *ends))


def _bisect(fn, a, b):
    """Roots of fn in [a, b] by bisection, entrywise over arrays, for
    fn(a) < 0 <= fn(b) with a single sign change; each entry stops at a
    relative width of 1e-15 and is left alone after."""
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    live = np.ones(a.shape, bool)
    for _ in range(90):
        m = 0.5 * (a + b)
        neg = fn(m) < 0.0
        a = np.where(live & neg, m, a)
        b = np.where(live & ~neg, m, b)
        live &= b - a > 1e-15 * (1.0 + np.abs(a) + np.abs(b))
        if not live.any():
            break
    return 0.5 * (a + b)


def _moreau_shifted(potential, c, rho):
    """Value/first/second derivative of env_rho[f + c Id^2/2] - c Id^2/2,
    for f the potential and f + c Id^2/2 convex."""
    lo, hi = potential.domain
    shifted_d1 = lambda s: potential.d1(s) + c * s

    def prox(r):
        r = np.asarray(r, dtype=float)
        return r, _prox(shifted_d1, potential.domain, rho, r)

    def value(r):
        r, s = prox(r)
        return (potential.value(s) + 0.5 * c * s * s
                + (s - r) ** 2 / (2.0 * rho) - 0.5 * c * r ** 2)

    def d1(r):
        r, s = prox(r)
        return (r - s) / rho - c * r

    def d2(r):
        r, s = prox(r)
        f2 = potential.d2(s) + c
        env = f2 / (1.0 + rho * f2)
        # at a clamped wall the envelope is the quadratic (s - r)^2/(2 rho)
        if math.isfinite(lo):
            env = np.where(s - lo <= 2e-13 * (1.0 + abs(lo)), 1.0 / rho, env)
        if math.isfinite(hi):
            env = np.where(hi - s <= 2e-13 * (1.0 + abs(hi)), 1.0 / rho, env)
        return env - c

    return value, d1, d2


def regularize(potential, n):
    """Smooth surrogate of a potential, finite on all of R.

    For a heat-flux law j, half of the declared convexity modulus is kept as
    an explicit quadratic and the remainder is replaced by its Moreau
    envelope with parameter 1/n:

        j_n(r) = (sigma/4) r^2 + env_{1/n}[ j - (sigma/4) Id^2 ](r),

    which gives j_n'' >= sigma/2 for every n >= 1, j_n <= j on the original
    domain, and pointwise convergence as n grows.  For a configuration
    potential the same envelope is applied to the convex shift
    W + (kappa/2) Id^2 and the shift is subtracted again, so W_n'' >= -kappa
    for every n >= 1; the halved outer-coercivity constant is a sampled
    target (checked, with warnings, by validate_hypotheses), not a theorem.

    Both guarantees hold from n = 1 on, so the threshold index recorded in
    the metadata is 1.  The smoothed laws take arrays like the others.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidParameter(f"smoothing index must be an integer >= 1, "
                               f"got {n!r}")
    rho = 1.0 / float(n)
    name = f"{potential.name}~smoothed(n={n})"
    meta = {"smoothed": True, "n": int(n), "rho": rho,
            "threshold_index": 1, "parent": potential.name}

    if isinstance(potential, ConvexPotential):
        sig = potential.sigma
        value, d1, d2 = _moreau_shifted(potential, -0.5 * sig, rho)
        # the minimum moves unless theta_inf = 0; relocate it
        t0 = potential.theta_inf
        width = 1.0
        while d1(t0 - width) > 0 or d1(t0 + width) < 0:
            width *= 2.0
        theta_inf = float(_bisect(d1, t0 - width, t0 + width))
        return ConvexPotential(name, (-_INF, _INF), value, d1, d2,
                               sigma=0.5 * sig, theta_inf=theta_inf,
                               alpha=None, meta=meta)

    if isinstance(potential, NonconvexPotential):
        value, d1, d2 = _moreau_shifted(potential, potential.kappa, rho)
        return NonconvexPotential(name, (-_INF, _INF), potential.core,
                                  value, d1, d2, kappa=potential.kappa,
                                  mu=0.5 * potential.mu, d1_zeros=None,
                                  meta=meta)

    raise InvalidParameter("only heat-flux laws and configuration "
                           "potentials can be smoothed")


# ----------------------------------------------------------------------
# built-in laws
# ----------------------------------------------------------------------

def _law(value, d1, d2):
    """Value/first/second derivative closures over a float array argument."""
    def on_array(fn):
        return lambda r: fn(np.asarray(r, dtype=float))
    return on_array(value), on_array(d1), on_array(d2)


def _builtin_caginalp_j():
    value, d1, d2 = _law(lambda r: 0.5 * r * r, lambda r: r.copy(),
                         np.ones_like)
    # j'' = 1 exactly, minimum at 0, ratio |j''|/(1+|j'|^0) = 1/2... bounded
    return ConvexPotential("caginalp_j", (-_INF, _INF), value, d1, d2,
                           sigma=1.0, theta_inf=0.0, alpha=0.0)


def _builtin_penrose_fife_j(tau_c=1.0, sigma=0.5):
    if tau_c <= 0:
        raise InvalidParameter("tau_c must be positive")
    tc = float(tau_c)
    value, d1, d2 = _law(
        lambda r: -np.log(r + tc) + np.log(tc) + r / tc,
        lambda r: -1.0 / (r + tc) + 1.0 / tc,
        lambda r: 1.0 / ((r + tc) * (r + tc)))
    # j'' = (r+tau_c)^-2 decays to zero, so no positive modulus actually
    # holds on the unbounded domain: the declared sigma is a nominal claim
    # that validate_hypotheses is expected to refute.  Near the singular
    # wall j'' ~ (r+tau_c)^-2 and |j'| ~ (r+tau_c)^-1, hence alpha = 2.
    return ConvexPotential("penrose_fife_j", (-tc, _INF),
                           value, d1, d2, sigma=float(sigma), theta_inf=0.0,
                           alpha=2.0)


def _builtin_mixed_j(tau_c=1.0):
    if tau_c <= 0:
        raise InvalidParameter("tau_c must be positive")
    tc = float(tau_c)
    value, d1, d2 = _law(
        lambda r: 0.5 * r * r - np.log(r + tc) + np.log(tc) + r / tc,
        lambda r: r - 1.0 / (r + tc) + 1.0 / tc,
        lambda r: 1.0 + 1.0 / ((r + tc) * (r + tc)))
    # j'' = 1 + (r+tau_c)^-2 >= 1, minimum at 0 since both parts vanish
    # there; near the wall j''/(1+|j'|^2) -> 1, so alpha = 2.
    return ConvexPotential("mixed_j", (-tc, _INF), value, d1, d2,
                           sigma=1.0, theta_inf=0.0, alpha=2.0)


def _quartic_value(r):
    q = r * r - 1.0
    return 0.25 * q * q


def _builtin_quartic_w():
    value, d1, d2 = _law(_quartic_value, lambda r: r * (r * r - 1.0),
                         lambda r: 3.0 * r * r - 1.0)
    # W'' = 3r^2 - 1 >= -1 -> kappa = 1; W'(r)/r = r^2 - 1 >= 3 for |r| >= 2
    return NonconvexPotential("quartic_W", (-_INF, _INF), (-2.0, 2.0),
                              value, d1, d2, kappa=1.0, mu=3.0,
                              d1_zeros=(-1.0, 0.0, 1.0))


def _builtin_logarithmic_w(theta1=1.0, theta_c=2.0):
    if not (0 < theta1 < theta_c):
        raise InvalidParameter("logarithmic well needs 0 < theta1 < theta_c")
    t1, tc = float(theta1), float(theta_c)
    # minima +-rstar solve t1 * artanh(r) = tc * r
    f = lambda r: t1 * np.arctanh(r) - tc * r
    if f(1.0 - 1e-12) <= 0.0:
        raise InvalidParameter("logarithmic well minima closer than 1e-12 "
                               "to the walls; raise the ratio theta1/theta_c")
    # bisection to a relative 1e-15, then one Newton step to the last bit
    rstar = float(_bisect(f, 1e-3, 1.0 - 1e-12))
    rstar = float(rstar - f(rstar) / (t1 / (1.0 - rstar * rstar) - tc))
    w0_min = (0.5 * t1 * ((1 + rstar) * np.log1p(rstar)
                          + (1 - rstar) * np.log1p(-rstar))
              - 0.5 * tc * rstar * rstar)
    c0 = -w0_min  # additive shift puts the minima at 0
    value, d1, d2 = _law(
        lambda r: (0.5 * t1 * ((1.0 + r) * np.log1p(r)
                               + (1.0 - r) * np.log1p(-r))
                   - 0.5 * tc * r * r + c0),
        lambda r: 0.5 * t1 * (np.log1p(r) - np.log1p(-r)) - tc * r,
        lambda r: t1 / (1.0 - r * r) - tc)
    core = (-0.5 * (1.0 + rstar), 0.5 * (1.0 + rstar))
    # W'(r)/r = t1 artanh(r)/r - tc is increasing in |r|, so its infimum
    # over the tails is attained at the core edge
    mu = t1 * math.atanh(core[1]) / core[1] - tc
    return NonconvexPotential("logarithmic_W", (-1.0, 1.0), core,
                              value, d1, d2, kappa=tc - t1, mu=mu,
                              d1_zeros=(-rstar, 0.0, rstar),
                              meta={"rstar": rstar})


def _builtin_linear_lambda(ell=1.0):
    ell = float(ell)
    value, d1, d2 = _law(lambda r: ell * r, lambda r: np.full_like(r, ell),
                         np.zeros_like)
    # lam'' = 0, any positive bound works; 1 is recorded for definiteness
    return LatentHeat("linear_lambda", value, d1, d2, curvature_bound=1.0)


def _builtin_tanh_lambda(scale=1.0, width=1.0):
    if width <= 0:
        raise InvalidParameter("width must be positive")
    a, b = float(scale), float(width)

    def d1(r):
        t = np.tanh(r / b)
        return (a / b) * (1.0 - t * t)

    def d2(r):
        t = np.tanh(r / b)
        return -(2.0 * a / (b * b)) * t * (1.0 - t * t)

    value, d1, d2 = _law(lambda r: a * np.tanh(r / b), d1, d2)
    # |lam''| = (2|scale|/width^2) |t|(1-t^2), t=tanh, maximized at
    # t = 1/sqrt(3): bound = 4|scale| / (3 sqrt(3) width^2)
    bound = 4.0 * abs(scale) / (3.0 * math.sqrt(3.0) * width * width)
    return LatentHeat("tanh_lambda", value, d1, d2, curvature_bound=bound)


_BUILTINS = {
    "caginalp_j": _builtin_caginalp_j,
    "penrose_fife_j": _builtin_penrose_fife_j,
    "mixed_j": _builtin_mixed_j,
    "quartic_W": _builtin_quartic_w,
    "logarithmic_W": _builtin_logarithmic_w,
    "linear_lambda": _builtin_linear_lambda,
    "tanh_lambda": _builtin_tanh_lambda,
}


def builtin(name, **params):
    """Construct a built-in law by name with its parameters."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise UnknownModel(
            f"unknown built-in '{name}'; available: "
            + ", ".join(sorted(_BUILTINS))) from None
    try:
        return factory(**params)
    except TypeError as exc:
        raise InvalidParameter(f"bad parameters for '{name}': {exc}") from None


def builtin_names():
    return tuple(sorted(_BUILTINS))
