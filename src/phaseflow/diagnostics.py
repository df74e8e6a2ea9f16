"""Post-hoc and in-loop analysis of trajectories.

Everything here is a pure function of completed traces, fields and source
descriptions: per-step energy-inequality checking, the run's convergence
(omega-limit) scan at other thresholds, power-law decay fits, Lojasiewicz
exponent estimation along a sequence of states, the uniform-regularity
monitors, and two-trajectory stability gaps.
Fitted constants are estimates with their fit residuals - the underlying
theory is non-constructive about them, so nothing here asserts a literal
constant.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import (OMEGA_THRESHOLDS, TRACE_COLUMNS, TRACE_HEADER,
                       OmegaScan)
from .errors import (ConfigMismatch, InsufficientDecay, InsufficientSamples,
                     InvalidParameter, ParseError)
from . import steady as steady_mod


@dataclass
class EnergyTrace:
    """Columns of a trace.csv, as parallel arrays."""

    t: np.ndarray
    energy: np.ndarray
    norm_u_V: np.ndarray
    norm_chit_H: np.ndarray
    dist_theta_H: np.ndarray
    stationary_residual: np.ndarray
    newton_iters: np.ndarray

    def __post_init__(self):
        n = self.t.size
        for name in TRACE_COLUMNS[1:]:
            if getattr(self, name).size != n:
                raise InvalidParameter(f"trace column {name} has wrong "
                                       "length")
        if n > 1 and not np.all(np.diff(self.t) > 0):
            raise InvalidParameter("trace times must be strictly increasing")

    @classmethod
    def from_csv(cls, path):
        """Read a trace.csv; a missing, malformed or truncated file is a
        ParseError."""
        try:
            data = np.genfromtxt(path, delimiter=",", names=True)
        except (OSError, ValueError) as exc:
            raise ParseError(f"{path}: unreadable trace ({exc})") from None
        if data.dtype.names != TRACE_COLUMNS:
            raise ParseError(f"{path}: trace header is not {TRACE_HEADER}")
        data = np.atleast_1d(data)
        cols = [np.asarray(data[name], dtype=float) for name in TRACE_COLUMNS]
        if not all(np.isfinite(c).all() for c in cols):
            raise ParseError(f"{path}: trace has empty or non-finite fields")
        try:
            return cls(*cols)
        except InvalidParameter as exc:
            raise ParseError(f"{path}: {exc}") from None


# ----------------------------------------------------------------------
# energy inequality
# ----------------------------------------------------------------------

@dataclass
class DissipationReport:
    passed: bool
    violations: tuple          # (row index, excess) pairs
    max_excess: float          # worst E(k)-E(k-1) minus its allowance
    tol: float


def check_dissipation(energies, g_dual_norms, dt, tol):
    """Per-row energy inequality E(k) - E(k-1) <= dt/2 ||g(t_k)||_*^2 + tol.

    ``dt`` is the spacing between consecutive rows: a scalar, or one value
    per row gap (``np.diff(times)`` of a trajectory).  With one row per
    step this is the step size and the check is exact.  ``tol`` must be
    finite and non-negative: a NaN allowance would pass every row.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise InvalidParameter(f"dissipation tol must be finite and "
                               f"non-negative, got {tol!r}")
    energies = np.asarray(energies, dtype=float)
    g = np.asarray(g_dual_norms, dtype=float)
    diffs = np.diff(energies)
    allowance = 0.5 * dt * g[1:] ** 2 + tol
    excess = diffs - allowance
    bad = np.flatnonzero(excess > 0)
    return DissipationReport(
        passed=bad.size == 0,
        violations=tuple((int(i + 1), float(excess[i])) for i in bad),
        max_excess=float(np.max(excess)) if excess.size else -math.inf,
        tol=tol)


def _source_tail(times, g_dual_norms):
    """Remaining source budget int_t^horizon ||g||_*^2 at each row time:
    right-point quadrature over the actual row gaps, 0 at the last row."""
    contrib = np.diff(np.asarray(times, dtype=float)) * np.asarray(
        g_dual_norms, dtype=float)[1:] ** 2
    return np.concatenate([np.cumsum(contrib[::-1])[::-1], [0.0]])


def phi_series(times, energies, g_dual_norms, e_inf):
    """The decreasing comparison quantity of the convergence-rate argument
    at the row times: energy above the limit plus half the remaining source
    budget (truncated at the horizon, so a lower bound)."""
    return (np.asarray(energies, dtype=float) - e_inf
            + 0.5 * _source_tail(times, g_dual_norms))


def check_phi_monotone(times, energies, g_dual_norms, e_inf, tol):
    phi = phi_series(times, energies, g_dual_norms, e_inf)
    diffs = np.diff(phi)
    worst = float(np.max(diffs)) if diffs.size else 0.0
    return worst <= tol, worst


# ----------------------------------------------------------------------
# omega-limit detection
# ----------------------------------------------------------------------

def detect_omega_limit(traj, thresholds=OMEGA_THRESHOLDS):
    """Scan a trace for simultaneous smallness of the phase velocity, the
    stationary residual and the temperature distance over consecutive rows.

    This is the run's own scan (``OmegaScan``), so at the run's thresholds
    it returns ``traj.verdict``; other thresholds re-judge the same trace.
    The certificate of a CONVERGED verdict is the final row's
    ``stationary_residual``."""
    c = traj.columns
    scan = OmegaScan(thresholds)
    for row in zip(c["norm_chit_H"], c["stationary_residual"],
                   c["dist_theta_H"]):
        if scan.push(*row) is not None:
            break
    return scan.verdict(traj.times, c["stationary_residual"],
                        traj.stepper.model.j.theta_inf)


# ----------------------------------------------------------------------
# decay-rate and Lojasiewicz fits
# ----------------------------------------------------------------------

#: fewest samples a decay-rate fit window may hold
MIN_FIT_POINTS = 10

#: fewest admitted samples of an exponent estimate
MIN_LOJ_SAMPLES = 10


@dataclass
class RateFit:
    beta: float                  # fitted power-law exponent (inf = exp decay)
    c_star: float
    t_star: float                # start of the fit window
    fit_residual: float          # rms residual of the winning fit
    n_points: int
    predicted_beta: Optional[float] = None   # zeta/(1-2 zeta) when supplied
    consistency_gap: Optional[float] = None
    exp_rate: Optional[float] = None         # fallback rate when beta = inf


def fit_rate(times, distances, zeta=None):
    """Fit the tail decay of a distance series.

    Least squares of log-distance against log-time over the final decade of
    time; a plain exponential fit competes on the same window and wins the
    sentinel beta = inf when it explains the data better.  When a
    Lojasiewicz exponent estimate is supplied, the implied power
    zeta/(1-2 zeta) and the gap to the fitted exponent are reported.
    """
    t = np.asarray(times, dtype=float)
    d = np.asarray(distances, dtype=float)
    mask = (t > 0) & (d > 0)
    if mask.sum() < MIN_FIT_POINTS:
        raise InsufficientDecay("not enough positive samples")
    t, d = t[mask], d[mask]
    span = np.max(d) / np.min(d)
    if span < 10.0:
        raise InsufficientDecay(
            f"distance series spans only a factor {span:.3g}; need a decade")
    window = t >= np.max(t) / 10.0
    if window.sum() < MIN_FIT_POINTS:
        window = np.zeros_like(t, dtype=bool)
        window[-MIN_FIT_POINTS:] = True
    tw, dw = t[window], d[window]
    log_t, log_d = np.log(tw), np.log(dw)

    kp, bp = np.polyfit(log_t, log_d, 1)
    sse_pow = float(np.mean((log_d - (kp * log_t + bp)) ** 2))
    ke, be = np.polyfit(tw, log_d, 1)
    sse_exp = float(np.mean((log_d - (ke * tw + be)) ** 2))

    if sse_exp < sse_pow:
        fit = RateFit(beta=math.inf, c_star=float(np.exp(be)),
                      t_star=float(tw[0]), fit_residual=math.sqrt(sse_exp),
                      n_points=int(tw.size), exp_rate=float(-ke))
    else:
        fit = RateFit(beta=float(-kp), c_star=float(np.exp(bp)),
                      t_star=float(tw[0]), fit_residual=math.sqrt(sse_pow),
                      n_points=int(tw.size))
    if zeta is not None:
        predicted = zeta / (1.0 - 2.0 * zeta) if zeta < 0.5 else math.inf
        gap = abs(fit.beta - predicted) if math.isfinite(fit.beta) \
            and math.isfinite(predicted) else math.inf
        fit.predicted_beta = predicted
        fit.consistency_gap = gap
    return fit


@dataclass
class LojFit:
    zeta: float
    c_l: float
    eps_loj: float
    n_admitted: int
    fit_residual: float


def estimate_lojasiewicz(energies, residuals, distances, e_inf,
                         eps_loj=0.1):
    """Estimate the gradient-inequality exponent along a trajectory tail.

    Fits log(residual) against log|E - E_inf| over the samples admitted by
    the neighborhood radius; the slope estimates 1 - zeta and the exponent
    is clamped into (0, 1/2].  The inequality is one-sided, so the estimate
    assumes it is tight along the tail; the fit residual is reported so the
    caller can judge that.
    """
    e = np.asarray(energies, dtype=float)
    r = np.asarray(residuals, dtype=float)
    d = np.asarray(distances, dtype=float)
    de = np.abs(e - e_inf)
    admit = (d <= eps_loj) & (de > 1e-13) & (r > 0)
    if admit.sum() < MIN_LOJ_SAMPLES:
        raise InsufficientSamples(
            f"{int(admit.sum())} admitted samples, need {MIN_LOJ_SAMPLES}")
    x = np.log(de[admit])
    y = np.log(r[admit])
    slope, intercept = np.polyfit(x, y, 1)
    zeta = float(np.clip(1.0 - slope, 1e-6, 0.5))
    rms = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return LojFit(zeta=zeta, c_l=float(np.exp(-intercept)),
                  eps_loj=eps_loj, n_admitted=int(admit.sum()),
                  fit_residual=rms)


def _kept_states(traj):
    """The flat order parameters of a run's kept states, one per row."""
    if len(traj.states) != traj.times.size:
        raise InvalidParameter("trajectory kept no states; rerun with "
                               "TrajectoryConfig(keep_states=True)")
    return [chi.flat for _, _, chi in traj.states]


def chi_distance_series(traj, chi_inf):
    """||chi(t) - chi_inf||_H over the kept states of a trajectory."""
    ws = traj.stepper.ws
    return np.array([ws.h_norm(chi - chi_inf.flat)
                     for chi in _kept_states(traj)])


def estimate_lojasiewicz_states(chis, residuals, chi_inf, model, ws,
                                eps_loj=0.1):
    """Exponent estimate along a sequence of flat order parameters ``chis``
    with their stationary residuals, against the flat reference stationary
    state ``chi_inf``: from their stationary energies under ``model`` and
    their max(V, C0) distances to it (the admission radius).  Any workspace
    of the grid serves."""
    energies = np.array([steady_mod.stationary_energy(chi, model, ws)
                         for chi in chis])
    e_inf = steady_mod.stationary_energy(chi_inf, model, ws)
    distances = np.array([max(ws.v_norm(chi - chi_inf),
                              ws.c0_norm(chi - chi_inf)) for chi in chis])
    return estimate_lojasiewicz(energies, residuals, distances, e_inf,
                                eps_loj=eps_loj)


def estimate_lojasiewicz_trajectory(traj, chi_inf, eps_loj=0.1):
    """``estimate_lojasiewicz_states`` on a finished run's kept states, with
    its model and workspace; the residual column lines up with the kept
    states."""
    return estimate_lojasiewicz_states(
        _kept_states(traj), traj.columns["stationary_residual"],
        chi_inf.flat, traj.stepper.model, traj.stepper.ws, eps_loj=eps_loj)


def fit_rate_trajectory(traj, chi_inf, zeta=None):
    """Decay fit of ||chi(t) - chi_inf||_H over the kept states."""
    return fit_rate(traj.times, chi_distance_series(traj, chi_inf),
                    zeta=zeta)


# ----------------------------------------------------------------------
# uniform-regularity monitors
# ----------------------------------------------------------------------

@dataclass
class MonitorReport:
    s: float
    sup_thetat_window_H: float   # sup_t>=s ||theta_t||_{L2(t,t+1;H)}
    sup_theta_V: float           # sup_t>=s of the heat-space norm of theta
    sup_u_V: float
    sup_chit_H: float
    sup_chi_H2: float            # discrete H2 surrogate ||A chi|| + ||chi||_V
    sup_wprime_H: float
    thetat_l2_tail: Optional[float]   # ||theta_t||_{L2(s,inf;H)} slot
    trend_flags: tuple
    unbounded: bool

    def finite(self):
        vals = [self.sup_thetat_window_H, self.sup_theta_V, self.sup_u_V,
                self.sup_chit_H, self.sup_chi_H2, self.sup_wprime_H]
        return all(math.isfinite(v) for v in vals)


def _unit_windows(times, s):
    """Row ranges [lo, hi) of the unit windows [s+k, s+k+1) inside the
    trace, as (window start, lo, hi); a window without rows has hi == lo."""
    k = 0
    while s + k + 1.0 <= times[-1] + 1e-12:
        lo = np.searchsorted(times, s + k - 1e-12)
        hi = np.searchsorted(times, s + k + 1.0 - 1e-12)
        yield s + k, lo, hi
        k += 1


def _window_norms(times, s, series, p):
    """L^p norms of a row series over the unit windows with rows, each row
    weighted by its gap to the previous row; p = inf gives the window
    maximum."""
    gaps = np.diff(times, prepend=times[0])
    out = []
    for _, lo, hi in _unit_windows(times, s):
        if hi > lo:
            x = series[lo:hi]
            out.append(np.max(x) if math.isinf(p)
                       else np.sum(gaps[lo:hi] * x ** p))
    out = np.asarray(out, dtype=float)
    return out if math.isinf(p) else out ** (1.0 / p)


def _growing_trend(window_values, per_window=0.10, span=10):
    """True when the last ``span`` windows increase strictly and compound
    to more than ``per_window`` growth per window."""
    if window_values.size < span:
        return False
    tail = window_values[-span:]
    if not np.all(np.diff(tail) > 0):
        return False
    if tail[0] <= 0:
        return True
    return bool(tail[-1] / tail[0] > (1.0 + per_window) ** (span - 1))


def monitor_bounds(traj, s):
    """Windowed uniform norms of a run from time s on, with a growth flag.

    Reports the six regularity monitors (temperature velocity per unit
    window, temperature and flux in the heat-space norm, phase velocity,
    the discrete second-order norm of the phase, and the well derivative)
    and, when the run's source declares square-integrable time derivative
    (q_tag <= 2), the global-in-time L2 slot of the temperature velocity.
    Every unit window from s on must hold a trace row.
    """
    times = traj.times
    if times[-1] < s + 2.0 - 1e-12:
        raise InvalidParameter("trace must cover [0, s+2] for monitors")
    for start, lo, hi in _unit_windows(times, s):
        if hi == lo:
            raise InvalidParameter(
                f"no trace row in the monitor window [{start:g}, "
                f"{start + 1.0:g}); the monitors need a row in every unit "
                "window from s (lower trace_every)")
    mask = times >= s - 1e-12
    thetat = traj.aux["norm_thetat_H"]
    sup_series = {"theta_V": traj.aux["norm_theta_V"],
                  "u_V": traj.columns["norm_u_V"],
                  "chit_H": traj.columns["norm_chit_H"],
                  "chi_H2": traj.aux["norm_chi_H2"],
                  "wprime_H": traj.aux["norm_wprime_H"]}
    windows = {"thetat_window_H": _window_norms(times, s, thetat, 2.0)}
    windows.update((name, _window_norms(times, s, x, math.inf))
                   for name, x in sup_series.items())
    flags = tuple(name for name, w in windows.items() if _growing_trend(w))

    tail = None
    q_tag = traj.stepper.source.q_tag
    if q_tag is not None and q_tag <= 2.0:
        gaps = np.diff(times, prepend=times[0])
        tail = math.sqrt(float(np.sum((gaps * thetat ** 2)[mask])))

    return MonitorReport(
        s=s,
        sup_thetat_window_H=float(np.max(windows["thetat_window_H"])),
        **{f"sup_{name}": float(np.max(x[mask]))
           for name, x in sup_series.items()},
        thetat_l2_tail=tail,
        trend_flags=flags,
        unbounded=bool(flags))


# ----------------------------------------------------------------------
# two-trajectory stability
# ----------------------------------------------------------------------

def stability_gap(traj_a, traj_b):
    """Running sup of ||theta_a - theta_b||_H + ||chi_a - chi_b||_H per row.

    Both runs must share grid, step size and horizon, and must have kept
    their states at the same cadence.
    """
    ga, gb = traj_a.stepper.grid, traj_b.stepper.grid
    if ga != gb:
        raise ConfigMismatch("different grids")
    if traj_a.dt != traj_b.dt or not np.array_equal(traj_a.times,
                                                    traj_b.times):
        raise ConfigMismatch("different step size or horizon")
    if len(traj_a.states) != len(traj_b.states) or not traj_a.states:
        raise ConfigMismatch("states not kept at matching cadence")
    ws = traj_a.stepper.ws
    gaps = []
    running = 0.0
    for (_, tha, cha), (_, thb, chb) in zip(traj_a.states, traj_b.states):
        running = max(running, ws.h_norm(tha.flat - thb.flat)
                      + ws.h_norm(cha.flat - chb.flat))
        gaps.append(running)
    return np.asarray(gaps)


# ----------------------------------------------------------------------
# source reports
# ----------------------------------------------------------------------

@dataclass
class SourceReport:
    tail_statistic: Optional[float]   # sup_t t^(1+delta) * remaining budget
    tail_finite: bool
    delta_src: Optional[float]
    windowed_gt_sup: Optional[float]  # sup_t ||g_t||_{Lp(t,t+1; dual)}
    p_tag: float


def tail_statistic(times, g_dual_norms, delta):
    """sup over rows of t^(1+delta) * int_t^horizon ||g||_*^2 (right-point
    quadrature on the row grid)."""
    t = np.asarray(times, dtype=float)
    tail = _source_tail(t, g_dual_norms)
    return float(np.max(np.where(t > 0, t, 0.0) ** (1.0 + delta) * tail))


def source_report(traj):
    """Numerical checks of the integrability tags the run's source
    declares, on the run's right-hand side: g_t is the central difference
    of its coefficients ``traj.stepper.g_coefficients`` over all row times
    at once, measured with the run's Gram form, so no g vector is built."""
    stepper = traj.stepper
    source, c = stepper.source, stepper.g_coefficients
    times = traj.times
    stat = None
    finite = True
    if source.delta_src is not None:
        stat = tail_statistic(times, traj.g_dual, source.delta_src)
        finite = math.isfinite(stat)

    windowed = None
    p = source.p_tag
    if not source.is_zero or stepper.bc.kind == "robin":
        eps = 1e-6
        (e_hi, b_hi), (e_lo, b_lo) = c(times + eps), c(
            np.maximum(times - eps, 0.0))
        den = eps + np.minimum(eps, times)
        gt = stepper.coefficient_dual_norm(((e_hi - e_lo) / den,
                                            (b_hi - b_lo) / den))
        series = _window_norms(times, 0.0, gt, p)
        if series.size:
            windowed = float(np.max(series))
    return SourceReport(tail_statistic=stat, tail_finite=finite,
                        delta_src=source.delta_src,
                        windowed_gt_sup=windowed, p_tag=p)
