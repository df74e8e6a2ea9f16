"""Energy-stable time integration of the coupled system

    theta_t + lam(chi)_t + B j'(theta) = g,
    chi_t + A chi + W'(chi) = lam'(chi) j'(theta).

One step solves the fully coupled nonlinear system by a damped Newton
method.  The discretization is implicit Euler with a convex splitting of W
(the convex shift W + kappa Id^2/2 is implicit, the concave quadratic
remainder explicit) and with the exact latent-heat secant coupling the two
equations, so that testing the heat equation with j'(theta+) and the phase
equation with the discrete time derivative makes the cross terms cancel
identically.  With zero source the discrete energy

    E = int ( |grad chi|^2 / 2 + W(chi) + j(theta) )

then decreases at every step up to solver tolerance, and with a source it
obeys  E(k+1) - E(k) <= dt/2 * ||g(t_{k+1})||_*^2  in the dual norm of the
heat operator; both facts are checked by the test suite rather than trusted.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sps
from scipy.sparse.linalg import spsolve

from .errors import (DomainExhausted, DomainViolation, InvalidParameter,
                     NewtonDiverged)
from .grids import (Field, OperatorWorkspace, check_dirichlet_consistency,
                    write_records)
from .models import DOMAIN_MARGIN, evaluate, inside, secant_arrays
from .steady import residual_stationary, stationary_energy

_INF = float("inf")


@dataclass
class State:
    """Trajectory state: time, fields, and the cached flux variable
    u = j'(theta)."""

    t: float
    theta: Field
    chi: Field
    u: Field

    @classmethod
    def make(cls, t, theta, chi, model):
        u = Field(theta.grid, evaluate(model.j, 1, theta.values))
        if not inside(model.w, chi.values):
            lo, hi = model.w.domain
            raise DomainViolation(
                f"chi leaves the open interval ({lo}, {hi}): range "
                f"[{float(np.min(chi.values))}, {float(np.max(chi.values))}]")
        return cls(float(t), theta, chi, u)


@dataclass(frozen=True)
class SourceSpec:
    """Volumetric heat source f(x, t) = profile(x) * envelope(t) plus the
    declared integrability tags used by the diagnostics.

    ``p_tag`` tags the windowed bound on the time derivative of the
    right-hand side, ``q_tag`` its global integrability (both optional
    declarations, reported not enforced), and ``delta_src`` the exponent of
    the weighted tail test sup_t t^(1+delta) int_t^inf ||g||_*^2.
    """

    profile: Optional[Callable] = None    # meshgrid arrays -> array
    envelope: Optional[Callable] = None   # t -> float
    p_tag: float = _INF
    q_tag: Optional[float] = None
    delta_src: Optional[float] = None

    # flat nodal profile per grid, evaluated on first use
    _profiles: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def f_values(self, grid, t):
        if self.is_zero:
            return np.zeros(grid.n_total)
        prof = self._profiles.get(grid)
        if prof is None:
            prof = (np.asarray(self.profile(*grid.meshgrid()), dtype=float)
                    + np.zeros(grid.shape)).ravel()
            self._profiles[grid] = prof
        return prof * float(self.envelope(t))

    @property
    def is_zero(self):
        return self.profile is None or self.envelope is None


def zero_source():
    return SourceSpec()


def source_density(model, ws, bc, source, t):
    """Right-hand side g(t) as a nodal density: the volumetric source plus,
    for Robin conditions, the boundary exchange term."""
    g = source.f_values(ws.grid, t)
    if bc.kind == "robin":
        jp_gamma = float(evaluate(model.j, 1, bc.trace_value(t)))
        g = g + bc.eta * jp_gamma * ws.gamma / ws.w
    return g


@dataclass(frozen=True)
class StepReport:
    newton_iters: int
    residual: float
    energy_before: float
    energy_after: float
    damping_events: int
    dt: float


@dataclass
class TrajectoryConfig:
    dt: float
    t_end: float
    newton_tol: float = 1e-10
    max_newton: int = 50
    trace_every: int = 1
    snapshot_every: int = 0
    stop_on_converged: bool = False
    omega_tols: tuple = (1e-7, 1e-6, 1e-6)
    keep_states: bool = False
    max_halvings: int = 30

    def __post_init__(self):
        if self.dt <= 0 or self.t_end <= 0:
            raise InvalidParameter("dt and t_end must be positive")
        if self.newton_tol <= 0:
            raise InvalidParameter("newton_tol must be positive")


# ----------------------------------------------------------------------
# the stepper
# ----------------------------------------------------------------------

class Stepper:
    """Shared machinery for stepping one (model, grid, bc, source) problem.

    Owns the operator workspace and the Newton matrix structure; immutable
    inputs are shared, all mutable scratch is per call.
    """

    def __init__(self, model, grid, bc, source):
        check_dirichlet_consistency(bc, model)
        self.model = model
        self.grid = grid
        self.bc = bc
        self.source = source
        self.ws = OperatorWorkspace(grid, bc)
        self.n = grid.n_total
        self.act = self.ws.active               # theta unknowns
        self.m = self.act.size
        self.dirichlet = bc.kind == "dirichlet"
        self._build_jacobian_structure()

    def _build_jacobian_structure(self):
        """Static sparsity of the coupled Newton matrix; per-iteration work
        then only fills a data vector (duplicate diagonal entries sum)."""
        m, n = self.m, self.n
        btt = self.ws.B_fd.tocoo()
        acc = self.ws.A_fd.tocoo()
        am = np.arange(m)
        an = np.arange(n)
        rows = np.concatenate([btt.row, am, am, self.act + m,
                               acc.row + m, an + m])
        cols = np.concatenate([btt.col, am, self.act + m, am,
                               acc.col + m, an + m])
        self._jrows = rows
        self._jcols = cols
        self._btt_data = btt.data.copy()
        self._btt_col = btt.col.copy()
        self._acc_data = acc.data.copy()
        self._jshape = (m + n, m + n)

    # -- constitutive evaluation ------------------------------------------
    def constitutive(self, theta, chi_old, chi_new):
        """All pointwise arrays one Newton iterate needs."""
        m = self.model
        u = np.asarray(m.j.d1(theta), dtype=float)
        jpp = np.asarray(m.j.d2(theta), dtype=float)
        wp = np.asarray(m.w.d1(chi_new), dtype=float)
        wpp = np.asarray(m.w.d2(chi_new), dtype=float)
        lam_old = np.asarray(m.lam.value(chi_old), dtype=float)
        lam_new = np.asarray(m.lam.value(chi_new), dtype=float)
        lam_p = np.asarray(m.lam.d1(chi_new), dtype=float)
        lhat, dlhat = secant_arrays(
            m.lam.d1, m.lam.d2, chi_old, chi_new, lam_old, lam_new, lam_p)
        return u, jpp, wp, wpp, lam_old, lam_new, lam_p, lhat, dlhat

    def energy(self, theta_flat, chi_flat):
        """Discrete free energy: the stationary energy of chi plus the
        trapezoid quadrature of j(theta)."""
        return stationary_energy(chi_flat, self.model, self.ws) + float(
            np.dot(self.ws.w, np.asarray(self.model.j.value(theta_flat))))

    def g_density(self, t):
        return source_density(self.model, self.ws, self.bc, self.source, t)

    def g_dual_norm(self, t):
        """Dual norm of the right-hand side against the heat operator's
        energy norm (the norm appearing in the per-step energy estimate)."""
        weak = self.ws.w * self.g_density(t)
        if not np.any(weak):
            return 0.0
        return self.ws.dual_norm_weak(weak)

    def theta_full(self, theta_act):
        if not self.dirichlet:
            return theta_act
        full = np.full(self.n, self.bc.theta_inf)
        full[self.act] = theta_act
        return full

    def _residual(self, arrays, theta_act, chi_new, theta_old, chi_old,
                  dt, g):
        u = arrays[0]
        wp, lam_old, lam_new = arrays[2], arrays[4], arrays[5]
        lhat = arrays[7]
        kappa = self.model.w.kappa
        r_theta = ((theta_act - theta_old[self.act]) / dt
                   + (lam_new[self.act] - lam_old[self.act]) / dt
                   + self.ws.B_fd @ u[self.act] - g[self.act])
        r_chi = ((chi_new - chi_old) / dt + self.ws.A_fd @ chi_new + wp
                 + kappa * (chi_new - chi_old) - lhat * u)
        return r_theta, r_chi

    def _residual_norm(self, r_theta, r_chi):
        full = np.zeros(self.n)
        full[self.act] = r_theta
        return max(self.ws.h_norm(full), self.ws.h_norm(r_chi))

    def _jacobian(self, arrays, dt):
        u, jpp, _, wpp = arrays[0], arrays[1], arrays[2], arrays[3]
        lam_p, lhat, dlhat = arrays[6], arrays[7], arrays[8]
        kappa = self.model.w.kappa
        jpp_act = jpp[self.act]
        data = np.concatenate([
            self._btt_data * jpp_act[self._btt_col],   # B j''(theta) block
            np.full(self.m, 1.0 / dt),                 # theta time term
            lam_p[self.act] / dt,                      # latent-heat coupling
            -(lhat * jpp)[self.act],                   # flux feedback
            self._acc_data,                            # Neumann stiffness
            1.0 / dt + wpp + kappa - dlhat * u,        # chi diagonal
        ])
        return sps.csc_matrix((data, (self._jrows, self._jcols)),
                              shape=self._jshape)

    def step(self, state, config, energy_before=None):
        """Advance one step of config.dt; returns (new state, report)."""
        dt = config.dt
        theta_old = state.theta.flat.copy()
        chi_old = state.chi.flat.copy()
        t_new = state.t + dt
        g = self.g_density(t_new)
        if energy_before is None:
            energy_before = self.energy(theta_old, chi_old)

        theta_act = theta_old[self.act].copy()
        chi_new = chi_old.copy()
        damping_events = 0

        for it in range(1, config.max_newton + 1):
            theta_f = self.theta_full(theta_act)
            arrays = self.constitutive(theta_f, chi_old, chi_new)
            if self.dirichlet:
                # boundary flux vanishes exactly there (j'(theta_inf) = 0)
                arrays[0][self.ws.bmask] = 0.0
            r_theta, r_chi = self._residual(arrays, theta_act, chi_new,
                                            theta_old, chi_old, dt, g)
            res = self._residual_norm(r_theta, r_chi)
            if res <= config.newton_tol:
                theta_new = Field(self.grid,
                                  theta_f.reshape(self.grid.shape).copy())
                new_state = State.make(t_new, theta_new,
                                       Field(self.grid,
                                             chi_new.reshape(self.grid.shape)
                                             .copy()),
                                       self.model)
                e_after = self.energy(theta_f, chi_new)
                return new_state, StepReport(it, res, energy_before,
                                             e_after, damping_events, dt)
            if it == config.max_newton:
                raise NewtonDiverged(
                    f"residual {res:.3e} above tolerance "
                    f"{config.newton_tol:.1e} after {it} iterations",
                    residual=res)
            jac = self._jacobian(arrays, dt)
            rhs = -np.concatenate([r_theta, r_chi])
            delta = spsolve(jac, rhs)
            if not np.all(np.isfinite(delta)):
                raise NewtonDiverged("singular linearization in step solve",
                                     residual=res)
            d_theta = delta[:self.m]
            d_chi = delta[self.m:]
            # fraction-to-the-boundary damping: halve until the trial
            # iterate keeps DOMAIN_MARGIN off both domain walls
            alpha = 1.0
            for _ in range(config.max_halvings + 1):
                theta_try = theta_act + alpha * d_theta
                chi_try = chi_new + alpha * d_chi
                if (inside(self.model.j, self.theta_full(theta_try),
                           DOMAIN_MARGIN)
                        and inside(self.model.w, chi_try, DOMAIN_MARGIN)):
                    break
                alpha *= 0.5
                damping_events += 1
            else:
                raise DomainExhausted(
                    "step damping exhausted: iterates cannot stay inside "
                    "the admissible set (reduce dt or move data away from "
                    "the potential wall)")
            theta_act = theta_try
            chi_new = chi_try
        raise AssertionError("unreachable")


def step(state, config, model, grid, bc, source):
    """One time step of the coupled system (convenience wrapper)."""
    return Stepper(model, grid, bc, source).step(state, config)


# ----------------------------------------------------------------------
# trajectories
# ----------------------------------------------------------------------

#: trace.csv columns, in file order; ``t`` is Trajectory.times, the rest
#: are Trajectory.columns
TRACE_COLUMNS = ("t", "energy", "norm_u_V", "norm_chit_H", "dist_theta_H",
                 "stationary_residual", "newton_iters")
TRACE_HEADER = ",".join(TRACE_COLUMNS)


@dataclass
class OmegaVerdict:
    status: str                  # 'CONVERGED' | 'PENDING'
    t: Optional[float] = None
    row: Optional[int] = None
    stationary_residual: Optional[float] = None

    @property
    def converged(self):
        return self.status == "CONVERGED"


class OmegaScan:
    """Consecutive-rows convergence test over a trace, fed one row at a time.

    A row passes when the phase velocity, the stationary residual and the
    temperature distance are all below their thresholds; row 0 carries no
    backward difference and never passes.  The verdict is the row that
    completes the first run of ``consecutive`` passing rows.
    """

    def __init__(self, thresholds, consecutive=3):
        self.thresholds = thresholds
        self.consecutive = consecutive
        self.rows = 0
        self.run_len = 0
        self.row = None

    def push(self, chit, stat_res, dist_theta):
        """Feed the next row; returns the converged row index, or None."""
        row = self.rows
        self.rows += 1
        if self.row is None and row > 0:
            tol1, tol2, tol3 = self.thresholds
            ok = chit < tol1 and stat_res < tol2 and dist_theta < tol3
            self.run_len = self.run_len + 1 if ok else 0
            if self.run_len >= self.consecutive:
                self.row = row
        return self.row


@dataclass
class Trajectory:
    """A finished run; ``times`` is its only time axis, and every row
    diagnostic weights by the actual row gaps ``np.diff(times)``."""

    grid: object
    dt: float
    times: np.ndarray
    columns: dict                # csv columns, parallel arrays
    aux: dict                    # extra per-row series (monitor inputs)
    g_dual: np.ndarray           # ||g(t_row)||_* per trace row
    states: list                 # [(t, theta Field, chi Field)] if kept
    final_state: State
    verdict: OmegaVerdict
    wall_time: float
    snapshot_files: tuple = ()

    @property
    def energies(self):
        return self.columns["energy"]


def _fmt(x):
    return format(float(x), ".17g")


def run(initial, config, model, grid, bc, source, out_dir=None):
    """Drive a trajectory to the horizon (or to detected convergence).

    Emits one trace row per ``trace_every`` steps and one at the horizon,
    with the energy, flux and decay norms and the stationary residual of
    the order parameter; writes ``trace.csv`` plus two-record field
    snapshots when ``out_dir`` is given.
    A step whose Newton solve diverges is retried once as two half steps
    before the error propagates.
    """
    import os
    import time as _time

    t0_wall = _time.perf_counter()
    stepper = Stepper(model, grid, bc, source)
    ws = stepper.ws

    n_steps = int(round(config.t_end / config.dt))
    if abs(n_steps * config.dt - config.t_end) > 1e-9 * max(1.0,
                                                            config.t_end):
        raise InvalidParameter("t_end must be an integer multiple of dt")

    e0 = stepper.energy(initial.theta.flat, initial.chi.flat)
    if not math.isfinite(e0):
        raise InvalidParameter("initial energy is not finite")

    theta_inf = model.j.theta_inf
    csv_fh = None
    snapshot_files = []
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        csv_fh = open(os.path.join(out_dir, "trace.csv"), "w", newline="\n")
        csv_fh.write(TRACE_HEADER + "\n")

    times, g_dual, states = [], [], []
    cols = {k: [] for k in TRACE_COLUMNS[1:]}
    aux = {k: [] for k in ("norm_thetat_H", "norm_theta_V", "norm_chi_H2",
                           "norm_wprime_H")}

    prev_row_theta = None
    prev_row_chi = None
    prev_row_t = None
    omega = OmegaScan(config.omega_tols)
    verdict = OmegaVerdict("PENDING")

    def emit_row(k, state, energy, iters):
        nonlocal prev_row_theta, prev_row_chi, prev_row_t, verdict
        th = state.theta.flat
        ch = state.chi.flat
        t = state.t
        if prev_row_t is None:
            chit = 0.0
            thetat = 0.0
        else:
            dtr = t - prev_row_t
            chit = ws.h_norm(ch - prev_row_chi) / dtr
            thetat = ws.h_norm(th - prev_row_theta) / dtr
        dist_theta = ws.h_norm(th - theta_inf)
        stat_res = residual_stationary(ch, model, grid, ws)
        row = {"energy": energy, "norm_u_V": ws.vcal_norm(state.u.flat),
               "norm_chit_H": chit, "dist_theta_H": dist_theta,
               "stationary_residual": stat_res, "newton_iters": iters}
        times.append(t)
        for k, v in row.items():
            cols[k].append(v)
        g_dual.append(stepper.g_dual_norm(t))
        aux["norm_thetat_H"].append(thetat)
        aux["norm_theta_V"].append(ws.vcal_norm(th - theta_inf))
        aux["norm_chi_H2"].append(ws.h_norm(ws.A_fd @ ch)
                                  + ws.v_norm(ch))
        aux["norm_wprime_H"].append(
            ws.h_norm(np.asarray(model.w.d1(ch), dtype=float)))
        if csv_fh is not None:
            csv_fh.write(",".join([_fmt(t)] + [_fmt(row[k])
                                               for k in TRACE_COLUMNS[1:-1]]
                                  + [str(iters)]) + "\n")
        if config.keep_states:
            states.append((t, state.theta.copy(), state.chi.copy()))
        prev_row_theta = th.copy()
        prev_row_chi = ch.copy()
        prev_row_t = t
        if omega.push(chit, stat_res, dist_theta) is not None \
                and not verdict.converged:
            verdict = OmegaVerdict("CONVERGED", t, omega.row, stat_res)

    def write_snapshot(k, state):
        if out_dir is None:
            return
        path = os.path.join(out_dir, f"snap_{k:08d}.pfld")
        write_records(path, [(state.theta, state.t), (state.chi, state.t)])
        snapshot_files.append(path)

    state = initial
    energy = e0
    emit_row(0, state, energy, 0)
    if config.snapshot_every > 0:
        write_snapshot(0, state)

    try:
        for k in range(1, n_steps + 1):
            try:
                state, report = stepper.step(state, config,
                                             energy_before=energy)
            except NewtonDiverged:
                half = replace(config, dt=0.5 * config.dt)
                state, rep1 = stepper.step(state, half, energy_before=energy)
                state, report = stepper.step(state, half,
                                             energy_before=rep1.energy_after)
                report = StepReport(rep1.newton_iters + report.newton_iters,
                                    report.residual, energy,
                                    report.energy_after,
                                    rep1.damping_events
                                    + report.damping_events, config.dt)
            energy = report.energy_after
            if k % config.trace_every == 0 or k == n_steps:
                emit_row(k, state, energy, report.newton_iters)
            if config.snapshot_every > 0 and (k % config.snapshot_every == 0
                                              or k == n_steps):
                write_snapshot(k, state)
            if config.stop_on_converged and verdict.converged:
                if config.snapshot_every > 0 and snapshot_files and \
                        not snapshot_files[-1].endswith(f"snap_{k:08d}.pfld"):
                    write_snapshot(k, state)
                break
    finally:
        if csv_fh is not None:
            csv_fh.close()

    return Trajectory(grid=grid, dt=config.dt, times=np.asarray(times),
                      columns={k: np.asarray(v) for k, v in cols.items()},
                      aux={k: np.asarray(v) for k, v in aux.items()},
                      g_dual=np.asarray(g_dual), states=states,
                      final_state=state, verdict=verdict,
                      wall_time=_time.perf_counter() - t0_wall,
                      snapshot_files=tuple(snapshot_files))
