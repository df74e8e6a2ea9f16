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
import numbers
import os
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.sparse as sps
from scipy.linalg.lapack import dgbsv
from scipy.sparse.linalg import splu

from .errors import DomainViolation, InvalidParameter, NewtonDiverged
from .grids import Field, OperatorWorkspace, write_records
from .models import (DOMAIN_MARGIN, damped_update, evaluate, inside,
                     secant, secant_derivative)
from .steady import stationary_energy

_INF = float("inf")

#: default thresholds of the convergence (omega-limit) test on the phase
#: velocity, the stationary residual and the temperature distance
OMEGA_THRESHOLDS = (1e-7, 1e-6, 1e-6)

#: consecutive passing rows that make a convergence verdict
OMEGA_CONSECUTIVE = 3

#: a 2D Newton iteration solves with the kept LU factor (a chord step) and
#: refactors at the current iterate when the last iteration of the same
#: step left the residual above REFACTOR_RATIO times the one before it
REFACTOR_RATIO = 0.1


@dataclass
class State:
    """Trajectory state: time and the two fields.  ``make`` validates data
    from outside a run against the domains of j and W; a step builds its
    State directly from an iterate damping kept DOMAIN_MARGIN inside."""

    t: float
    theta: Field
    chi: Field

    @classmethod
    def make(cls, t, theta, chi, model):
        if theta.grid != chi.grid:
            raise InvalidParameter(
                f"theta and chi lie on different grids: {theta.grid} and "
                f"{chi.grid}")
        for name, fld, law in (("theta", theta, model.j),
                               ("chi", chi, model.w)):
            if not inside(law, fld.values):
                raise DomainViolation(
                    f"{name} leaves the open interval {law.domain}: range "
                    f"[{fld.values.min()}, {fld.values.max()}]")
        return cls(float(t), theta, chi)


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

    @property
    def is_zero(self):
        return self.profile is None or self.envelope is None


def zero_source():
    return SourceSpec()


class Iterate(NamedTuple):
    """Pointwise arrays of one Newton iterate (theta, chi) of a step from
    the old order parameter: what the residual reads, and the secant's
    switch (see ``models.secant``), which the Jacobian reuses."""

    theta: np.ndarray
    chi: np.ndarray
    u: np.ndarray                # j'(theta)
    wp: np.ndarray               # W'(chi)
    lam_old: np.ndarray          # lam of the old chi, fixed over the step
    lam: np.ndarray              # lam(chi)
    lhat: np.ndarray             # secant of lam from the old chi to chi
    switch: tuple                # the secant's (dsafe, narrow, mid)


class StateValues(NamedTuple):
    """What an accepted state hands forward, evaluated once: its trace row
    reads all but ``lam``, and the next step takes ``lam``.  Only the
    active nodes of ``u`` are read; a step sets it to 0 on Dirichlet
    boundary nodes."""

    energy: float                # free_energy of the state
    u: np.ndarray                # j'(theta)
    wp: np.ndarray               # W'(chi)
    a_chi: np.ndarray            # A chi
    b_u: np.ndarray              # B u, on the active nodes
    lam: np.ndarray              # lam(chi)


@dataclass(frozen=True)
class StepReport:
    """What one accepted step did.  ``factorizations`` counts the LU
    factors its solves made: one per solve in 1D, and in 2D only where the
    kept factor was missing or contracted too slowly (see REFACTOR_RATIO);
    ``predictor_fallbacks`` is 1 when the extrapolated start left the
    admissible set and Newton started from the old state instead.
    ``values`` are the new state's StateValues from the accepting
    iteration, its free energy among them."""

    newton_iters: int
    residual: float
    damping_events: int
    linear_solves: int
    factorizations: int
    predictor_fallbacks: int
    values: StateValues = field(compare=False, repr=False)


@dataclass
class TrajectoryConfig:
    dt: float
    t_end: float
    newton_tol: float = 1e-10
    max_newton: int = 50
    trace_every: int = 1
    snapshot_every: int = 0
    stop_on_converged: bool = False
    omega_tols: tuple = OMEGA_THRESHOLDS
    keep_states: bool = False

    def __post_init__(self):
        # each message starts with the field it rejects, which the config
        # reader reports as the key run.<field>
        for name in ("dt", "t_end"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise InvalidParameter(
                    f"{name} must be finite and positive, got {value!r}")
        ratio = self.t_end / self.dt
        if not (math.isfinite(ratio) and round(ratio) >= 1
                and abs(round(ratio) * self.dt - self.t_end)
                <= 1e-9 * max(1.0, self.t_end)):
            raise InvalidParameter(
                f"t_end must be an integer multiple of dt, got "
                f"t_end = {self.t_end!r} and dt = {self.dt!r}")
        if not self.newton_tol > 0:
            raise InvalidParameter(
                f"newton_tol must be positive, got {self.newton_tol!r}")
        for name, least in (("trace_every", 1), ("max_newton", 1),
                            ("snapshot_every", 0)):
            value = getattr(self, name)
            integer = isinstance(value, (int, np.integer))
            if not integer or isinstance(value, bool):
                raise InvalidParameter(
                    f"{name} must be an integer, got {value!r}")
            if value < least:
                raise InvalidParameter(f"{name} must be at least {least}, "
                                       f"got {value!r}")
        tols = self.omega_tols
        if not (isinstance(tols, (tuple, list)) and len(tols) == 3
                and all(isinstance(v, numbers.Real)
                        and not isinstance(v, bool) and math.isfinite(v)
                        and v > 0 for v in tols)):
            raise InvalidParameter(f"omega_tols must be three finite positive "
                                   f"numbers, got {tols!r}")


def free_energy(theta_flat, chi_flat, model, ws, a_chi=None):
    """Discrete free energy: the stationary energy of chi plus the
    trapezoid quadrature of j(theta); any workspace of the grid serves,
    and a caller that holds ``a_chi`` = A_fd chi passes it."""
    return stationary_energy(chi_flat, model, ws, a_chi) + float(
        np.dot(ws.w, model.j.value(theta_flat)))


# ----------------------------------------------------------------------
# the stepper
# ----------------------------------------------------------------------

class Stepper:
    """Shared machinery for stepping one (model, grid, bc, source) problem.

    Owns the operator workspace, the Newton matrix structure and the
    right-hand side g(t) = e(t) p + b(t) gamma / w, which is rank two:
    ``g_coefficients(t)`` = (e, b) is all of it that varies in time, and
    every dual norm of g or g_t is the 2x2 Gram form
    ``coefficient_dual_norm``.  A step depends only on its arguments: the
    caller hands it the state before, from which it extrapolates its Newton
    start.  What a Stepper keeps between calls is the 2D LU factor that
    ``linear_solve`` reuses across iterations and steps, and the Gram
    matrix, a cache of fixed problem data.
    """

    def __init__(self, model, grid, bc, source):
        self.model = model
        self.grid = grid
        self.bc = bc
        self.source = source
        self.ws = OperatorWorkspace(grid, bc)
        self.n = grid.n_total
        self.act = self.ws.active               # theta unknowns
        self.m = self.act.size
        self.dirichlet = bc.kind == "dirichlet"
        # flat nodal profile of the source, or None for a zero source
        self._profile = None if source.is_zero else (
            np.asarray(source.profile(*grid.meshgrid()), dtype=float)
            + np.zeros(grid.shape)).ravel()
        self._gram = None
        self._lu = None
        self._build_jacobian_structure()

    def _build_jacobian_structure(self):
        """Static sparsity of the coupled Newton matrix, mapped once onto
        the storage the solve uses: per iteration ``_jacobian`` fills a data
        vector and ``np.bincount`` sums it into that storage (duplicate
        diagonal entries sum).

        In 1D the unknowns are interleaved per node as (theta_k, chi_k),
        without the Dirichlet boundary thetas, which gives a band of two
        sub- and two superdiagonals, stored as LAPACK gbsv takes it:
        a[i, j] in row lower + upper + i - j, with the first ``lower`` rows
        zero for the factor's fill-in, column by column, so that gbsv
        factors the storage in place; in 2D the storage is the data array
        of a fixed CSC pattern.
        """
        m, n = self.m, self.n
        size = m + n
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
        self._jshape = (size, size)
        if self.grid.dim == 1:
            node = np.concatenate([self.act, an])
            is_chi = np.arange(size) >= m
            self._perm = np.argsort(2 * node + is_chi, kind="stable")
            pos = np.empty(size, dtype=np.intp)
            pos[self._perm] = np.arange(size)
            self._pos = pos
            r, c = pos[rows], pos[cols]
            lower, upper = int(np.max(r - c)), int(np.max(c - r))
            self._band = (lower, upper)
            rows_ab = 2 * lower + upper + 1
            self._slot = c * rows_ab + lower + upper + r - c
            self._nslots = rows_ab * size
        else:
            keys, self._slot = np.unique(cols * size + rows,
                                         return_inverse=True)
            self._nslots = keys.size
            self._indices = (keys % size).astype(np.int32)
            self._indptr = np.concatenate(
                [[0], np.cumsum(np.bincount(keys // size, minlength=size))]
            ).astype(np.int32)

    # -- constitutive evaluation ------------------------------------------
    def constitutive(self, theta, chi_old, lam_old, chi_new):
        """The Iterate of (theta, chi_new) in a step from chi_old: the
        pointwise arrays the Newton residual needs; ``lam_old`` is
        lam(chi_old), fixed over the step.  The derivative arrays only the
        Jacobian needs are left to ``_jacobian``."""
        m = self.model
        u = m.j.d1(theta)
        wp = m.w.d1(chi_new)
        lam_new = m.lam.value(chi_new)
        lhat, switch = secant(m.lam.d1, chi_old, chi_new, lam_old, lam_new)
        return Iterate(theta, chi_new, u, wp, lam_old, lam_new, lhat, switch)

    def state_values(self, theta, chi):
        """StateValues of a state that no step accepted, such as a run's
        initial state; j' and W' are checked against their domains, and a
        j' that returns its input breaks the law contract and is refused
        here, before a step writes into it."""
        m, ws = self.model, self.ws
        u = evaluate(m.j, 1, theta)
        if np.shares_memory(u, theta):
            raise InvalidParameter(
                f"{m.j.name}: j' returned its input; a law must return a "
                f"new float64 array, never its input, because Stepper.step "
                f"writes into j' on Dirichlet boundary nodes")
        a_chi = ws.A_fd @ chi
        return StateValues(free_energy(theta, chi, m, ws, a_chi), u,
                           evaluate(m.w, 1, chi), a_chi,
                           ws.B_fd @ u[self.act], m.lam.value(chi))

    def g_coefficients(self, t):
        """(e, b) of g(t) = e p + b gamma / w: the source envelope, and for
        Robin conditions eta j' of the exterior temperature (theta_gamma(t),
        or model.j.theta_inf without a schedule); 0 for an absent term.

        ``t`` is a time, which gives two floats, or an array of times,
        which gives two arrays of its shape.  The envelope and the schedule
        are called once per time with a float; j' is evaluated once, on
        all the exterior temperatures."""
        times = np.asarray(t, dtype=float)

        def per_time(fn):
            return np.array([float(fn(s)) for s in times.ravel().tolist()]
                            ).reshape(times.shape)

        e = np.zeros(times.shape) if self._profile is None \
            else per_time(self.source.envelope)
        b = np.zeros(times.shape)
        if self.bc.kind == "robin":
            schedule = self.bc.theta_gamma
            exterior = np.full(times.shape, self.model.j.theta_inf) \
                if schedule is None else per_time(schedule)
            b = self.bc.eta * evaluate(self.model.j, 1, exterior)
        if times.ndim == 0:
            return float(e), float(b)
        return e, b

    def g_density(self, t):
        """Right-hand side g(t) as the nodal density e p + b gamma / w: the
        volumetric source plus, for Robin conditions, the boundary exchange
        term; None when both coefficients are zero."""
        e, b = self.g_coefficients(t)
        if not (e or b):
            return None
        g = np.zeros(self.n) if self._profile is None else self._profile * e
        if self.bc.kind == "robin":
            g = g + b * self.ws.gamma / self.ws.w
        return g

    def coefficient_dual_norm(self, c):
        """Dual norm against the heat operator's energy norm of the weak
        functional c[0] w p + c[1] gamma: sqrt(c . G c) with the Gram matrix
        G = V K_B^-1 V^T of the rows w p and gamma on the active nodes,
        built with two solves on the workspace's K_B factor when first asked
        with c != 0; exactly 0 for c = 0, which factors nothing.  c[0] and
        c[1] are numbers, which give a float, or arrays of one shape, which
        give the norms elementwise."""
        e, b = np.asarray(c[0], dtype=float), np.asarray(c[1], dtype=float)
        if not (e.any() or b.any()):
            q = np.zeros(e.shape)
        else:
            if self._gram is None:
                p = 0.0 if self._profile is None else self._profile
                rows = np.array([self.ws.w * p, self.ws.gamma])[:, self.act]
                sols = [self.ws.pivot_solve("B", r) for r in rows]
                self._gram = rows @ np.transpose(sols)
            (g00, g01), (g10, g11) = self._gram.tolist()
            q = (e * g00 + b * g10) * e + (e * g01 + b * g11) * b
        norm = np.sqrt(np.maximum(q, 0.0))
        return float(norm) if norm.ndim == 0 else norm

    def g_dual_norm(self, t):
        """||g(t)||_*, the norm the per-step energy estimate pairs the
        right-hand side with, at a time or elementwise over an array of
        times."""
        return self.coefficient_dual_norm(self.g_coefficients(t))

    def theta_full(self, theta_act):
        if not self.dirichlet:
            return theta_act
        full = np.full(self.n, self.model.j.theta_inf)
        full[self.act] = theta_act
        return full

    def _residual(self, arrays, z, z_old, dt, g):
        """Newton residual at the iterate z of a step from z_old, both in
        the Newton ordering (the heat rows, then the phase rows), with the
        iterate's A chi and B u."""
        act, m, dz = self.act, self.m, z - z_old
        b_u = self.ws.B_fd @ arrays.u[act]
        heat = (dz[:m] / dt + (arrays.lam[act] - arrays.lam_old[act]) / dt
                + b_u)
        if g is not None:
            heat = heat - g[act]
        a_chi = self.ws.A_fd @ z[m:]
        return np.concatenate([heat, dz[m:] / dt + a_chi + arrays.wp
                               + self.model.w.kappa * dz[m:]
                               - arrays.lhat * arrays.u]), a_chi, b_u

    def _residual_norm(self, r):
        """The larger H norm of the heat and the phase rows; an overflow
        reads inf, and a NaN in either is kept."""
        full = np.zeros(self.n)
        full[self.act] = r[:self.m]
        with np.errstate(over="ignore"):
            return float(np.maximum(self.ws.h_norm(full),
                                    self.ws.h_norm(r[self.m:])))

    def _jacobian(self, arrays, dt):
        """Newton matrix entries at an Iterate, in the order of the static
        structure; j'', W'', lam' and the secant's derivative are evaluated
        here, on the iterations that factor.  An overflow reads inf, which
        ``linear_solve`` rejects."""
        m = self.model
        u, lhat = arrays.u, arrays.lhat
        with np.errstate(over="ignore", invalid="ignore"):
            jpp = m.j.d2(arrays.theta)
            wpp = m.w.d2(arrays.chi)
            lam_p = m.lam.d1(arrays.chi)
            dlhat = secant_derivative(m.lam.d2, lam_p, lhat, arrays.switch)
            jpp_act = jpp[self.act]
            return np.concatenate([
                self._btt_data * jpp_act[self._btt_col],   # B j''(theta)
                np.full(self.m, 1.0 / dt),                 # theta time term
                lam_p[self.act] / dt,                      # latent heat
                -(lhat * jpp)[self.act],                   # flux feedback
                self._acc_data,                            # Neumann stiffness
                1.0 / dt + wpp + m.w.kappa - dlhat * u,    # chi diagonal
            ])

    def linear_solve(self, data, rhs):
        """Solve J x = rhs for the Newton matrix J with entries ``data`` on
        the static structure; rhs and x are in the Newton ordering
        (active thetas, then all chis).

        Returns (x, factorizations).  1D factors the band on every call;
        2D solves with the kept LU factor and ignores ``data`` (which may
        then be None), factoring ``data`` only when no factor is kept.  A
        zero rhs gives x = 0 without a factorization.  A matrix to factor
        that is not finite, or a singular factor, raises NewtonDiverged.
        """
        if not rhs.any():
            return np.zeros_like(rhs), 0
        if self._lu is not None:
            return self._lu.solve(rhs), 0
        if not np.isfinite(data).all():
            raise NewtonDiverged("non-finite Newton matrix in step solve")
        storage = np.bincount(self._slot, weights=data,
                              minlength=self._nslots)
        if self.grid.dim == 1:
            lower, upper = self._band
            # gbsv factors and solves in place, on the fresh storage and
            # permuted rhs: a copy of each would be one more large
            # temporary per solve
            x, info = dgbsv(lower, upper, storage.reshape(rhs.size, -1).T,
                            rhs[self._perm], overwrite_ab=True,
                            overwrite_b=True)[2:]
            if info > 0:
                raise NewtonDiverged(
                    "singular linearization in step solve (singular matrix)")
            return x[self._pos], 1
        jac = sps.csc_matrix((storage, self._indices, self._indptr),
                             shape=self._jshape)
        try:
            self._lu = splu(jac, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise NewtonDiverged(
                f"singular linearization in step solve ({exc})") from None
        return self._lu.solve(rhs), 1

    def _admissible(self, z):
        """Both fields of z DOMAIN_MARGIN inside the domains of j and W."""
        return (inside(self.model.j, self.theta_full(z[:self.m]),
                       DOMAIN_MARGIN)
                and inside(self.model.w, z[self.m:], DOMAIN_MARGIN))

    def step(self, state, config, values=None, previous=None):
        """Advance one step of config.dt; returns (new state, report).

        Newton starts from state + (state - previous) when the caller
        passes ``previous``, the state one step of config.dt earlier, and
        from ``state`` otherwise or when that extrapolation leaves the
        admissible set (a counted fallback).  A start extrapolated from a
        nonzero increment takes at least one Newton correction (unless
        max_newton is 1), so no step repeats the last increment.  In 2D a
        Newton direction solves with the kept LU factor, and the Jacobian
        is assembled and factored only as REFACTOR_RATIO says; a step is
        accepted on its nonlinear residual alone, and NewtonDiverged at the
        cap says if it was still falling.
        Each update is damped by ``models.damped_update``, whose halvings
        are the report's damping events.  ``values`` are the StateValues
        of ``state``, evaluated here when the caller does not pass them.
        The right-hand side is g_density(state.t + config.dt), evaluated
        here at whatever time the step reaches.
        """
        dt = config.dt
        # read only: every iterate below is a new array
        theta_old = state.theta.flat
        chi_old = state.chi.flat
        if values is None:
            values = self.state_values(theta_old, chi_old)
        lam_old = values.lam
        t_new = state.t + dt
        g = self.g_density(t_new)

        # the iterate in the Newton ordering: active thetas, then all chis
        z_old = np.concatenate([theta_old[self.act], chi_old])
        z = z_old
        fallbacks = 0
        predicted = False
        if previous is not None:
            dz = z_old - np.concatenate([previous.theta.flat[self.act],
                                         previous.chi.flat])
            z = z_old + dz
            if self._admissible(z):
                # a zero increment extrapolates nothing
                predicted = bool(dz.any())
            else:
                z, fallbacks = z_old, 1
        damping_events = 0
        solves = factorizations = 0
        res_prev = None
        res_min, it_min = _INF, 0     # least residual, first iteration

        for it in range(1, config.max_newton + 1):
            theta_f, chi = self.theta_full(z[:self.m]), z[self.m:]
            arrays = self.constitutive(theta_f, chi_old, lam_old, chi)
            if self.dirichlet:
                # boundary flux vanishes exactly there (j'(theta_inf) = 0)
                arrays.u[self.ws.bmask] = 0.0
            r, a_chi, b_u = self._residual(arrays, z, z_old, dt, g)
            res = self._residual_norm(r)
            if not math.isfinite(res):
                raise NewtonDiverged(
                    f"non-finite residual norm {res!r} in step", residual=res)
            if res <= config.newton_tol and not (
                    predicted and it == 1 and config.max_newton > 1):
                # the old state, the checked prediction or a damped
                # iterate: no domain check
                shape = self.grid.shape
                new_state = State(t_new, Field(self.grid,
                                               theta_f.reshape(shape)),
                                  Field(self.grid, chi.reshape(shape)))
                return new_state, StepReport(
                    newton_iters=it, residual=res,
                    damping_events=damping_events, linear_solves=solves,
                    factorizations=factorizations,
                    predictor_fallbacks=fallbacks,
                    values=StateValues(
                        free_energy(theta_f, chi, self.model, self.ws,
                                    a_chi),
                        arrays.u, arrays.wp, a_chi, b_u, arrays.lam))
            if it == config.max_newton:
                trend = "still falling" if res < res_min else (
                    f"stalled: smallest {res_min:.3e} first reached at "
                    f"iteration {it_min}")
                raise NewtonDiverged(
                    f"residual {res:.3e} above tolerance "
                    f"{config.newton_tol:.1e} after {it} iterations, "
                    f"{trend}", residual=res)
            if res < res_min:
                res_min, it_min = res, it
            if res_prev is not None and res > REFACTOR_RATIO * res_prev:
                self._lu = None      # the kept factor contracts too slowly
            res_prev = res
            # the Jacobian data is passed inline and freed with the solve:
            # held in a name past it, a 1D run took ten times the page faults
            delta, factored = self.linear_solve(
                self._jacobian(arrays, dt) if self._lu is None else None, -r)
            solves += 1
            factorizations += factored
            if not np.all(np.isfinite(delta)):
                raise NewtonDiverged("singular linearization in step solve",
                                     residual=res)
            z, halvings = damped_update(
                z, delta, self._admissible,
                "step damping exhausted: iterates cannot stay inside the "
                "admissible set (reduce dt or move data away from the "
                "potential wall)")
            damping_events += halvings
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

#: Trajectory.aux series: the regularity monitors' inputs beyond the trace
AUX_SERIES = ("norm_thetat_H", "norm_theta_V", "norm_chi_H2",
              "norm_wprime_H")


@dataclass
class OmegaVerdict:
    """Outcome of the omega-limit scan (``OmegaScan.verdict``): the row
    that completed the test and its time, the limit temperature, and the
    final state's stationary residual as the certificate.  ``t``, ``row``
    and ``certified_residual`` are None while PENDING."""

    status: str                  # 'CONVERGED' | 'PENDING'
    t: Optional[float]
    row: Optional[int]
    theta_limit: float
    certified_residual: Optional[float]

    @property
    def converged(self):
        return self.status == "CONVERGED"


class OmegaScan:
    """Consecutive-rows convergence test over a trace, fed one row at a time.

    A row passes when the phase velocity, the stationary residual and the
    temperature distance are all below their thresholds; row 0 carries no
    backward difference and never passes.  The verdict is the row that
    completes the first run of ``OMEGA_CONSECUTIVE`` passing rows.
    """

    def __init__(self, thresholds):
        self.thresholds = thresholds
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
            if self.run_len >= OMEGA_CONSECUTIVE:
                self.row = row
        return self.row

    def verdict(self, times, residuals, theta_limit):
        """The verdict of the rows fed so far, given their times and
        stationary residuals; the certificate is the final row's
        residual, the final state's by construction of a run."""
        if self.row is None:
            return OmegaVerdict("PENDING", None, None, theta_limit, None)
        return OmegaVerdict("CONVERGED", float(times[self.row]), self.row,
                            theta_limit, float(residuals[-1]))


@dataclass
class Trajectory:
    """A finished run; ``times`` is its only time axis, and every row
    diagnostic weights by the actual row gaps ``np.diff(times)``.
    ``stepper`` is the run's Stepper: the post-hoc diagnostics read the
    problem (model, grid, bc, source), the operator workspace ``ws`` and
    the right-hand side's Gram form from it, and ``g_dual`` derives from
    the row times."""

    stepper: Stepper
    dt: float
    times: np.ndarray
    columns: dict                # csv columns, parallel arrays
    aux: dict                    # extra per-row series (monitor inputs)
    states: list                 # [(t, theta Field, chi Field)] if kept
    final_state: State
    verdict: OmegaVerdict
    stats: dict                  # run counters, see RUN_STATS
    snapshot_files: tuple = ()

    @property
    def energies(self):
        return self.columns["energy"]

    @cached_property
    def g_dual(self):
        """||g(t_row)||_* per trace row."""
        return self.stepper.g_dual_norm(self.times)


#: Trajectory.stats keys: the StepReport counters SUMMED_STATS summed over
#: every accepted step and half step, and the steps retried as two half
#: steps
SUMMED_STATS = ("newton_iters", "damping_events", "linear_solves",
                "factorizations", "predictor_fallbacks")
RUN_STATS = SUMMED_STATS + ("retried_steps",)


def _fmt(x):
    return format(float(x), ".17g")


def _accepted_steps(stepper, state, values, config, stats):
    """Yield (k, state, values, newton_iters) for k = 0 ... n_steps, the
    initial state first, with its given StateValues and 0 iterations; step
    k's state has time t0 + k * dt, t0 the initial state's, and its values
    come from its report.  A step predicts from the state before it.  One
    whose Newton solve diverges is retried once as two unpredicted half
    steps; if a half step diverges too, the NewtonDiverged raised names the
    whole step's time and both failures.  Every report is reduced into
    ``stats``."""
    yield 0, state, values, 0
    t0 = state.t
    previous = None
    for k in range(1, round(config.t_end / config.dt) + 1):
        # from the step index: repeated addition of dt drifts
        t_k = t0 + k * config.dt
        try:
            steps = [stepper.step(state, config, values=values,
                                  previous=previous)]
        except NewtonDiverged as whole:
            half = replace(config, dt=0.5 * config.dt)
            try:
                mid, rep1 = stepper.step(state, half, values=values)
                steps = [(mid, rep1),
                         stepper.step(mid, half, values=rep1.values)]
            except NewtonDiverged as part:
                msg = (f"step to t = {t_k:.12g}: {whole}; "
                       f"retried as two half steps: {part}")
                raise NewtonDiverged(msg, residual=whole.residual) from part
            stats["retried_steps"] += 1
        for _, rep in steps:
            for key in SUMMED_STATS:
                stats[key] += getattr(rep, key)
        previous, (state, report) = state, steps[-1]
        state.t = t_k
        values = report.values
        yield k, state, values, sum([rep.newton_iters for _, rep in steps])


def _trace_row(state, prev, values, iters, model, ws):
    """Trace and aux values of a row after the row ``prev`` (None for the
    first), read off the state's StateValues: no pointwise law or operator
    product of u or chi is evaluated again."""
    th, ch = state.theta.flat, state.chi.flat
    if prev is None:
        chit = thetat = 0.0
    else:
        dtr = state.t - prev.t
        chit = ws.h_norm(ch - prev.chi.flat) / dtr
        thetat = ws.h_norm(th - prev.theta.flat) / dtr
    dev = th - model.j.theta_inf
    return {"t": state.t, "energy": values.energy,
            "norm_u_V": ws.vcal_norm(values.u, values.b_u),
            "norm_chit_H": chit, "dist_theta_H": ws.h_norm(dev),
            "stationary_residual": ws.vstar_neumann_norm(values.a_chi
                                                         + values.wp),
            "newton_iters": iters,
            "norm_thetat_H": thetat, "norm_theta_V": ws.vcal_norm(dev),
            "norm_chi_H2": ws.h_norm(values.a_chi) + ws.v_norm(ch,
                                                                values.a_chi),
            "norm_wprime_H": ws.h_norm(values.wp)}


def run(initial, config, model, grid, bc, source, out_dir=None):
    """Drive a trajectory to the horizon (or to detected convergence).

    Emits one trace row per ``trace_every`` steps and one at the horizon,
    with the energy, flux and decay norms and the stationary residual of
    the order parameter; step k = 0 ... round(t_end / dt) has the time
    initial.t + k * dt, so ``t_end`` is the run's length from its initial
    time.  Writes ``trace.csv`` plus two-record field snapshots when
    ``out_dir`` is given.
    """
    if initial.theta.grid != grid or initial.chi.grid != grid:
        raise InvalidParameter(
            f"the initial state does not lie on the run's grid {grid}")
    stepper = Stepper(model, grid, bc, source)
    n_steps = round(config.t_end / config.dt)

    # an overflow reads inf, and inf - inf NaN: both are refused below
    with np.errstate(over="ignore", invalid="ignore"):
        values = stepper.state_values(initial.theta.flat, initial.chi.flat)
    if not math.isfinite(values.energy):
        raise InvalidParameter("initial energy is not finite")

    csv_fh = None
    snapshot_files = []
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        csv_fh = open(os.path.join(out_dir, "trace.csv"), "w", newline="\n")
        csv_fh.write(TRACE_HEADER + "\n")

    states = []
    series = {k: [] for k in TRACE_COLUMNS + AUX_SERIES}
    prev = None                  # the State of the previous row
    omega = OmegaScan(config.omega_tols)
    stats = dict.fromkeys(RUN_STATS, 0)

    try:
        for k, state, values, iters in _accepted_steps(
                stepper, initial, values, config, stats):
            if k % config.trace_every == 0 or k == n_steps:
                row = _trace_row(state, prev, values, iters, model, stepper.ws)
                for key, v in row.items():
                    series[key].append(v)
                if csv_fh is not None:
                    csv_fh.write(
                        ",".join([_fmt(row[c]) for c in TRACE_COLUMNS]) + "\n")
                if config.keep_states:
                    states.append((state.t, state.theta.copy(),
                                   state.chi.copy()))
                # a step returns new arrays and never writes to them: no copy
                prev = state
                omega.push(row["norm_chit_H"], row["stationary_residual"],
                           row["dist_theta_H"])
            stopping = config.stop_on_converged and omega.row is not None
            if out_dir is not None and config.snapshot_every > 0 and (
                    k % config.snapshot_every == 0 or k == n_steps
                    or stopping):
                path = os.path.join(out_dir, f"snap_{k:08d}.pfld")
                write_records(path, [(state.theta, state.t),
                                     (state.chi, state.t)])
                snapshot_files.append(path)
            if stopping:
                break
    finally:
        if csv_fh is not None:
            csv_fh.close()

    verdict = omega.verdict(series["t"], series["stationary_residual"],
                            model.j.theta_inf)
    return Trajectory(stepper=stepper, dt=config.dt,
                      times=np.asarray(series["t"]),
                      columns={k: np.asarray(series[k])
                               for k in TRACE_COLUMNS[1:]},
                      aux={k: np.asarray(series[k]) for k in AUX_SERIES},
                      states=states, final_state=state, verdict=verdict,
                      stats=stats, snapshot_files=tuple(snapshot_files))
