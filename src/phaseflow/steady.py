"""Stationary problem A chi + W'(chi) = 0 under homogeneous Neumann
conditions: damped Newton solves, residual certificates in the discrete dual
norm, and the maximum-principle style range check.

Nonconvexity of W makes the stationary set large (every constant at a
critical point of W solves it, and layer profiles appear on long domains),
so solves are guess-driven and the catalog tooling simply collects distinct
solutions from a guess family.  A singular linearization is surfaced as
DegenerateJacobian: it marks a bifurcation point and hiding it would mask
exactly the degenerate regime the slow-convergence diagnostics care about.
"""

import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps
from scipy.sparse.linalg import splu

from .errors import (DegenerateJacobian, DomainExhausted, DomainViolation,
                     InvalidParameter, NewtonDiverged)
from .grids import Field, OperatorWorkspace, write_records
from .models import DOMAIN_MARGIN, damped_update, evaluate, inside


@dataclass
class SteadyState:
    chi: Field
    residual: float              # dual-norm certificate of A chi + W'(chi)
    observed_range: tuple        # (min, max) over the nodes
    confinement: tuple           # interval the range is expected to stay in
    energy: float
    newton_iters: int

    @property
    def is_constant(self):
        lo, hi = self.observed_range
        return hi - lo < 1e-10


@dataclass
class RangeReport:
    inside: bool
    interval: tuple
    worst_offender: float
    worst_distance: float


#: relative widening of the confinement interval about its midpoint
CONFINEMENT_INFLATE = 0.01

#: Newton iterations of a stationary solve before it counts as diverged
STATIONARY_MAX_ITER = 60

#: H distance below which two catalog solutions count as one
CATALOG_DEDUPE_TOL = 1e-8


def default_confinement(model):
    """Confinement interval from the critical points of W: their convex
    hull inflated by 1% about its midpoint.  The true interval promised by
    the theory is only known to exist; this convention is a testable
    stand-in and is labeled as such in reports."""
    zeros = model.w.d1_zeros
    if not zeros:
        return None
    lo, hi = min(zeros), max(zeros)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo) * (1.0 + CONFINEMENT_INFLATE)
    return (mid - half, mid + half)


def stationary_energy(chi_flat, model, ws):
    """E(v) = int( |grad v|^2/2 + W(v) ), the energy the flow minimizes:
    the exact stiffness quadratic form plus trapezoid quadrature of W."""
    return 0.5 * float(chi_flat @ (ws.K_A @ chi_flat)) \
        + float(np.dot(ws.w, evaluate(model.w, 0, chi_flat)))


def stationary_vector(chi_flat, model, ws):
    """Nodal residual A chi + W'(chi) of the stationary equation, with its
    two terms A chi and W'(chi), which the trace monitors also read."""
    a_chi, wprime = ws.A_fd @ chi_flat, evaluate(model.w, 1, chi_flat)
    return a_chi + wprime, a_chi, wprime


def residual_stationary(chi, model, grid, ws=None):
    """Dual-norm size of A chi + W'(chi).

    The stationary problem lives under Neumann conditions whatever the
    temperature boundary treatment was, so the Neumann pivot is used.  A
    caller that evaluates the residual repeatedly passes its own workspace,
    which keeps the pivot factorization across calls.
    """
    if ws is None:
        ws = OperatorWorkspace(grid, None)
    flat = chi.flat if isinstance(chi, Field) else np.asarray(chi).ravel()
    return ws.vstar_neumann_norm(stationary_vector(flat, model, ws)[0])


def solve_stationary(guess, model, grid, tol=1e-10, ws=None):
    """Damped Newton for the stationary problem from a given guess.

    Which solution is found depends on the guess.  The residual is measured
    in the Neumann dual norm; ``models.damped_update`` keeps the iterates
    models.DOMAIN_MARGIN inside the domain of W and raises DomainExhausted
    when it cannot.  A caller that solves repeatedly passes its own
    workspace, as for ``residual_stationary``.
    """
    if tol <= 0:
        raise InvalidParameter("tolerance must be positive")
    if ws is None:
        ws = OperatorWorkspace(grid, None)
    chi = guess.flat.copy()
    if not inside(model.w, chi, DOMAIN_MARGIN):
        raise DomainViolation("guess leaves the domain of W")

    for it in range(1, STATIONARY_MAX_ITER + 1):
        r = stationary_vector(chi, model, ws)[0]
        res = ws.vstar_neumann_norm(r)
        if res <= tol:
            break
        if it == STATIONARY_MAX_ITER:
            raise NewtonDiverged(
                f"stationary residual {res:.3e} above {tol:.1e} after "
                f"{it} iterations", residual=res)
        wpp = evaluate(model.w, 2, chi)
        jac = (ws.A_fd + sps.diags(wpp)).tocsc()
        try:
            lu = splu(jac)
        except RuntimeError as exc:
            raise DegenerateJacobian(
                f"singular stationary linearization ({exc}); this marks a "
                "bifurcation point") from None
        delta = lu.solve(-r)
        lin_res = float(np.linalg.norm(jac @ delta + r))
        if not np.all(np.isfinite(delta)) or \
                lin_res > 1e-8 * (1.0 + float(np.linalg.norm(r))):
            raise DegenerateJacobian(
                "stationary linearization is numerically singular; this "
                "marks a bifurcation point")
        chi = damped_update(
            chi, delta, lambda c: inside(model.w, c, DOMAIN_MARGIN),
            "stationary solve damping exhausted: iterates cannot stay "
            "inside the domain of W")[0]

    fld = Field(grid, chi.reshape(grid.shape))
    conf = default_confinement(model)
    return SteadyState(
        chi=fld, residual=float(res),
        observed_range=(float(np.min(chi)), float(np.max(chi))),
        confinement=conf if conf is not None else model.w.domain,
        energy=stationary_energy(chi, model, ws), newton_iters=it)


def check_range(steady, interval=None):
    """True iff every nodal value lies inside the confinement interval."""
    lo, hi = interval if interval is not None else steady.confinement
    vals = steady.chi.flat
    below = lo - vals
    above = vals - hi
    dist = np.maximum(below, above)
    i = int(np.argmax(dist))
    return RangeReport(inside=bool(dist[i] <= 0.0), interval=(lo, hi),
                       worst_offender=float(vals[i]),
                       worst_distance=float(max(dist[i], 0.0)))


def solve_catalog(guesses, model, grid, tol=1e-10, out_dir=None):
    """Solve from each guess, keep distinct solutions, optionally write the
    snapshot-per-solution catalog plus its CSV index."""
    ws = OperatorWorkspace(grid, None)
    found = []
    for guess in guesses:
        try:
            st = solve_stationary(guess, model, grid, tol=tol, ws=ws)
        except (NewtonDiverged, DomainExhausted, DegenerateJacobian):
            continue
        if all(ws.h_norm(st.chi.flat - other.chi.flat) > CATALOG_DEDUPE_TOL
               for other in found):
            found.append(st)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        lines = ["index,residual,energy,min,max,constant_flag"]
        for k, st in enumerate(found):
            write_records(os.path.join(out_dir, f"steady_{k}.pfld"),
                          [(st.chi, 0.0)])
            lines.append(
                f"{k},{st.residual:.17g},{st.energy:.17g},"
                f"{st.observed_range[0]:.17g},{st.observed_range[1]:.17g},"
                f"{int(st.is_constant)}")
        with open(os.path.join(out_dir, "steady_catalog.csv"), "w",
                  newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    return found
