"""Brute-force reference solver for a single time step.

Solves the same per-step nonlinear algebraic system as the production
stepper, but by independent means: dense operator assembly written as plain
loops, a finite-difference Jacobian, a globalized (Armijo backtracking)
Newton iteration, and random multi-start.  Intended for tiny grids inside
tests; it shares nothing with the sparse stepping path except the public
scalar model contract.  Disagreement between converged starts is reported
as a failure (it would indicate non-uniqueness of the step system).
"""

import math

import numpy as np

from .errors import InvalidParameter, OracleFailed
from .grids import Field
from .models import divided_difference_lambda, evaluate
from .dynamics import State

_MARGIN = 1e-10


def _axis_weights(n, h):
    w = [h] * n
    w[0] = 0.5 * h
    w[-1] = 0.5 * h
    return w


def _dense_neumann_stiffness(grid):
    """Cell-by-cell assembly of the gradient form, dense."""
    n = grid.n_total
    K = np.zeros((n, n))
    if grid.dim == 1:
        h = grid.spacing[0]
        for i in range(grid.nodes[0] - 1):
            K[i, i] += 1.0 / h
            K[i + 1, i + 1] += 1.0 / h
            K[i, i + 1] -= 1.0 / h
            K[i + 1, i] -= 1.0 / h
        return K
    nx, ny = grid.nodes
    hx, hy = grid.spacing
    wx = _axis_weights(nx, hx)
    wy = _axis_weights(ny, hy)
    idx = lambda i, j: i * ny + j
    for j in range(ny):            # x-direction differences, weighted in y
        for i in range(nx - 1):
            a, b = idx(i, j), idx(i + 1, j)
            c = wy[j] / hx
            K[a, a] += c
            K[b, b] += c
            K[a, b] -= c
            K[b, a] -= c
    for i in range(nx):            # y-direction differences, weighted in x
        for j in range(ny - 1):
            a, b = idx(i, j), idx(i, j + 1)
            c = wx[i] / hy
            K[a, a] += c
            K[b, b] += c
            K[a, b] -= c
            K[b, a] -= c
    return K


def _dense_weights(grid):
    if grid.dim == 1:
        return np.array(_axis_weights(grid.nodes[0], grid.spacing[0]))
    wx = _axis_weights(grid.nodes[0], grid.spacing[0])
    wy = _axis_weights(grid.nodes[1], grid.spacing[1])
    return np.array([a * b for a in wx for b in wy])


def _dense_boundary_measure(grid):
    g = np.zeros(grid.n_total)
    if grid.dim == 1:
        g[0] = g[-1] = 1.0
        return g
    nx, ny = grid.nodes
    wx = _axis_weights(nx, grid.spacing[0])
    wy = _axis_weights(ny, grid.spacing[1])
    idx = lambda i, j: i * ny + j
    for j in range(ny):
        g[idx(0, j)] += wy[j]
        g[idx(nx - 1, j)] += wy[j]
    for i in range(nx):
        g[idx(i, 0)] += wx[i]
        g[idx(i, ny - 1)] += wx[i]
    return g


def _boundary_indices(grid):
    if grid.dim == 1:
        return {0, grid.nodes[0] - 1}
    nx, ny = grid.nodes
    out = set()
    for j in range(ny):
        out.add(j)
        out.add((nx - 1) * ny + j)
    for i in range(nx):
        out.add(i * ny)
        out.add(i * ny + ny - 1)
    return out


class _DenseSystem:
    """The per-step algebraic system in dense form."""

    def __init__(self, state, dt, model, grid, bc, source):
        self.model = model
        self.grid = grid
        self.bc = bc
        self.dt = dt
        self.n = grid.n_total
        self.w = _dense_weights(grid)
        K = _dense_neumann_stiffness(grid)
        self.A_fd = K / self.w[:, None]
        bidx = sorted(_boundary_indices(grid))
        self.dirichlet = bc.kind == "dirichlet"
        if self.dirichlet:
            self.act = np.array([i for i in range(self.n) if i not in bidx])
            Kb = K[np.ix_(self.act, self.act)]
            self.B_fd = Kb / self.w[self.act][:, None]
        else:
            self.act = np.arange(self.n)
            gamma = _dense_boundary_measure(grid)
            Kr = K + bc.eta * np.diag(gamma)
            self.B_fd = Kr / self.w[:, None]
        self.m = self.act.size
        self.theta_old = state.theta.flat.copy()
        self.chi_old = state.chi.flat.copy()
        self.t_new = state.t + dt
        g = source.f_values(grid, self.t_new)
        if not self.dirichlet:
            exterior = model.j.theta_inf if bc.theta_gamma is None \
                else float(bc.theta_gamma(self.t_new))
            jp = evaluate(model.j, 1, exterior)
            g = g + bc.eta * jp * _dense_boundary_measure(grid) / self.w
        self.g = g

    def split(self, z):
        theta = np.full(self.n, self.model.j.theta_inf) if self.dirichlet \
            else np.empty(self.n)
        theta[self.act] = z[:self.m]
        chi = z[self.m:]
        return theta, chi

    def inside(self, z, margin=_MARGIN):
        theta, chi = self.split(z)
        jlo, jhi = self.model.j.domain
        ilo, ihi = self.model.w.domain
        ok = np.all(np.isfinite(z))
        if math.isfinite(jlo):
            ok = ok and np.min(theta) > jlo + margin
        if math.isfinite(jhi):
            ok = ok and np.max(theta) < jhi - margin
        if math.isfinite(ilo):
            ok = ok and np.min(chi) > ilo + margin
        if math.isfinite(ihi):
            ok = ok and np.max(chi) < ihi - margin
        return bool(ok)

    def residual(self, z):
        theta, chi = self.split(z)
        m = self.model
        u = np.array([evaluate(m.j, 1, v) for v in theta])
        if self.dirichlet:
            for i in _boundary_indices(self.grid):
                u[i] = 0.0
        lam_new = np.array([evaluate(m.lam, 0, v) for v in chi])
        lam_old = np.array([evaluate(m.lam, 0, v) for v in self.chi_old])
        lhat = np.array([divided_difference_lambda(m.lam, a, b)
                         for a, b in zip(self.chi_old, chi)])
        wp = np.array([evaluate(m.w, 1, v) for v in chi])
        kappa = m.w.kappa
        r_theta = ((theta[self.act] - self.theta_old[self.act]) / self.dt
                   + (lam_new[self.act] - lam_old[self.act]) / self.dt
                   + self.B_fd @ u[self.act] - self.g[self.act])
        r_chi = ((chi - self.chi_old) / self.dt + self.A_fd @ chi + wp
                 + kappa * (chi - self.chi_old) - lhat * u)
        return np.concatenate([r_theta, r_chi])

    def fd_jacobian(self, z):
        nz = z.size
        J = np.empty((nz, nz))
        for i in range(nz):
            eps = 1e-7 * (1.0 + abs(z[i]))
            zp = z.copy()
            zm = z.copy()
            zp[i] += eps
            zm[i] -= eps
            if self.inside(zp) and self.inside(zm):
                J[:, i] = (self.residual(zp) - self.residual(zm)) / (2 * eps)
            elif self.inside(zp):
                J[:, i] = (self.residual(zp) - self.residual(z)) / eps
            else:
                J[:, i] = (self.residual(z) - self.residual(zm)) / eps
        return J


def _newton(sys_, z0, tol, max_iter=100):
    z = z0.copy()
    if not sys_.inside(z):
        return None
    for _ in range(max_iter):
        r = sys_.residual(z)
        if np.max(np.abs(r)) <= tol:
            return z
        try:
            delta = np.linalg.solve(sys_.fd_jacobian(z), -r)
        except np.linalg.LinAlgError:
            return None
        merit = 0.5 * float(r @ r)
        alpha = 1.0
        accepted = False
        for _ in range(30):
            zc = z + alpha * delta
            if sys_.inside(zc):
                rc = sys_.residual(zc)
                if 0.5 * float(rc @ rc) <= merit * (1.0 - 1e-4 * alpha) \
                        or np.max(np.abs(rc)) <= tol:
                    z = zc
                    accepted = True
                    break
            alpha *= 0.5
        if not accepted:
            return None
    r = sys_.residual(z)
    return z if np.max(np.abs(r)) <= tol else None


def oracle_step(state, dt, model, grid, bc, source, seed=0, n_starts=6,
                tol=1e-12):
    """Reference solution of one step on a tiny grid (at most 64 nodes).

    Runs a dense damped Newton iteration from the previous state and from
    randomly perturbed starts; all converged starts must agree, otherwise
    OracleFailed is raised.
    """
    if grid.n_total > 64:
        raise InvalidParameter("oracle grids are capped at 64 nodes")
    sys_ = _DenseSystem(state, dt, model, grid, bc, source)
    z0 = np.concatenate([state.theta.flat[sys_.act], state.chi.flat])

    rng = np.random.default_rng(seed)
    starts = [z0]
    jlo, jhi = model.j.domain
    ilo, ihi = model.w.domain
    for _ in range(max(0, n_starts - 1)):
        zs = z0 + 0.05 * rng.standard_normal(z0.size)
        theta, chi = sys_.split(zs)
        theta = np.clip(theta, jlo + 1e-3 if math.isfinite(jlo) else -np.inf,
                        jhi - 1e-3 if math.isfinite(jhi) else np.inf)
        chi = np.clip(chi, ilo + 1e-3 if math.isfinite(ilo) else -np.inf,
                      ihi - 1e-3 if math.isfinite(ihi) else np.inf)
        zs = np.concatenate([theta[sys_.act], chi])
        starts.append(zs)

    roots = []
    for zs in starts:
        z = _newton(sys_, zs, tol)
        if z is not None:
            roots.append(z)
    if not roots:
        raise OracleFailed("no start converged")
    base = roots[0]
    for other in roots[1:]:
        if np.max(np.abs(other - base)) > 1e-8:
            raise OracleFailed(
                "starts converged to distinct roots (step system looks "
                "non-unique at this dt)")

    theta, chi = sys_.split(base)
    return State.make(state.t + dt,
                      Field(grid, theta.reshape(grid.shape)),
                      Field(grid, chi.reshape(grid.shape)), model)
