"""Uniform box discretization: grids, nodal fields, snapshot files, the
discrete elliptic operators, quadrature and norms.

Everything is mass-lumped piecewise-linear on a tensor grid, which in flat
(finite-difference) form reproduces the classical second-order stencils:
the Neumann Laplacian uses reflected ghost nodes at the boundary, the
Dirichlet variant acts on interior nodes, and the Robin operator adds the
boundary-mass term eta * integral_Gamma u v.  Operators are kept in their
symmetric variational form K (so quadratic forms and Green identities are
exact) together with the quadrature weights w; the pointwise action is
diag(1/w) K.
"""

import math
import os
import struct
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sps
from scipy.sparse.linalg import splu

from .errors import InvalidParameter, SingularSolve, SnapshotError

_INF = float("inf")


@dataclass(frozen=True)
class Grid:
    """Tensor grid on a box, d in {1, 2}, at least 3 nodes per axis."""

    extents: tuple
    nodes: tuple

    def __post_init__(self):
        if not (1 <= len(self.extents) == len(self.nodes) <= 2):
            raise InvalidParameter("grid must be 1D or 2D with matching "
                                   "extents and node counts")
        if any(e <= 0 for e in self.extents):
            raise InvalidParameter("extents must be positive")
        if any(n < 3 for n in self.nodes):
            raise InvalidParameter("need at least 3 nodes per axis")
        object.__setattr__(self, "extents",
                           tuple(float(e) for e in self.extents))
        object.__setattr__(self, "nodes", tuple(int(n) for n in self.nodes))

    @property
    def dim(self):
        return len(self.nodes)

    @property
    def shape(self):
        return self.nodes

    @property
    def n_total(self):
        return math.prod(self.nodes)

    @property
    def spacing(self):
        return tuple(e / (n - 1) for e, n in zip(self.extents, self.nodes))

    def axes(self):
        return [np.linspace(0.0, e, n)
                for e, n in zip(self.extents, self.nodes)]

    def meshgrid(self):
        return np.meshgrid(*self.axes(), indexing="ij")


@dataclass
class Field:
    """Nodal scalar field on a grid; values carry the grid's shape."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise InvalidParameter(
                f"field shape {self.values.shape} does not match grid "
                f"{self.grid.shape}")
        if not np.all(np.isfinite(self.values)):
            raise InvalidParameter("field contains non-finite values")

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def full(cls, grid, value):
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def from_function(cls, grid, fn: Callable):
        return cls(grid, np.asarray(fn(*grid.meshgrid()), dtype=float)
                   + np.zeros(grid.shape))

    def copy(self):
        return Field(self.grid, self.values.copy())

    @property
    def flat(self):
        return self.values.ravel()


def axis_weights(n, h):
    """1D trapezoid weights h * [1/2, 1, ..., 1, 1/2]."""
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def quad_weights(grid):
    """Flat trapezoid quadrature weights over the box."""
    per_axis = [axis_weights(n, h) for n, h in zip(grid.nodes, grid.spacing)]
    if grid.dim == 1:
        return per_axis[0].copy()
    return np.outer(per_axis[0], per_axis[1]).ravel()


def integrate(grid, f):
    """Trapezoid quadrature of a field (exact for affine fields)."""
    return float(np.dot(quad_weights(grid), np.asarray(f.values).ravel()))


def boundary_mask(grid):
    """Boolean flat mask of the boundary nodes."""
    m = np.zeros(grid.shape, dtype=bool)
    if grid.dim == 1:
        m[0] = m[-1] = True
    else:
        m[0, :] = m[-1, :] = True
        m[:, 0] = m[:, -1] = True
    return m.ravel()


def boundary_measure(grid):
    """Flat vector of boundary surface weights (counting measure in 1D,
    trapezoid arc weights along each edge in 2D; corners accumulate both)."""
    gamma = np.zeros(grid.shape)
    if grid.dim == 1:
        gamma[0] = gamma[-1] = 1.0
    else:
        wx = axis_weights(grid.nodes[0], grid.spacing[0])
        wy = axis_weights(grid.nodes[1], grid.spacing[1])
        gamma[0, :] += wy
        gamma[-1, :] += wy
        gamma[:, 0] += wx
        gamma[:, -1] += wx
    return gamma.ravel()


# ----------------------------------------------------------------------
# boundary conditions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BoundarySpec:
    """Temperature boundary treatment; the order parameter always carries
    homogeneous Neumann conditions.

    Dirichlet pins the boundary temperature at the model equilibrium value
    (where the flux variable j'(theta) vanishes); Robin exchanges heat with
    an exterior trace schedule theta_gamma(t) at transfer coefficient eta.
    """

    kind: str                      # 'dirichlet' | 'robin'
    theta_inf: float = 0.0         # Dirichlet boundary temperature
    eta: Optional[float] = None    # Robin transfer coefficient
    theta_gamma: Optional[Callable] = None  # Robin trace schedule t -> value

    def __post_init__(self):
        if self.kind not in ("dirichlet", "robin"):
            raise InvalidParameter(f"unknown boundary kind {self.kind!r}")
        if self.kind == "robin":
            if self.eta is None or self.eta <= 0:
                raise InvalidParameter("robin conditions need eta > 0")

    def trace_value(self, t):
        if self.theta_gamma is None:
            return self.theta_inf
        return float(self.theta_gamma(t))


def check_dirichlet_consistency(bc, model):
    if bc.kind == "dirichlet" and bc.theta_inf != model.j.theta_inf:
        raise InvalidParameter(
            "dirichlet boundary temperature must equal the model "
            f"equilibrium value {model.j.theta_inf}, got {bc.theta_inf}")


# ----------------------------------------------------------------------
# operators
# ----------------------------------------------------------------------

def _stiffness_1d(n, h):
    main = np.full(n, 2.0 / h)
    main[0] = main[-1] = 1.0 / h
    off = np.full(n - 1, -1.0 / h)
    return sps.diags([off, main, off], [-1, 0, 1], format="csr")


def stiffness_neumann(grid):
    """Variational Neumann stiffness K: u^T K v = sum_cells grad u . grad v."""
    if grid.dim == 1:
        return _stiffness_1d(grid.nodes[0], grid.spacing[0]).tocsr()
    kx = _stiffness_1d(grid.nodes[0], grid.spacing[0])
    ky = _stiffness_1d(grid.nodes[1], grid.spacing[1])
    mx = sps.diags(axis_weights(grid.nodes[0], grid.spacing[0]))
    my = sps.diags(axis_weights(grid.nodes[1], grid.spacing[1]))
    return (sps.kron(kx, my) + sps.kron(mx, ky)).tocsr()


@dataclass
class DiscreteOperator:
    """Second-order elliptic operator on the grid.

    ``K`` is the symmetric variational matrix over the active nodes
    (all nodes for the Neumann and Robin kinds, interior nodes for the
    Dirichlet kind, where boundary values are taken as zero); ``weights``
    are the full quadrature weights.  ``apply`` returns the pointwise
    (finite-difference) action diag(1/w) K, zero on inactive nodes.
    """

    kind: str
    grid: Grid
    K: sps.csr_matrix
    weights: np.ndarray
    active: np.ndarray           # flat indices of active nodes
    eta: Optional[float] = None
    _lu: object = field(default=None, repr=False)

    def apply(self, values):
        flat = np.asarray(values).ravel()
        out = np.zeros_like(flat)
        out[self.active] = (self.K @ flat[self.active]) \
            / self.weights[self.active]
        return out.reshape(self.grid.shape)

    def quad_form(self, u, v=None):
        uu = np.asarray(u).ravel()[self.active]
        vv = uu if v is None else np.asarray(v).ravel()[self.active]
        return float(uu @ (self.K @ vv))

    def lu(self):
        if self._lu is None:
            self._lu = splu(self.K.tocsc())
        return self._lu


def assemble(grid, bc, kind):
    """Assemble the requested operator; kind 'B' resolves to the Dirichlet
    Laplacian or the Robin operator depending on the boundary spec."""
    w = quad_weights(grid)
    ka = stiffness_neumann(grid)
    all_idx = np.arange(grid.n_total)
    if kind == "A":
        return DiscreteOperator("A", grid, ka, w, all_idx)
    if kind == "R" or (kind == "B" and bc is not None and bc.kind == "robin"):
        if bc is None or bc.eta is None:
            raise InvalidParameter("Robin operator needs a boundary spec "
                                   "with eta")
        kr = (ka + bc.eta * sps.diags(boundary_measure(grid))).tocsr()
        return DiscreteOperator("R", grid, kr, w, all_idx, eta=bc.eta)
    if kind == "B":
        interior = np.flatnonzero(~boundary_mask(grid))
        kb = ka[interior][:, interior].tocsr()
        return DiscreteOperator("B_dirichlet", grid, kb, w, interior)
    raise InvalidParameter(f"unknown operator kind {kind!r}")


# ----------------------------------------------------------------------
# norms
# ----------------------------------------------------------------------

def nodal_gradient(grid, values, axis):
    """Second-order nodal gradient (central inside, one-sided at the ends)."""
    return np.gradient(values, grid.spacing[axis], axis=axis, edge_order=2)


class OperatorWorkspace:
    """All grid/bc-dependent machinery one solver run needs, with cached
    factorizations.  A workspace is owned by a single caller; independent
    runs build their own (the factors carry internal scratch state).

    ``A_fd`` is the pointwise Neumann Laplacian diag(1/w) K.  With
    ``bc=None`` the workspace serves the order parameter's Neumann problem
    alone: it has no heat operator ``opB``, and only the norms that need
    none are available.
    """

    def __init__(self, grid, bc):
        self.grid = grid
        self.bc = bc
        self.w = quad_weights(grid)
        self.gamma = boundary_measure(grid)
        self.bmask = boundary_mask(grid)
        self.opA = assemble(grid, None, "A")
        self.A_fd = (sps.diags(1.0 / self.w) @ self.opA.K).tocsr()
        self.opB = assemble(grid, bc, "B") if bc is not None else None
        self._pivot_neumann = None

    # -- scalar reductions -------------------------------------------------
    def h_norm(self, flat):
        return float(np.sqrt(np.dot(self.w, np.square(flat))))

    def c0_norm(self, flat):
        return float(np.max(np.abs(flat)))

    def v_norm(self, values):
        vals = np.asarray(values).reshape(self.grid.shape)
        total = np.dot(self.w, np.square(vals).ravel())
        for ax in range(self.grid.dim):
            g = nodal_gradient(self.grid, vals, ax)
            total += np.dot(self.w, np.square(g).ravel())
        return float(np.sqrt(total))

    def r_norm(self, flat):
        if self.bc is None or self.bc.eta is None:
            raise InvalidParameter("R-norm needs a Robin boundary spec")
        q = self.opA.quad_form(flat) \
            + self.bc.eta * float(np.dot(self.gamma, np.square(flat)))
        return float(np.sqrt(max(q, 0.0)))

    def vcal_norm(self, flat):
        """Norm of the solution space the heat operator acts on: the
        Dirichlet gradient norm, or the Robin norm."""
        if self.bc.kind == "dirichlet":
            return float(np.sqrt(max(self.opB.quad_form(flat), 0.0)))
        return self.r_norm(flat)

    def _checked_solve(self, lu, K, rhs):
        sol = lu.solve(rhs)
        scale = 1.0 + float(np.linalg.norm(rhs))
        res = float(np.linalg.norm(K @ sol - rhs))
        if res > 1e-12 * scale:
            sol = sol + lu.solve(rhs - K @ sol)
            res = float(np.linalg.norm(K @ sol - rhs))
            if res > 1e-10 * scale:
                raise SingularSolve(
                    f"pivot solve residual {res:.3e} exceeds tolerance")
        return sol

    def pivot_neumann_lu(self):
        if self._pivot_neumann is None:
            K = (self.opA.K + sps.diags(self.w)).tocsc()
            self._pivot_neumann = (splu(K), K)
        return self._pivot_neumann

    def vstar_norm(self, flat):
        """Dual norm via the elliptic pivot: the Dirichlet Laplacian for
        Dirichlet problems, Neumann Laplacian plus identity otherwise."""
        if self.bc is not None and self.bc.kind == "dirichlet":
            return self.dual_norm_weak(self.w * flat)
        return self.vstar_neumann_norm(flat)

    def vstar_neumann_norm(self, flat):
        """Dual norm with the Neumann pivot regardless of bc (used for the
        stationary residual, whose natural space has Neumann conditions)."""
        lu, K = self.pivot_neumann_lu()
        rhs = self.w * flat
        sol = self._checked_solve(lu, K, rhs)
        return float(np.sqrt(max(np.dot(rhs, sol), 0.0)))

    def dual_norm_weak(self, weak_vec):
        """Exact dual norm of a weak-form functional against the heat
        operator's own energy norm (the norm the energy estimate pairs the
        source with)."""
        g = np.asarray(weak_vec).ravel()[self.opB.active]
        sol = self._checked_solve(self.opB.lu(), self.opB.K, g)
        return float(np.sqrt(max(np.dot(g, sol), 0.0)))


def norm(grid, f, which, bc=None):
    """Discrete norms of a field: 'H', 'V', 'R', 'Vstar' or 'C0'."""
    ws = OperatorWorkspace(grid, bc)
    flat = f.flat if isinstance(f, Field) else np.asarray(f).ravel()
    if which == "H":
        return ws.h_norm(flat)
    if which == "C0":
        return ws.c0_norm(flat)
    if which == "V":
        return ws.v_norm(flat)
    if which == "R":
        if bc is None:
            raise InvalidParameter("R-norm needs a Robin boundary spec")
        return ws.r_norm(flat)
    if which == "Vstar":
        if bc is None:
            raise InvalidParameter("Vstar norm needs a boundary spec to "
                                   "pick the dual pivot")
        return ws.vstar_norm(flat)
    raise InvalidParameter(f"unknown norm kind {which!r}")


# ----------------------------------------------------------------------
# snapshot files
# ----------------------------------------------------------------------

_MAGIC = b"PFLD"
_VERSION = 1


def _write_record(fh, fld, t):
    grid = fld.grid
    fh.write(_MAGIC)
    fh.write(struct.pack("<BB", _VERSION, grid.dim))
    fh.write(struct.pack(f"<{grid.dim}I", *grid.nodes))
    fh.write(struct.pack(f"<{grid.dim}d", *grid.extents))
    fh.write(struct.pack("<d", float(t)))
    fh.write(np.ascontiguousarray(fld.values, dtype="<f8").tobytes())


def _read_exact(fh, size, what):
    # the size check comes first so a corrupt node count never turns into
    # an oversized read
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if size > left:
        raise SnapshotError(f"truncated snapshot: {what} needs {size} "
                            f"bytes, {left} left")
    return fh.read(size)


def _read_record(fh):
    head = fh.read(4)
    if not head:
        return None
    if head != _MAGIC:
        raise SnapshotError("not a field snapshot (bad magic bytes)")
    version, dim = struct.unpack("<BB", _read_exact(fh, 2, "header"))
    if version != _VERSION:
        raise SnapshotError(f"unsupported snapshot version {version}")
    nodes = struct.unpack(f"<{dim}I", _read_exact(fh, 4 * dim, "node counts"))
    extents = struct.unpack(f"<{dim}d", _read_exact(fh, 8 * dim, "extents"))
    (t,) = struct.unpack("<d", _read_exact(fh, 8, "time"))
    try:
        grid = Grid(extents, nodes)
    except InvalidParameter as exc:
        raise SnapshotError(f"corrupt snapshot header: {exc}") from None
    raw = _read_exact(fh, 8 * grid.n_total, "field values")
    vals = np.frombuffer(raw, dtype="<f8").reshape(grid.shape)
    try:
        return Field(grid, vals.copy()), t
    except InvalidParameter as exc:
        raise SnapshotError(f"corrupt snapshot values: {exc}") from None


def write_records(path, records):
    """Write (field, time) records back to back into one snapshot file."""
    with open(path, "wb") as fh:
        for fld, t in records:
            _write_record(fh, fld, t)


def read_records(path):
    """Read all (field, time) records from a snapshot file."""
    out = []
    with open(path, "rb") as fh:
        while True:
            rec = _read_record(fh)
            if rec is None:
                return out
            out.append(rec)
