"""Uniform box discretization: grids, nodal fields, snapshot files, the
discrete elliptic operators, quadrature and norms.

Everything is mass-lumped piecewise-linear on a tensor grid, which in flat
(finite-difference) form reproduces the classical second-order stencils:
the Neumann Laplacian uses reflected ghost nodes at the boundary, the
Dirichlet variant acts on interior nodes, and the Robin operator adds the
boundary-mass term eta * integral_Gamma u v.  ``OperatorWorkspace`` is the
one place that assembles, scales, factors and measures with them: each
operator is kept in its symmetric variational form K (``K_A``, ``K_B``, and
``K_V`` = K_A + diag(w), the V norm's form, which the Neumann dual norm
inverts), so quadratic forms and Green identities are exact, beside its
pointwise action diag(1/w) K (``A_fd``, ``B_fd``) with the quadrature
weights w; the heat operator acts on the ``active`` nodes, and ``bc=None``
means Neumann-only.
"""

import math
import os
import struct
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sps
from scipy.sparse.linalg import splu

from .errors import InvalidParameter, SingularSolve, SnapshotError


@dataclass(frozen=True)
class Grid:
    """Tensor grid on a box, d in {1, 2}, at least 3 nodes per axis."""

    extents: tuple
    nodes: tuple

    def __post_init__(self):
        if not (1 <= len(self.extents) == len(self.nodes) <= 2):
            raise InvalidParameter("grid must be 1D or 2D with matching "
                                   "extents and node counts")
        if not all(math.isfinite(e) and e > 0 for e in self.extents):
            raise InvalidParameter("extents must be finite and positive")
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


def grid_mismatch(path, grid, other):
    """The one wording of a file's grid that is not the expected one."""
    return (f"the grid of '{path}' ({grid.nodes} nodes on {grid.extents}) "
            f"does not match {other.nodes} nodes on {other.extents}")


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

    The boundary temperatures come from the model: Dirichlet pins the
    boundary at the flux law's equilibrium value ``model.j.theta_inf``
    (where j'(theta) vanishes), and Robin exchanges heat at transfer
    coefficient eta with an exterior temperature that is
    ``model.j.theta_inf`` as well unless a schedule theta_gamma(t) is
    given.  A schedule returns the absolute exterior temperature.
    """

    kind: str                      # 'dirichlet' | 'robin'
    eta: Optional[float] = None    # Robin transfer coefficient
    theta_gamma: Optional[Callable] = None  # Robin trace schedule t -> value

    def __post_init__(self):
        if self.kind not in ("dirichlet", "robin"):
            raise InvalidParameter(f"unknown boundary kind {self.kind!r}")
        if self.kind == "robin":
            if self.eta is None or not (math.isfinite(self.eta)
                                        and self.eta > 0):
                raise InvalidParameter(
                    "robin conditions need a finite eta > 0")


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


# ----------------------------------------------------------------------
# norms
# ----------------------------------------------------------------------

#: confidence parameter lambda of the probabilistic rounding-error bound
#: of an LU solve (Higham & Mary 2019, SIAM J. Sci. Comput. 41): the bound
#: fails with probability of order n^3 exp(-lambda^2 / 2), below 1e-13 for
#: n up to 1e6
PIVOT_LAMBDA = 12.0


def _backward_error_bound(K, k_norm, lu=None):
    """Round-off bound on the max-norm backward error of a solve with the
    factor Pr K Pc = L U of the n x n matrix K: the solve's own error
    (3 g + g^2) || |L| |U| || / ||K||, with g = exp(lambda sqrt(n) u +
    n u^2 / (1 - u)) - 1, plus gamma_(k+1) = (k+1) u / (1 - (k+1) u) for
    evaluating the residual with at most k entries per row.  The ratio
    || |L| |U| || / ||K|| is read from ``lu``; without it, it takes its
    least value 1 (|K| <= |L| |U| entrywise), which reads no factor."""
    u = 0.5 * np.finfo(float).eps
    n = K.shape[0]
    g = math.expm1(PIVOT_LAMBDA * math.sqrt(n) * u + n * u * u / (1 - u))
    ratio = 1.0 if lu is None else float(
        np.max(abs(lu.L) @ (abs(lu.U) @ np.ones(n)))) / k_norm
    k1 = int(np.max(np.diff(K.indptr))) + 1    # K symmetric: row counts
    return (3 * g + g * g) * ratio + k1 * u / (1 - k1 * u)


class OperatorWorkspace:
    """The one owner of the discrete operators of a (grid, bc) problem: it
    assembles, scales and factors them and measures fields with them.  A
    workspace is owned by a single caller; independent runs build their own
    (the cached factors carry internal scratch state).

    ``K_A`` is the variational Neumann stiffness, ``A_fd`` = diag(1/w) K_A
    its pointwise action, and ``K_V`` = K_A + diag(w) the form of the V
    norm, which the Neumann dual norm inverts.  ``active`` holds the heat
    unknowns (the interior nodes for Dirichlet conditions, all nodes for
    Robin), ``K_B`` the heat operator on them (the interior block of K_A,
    or K_A + eta diag(gamma)) and ``B_fd`` = diag(1/w[active]) K_B.
    ``bc=None`` means Neumann-only: those three are None, and only the
    norms without a heat operator work.
    """

    def __init__(self, grid, bc):
        self.grid = grid
        self.w = quad_weights(grid)
        self.gamma = boundary_measure(grid)
        self.bmask = boundary_mask(grid)
        self.K_A = stiffness_neumann(grid)
        self.A_fd = (sps.diags(1.0 / self.w) @ self.K_A).tocsr()
        self.K_V = (self.K_A + sps.diags(self.w)).tocsc()
        self._factors = {}
        self.active = self.K_B = self.B_fd = None
        if bc is None:
            return
        if bc.kind == "dirichlet":
            self.active = np.flatnonzero(~self.bmask)
            self.K_B = self.K_A[self.active][:, self.active].tocsr()
        else:
            self.active = np.arange(grid.n_total)
            self.K_B = (self.K_A + bc.eta * sps.diags(self.gamma)).tocsr()
        self.B_fd = (sps.diags(1.0 / self.w[self.active]) @ self.K_B).tocsr()

    # -- scalar reductions -------------------------------------------------
    def h_norm(self, flat):
        return float(np.sqrt(np.dot(self.w, np.square(flat))))

    def c0_norm(self, flat):
        return float(np.max(np.abs(flat)))

    def v_norm(self, flat):
        """sqrt(u . K_V u): the exact gradient form plus the trapezoid H
        norm, the primal of ``vstar_neumann_norm``."""
        return float(np.sqrt(max(float(flat @ (self.K_V @ flat)), 0.0)))

    def vcal_norm(self, flat):
        """Norm of the solution space the heat operator acts on,
        sqrt(u . K_B u) over the active nodes: the Dirichlet gradient norm,
        or the Robin norm."""
        u = np.asarray(flat).ravel()[self.active]
        return float(np.sqrt(max(float(u @ (self.K_B @ u)), 0.0)))

    def pivot_solve(self, pivot, g):
        """K^-1 g for the pivot 'B' (K_B) or 'neumann' (K_V), factored once
        per workspace.  Raises SingularSolve when the max-norm backward
        error ||g - K x|| / (||K|| ||x|| + ||g||) of the solve is not
        finite or exceeds the factor's round-off bound
        ``_backward_error_bound``.  A solve within the least value of that
        bound passes without reading the factor, which then keeps no copy
        of L and U."""
        if pivot not in self._factors:
            K = (self.K_B if pivot == "B" else self.K_V).tocsc()
            k_norm = float(abs(K).sum(axis=1).max())
            self._factors[pivot] = (splu(K), K, k_norm,
                                    _backward_error_bound(K, k_norm))
        lu, K, k_norm, least = self._factors[pivot]
        sol = lu.solve(g)
        res = float(np.max(np.abs(g - K @ sol)))
        scale = k_norm * float(np.max(np.abs(sol))) \
            + float(np.max(np.abs(g)))
        err = res / scale if scale else res
        if not err <= least:                  # NaN fails too
            bound = _backward_error_bound(K, k_norm, lu)
            if not err <= bound:
                raise SingularSolve(
                    f"pivot solve backward error {err:.3e} exceeds its "
                    f"round-off bound {bound:.3e}")
        return sol

    def vstar_neumann_norm(self, flat):
        """Dual norm with the Neumann pivot regardless of bc (used for the
        stationary residual, whose natural space has Neumann conditions)."""
        g = self.w * flat
        return float(np.sqrt(max(np.dot(g, self.pivot_solve("neumann", g)),
                                 0.0)))

    def dual_norm_weak(self, weak_vec):
        """Exact dual norm of a weak-form functional against the heat
        operator's own energy norm (the norm the energy estimate pairs the
        source with)."""
        g = np.asarray(weak_vec).ravel()[self.active]
        return float(np.sqrt(max(np.dot(g, self.pivot_solve("B", g)), 0.0)))


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
    """Read all (field, time) records from a snapshot file; a file that
    cannot be opened or holds no record is a SnapshotError."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise SnapshotError(f"cannot open snapshot '{path}': "
                            f"{exc.strerror}") from None
    out = []
    with fh:
        while (rec := _read_record(fh)) is not None:
            out.append(rec)
    if not out:
        raise SnapshotError(f"empty snapshot file '{path}'")
    return out
