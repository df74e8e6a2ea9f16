import struct

import numpy as np
import pytest

from phaseflow import BoundarySpec, Field, Grid, integrate
from phaseflow.errors import InvalidParameter, ParseError, SnapshotError
from phaseflow.grids import (OperatorWorkspace, boundary_measure,
                             quad_weights, read_records, write_records)


class TestGridField:
    def test_grid_validation(self):
        with pytest.raises(InvalidParameter):
            Grid((1.0,), (2,))
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(InvalidParameter):
                Grid((bad,), (9,))
        with pytest.raises(InvalidParameter):
            Grid((1.0, 1.0, 1.0), (5, 5, 5))

    def test_spacing(self):
        g = Grid((1.0,), (101,))
        assert g.spacing == (0.01,)
        g2 = Grid((2.0, 1.0), (5, 3))
        assert g2.spacing == (0.5, 0.5)

    def test_field_shape_and_finiteness(self):
        g = Grid((1.0,), (5,))
        with pytest.raises(InvalidParameter):
            Field(g, np.zeros(4))
        with pytest.raises(InvalidParameter):
            Field(g, np.array([0.0, 1.0, np.inf, 0.0, 0.0]))

    def test_from_function_2d(self):
        g = Grid((1.0, 2.0), (5, 9))
        f = Field.from_function(g, lambda x, y: x + y)
        assert f.values.shape == (5, 9)
        assert f.values[-1, -1] == pytest.approx(3.0)


class TestQuadrature:
    def test_constant(self):
        g = Grid((2.0,), (17,))
        assert integrate(g, Field.full(g, 3.0)) == pytest.approx(6.0)

    def test_affine_exact(self):
        g = Grid((1.0,), (13,))
        x = g.axes()[0]
        assert integrate(g, Field(g, x)) == pytest.approx(0.5, abs=1e-15)

    def test_quadratic_error_bound(self):
        g = Grid((1.0,), (101,))
        x = g.axes()[0]
        err = abs(integrate(g, Field(g, x * x)) - 1.0 / 3.0)
        assert err < 1e-4

    def test_2d_separable(self):
        g = Grid((1.0, 1.0), (21, 21))
        f = Field.from_function(g, lambda x, y: x * y)
        assert integrate(g, f) == pytest.approx(0.25, abs=1e-14)


class TestOperators:
    def test_neumann_kills_constants(self):
        g = Grid((1.0,), (33,))
        ws = OperatorWorkspace(g, None)
        out = ws.A_fd @ np.full(g.n_total, 4.2)
        assert np.max(np.abs(out)) < 1e-12

    def test_neumann_row_sums_vanish(self):
        g = Grid((1.0, 1.0), (9, 7))
        ws = OperatorWorkspace(g, None)
        rows = np.asarray(ws.K_A.sum(axis=1)).ravel()
        assert np.max(np.abs(rows)) < 1e-12

    def test_sine_eigenfunction_interior(self):
        # interior accuracy only: the sine is not flux-free at the ends,
        # so the reflected-ghost boundary rows see a kink there
        g = Grid((1.0,), (101,))
        x = g.axes()[0]
        out = OperatorWorkspace(g, None).A_fd @ np.sin(np.pi * x)
        err = np.abs(out - np.pi ** 2 * np.sin(np.pi * x))
        assert np.max(err[1:-1]) < 1e-2

    def test_robin_on_constant_field(self):
        g = Grid((1.0,), (33,))
        bc = BoundarySpec("robin", eta=2.0)
        ws = OperatorWorkspace(g, bc)
        ones = np.ones(g.n_total)
        out = ws.B_fd @ ones
        w = quad_weights(g)
        gamma = boundary_measure(g)
        np.testing.assert_allclose(out, 2.0 * gamma / w, atol=1e-12)
        assert ones @ ws.K_B @ ones == pytest.approx(4.0)  # eta * |Gamma|

    def test_robin_on_constant_field_2d(self):
        g = Grid((1.0, 2.0), (9, 11))
        bc = BoundarySpec("robin", eta=0.5)
        ws = OperatorWorkspace(g, bc)
        ones = np.ones(g.n_total)
        out = ws.B_fd @ ones
        w = quad_weights(g)
        gamma = boundary_measure(g)
        np.testing.assert_allclose(out, 0.5 * gamma / w, atol=1e-12)
        # quadratic form equals eta times the boundary perimeter
        assert ones @ ws.K_B @ ones == pytest.approx(0.5 * 2 * (1.0 + 2.0))

    def test_symmetry_in_weighted_product(self):
        rng = np.random.default_rng(0)
        g = Grid((1.0, 2.0), (9, 11))
        w = quad_weights(g)
        ws = OperatorWorkspace(g, BoundarySpec("robin", eta=0.7))
        for kind, op_fd, K in (("A", ws.A_fd, ws.K_A),
                               ("R", ws.B_fd, ws.K_B)):
            u = rng.standard_normal(g.n_total)
            v = rng.standard_normal(g.n_total)
            left = np.dot(w * (op_fd @ u), v)
            right = np.dot(w * (op_fd @ v), u)
            assert left == pytest.approx(right, abs=1e-12 * max(1, abs(left)))
            assert u @ K @ u >= 0.0
            if kind == "R":
                assert u @ K @ u > 0.0

    def test_dirichlet_positive_definite(self):
        rng = np.random.default_rng(1)
        g = Grid((1.0,), (17,))
        ws = OperatorWorkspace(g, BoundarySpec("dirichlet"))
        for _ in range(5):
            u = rng.standard_normal(ws.active.size)
            assert u @ ws.K_B @ u > 0

    def test_kind_b_resolves_by_bc(self):
        g = Grid((1.0,), (9,))
        ws_d = OperatorWorkspace(g, BoundarySpec("dirichlet"))
        ws_r = OperatorWorkspace(g, BoundarySpec("robin", eta=1.0))
        np.testing.assert_array_equal(ws_d.active, np.arange(1, 8))
        np.testing.assert_array_equal(ws_r.active, np.arange(9))
        assert ws_d.K_B.shape == (7, 7)
        assert ws_r.K_B.shape == (9, 9)
        assert OperatorWorkspace(g, None).active is None

    def test_green_identity(self):
        rng = np.random.default_rng(2)
        g = Grid((1.0,), (41,))
        ws = OperatorWorkspace(g, None)
        w = quad_weights(g)
        h = g.spacing[0]
        u = rng.standard_normal(g.n_total)
        v = rng.standard_normal(g.n_total)
        lhs = np.dot(w * (ws.A_fd @ u), v)
        du = np.diff(u) / h
        dv = np.diff(v) / h
        rhs = np.sum(du * dv * h)
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))

    def test_consistency_second_order(self):
        # flux-free smooth field so the boundary rows are consistent too
        errs = []
        for n in (33, 65):
            g = Grid((1.0,), (n,))
            x = g.axes()[0]
            out = OperatorWorkspace(g, None).A_fd @ np.cos(2 * np.pi * x)
            exact = (2 * np.pi) ** 2 * np.cos(2 * np.pi * x)
            errs.append(np.max(np.abs(out - exact)))
        ratio = errs[0] / errs[1]
        assert 3.4 <= ratio <= 4.6

    def test_coercivity_against_full_v_norm(self):
        rng = np.random.default_rng(3)
        g = Grid((1.0,), (33,))
        ws_d = OperatorWorkspace(g, BoundarySpec("dirichlet"))
        ws_r = OperatorWorkspace(g, BoundarySpec("robin", eta=1.5))
        c_d = c_r = np.inf
        for _ in range(20):
            u = rng.standard_normal(g.n_total)
            u_int = u.copy()
            u_int[ws_d.bmask] = 0.0
            u_act = u_int[ws_d.active]
            c_d = min(c_d, u_act @ ws_d.K_B @ u_act
                      / ws_d.v_norm(u_int) ** 2)
            c_r = min(c_r, u @ ws_r.K_B @ u / ws_r.v_norm(u) ** 2)
        assert c_d > 0
        assert c_r > 0

    def test_pivot_factors_interleaved(self):
        # a run's workspace serves both pivots on every trace row: each
        # answer must match a dense solve whatever the call order
        rng = np.random.default_rng(4)
        g = Grid((1.0, 2.0), (7, 9))
        for bc in (BoundarySpec("robin", eta=0.8), BoundarySpec("dirichlet")):
            ws = OperatorWorkspace(g, bc)
            K_B = ws.K_B.toarray()
            K_N = ws.K_A.toarray() + np.diag(ws.w)
            for _ in range(4):
                weak = rng.standard_normal(g.n_total)
                flat = rng.standard_normal(g.n_total)
                gb = weak[ws.active]
                gn = ws.w * flat
                want_b = np.sqrt(gb @ np.linalg.solve(K_B, gb))
                want_n = np.sqrt(gn @ np.linalg.solve(K_N, gn))
                assert ws.dual_norm_weak(weak) == pytest.approx(
                    want_b, rel=1e-12)
                assert ws.vstar_neumann_norm(flat) == pytest.approx(
                    want_n, rel=1e-12)


class TestNorms:
    def test_h_norm_constant(self):
        g = Grid((1.0,), (21,))
        ws = OperatorWorkspace(g, None)
        assert ws.h_norm(np.full(21, -2.5)) == pytest.approx(2.5)

    def test_c0_norm(self):
        g = Grid((1.0,), (21,))
        x = g.axes()[0]
        ws = OperatorWorkspace(g, None)
        assert ws.c0_norm(x - 0.25) == pytest.approx(0.75)

    def test_v_norm_of_sine(self):
        g = Grid((1.0,), (201,))
        x = g.axes()[0]
        got = OperatorWorkspace(g, None).v_norm(np.sin(np.pi * x))
        assert got == pytest.approx(np.sqrt(0.5 + np.pi ** 2 / 2), abs=1e-2)

    @pytest.mark.parametrize("grid", [Grid((1.0,), (33,)),
                                      Grid((1.0, 2.0), (7, 9))],
                             ids=["1d", "2d"])
    def test_v_norm_is_the_primal_of_the_neumann_dual(self, grid):
        # vstar_neumann_norm(f) = sqrt(w f . K_V^-1 w f), so f = K_V u / w
        # gives sqrt(u . K_V u)
        rng = np.random.default_rng(5)
        ws = OperatorWorkspace(grid, None)
        for _ in range(4):
            u = rng.standard_normal(grid.n_total)
            assert ws.vstar_neumann_norm(ws.K_V @ u / ws.w) \
                == pytest.approx(ws.v_norm(u), rel=1e-12)

    def test_vstar_constant_neumann_identity_pivot(self):
        g = Grid((1.0,), (41,))
        got = OperatorWorkspace(g, None).vstar_neumann_norm(np.full(41, 3.0))
        assert got == pytest.approx(3.0, abs=1e-10)

    def test_r_norm_constant(self):
        g = Grid((1.0,), (41,))
        ws = OperatorWorkspace(g, BoundarySpec("robin", eta=2.0))
        assert ws.vcal_norm(np.full(41, 1.0)) == pytest.approx(2.0)


class TestBoundarySpec:
    def test_robin_needs_positive_eta(self):
        for bad in (0.0, np.nan, np.inf):
            with pytest.raises(InvalidParameter):
                BoundarySpec("robin", eta=bad)
        with pytest.raises(InvalidParameter):
            BoundarySpec("robin")

    def test_unknown_kind(self):
        with pytest.raises(InvalidParameter):
            BoundarySpec("periodic")


class TestSnapshots:
    def test_roundtrip_bit_exact(self, tmp_path):
        g = Grid((1.0, 2.0), (9, 5))
        rng = np.random.default_rng(4)
        f1 = Field(g, rng.standard_normal(g.shape))
        f2 = Field(g, rng.standard_normal(g.shape))
        path = tmp_path / "state.pfld"
        write_records(path, [(f1, 0.25), (f2, 0.25)])
        records = read_records(path)
        assert len(records) == 2
        (g1, t1), (g2, t2) = records
        assert t1 == 0.25 and t2 == 0.25
        assert np.array_equal(g1.values, f1.values)
        assert np.array_equal(g2.values, f2.values)
        assert g1.grid.nodes == g.nodes and g1.grid.extents == g.extents

    def test_wire_format_layout(self, tmp_path):
        g = Grid((1.5,), (3,))
        f = Field(g, np.array([1.0, 2.0, 3.0]))
        path = tmp_path / "one.pfld"
        write_records(path, [(f, 0.5)])
        blob = path.read_bytes()
        assert blob[:4] == b"PFLD"
        version, dim = struct.unpack("<BB", blob[4:6])
        assert (version, dim) == (1, 1)
        (nodes,) = struct.unpack("<I", blob[6:10])
        assert nodes == 3
        (extent,) = struct.unpack("<d", blob[10:18])
        assert extent == 1.5
        (t,) = struct.unpack("<d", blob[18:26])
        assert t == 0.5
        vals = np.frombuffer(blob[26:], dtype="<f8")
        assert np.array_equal(vals, [1.0, 2.0, 3.0])

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.pfld"
        path.write_bytes(b"NOPE" + b"\0" * 40)
        with pytest.raises(InvalidParameter):
            read_records(path)

    @pytest.mark.parametrize("cut", [5, 12, 20, 30, 57])
    def test_truncated_file_is_a_typed_error(self, tmp_path, cut):
        # 26 header bytes and 32 value bytes per record; cut inside the
        # header, the extents, the time and the values
        path = tmp_path / "cut.pfld"
        write_records(path, [(Field(Grid((1.0,), (4,)), np.ones(4)), 0.0)])
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(SnapshotError, match="truncated"):
            read_records(path)

    def test_bad_version_and_header(self, tmp_path):
        path = tmp_path / "v.pfld"
        write_records(path, [(Field(Grid((1.0,), (4,)), np.ones(4)), 0.0)])
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match="version"):
            read_records(path)
        blob[4] = 1
        blob[6:10] = struct.pack("<I", 2)     # fewer than 3 nodes
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="header"):
            read_records(path)
