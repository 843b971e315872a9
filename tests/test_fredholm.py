import cmath
import math

import numpy as np
import pytest

from sftops import fredholm as fd
from sftops import functions as fn
from sftops import groupoid as gd
from sftops import schatten as sc
from sftops import sft
from sftops.errors import ContourHitsSpectrum, NotAProjection, NotCornerUnitary, SingularResolvent

FULL = sft.TransitionMatrix.from_rows([[1, 1], [1, 1]])
P = sft.PeriodicOrbit((1,))
Q = sft.PeriodicOrbit((0,))
STEP = sft.build_point((0,), (), (1,), 0)
Y = sft.build_point((0,), (1, 0), (1,), -2)
W = sft.build_point((0,), (1, 1, 1, 0), (1,), 0)
CA = gd.GroupoidElement(STEP, Y, gd.STABLE)
CB = gd.GroupoidElement(STEP, W, gd.UNSTABLE)

A_FN = fn.LocallyConstantFunction(
    gd.STABLE, tuple((gd.BaseSet(CA, k, 0), 2.0**-k) for k in range(6))
)
B_FN = fn.LocallyConstantFunction(
    gd.UNSTABLE, tuple((gd.BaseSet(CB, k, 0), 2.0**-k) for k in range(6))
)
E_FN = fn.LocallyConstantFunction(gd.STABLE, ((gd.BaseSet(gd.unit(STEP), 2, 0), 1.0 + 0j),))

WINDOW = (-3, 3)


def lab_registry():
    seeds = list(sft.enumerate_homoclinic(FULL, P, Q, 2)) + [Y, W]
    reg = fn.BasisRegistry.seeded(seeds, cap=3000)
    for x in list(reg.points):
        for k in range(WINDOW[0] - 2, WINDOW[1] + 3):
            reg.add(sft.shift(x, k))
    return reg


@pytest.fixture(scope="module")
def reg():
    return lab_registry()


class TestInflation:
    def test_unit_space_diagonal(self, reg):
        infl = fd.inflate_stable(E_FN, 0, WINDOW, reg)
        for (r, c), op in infl.blocks.items():
            assert r == c
            assert all(i == j for (i, j) in op.entries)

    def test_block_is_alpha_representation(self, reg):
        infl = fd.inflate_stable(A_FN, 0, WINDOW, reg)
        for n in infl.slots():
            expect = fn.represent(A_FN.alpha(n), reg)
            got = infl.block(n, n)
            diff = (got - expect) if got is not None else expect
            assert max((abs(v) for v in diff.entries.values()), default=0.0) == 0.0

    def test_unstable_constant_blocks(self, reg):
        infl = fd.inflate_unstable(B_FN, 0, WINDOW, reg)
        mats = [infl.block(n, n) for n in infl.slots()]
        base = mats[0].entries
        assert all(m.entries == base for m in mats)

    def test_shift_powers_drop_edge_columns(self, reg):
        infl = fd.inflate_stable(None, 1, WINDOW, reg)
        cols = sorted(c for (_, c) in infl.blocks)
        assert cols == list(range(WINDOW[0] + 1, WINDOW[1] + 1))

    def test_stable_unstable_shift_commutators_vanish_interior(self, reg):
        a_infl = fd.inflate_stable(A_FN, 0, WINDOW, reg)
        u_unst = fd.inflate_unstable(None, 1, WINDOW, reg)
        comm = (a_infl.matmul(u_unst) - u_unst.matmul(a_infl)).interior(2)
        total = sum(abs(v) for op in comm.blocks.values() for v in op.entries.values())
        assert total == 0.0

    def test_tau_delta_product_formula(self, reg):
        # rho_s(a u^j) rho_u(b u^j') carries alpha^n(a) b u^j' at block
        # (n, n + j - j') on interior slots
        j, jp = 1, -1
        lhs = fd.inflate_stable(A_FN, j, WINDOW, reg).matmul(
            fd.inflate_unstable(B_FN, jp, WINDOW, reg)
        )
        u_mat = fn.unitary_u(reg)
        for n in range(WINDOW[0] + 2, WINDOW[1] - 2):
            block = lhs.block(n, n + j - jp) or fn.SparseOperator(reg.cap)
            expect = fn.represent(A_FN.alpha(n), reg).matmul(
                fn.represent(B_FN, reg).matmul(_u_power(u_mat, jp, reg))
            )
            diff = block - expect
            assert max((abs(v) for v in diff.entries.values()), default=0.0) < 1e-12


def _u_power(u_mat, j, reg):
    out = fn.SparseOperator(reg.cap)
    for i in range(len(reg)):
        out.add(i, i, 1.0)
    for _ in range(abs(j)):
        out = out.matmul(u_mat if j > 0 else u_mat.dagger())
    return out


class TestKpwCommutator:
    def test_reduces_to_plain_commutator(self, reg):
        out = fd.kpw_commutator(A_FN, 0, B_FN, 0, WINDOW, reg)
        assert out.factorization_residual < 1e-10

    def test_factorization_identity_exact_on_interior(self, reg):
        # [rho_s(a u^j), rho_u(b u^j')] = [rho_s(a), rho_u(b)] rho_s(u^j) rho_u(u^j')
        j, jp = 1, -1
        margin = max(abs(j), abs(jp)) + 1
        u_mat = fn.unitary_u(reg)
        big_a = fd.inflate_stable(A_FN, j, WINDOW, reg)
        big_b = fd.inflate_unstable(B_FN, jp, WINDOW, reg, u_mat=u_mat)
        lhs = (big_a.matmul(big_b) - big_b.matmul(big_a)).interior(margin)
        base_a = fd.inflate_stable(A_FN, 0, WINDOW, reg)
        base_b = fd.inflate_unstable(B_FN, 0, WINDOW, reg, u_mat=u_mat)
        base = base_a.matmul(base_b) - base_b.matmul(base_a)
        shifts = fd.inflate_stable(None, j, WINDOW, reg).matmul(
            fd.inflate_unstable(None, jp, WINDOW, reg, u_mat=u_mat)
        )
        rhs = base.matmul(shifts).interior(margin)
        diff = lhs - rhs
        worst = max(
            (abs(v) for op in diff.blocks.values() for v in op.entries.values()),
            default=0.0,
        )
        assert worst == 0.0

    def test_spectrum_invariant_under_shift_powers(self, reg):
        base = fd.kpw_commutator(A_FN, 0, B_FN, 0, WINDOW, reg)
        for j, jp in ((1, 0), (0, 1), (1, -1)):
            out = fd.kpw_commutator(A_FN, j, B_FN, jp, WINDOW, reg)
            assert out.factorization_residual < 1e-10

    def test_disjoint_supports_commute(self, reg):
        far = sft.build_point((0,), (1,), (0,), 7)
        e_far = fn.LocallyConstantFunction(
            gd.STABLE, ((gd.BaseSet(gd.unit(far), 9, 0), 1.0 + 0j),)
        )
        b_unit = fn.LocallyConstantFunction(
            gd.UNSTABLE, ((gd.BaseSet(gd.unit(STEP, gd.UNSTABLE), 9, 0), 1.0 + 0j),)
        )
        out = fd.kpw_commutator(e_far, 0, b_unit, 0, WINDOW, reg)
        assert len(out.spectrum.values) == 0


class TestOddModule:
    def test_zero_projection(self):
        mod = fd.make_odd_module(np.zeros((4, 4)), lambda x: np.asarray(x))
        assert np.array_equal(mod.f_op, -np.eye(4))

    def test_not_a_projection(self):
        with pytest.raises(NotAProjection):
            fd.make_odd_module(np.diag([0.5, 1.0]), lambda x: x)

    def test_identities_exact(self, reg):
        e_mat = fn.represent(E_FN, reg)
        dim = len(reg)
        e_dense = e_mat.to_dense(limit=4000)[:dim, :dim]
        mod = fd.make_odd_module(e_dense, lambda x: np.asarray(x))
        f_op = mod.f_op
        assert np.linalg.norm(f_op @ f_op - np.eye(dim)) == 0.0
        assert np.linalg.norm(f_op - f_op.conj().T) == 0.0

    def test_commutator_doubling(self, reg):
        e_mat = fn.represent(E_FN, reg)
        fn.represent(B_FN, reg)
        dim = len(reg)
        e_dense = e_mat.to_dense(limit=4000)[:dim, :dim]
        b_dense = fn.represent(B_FN, reg).to_dense(limit=4000)[:dim, :dim]
        mod = fd.make_odd_module(e_dense, lambda x: np.asarray(x))
        comm_f = b_dense @ mod.f_op - mod.f_op @ b_dense
        comm_e = b_dense @ e_dense - e_dense @ b_dense
        for p in (0.7, 1.0, 1.3):
            n1 = sc.schatten_norm(sc.singular_values(comm_f), p)
            n2 = sc.schatten_norm(sc.singular_values(comm_e), p)
            assert abs(n1 - 2.0 * n2) <= 1e-10 * max(1.0, n1)

    def test_first_two_quantities_vanish(self, reg):
        e_mat = fn.represent(E_FN, reg)
        dim = len(reg)
        e_dense = e_mat.to_dense(limit=4000)[:dim, :dim]
        mod = fd.make_odd_module(e_dense, lambda x: np.asarray(x))
        rows = fd.module_summability_row(mod, np.eye(dim), 1.0)
        assert rows["rho(F*-F)"]["p_norm"] == 0.0
        assert rows["rho(F^2-1)"]["p_norm"] == 0.0


class TestEvenModule:
    def test_trivial_class_branch(self):
        p = np.diag([1.0, 1.0, 0.0])
        mod = fd.make_even_module(p, p, lambda x: np.asarray(x), trivial=True)
        assert np.array_equal(mod.f_op[3:, :3], np.eye(3))

    def test_corner_unitary_residual(self):
        p = np.diag([1.0, 1.0, 0.0, 0.0])
        v = np.zeros((4, 4), dtype=complex)
        v[0, 1] = 1.0
        v[1, 0] = 1.0
        mod = fd.make_even_module(v, p, lambda x: np.asarray(x))
        f_op = mod.f_op[4:, :4]
        assert np.linalg.norm(f_op.conj().T @ f_op - np.eye(4)) < 1e-10

    def test_not_corner_unitary(self):
        p = np.diag([1.0, 1.0, 0.0])
        v = np.diag([0.5, 1.0, 0.0])
        with pytest.raises(NotCornerUnitary):
            fd.make_even_module(v, p, lambda x: x)

    def test_module_conditions_measured(self):
        p = np.diag([1.0, 1.0, 0.0, 0.0])
        v = np.zeros((4, 4), dtype=complex)
        v[0, 1], v[1, 0] = 1.0, 1.0
        mod = fd.make_even_module(v, p, lambda x: np.asarray(x))
        b = np.diag([1.0, 2.0, 3.0, 4.0])
        rows = fd.module_summability_row(mod, b, 1.0)
        assert rows["rho(F^2-1)"]["p_norm"] < 1e-10
        assert rows["rho(F*-F)"]["p_norm"] >= 0.0


class TestContour:
    def test_identity_function(self):
        s = np.diag([1.0, 2.0]).astype(complex)
        out = fd.contour_calculus(s, lambda z: 1.0, center=0.0, radius=5.0, nodes=64)
        assert np.linalg.norm(out - np.eye(2)) < 1e-10

    def test_cauchy_reproduces_matrix(self):
        s = np.diag([1.0, 2.0]).astype(complex)
        out = fd.contour_calculus(s, lambda z: z, center=0.0, radius=5.0, nodes=64)
        assert np.linalg.norm(out - s) < 1e-10

    def test_exp_vs_taylor_oracle(self):
        a = np.array([[0.3, 1.1], [0.0, -0.2]], dtype=complex)
        series, term = np.eye(2, dtype=complex), np.eye(2, dtype=complex)
        for k in range(1, 40):
            term = term @ a / k
            series = series + term
        out = fd.contour_calculus(a, cmath.exp, nodes=256)
        assert np.linalg.norm(out - series) < 1e-8

    def test_contour_hits_spectrum(self):
        with pytest.raises(ContourHitsSpectrum):
            fd.contour_calculus(np.diag([1.0, 5.0]), lambda z: z, center=1.0, radius=4.0)

    def test_geometric_quadrature_convergence(self):
        a = np.array([[0.2, 0.9], [0.1, -0.4]], dtype=complex)
        series, term = np.eye(2, dtype=complex), np.eye(2, dtype=complex)
        for k in range(1, 60):
            term = term @ a / k
            series = series + term
        errs = []
        for nodes in (8, 16, 32, 64):
            out = fd.contour_calculus(a, cmath.exp, nodes=nodes)
            errs.append(max(np.linalg.norm(out - series), 1e-16))
        # at least geometric decay until the floor
        for e1, e2 in zip(errs, errs[1:]):
            assert e2 <= e1 * 0.51 or e2 < 1e-12


class TestResolvent:
    def test_commuting_pair(self):
        assert fd.resolvent_commutator_check(np.eye(3), np.diag([1.0, 2.0, 3.0]), 4.0) == 0.0

    def test_random_residual(self):
        rng = np.random.default_rng(2)
        s, t = rng.standard_normal((5, 5)), rng.standard_normal((5, 5))
        z = 2.0 * float(np.max(np.abs(np.linalg.eigvals(s))))
        assert fd.resolvent_commutator_check(s, t, z) < 1e-10

    def test_singular_resolvent(self):
        s = np.diag([1.0, 2.0])
        with pytest.raises(SingularResolvent):
            fd.resolvent_commutator_check(s, np.eye(2), 2.0)

    def test_square_function_commutator_bound(self):
        # [f(S), T] for f = z^2 compared against the contour evaluation
        rng = np.random.default_rng(8)
        s, t = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
        f_s = fd.contour_calculus(s.astype(complex), lambda z: z * z, nodes=256)
        direct = s @ s
        assert np.linalg.norm(f_s - direct) < 1e-9
        comm = f_s @ t - t @ f_s
        assert np.linalg.norm(comm - (direct @ t - t @ direct)) < 1e-8


class TestCorner:
    AMB = np.array(
        [
            [2.0, 0.3, 0.1, 0.0],
            [0.3, 2.5, 0.0, 0.2],
            [0.1, 0.0, 1.0, 0.5],
            [0.0, 0.2, 0.5, 0.8],
        ],
        dtype=complex,
    )
    P_CORNER = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)

    def test_full_projection_trivial(self):
        r = fd.corner_calculus_check(self.AMB, np.eye(4, dtype=complex), lambda z: z * z)
        assert r < 1e-9

    def test_corner_zero_inside(self):
        r = fd.corner_calculus_check(self.AMB, self.P_CORNER, lambda z: z * z)
        assert r < 1e-9

    def test_corner_zero_outside(self):
        r = fd.corner_calculus_check(self.AMB, self.P_CORNER, lambda z: z * z, exclude_zero=True)
        assert r < 1e-9


class TestSummabilityReport:
    def test_columns_match_commutator_spectra(self, reg):
        e_mat = fn.represent(E_FN, reg)
        fn.represent(B_FN, reg)
        dim = len(reg)
        e_dense = e_mat.to_dense(limit=4000)[:dim, :dim]
        b_dense = fn.represent(B_FN, reg).to_dense(limit=4000)[:dim, :dim]
        mod = fd.make_odd_module(e_dense, lambda x: np.asarray(x))
        report = fd.summability_report(mod, {"b": b_dense}, [1.0])
        row = report.rows[0]
        comm = b_dense @ mod.f_op - mod.f_op @ b_dense
        expect = sc.schatten_norm(sc.singular_values(comm), 1.0)
        assert abs(row["q3"] - expect) < 1e-10
        assert row["q1"] == 0.0 and row["q2"] == 0.0
