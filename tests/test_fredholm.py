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


def _block(op, r, c):
    """Block (r, c) of an inflated operator, keyed by registry indices."""
    return fn.SparseOperator(
        {(i, k): v for ((rs, i), (cs, k)), v in op.entries.items() if (rs, cs) == (r, c)}
    )


def _slot_pairs(op):
    return sorted({(rs, cs) for (rs, _), (cs, _) in op.entries})


def _max_abs(op):
    return max((abs(v) for v in op.entries.values()), default=0.0)


class TestInflation:
    def test_unit_space_diagonal(self, reg):
        infl = fd.inflate_stable(E_FN, 0, WINDOW, reg)
        assert infl.entries
        for (r, i), (c, k) in infl.entries:
            assert r == c and i == k

    def test_block_is_alpha_representation(self, reg):
        infl = fd.inflate_stable(A_FN, 0, WINDOW, reg)
        for n in range(WINDOW[0], WINDOW[1] + 1):
            expect = fn.represent(A_FN.alpha(n), reg)
            assert _max_abs(_block(infl, n, n) - expect) == 0.0

    def test_unstable_constant_blocks(self, reg):
        infl = fd.inflate_unstable(B_FN, 0, WINDOW, reg)
        mats = [_block(infl, n, n).entries for n in range(WINDOW[0], WINDOW[1] + 1)]
        assert mats[0] and all(m == mats[0] for m in mats)

    def test_shift_powers_drop_edge_columns(self, reg):
        infl = fd.inflate_stable(None, 1, WINDOW, reg)
        assert _slot_pairs(infl) == [(n, n + 1) for n in range(WINDOW[0], WINDOW[1])]

    def test_stable_unstable_shift_commutators_vanish_interior(self, reg):
        a_infl = fd.inflate_stable(A_FN, 0, WINDOW, reg)
        u_unst = fd.inflate_unstable(None, 1, WINDOW, reg)
        comm = a_infl.matmul(u_unst) - u_unst.matmul(a_infl)
        assert _max_abs(fd.interior(comm, WINDOW[0] + 2, WINDOW[1] - 2)) == 0.0

    def test_tau_delta_product_formula(self, reg):
        # rho_s(a u^j) rho_u(b u^j') carries alpha^n(a) b u^j' at block
        # (n, n + j - j') on interior slots
        j, jp = 1, -1
        lhs = fd.inflate_stable(E_FN, j, WINDOW, reg).matmul(
            fd.inflate_unstable(B_FN, jp, WINDOW, reg)
        )
        u_mat = fn.unitary_u(reg)
        nonzero = 0
        for n in range(WINDOW[0] + 2, WINDOW[1] - 2):
            expect = fn.represent(E_FN.alpha(n), reg).matmul(
                fn.represent(B_FN, reg).matmul(_u_power(u_mat, jp, reg))
            )
            assert _max_abs(_block(lhs, n, n + j - jp) - expect) < 1e-12
            nonzero += bool(expect.entries)
        assert nonzero

    def test_densify_is_slot_major(self, reg):
        infl = fd.inflate_stable(E_FN, 0, WINDOW, reg)
        stride = len(reg)
        dense = fd.densify(infl, WINDOW, stride)
        assert dense.shape == (7 * stride, 7 * stride)
        for ((r, i), (c, k)), v in infl.entries.items():
            assert dense[(r - WINDOW[0]) * stride + i, (c - WINDOW[0]) * stride + k] == v
        assert np.count_nonzero(dense) == len(infl.entries)

    def test_to_dense_refuses_pair_keys(self, reg):
        with pytest.raises(TypeError):
            fd.inflate_stable(E_FN, 0, WINDOW, reg).to_dense(len(reg))

    def test_to_dense_refuses_sides_above_the_cap(self):
        # refused before the 2049 x 2049 complex matrix is allocated
        assert fn.DENSE_SIDE_CAP == 2048
        with pytest.raises(MemoryError):
            fn.SparseOperator().to_dense(2049)

    def test_densify_refuses_indices_past_the_stride(self, reg):
        # (slot 0, index stride) must not alias (slot 1, index 0)
        stride = len(reg)
        op = fn.SparseOperator({((0, stride), (0, 0)): 1.0 + 0j})
        with pytest.raises(IndexError):
            fd.densify(op, WINDOW, stride)


def _u_power(u_mat, j, reg):
    out = fn.SparseOperator()
    for i in range(len(reg)):
        out.add(i, i, 1.0)
    for _ in range(abs(j)):
        out = out.matmul(u_mat if j > 0 else u_mat.dagger())
    return out


# the commutator of E_FN and B_FN is one nonzero block, at slot 0; on this
# window every pair below certifies block 0 and its image block
KPW_WINDOW = (-4, 4)
SHIFT_PAIRS = ((1, 0), (0, 1), (1, 1), (-1, -1), (1, -1), (-1, 1))


class TestKpwCommutator:
    def test_reduces_to_plain_commutator(self, reg):
        out = fd.kpw_commutator(E_FN, 0, B_FN, 0, KPW_WINDOW, reg)
        assert len(out.spectrum.values) > 0
        assert out.factorization_residual < 1e-10

    def test_factorization_identity_exact_on_interior(self, reg):
        # [rho_s(a u^j), rho_u(b u^j')] = [rho_s(a), rho_u(b)] rho_s(u^j) rho_u(u^j')
        j, jp = 1, -1
        lo, hi = KPW_WINDOW[0] + 2, KPW_WINDOW[1] - 2
        u_mat = fn.unitary_u(reg)
        big_a = fd.inflate_stable(E_FN, j, KPW_WINDOW, reg)
        big_b = fd.inflate_unstable(B_FN, jp, KPW_WINDOW, reg, u_mat=u_mat)
        lhs = fd.interior(big_a.matmul(big_b) - big_b.matmul(big_a), lo, hi)
        base_a = fd.inflate_stable(E_FN, 0, KPW_WINDOW, reg)
        base_b = fd.inflate_unstable(B_FN, 0, KPW_WINDOW, reg, u_mat=u_mat)
        base = base_a.matmul(base_b) - base_b.matmul(base_a)
        shifts = fd.inflate_stable(None, j, KPW_WINDOW, reg).matmul(
            fd.inflate_unstable(None, jp, KPW_WINDOW, reg, u_mat=u_mat)
        )
        rhs = fd.interior(base.matmul(shifts), lo, hi)
        assert _max_abs(lhs) > 0.0
        assert _max_abs(lhs - rhs) == 0.0

    def test_spectrum_invariant_under_shift_powers(self, reg):
        base = fd.kpw_commutator(E_FN, 0, B_FN, 0, KPW_WINDOW, reg)
        for j, jp in SHIFT_PAIRS:
            out = fd.kpw_commutator(E_FN, j, B_FN, jp, KPW_WINDOW, reg)
            assert len(out.spectrum.values) > 0, (j, jp)
            assert out.factorization_residual < 1e-10, (j, jp)
            assert np.allclose(out.spectrum.values, base.spectrum.values, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("j, jp", SHIFT_PAIRS)
    def test_excluded_blocks_are_the_uncertified_ones(self, reg, j, jp):
        out = fd.kpw_commutator(E_FN, j, B_FN, jp, KPW_WINDOW, reg)
        lo, hi = out.interior_window
        slots = range(KPW_WINDOW[0], KPW_WINDOW[1] + 1)
        certified = [n for n in slots if n not in out.excluded_blocks]
        assert certified == [n for n in slots if lo <= n <= hi and lo <= n + j - jp <= hi]
        assert _slot_pairs(out.matrix) == [(0, j - jp)]

    def test_base_block_follows_its_image_out_of_the_interior(self, reg):
        # on (-3, 3) at (1, -1) the interior is [-1, 1]: base block 0 lies
        # in it, its image block (0, 2) does not, so neither is certified
        out = fd.kpw_commutator(E_FN, 1, B_FN, -1, WINDOW, reg)
        assert out.interior_window == (-1, 1)
        assert 0 in out.excluded_blocks
        assert out.factorization_residual < 1e-10

    def test_repeated_calls_leave_the_registry_alone(self):
        # identical calls return identical operators and spectra, and the
        # caller's registry keeps its points and indices
        reg = lab_registry()
        points = list(reg.points)
        first = fd.kpw_commutator(E_FN, 0, B_FN, 0, WINDOW, reg)
        assert first.matrix.entries
        for _ in range(4):
            again = fd.kpw_commutator(E_FN, 0, B_FN, 0, WINDOW, reg)
            assert reg.points == points and len(reg.index) == len(points)
            assert again.matrix.entries == first.matrix.entries
            assert np.array_equal(again.spectrum.values, first.spectrum.values)

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
        mod = fd.make_odd_module(np.zeros((4, 4)))
        assert np.array_equal(mod.f_op, -np.eye(4))

    def test_not_a_projection(self):
        with pytest.raises(NotAProjection):
            fd.make_odd_module(np.diag([0.5, 1.0]))

    def test_identities_exact(self, reg):
        e_mat = fn.represent(E_FN, reg)
        dim = len(reg)
        e_dense = e_mat.to_dense(dim)
        mod = fd.make_odd_module(e_dense)
        f_op = mod.f_op
        assert np.linalg.norm(f_op @ f_op - np.eye(dim)) == 0.0
        assert np.linalg.norm(f_op - f_op.conj().T) == 0.0

    def test_commutator_doubling(self, reg):
        e_mat = fn.represent(E_FN, reg)
        fn.represent(B_FN, reg)
        dim = len(reg)
        e_dense = e_mat.to_dense(dim)
        b_dense = fn.represent(B_FN, reg).to_dense(dim)
        mod = fd.make_odd_module(e_dense)
        comm_f = b_dense @ mod.f_op - mod.f_op @ b_dense
        comm_e = b_dense @ e_dense - e_dense @ b_dense
        for p in (0.7, 1.0, 1.3):
            n1 = sc.schatten_norm(sc.singular_values(comm_f), p)
            n2 = sc.schatten_norm(sc.singular_values(comm_e), p)
            assert abs(n1 - 2.0 * n2) <= 1e-10 * max(1.0, n1)

    def test_first_two_quantities_vanish(self, reg):
        e_mat = fn.represent(E_FN, reg)
        dim = len(reg)
        e_dense = e_mat.to_dense(dim)
        mod = fd.make_odd_module(e_dense)
        (row,) = fd.summability_report(mod, {"1": np.eye(dim)}, [1.0])
        assert row["q1"] == 0.0
        assert row["q2"] == 0.0


def summability_oracle(module, funcs, p_grid):
    """fd.summability_report before it built its operators one at a time:
    all three dense products first, from the plain expressions."""
    f_op = module.f_op
    rows = []
    for name, x in funcs.items():
        rho_x = module.rep(x)
        ops = (
            rho_x @ (f_op.conj().T - f_op),
            rho_x @ (f_op @ f_op - np.eye(f_op.shape[0])),
            rho_x @ f_op - f_op @ rho_x,
        )
        spectra = [sc.singular_values(q) for q in ops]
        for p in p_grid:
            q1, q2, q3 = (sc.schatten_norm(spec, p) for spec in spectra)
            verdict = sc.summability_verdict(spectra[2], p).verdict
            rows.append({"func_id": name, "p": p, "q1": q1, "q2": q2, "q3": q3, "verdict": verdict})
    return rows


def signed_zeros(rng, n):
    """A complex n x n matrix with a third of its parts -0.0 or +0.0."""
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x.real[rng.random((n, n)) < 0.3] = -0.0
    x.imag[rng.random((n, n)) < 0.3] = -0.0
    x.imag[rng.random((n, n)) < 0.1] = 0.0
    return x


class TestOneOperatorAtATime:
    """The in-place forms give the bytes of the expressions they replace."""

    def test_defects_match_the_expressions(self):
        rng = np.random.default_rng(61)
        for n in (1, 2, 7, 40):
            f_op = signed_zeros(rng, n)
            assert fd.adjoint_defect(f_op).tobytes() == (f_op.conj().T - f_op).tobytes()
            assert fd.square_defect(f_op).tobytes() == (f_op @ f_op - np.eye(n)).tobytes()
            assert fd.adjoint_defect(f_op).flags.c_contiguous

    def test_odd_module_matches_the_expression(self, reg):
        e = fn.represent(E_FN, reg).to_dense(len(reg))
        e.imag[:] = -0.0  # still a projection, and 2e - 1 keeps the signs
        for proj in (e, np.zeros((3, 3), dtype=complex), np.diag([1.0, 0.0, 1.0])):
            want = 2.0 * np.asarray(proj, dtype=complex) - np.eye(len(proj))
            assert fd.make_odd_module(proj).f_op.tobytes() == want.tobytes()

    def test_summability_matches_the_three_at_once_oracle(self, reg):
        rng = np.random.default_rng(67)
        dim = len(reg)
        e = fn.represent(E_FN, reg).to_dense(dim)
        b = fn.represent(B_FN, reg).to_dense(dim)
        p = np.diag([1.0, 1.0, 0.0, 0.0])
        v = np.zeros((4, 4), dtype=complex)
        v[0, 1] = v[1, 0] = 1.0
        cases = [
            (fd.make_odd_module(e), {"b": b, "noise": signed_zeros(rng, dim)}),
            (fd.FredholmModule(signed_zeros(rng, 12)), {"x": signed_zeros(rng, 12)}),
            (fd.make_even_module(v, p), {"b": np.diag([1.0, 2.0, 3.0, 4.0]), "noise": signed_zeros(rng, 4)}),
        ]
        for module, funcs in cases:
            grid = [0.7, 1.0, 1.3]
            assert fd.summability_report(module, funcs, grid) == summability_oracle(module, funcs, grid)


class TestEvenModule:
    def test_grading(self):
        # gamma is a Z/2 grading: an involution that F anticommutes with and
        # the represented algebra commutes with
        p = np.diag([1.0, 1.0, 0.0, 0.0])
        v = np.zeros((4, 4), dtype=complex)
        v[0, 1] = v[1, 0] = 1.0
        mod = fd.make_even_module(v, p)
        g = mod.grading
        assert np.array_equal(g @ g, np.eye(8))
        assert np.array_equal(g @ mod.f_op, -mod.f_op @ g)
        assert np.any(mod.f_op)
        rho = mod.rep(np.random.default_rng(3).standard_normal((4, 4)))
        assert np.array_equal(g @ rho, rho @ g)

    def test_corner_unitary_residual(self):
        p = np.diag([1.0, 1.0, 0.0, 0.0])
        v = np.zeros((4, 4), dtype=complex)
        v[0, 1] = 1.0
        v[1, 0] = 1.0
        mod = fd.make_even_module(v, p)
        f_op = mod.f_op[4:, :4]
        assert np.linalg.norm(f_op.conj().T @ f_op - np.eye(4)) < 1e-10

    def test_not_corner_unitary(self):
        p = np.diag([1.0, 1.0, 0.0])
        v = np.diag([0.5, 1.0, 0.0])
        with pytest.raises(NotCornerUnitary):
            fd.make_even_module(v, p)

    def test_module_conditions_measured(self):
        p = np.diag([1.0, 1.0, 0.0, 0.0])
        v = np.zeros((4, 4), dtype=complex)
        v[0, 1], v[1, 0] = 1.0, 1.0
        mod = fd.make_even_module(v, p)
        b = np.diag([1.0, 2.0, 3.0, 4.0])
        (row,) = fd.summability_report(mod, {"b": b}, [1.0])
        assert row["q2"] < 1e-10
        assert row["q1"] >= 0.0


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
        e_dense = e_mat.to_dense(dim)
        b_dense = fn.represent(B_FN, reg).to_dense(dim)
        mod = fd.make_odd_module(e_dense)
        (row,) = fd.summability_report(mod, {"b": b_dense}, [1.0])
        comm = b_dense @ mod.f_op - mod.f_op @ b_dense
        expect = sc.schatten_norm(sc.singular_values(comm), 1.0)
        assert abs(row["q3"] - expect) < 1e-10
        assert row["q1"] == 0.0 and row["q2"] == 0.0
