import math

import numpy as np
import pytest

from sftops import schatten as sc
from sftops.errors import InsufficientData
from sftops.functions import SparseOperator


def spectrum(values, counts=None):
    return sc.SingularSpectrum(np.array(values, dtype=float), counts)


class TestSingularValues:
    def test_diagonal(self):
        op = SparseOperator({(0, 0): 3.0, (1, 1): 4.0})
        assert np.allclose(sc.singular_values(op).values, [4.0, 3.0])

    def test_rank_one_outer_product(self):
        v = np.array([1.0, 2.0, 2.0])
        w = np.array([3.0, 4.0])
        spec = sc.singular_values(np.outer(v, w))
        assert len(spec.values) == 1
        assert abs(spec.values[0] - np.linalg.norm(v) * np.linalg.norm(w)) < 1e-12

    def test_random_vs_gram_oracle(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(100):
            a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            got = sc.singular_values(a).values
            gram = np.sqrt(np.maximum(np.linalg.eigvalsh(a.conj().T @ a), 0.0))[::-1]
            worst = max(worst, float(np.max(np.abs(got - gram) / got[0])))
        assert worst < 1e-10

    def test_zero_matrix_empty(self):
        assert len(sc.singular_values(SparseOperator()).values) == 0

    def test_component_splitting_matches_dense(self):
        rng = np.random.default_rng(3)
        op = SparseOperator()
        dense = np.zeros((30, 30), dtype=complex)
        for _ in range(25):
            i, j = rng.integers(0, 30, 2)
            v = complex(rng.standard_normal(), rng.standard_normal())
            op.add(int(i), int(j), v)
            dense[int(i), int(j)] += v
        a = sc.singular_values(op).values
        b = np.linalg.svd(dense, compute_uv=False)
        a, b = a[a > 1e-10], b[b > 1e-10]  # drop numerical zeros
        assert len(a) == len(b)
        assert np.allclose(np.sort(a), np.sort(b))

    @pytest.mark.parametrize("seed", range(4))
    def test_stacked_svd_matches_per_component_calls(self, seed):
        # a block-diagonal operator with scattered indices and components of
        # shapes 1x1, 1x2, 2x2 and 3x2, against one np.linalg.svd per
        # component on its sorted rows and columns (the unstacked path)
        rng = np.random.default_rng(seed)
        shapes = [(1, 1)] * 9 + [(1, 2)] * 4 + [(2, 2)] * 4 + [(3, 2)] * 3
        shapes = [shapes[k] for k in rng.permutation(len(shapes))]
        rows = rng.permutation(sum(r for r, _ in shapes)).tolist()
        cols = rng.permutation(sum(c for _, c in shapes)).tolist()
        op = SparseOperator()
        want = []
        for r, c in shapes:
            ri, rows = sorted(rows[:r]), rows[r:]
            ci, cols = sorted(cols[:c]), cols[c:]
            dense = rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
            for a, i in enumerate(ri):
                for b, j in enumerate(ci):
                    op.add(i, j, complex(dense[a, b]))
            want.append(np.linalg.svd(dense, compute_uv=False))
        want = np.concatenate(want)
        want = np.sort(want[want > 0.0])[::-1]
        got = sc.singular_values(op).values
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 2), (3, 2)])
    def test_stacked_svd_is_the_svd_of_each_matrix(self, shape):
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((200, *shape)) + 1j * rng.standard_normal((200, *shape))
        stacked = np.linalg.svd(stack, compute_uv=False)
        for k in range(len(stack)):
            assert stacked[k].tobytes() == np.linalg.svd(stack[k], compute_uv=False).tobytes()

    def test_unitary_invariance(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((7, 7))
        perm = np.eye(7)[rng.permutation(7)]
        phase = np.diag(np.exp(2j * np.pi * rng.random(7)))
        u, v = perm @ phase, phase.conj().T @ perm.T
        s1 = sc.singular_values(a).values
        s2 = sc.singular_values(u @ a @ v).values
        assert float(np.max(np.abs(s1 - s2))) < 1e-10


def merged_blocks(blocks):
    """The spectrum of a block family as the spectrum command merges it."""
    return sc.merge_spectra([sc.singular_values(op) for _, op in sorted(blocks.items())])


class TestBlockMerge:
    def test_two_diagonal_blocks(self):
        blocks = {0: SparseOperator({(0, 0): 1.0}), 1: SparseOperator({(0, 0): 2.0})}
        assert np.allclose(merged_blocks(blocks).values, [2.0, 1.0])

    def test_order_invariance(self):
        blocks = {1: SparseOperator({(0, 0): 2.0}), 0: SparseOperator({(0, 0): 1.0})}
        spec = merged_blocks(blocks)
        assert np.allclose(spec.values, [2.0, 1.0])
        reverse = sc.merge_spectra([sc.singular_values(op) for op in blocks.values()])
        assert np.array_equal(reverse.values, spec.values)

    def test_merge_equals_direct_sum_svd(self):
        rng = np.random.default_rng(5)
        mats = [rng.standard_normal((4, 4)) for _ in range(5)]
        spectra = [sc.singular_values(m) for m in mats]
        merged = sc.merge_spectra(spectra)
        big = np.zeros((20, 20))
        for k, m in enumerate(mats):
            big[4 * k : 4 * k + 4, 4 * k : 4 * k + 4] = m
        direct = np.linalg.svd(big, compute_uv=False)
        assert np.allclose(merged.expanded(), direct[direct > 0])


class TestNorms:
    def test_pythagorean(self):
        assert sc.schatten_norm(spectrum([4.0, 3.0]), 2) == 5.0

    def test_trace_norm(self):
        assert sc.schatten_norm(spectrum([4.0, 3.0]), 1) == 7.0

    def test_half_power(self):
        assert sc.schatten_norm(spectrum([1.0, 1.0]), 0.5) == 4.0

    def test_homogeneity(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 5))
        for p in (0.5, 1.0, 2.0):
            n1 = sc.schatten_norm(sc.singular_values(3.0 * a), p)
            n2 = 3.0 * sc.schatten_norm(sc.singular_values(a), p)
            assert abs(n1 - n2) < 1e-10


class TestQuasinorm:
    def test_randomized_subadditivity(self):
        rep = sc.quasinorm_properties_check(0.5, 300, seed=2)
        assert rep.power_subadditivity_failures == 0
        assert rep.max_power_ratio <= 1.0 + 1e-12
        assert rep.max_constant_ratio <= 1.0

    def test_p_grid(self):
        for p in (0.3, 0.5, 0.8, 1.0):
            rep = sc.quasinorm_properties_check(p, 150, seed=int(p * 100))
            assert rep.power_subadditivity_failures == 0

    def test_equal_summands(self):
        s = np.diag([2.0, 1.0])
        ns = np.linalg.svd(s, compute_uv=False)
        nst = np.linalg.svd(2 * s, compute_uv=False)
        for p in (0.4, 0.7):
            assert np.sum(nst**p) <= 2 * np.sum(ns**p) + 1e-12

    def test_disjoint_diagonal_equality(self):
        s = np.diag([2.0, 0.0])
        t = np.diag([0.0, 1.5])
        for p in (0.3, 0.6, 1.0):
            ns = np.linalg.svd(s, compute_uv=False)
            nt = np.linalg.svd(t, compute_uv=False)
            nst = np.linalg.svd(s + t, compute_uv=False)
            assert abs(np.sum(nst**p) - (np.sum(ns**p) + np.sum(nt**p))) < 1e-12


class TestSchedule:
    # the staircase with blocks 0..N reindexed to start at 1 satisfies
    # rank(T_i) <= 0.5 * 2**i and |T_i| <= 3 * 3**-i
    def test_staircase_certified(self):
        cert = sc.decay_bound_schedule(0.5, 2.0, 3.0, 3.0, 0, 25)
        assert not sc.schedule_violations(cert, sc.staircase_spectrum(2, 3.0, 30))

    def test_schedule_is_tight_on_staircase(self):
        cert = sc.decay_bound_schedule(0.5, 2.0, 3.0, 3.0, 0, 10)
        st = sc.staircase_spectrum(2, 3.0, 15)
        for index, bound in cert.schedule:
            assert st.value_at(index) <= bound * (1 + 1e-12)

    def test_exponent(self):
        cert = sc.decay_bound_schedule(1.0, 2.0, 1.0, 3.0, 0, 5)
        assert abs(cert.exponent - math.log(3, 2)) < 1e-12

    def test_beta_equals_alpha(self):
        assert sc.decay_bound_schedule(1.0, 2.0, 1.0, 2.0, 0, 5).exponent == 1.0

    def test_homogeneity_in_c2(self):
        c1 = sc.decay_bound_schedule(0.5, 2.0, 3.0, 3.0, 0, 12)
        c2 = sc.decay_bound_schedule(0.5, 2.0, 6.0, 3.0, 0, 12)
        assert all(
            i1 == i2 and abs(b2 - 2 * b1) < 1e-14
            for (i1, b1), (i2, b2) in zip(c1.schedule, c2.schedule)
        )
        assert c1.exponent == c2.exponent

    def test_soundness_on_random_admissible_blocks(self):
        # any block family honoring rank <= C1 alpha^n and norm <= C2 beta^-n
        # must sit below every certified (index, bound) pair
        rng = np.random.default_rng(17)
        c1v, alpha, c2v, beta = 1.0, 2.0, 2.0, 3.0
        for _ in range(20):
            spectra = []
            for n in range(1, 14):
                rank = int(rng.integers(0, math.floor(c1v * alpha**n) + 1))
                norm = c2v * beta**-n * float(rng.random())
                if rank:
                    vals = np.sort(norm * rng.random(rank))[::-1]
                    spectra.append(sc.SingularSpectrum(vals))
            merged = sc.merge_spectra(spectra)
            cert = sc.decay_bound_schedule(c1v, alpha, c2v, beta, 0, 13)
            assert not sc.schedule_violations(cert, merged)


class TestFit:
    def test_exact_power_law(self):
        fit = sc.fit_decay_exponent(spectrum(1.0 / np.arange(1.0, 2001.0) ** 2))
        assert abs(fit.slope + 2.0) < 1e-6

    def test_staircase_slope(self):
        st = sc.staircase_spectrum(2, 3.0, 18)
        fit = sc.fit_decay_exponent(st)
        assert abs(fit.slope + math.log2(3)) / math.log2(3) < 0.05

    def test_constant_spectrum(self):
        fit = sc.fit_decay_exponent(spectrum(np.ones(100)))
        assert abs(fit.slope) < 1e-12

    def test_insufficient(self):
        with pytest.raises(InsufficientData):
            sc.fit_decay_exponent(spectrum([1.0, 0.5, 0.25]))


class TestVerdicts:
    def test_p_series_convergent(self):
        v = sc.summability_verdict(spectrum(1.0 / np.arange(1.0, 20001.0) ** 2), 1.0)
        assert v.verdict == sc.CONVERGENT
        assert v.final_relative_increment < 1e-3

    def test_harmonic_divergent(self):
        v = sc.summability_verdict(spectrum(1.0 / np.arange(1.0, 20001.0)), 1.0)
        assert v.verdict == sc.DIVERGENT_TREND

    def test_staircase_flip(self):
        st = sc.staircase_spectrum(2, 3.0, 40)
        p_star = math.log(2) / math.log(3)
        above = sc.summability_verdict(st, p_star + 0.2)
        below = sc.summability_verdict(st, p_star - 0.2)
        assert above.verdict == sc.CONVERGENT
        assert above.final_relative_increment < 1e-3
        assert below.verdict == sc.DIVERGENT_TREND

    def test_constant_divergent(self):
        assert sc.summability_verdict(spectrum(np.ones(4000)), 1.0).verdict == sc.DIVERGENT_TREND

    def test_empty_convergent(self):
        assert sc.summability_verdict(spectrum([]), 1.0).verdict == sc.CONVERGENT

    def test_divergent_with_exhausted_tail(self):
        # growing bulk followed by a numerically tiny tail must still read
        # as divergent (the exhaustion is an artifact of truncation)
        bulk = 1.0 / np.arange(1.0, 30001.0) ** 0.8
        tail = np.full(4000, 1e-11)
        v = sc.summability_verdict(spectrum(np.concatenate([bulk, tail])), 1.0)
        assert v.verdict == sc.DIVERGENT_TREND


class TestRankCounting:
    def test_floor(self):
        spec = spectrum([1.0, 1e-20, 1e-21])
        assert sc.numerical_rank(spec) == 1

    def test_with_counts(self):
        spec = spectrum([1.0, 0.5], counts=[3, 4])
        assert sc.numerical_rank(spec) == 7
        assert spec.total_count == 7
        assert spec.value_at(3) == 1.0 and spec.value_at(4) == 0.5
