import contextlib
import dataclasses
import hashlib
import math
import os
import pathlib
import pickle
import signal
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sftops import forked
from sftops import functions as fn
from sftops import groupoid as gd
from sftops import scenarios as sn
from sftops import schatten as sc
from sftops import sft
from sftops.errors import SideMismatch

import oracles
from oracles import PERIOD2, period_two_scenario

SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"
FULL = sft.TransitionMatrix.from_rows([[1, 1], [1, 1]])
P2 = sft.MetricParams(2.0)
P = sft.PeriodicOrbit((1,))
Q = sft.PeriodicOrbit((0,))

STEP = sft.build_point((0,), (), (1,), 0)
Y = sft.build_point((0,), (1, 0), (1,), -2)  # step with a 1 at -2
W = sft.build_point((0,), (1, 1, 1, 0), (1,), 0)  # step with a 0 at +3
CA = gd.GroupoidElement(STEP, Y, gd.STABLE)
CB = gd.GroupoidElement(STEP, W, gd.UNSTABLE)


def multiscale(anchor, depth, side):
    return fn.LocallyConstantFunction(
        side, tuple((gd.BaseSet(anchor, k, 0), 2.0**-k) for k in range(depth))
    )


A = multiscale(CA, 8, gd.STABLE)
B = multiscale(CB, 8, gd.UNSTABLE)
E_UNIT = multiscale(gd.unit(STEP), 8, gd.STABLE)


def seeded_registry(bound=5, cap=9000):
    return fn.BasisRegistry.seeded(sft.enumerate_homoclinic(FULL, P, Q, bound), cap=cap)


def _word_bit(seed: str, word) -> int:
    """Reference bit of one word; _word_totals hashes the prefixes incrementally."""
    h = hashlib.sha256(f"{seed}:{','.join(map(str, word))}".encode()).digest()
    return h[0] & 1


class CountingHash:
    """A SHA-256 state that counts the calls made on it into steps."""

    def __init__(self, h, steps):
        self.h, self.steps = h, steps

    def copy(self):
        self.steps["copy"] += 1
        return CountingHash(self.h.copy(), self.steps)

    def update(self, chunk):
        self.steps["update"] += 1
        self.h.update(chunk)

    def digest(self):
        self.steps["digest"] += 1
        return self.h.digest()


@contextlib.contextmanager
def counted_sha256():
    """fn.hashlib.sha256 made a CountingHash; yields its step counts."""
    steps = {"update": 0, "digest": 0, "copy": 0}
    real = hashlib.sha256
    with mock.patch.object(fn.hashlib, "sha256", lambda data: CountingHash(real(data), steps)):
        yield steps


def materialize_profile(f, m):
    """Explicit indicator terms of a one-term profile function (small depths only).

    The term of a word is anchored at the source with the word written
    beyond the threshold.  Where the source's next symbol cannot follow the
    word, the shortest allowed bridge back to the source's own symbols comes
    after it, so that every anchor is a point of the shift space; the
    bridge lies beyond the term's threshold and leaves its domain as it is.
    """
    ((bs, coeff, depth, seed),) = f.terms
    if depth > 12:
        raise ValueError("refusing to materialize a deep profile")
    terms = [(bs, coeff)]
    t = bs.threshold
    z0 = bs.anchor.second
    # words and bridges are read forward from t + 1 (stable) or backward
    # from -t - 1 (unstable, through the transposed matrix)
    if f.side == gd.STABLE:
        mt, ahead = m, lambda i: z0.at(t + i)
    else:
        mt, ahead = m.transpose(), lambda i: z0.at(-t - i)
    for mm in range(1, depth + 1):
        for walk in mt.paths(ahead(0), mm):
            word = walk[1:]
            if not _word_bit(seed, word):
                continue
            read = word + _bridge(mt, word[-1], lambda j: ahead(mm + j + 1))
            if f.side == gd.STABLE:
                z = sft.splice_at(z0, z0, t, read)
            else:
                z = sft.splice_at(z0, z0, -t - len(read) - 1, read[::-1])
            sub = gd.GroupoidElement(oracles.holonomy_apply(bs, z), z, f.side)
            terms.append((gd.BaseSet(sub, bs.radius_exp + mm, bs.time), coeff * 2.0**-mm))
    return fn.LocallyConstantFunction(f.side, tuple(terms))


def _bridge(m, last: int, target) -> bytes:
    """The first of the shortest words w with last, *w, target(len(w))
    allowed; empty when target(0) may follow last."""
    for j in range(m.n * m.n + 1):
        for walk in m.paths(last, j):
            if m.allowed(walk[-1], target(j)):
                return walk[1:]
    raise ValueError("no allowed bridge back to the anchor source")


def convolve_bruteforce(f, g, gamma) -> complex:
    """Oracle for the convolution value at gamma: sum over factorizations
    gamma = alpha . beta with alpha in supp(f), beta in supp(g)."""
    total = 0.0 + 0.0j
    mids = {}  # insertion-ordered, so the summation order is the term order
    for bs in f.supports():
        # alpha = (gamma.first, z) forces z = h_bs^{-1}(gamma.first)
        inv = gd.BaseSet(gd.inverse(bs.anchor), bs.radius_exp, bs.time)
        if gd.in_domain(inv, gamma.first):
            mids[oracles.holonomy_apply(inv, gamma.first)] = None
    for z in mids:
        a = gd.GroupoidElement(gamma.first, z, gamma.side)
        b = gd.GroupoidElement(z, gamma.second, gamma.side)
        total += f.evaluate(a) * g.evaluate(b)
    return total


class TestEvaluate:
    def test_anchor_value(self):
        assert A.evaluate(CA) == sum(2.0**-k for k in range(8))

    def test_outside_supports(self):
        far = gd.unit(sft.build_point((0,), (1,), (0,), 9))
        assert A.evaluate(far) == 0

    def test_nested_overlap(self):
        v_outer = gd.BaseSet(gd.unit(STEP), 1, 0)
        v_inner = gd.BaseSet(gd.unit(STEP), 4, 0)
        f = fn.LocallyConstantFunction(gd.STABLE, ((v_outer, 1.0 + 0j), (v_inner, 2.0 + 0j)))
        assert f.evaluate(gd.unit(STEP)) == 3.0

    def test_side_mismatch(self):
        with pytest.raises(SideMismatch):
            A.evaluate(CB)


class TestLipschitz:
    def test_zero_function(self):
        assert fn.LocallyConstantFunction(gd.STABLE, ()).lipschitz_constant(P2) == 0.0

    def test_scaling(self):
        assert A.scaled(3.0).lipschitz_constant(P2) == 3.0 * A.lipschitz_constant(P2)

    def test_bound_dominates_sampled_ratios(self):
        ind = fn.indicator(gd.BaseSet(CA, 2, 0))
        bound = ind.lipschitz_constant(P2)
        assert bound == 2.0**3
        from sftops import sampling as smp

        els = smp.nested_family(FULL, CA, range(1, 8), P) + [CA]
        worst = 0.0
        for a in els:
            for b in els:
                e = gd.groupoid_metric_exponent(a, b)
                if e is None:
                    continue
                gap = abs(ind.evaluate(a) - ind.evaluate(b))
                if gap:
                    worst = max(worst, gap / 2.0**-e)
        assert 0 < worst <= bound


class TestInvolution:
    def test_involutive(self):
        assert A.involution().involution() == A

    def test_matrix_adjoint(self):
        reg = seeded_registry()
        fn.represent(A, reg)
        fn.represent(A.involution(), reg)
        reg.freeze()
        m1 = fn.represent(A, reg).dagger()
        m2 = fn.represent(A.involution(), reg)
        assert not (m1 - m2).entries

    def test_real_unit_space_fixed(self):
        assert E_UNIT.involution() == E_UNIT


class TestAlpha:
    def test_identity(self):
        assert A.alpha(0) == A

    def test_inverse(self):
        assert A.alpha(1).alpha(-1) == A

    def test_pointwise_transport(self):
        f1 = A.alpha(1)
        for g in (CA, gd.unit(STEP), gd.GroupoidElement(STEP, Y, gd.STABLE)):
            assert f1.evaluate(g) == A.evaluate(gd.phi_auto(g, -1))

    def test_u_conjugation_columnwise(self):
        reg = seeded_registry()
        f1 = A.alpha(1)
        for x in list(reg.points)[:60]:
            lhs = fn.apply_to_point(f1, x)
            xm = sft.shift(x, -1)
            rhs = {sft.shift(ypt, 1): v for ypt, v in fn.apply_to_point(A, xm).items()}
            assert lhs == rhs


class TestConvolve:
    def test_zero(self):
        assert not fn.convolve(A, fn.LocallyConstantFunction(gd.STABLE, ()), FULL).terms

    def test_pointwise_oracle(self):
        astar = A.involution()
        prod = fn.convolve(A, astar, FULL)
        gammas = [bs.anchor for bs in prod.supports()][:10]
        gammas += [CA, gd.unit(STEP)]
        for gam in gammas:
            assert abs(prod.evaluate(gam) - convolve_bruteforce(A, astar, gam)) < 1e-12

    def test_unit_absorbs(self):
        # a unit-space disk containing the range of A acts as identity there
        big_unit = fn.indicator(gd.BaseSet(gd.unit(STEP), 0, 0))
        prod = fn.convolve(big_unit, A, FULL)
        for gam in (CA,):
            assert abs(prod.evaluate(gam) - A.evaluate(gam)) < 1e-12

    def test_matrix_multiplicativity(self):
        astar = A.involution()
        reg = seeded_registry()
        pairs = {
            "ea": (E_UNIT, A),
            "aastar": (A, astar),
            "astara": (astar, A),
            "aa": (A, A),
        }
        for f, g in pairs.values():
            fn.represent(f, reg)
            fn.represent(g, reg)
            fn.represent(fn.convolve(f, g, FULL), reg)
        reg.freeze()
        for f, g in pairs.values():
            lhs = fn.represent(f, reg).matmul(fn.represent(g, reg))
            rhs = fn.represent(fn.convolve(f, g, FULL), reg)
            diff = lhs - rhs
            assert max((abs(v) for v in diff.entries.values()), default=0.0) < 1e-13
        assert reg.truncation_events == 0

    def test_side_mismatch(self):
        with pytest.raises(SideMismatch):
            fn.convolve(A, B, FULL)


GOLDEN = sft.TransitionMatrix.from_rows([[1, 1], [1, 0]])
SHIFTS = {
    "full-2-shift": (FULL, P, Q),
    "golden-mean": (GOLDEN, sft.PeriodicOrbit((0, 1)), Q),
    "period-2": (PERIOD2, sft.PeriodicOrbit((0, 1)), sft.PeriodicOrbit((0, 2))),
}


def sweep_base_sets(m, p, q, side, pool_size=4):
    """Base sets over every equivalent pair of a few homoclinic points, at the
    lowest coherent time (down to -3) and one above c_first_time, each at
    two radii."""
    pts = sft.enumerate_homoclinic(m, p, q, 2)
    pool = pts[:: len(pts) // pool_size][:pool_size]
    out = []
    for x in pool:
        for y in pool:
            if side == gd.STABLE and sft.agreement_floor(x, y) == math.inf:
                continue
            if side == gd.UNSTABLE and sft.agreement_depth(x, y) == -math.inf:
                continue
            a = gd.GroupoidElement(x, y, side)
            for t in sorted({int(max(gd.min_splice_time(a), -3)), gd.c_first_time(a) + 1}):
                out.extend(gd.BaseSet(a, r, t) for r in (t, t + 2))
    return out


@pytest.mark.parametrize("side", [gd.STABLE, gd.UNSTABLE])
@pytest.mark.parametrize("name", sorted(SHIFTS))
def test_composed_time_is_the_larger_time(name, side):
    # the composed anchor agrees with its source from max(N_v, N_w) - 1 on,
    # so one base set at time max(N_v, N_w) covers the product bisection
    m, p, q = SHIFTS[name]
    sets = sweep_base_sets(m, p, q, side)
    composed = 0
    for v in sets:
        for w in sets:
            for bs in fn.compose_base_sets(v, w, m):
                assert bs.time == max(v.time, w.time), (v, w, bs)
                composed += 1
    assert composed >= 300


@pytest.mark.parametrize("side", [gd.STABLE, gd.UNSTABLE])
@pytest.mark.parametrize("name", ["golden-mean", "period-2"])
def test_materialized_anchors_are_points_of_the_shift(name, side):
    # a word whose junction with the anchor source beyond it is forbidden
    # would give a term whose domain holds no point of the shift space
    m, p, q = SHIFTS[name]
    checked = 0
    for bs in sweep_base_sets(m, p, q, side):
        mat = materialize_profile(fn.profile(bs, depth=6, seed="t"), m)
        for sub in mat.supports()[1:]:
            sft.validate_point(sub.anchor.first, m)
            sft.validate_point(sub.anchor.second, m)
            checked += 1
    assert checked >= 100


class TestRepresent:
    def test_unit_space_diagonal(self):
        reg = seeded_registry()
        mat = fn.represent(E_UNIT, reg)
        assert all(i == j for (i, j) in mat.entries)

    def test_zero(self):
        reg = seeded_registry()
        assert not fn.represent(fn.LocallyConstantFunction(gd.STABLE, ()), reg).entries

    def test_bisection_pair_rank_at_most_one(self):
        reg = seeded_registry()
        a_ind = fn.indicator(gd.BaseSet(CA, 2, 0))
        b_ind = fn.indicator(gd.BaseSet(CB, 2, 0))
        ma = fn.represent(a_ind, reg)
        mb = fn.represent(b_ind, reg)
        reg.freeze()
        ma = fn.represent(a_ind, reg)
        mb = fn.represent(b_ind, reg)
        for prod in (ma.matmul(mb), mb.matmul(ma)):
            assert sc.numerical_rank(sc.singular_values(prod)) <= 1

    def test_growth_and_cap(self):
        reg = fn.BasisRegistry.seeded(sft.enumerate_homoclinic(FULL, P, Q, 2), cap=60)
        fn.represent(A, reg)
        assert len(reg) <= 60


class TestUnitary:
    def test_permutation_identity(self):
        reg = seeded_registry()
        u = fn.unitary_u(reg)
        prod = u.matmul(u.dagger())
        # identity on the realized sub-basis (rows that have images)
        for (i, j), v in prod.entries.items():
            assert i == j and abs(v - 1.0) < 1e-15

    def test_moves_step_point(self):
        reg = seeded_registry()
        u = fn.unitary_u(reg)
        j = reg.index.get(STEP)
        i = reg.index.get(sft.shift(STEP, 1))
        assert u.entries.get((i, j)) == 1.0

    def test_commutes_with_shift_invariant_diagonal(self):
        reg = seeded_registry()
        u = fn.unitary_u(reg)
        diag = fn.SparseOperator()
        for i in range(len(reg)):
            diag.add(i, i, 2.5)
        d = u.matmul(diag) - diag.matmul(u)
        assert max((abs(v) for v in d.entries.values()), default=0.0) == 0.0


def _overwrite(z, lo, word):
    """z with `word` on [lo, lo + len(word)), built from a symbol-by-symbol read."""
    a = min(z.core_start, lo)
    b = max(z.core_end, lo + len(word))
    core = tuple(word[i - lo] if lo <= i < lo + len(word) else z.at(i) for i in range(a, b))
    left = z.window(a - len(z.left_cycle), a)
    right = z.window(b, b + len(z.right_cycle))
    return sft.build_point(left, core, right, a)


def _word_sources(bs, m, length):
    """The anchor's source with each allowed word of `length` symbols beyond
    the threshold (forward on the stable side, backward on the unstable)."""
    z, t = bs.anchor.second, bs.threshold
    if bs.side == gd.STABLE:
        return [_overwrite(z, t + 1, w[1:]) for w in m.paths(z.at(t), length)]
    return [_overwrite(z, -t - length, w[:0:-1]) for w in m.transpose().paths(z.at(-t), length)]


class TestProfileFunctions:
    def test_profile_matches_materialization(self):
        prof = fn.profile(gd.BaseSet(CA, 1, 0), depth=5, seed="t")
        mat = materialize_profile(prof, FULL)
        from sftops import sampling as smp

        els = smp.nested_family(FULL, CA, range(1, 9), P) + [CA]
        for g in els:
            assert abs(prof.evaluate(g) - mat.evaluate(g)) < 1e-12
        # both sides on both reference matrices, on sources carrying every
        # allowed word over the 7 coordinates beyond the threshold
        checked = 0
        for name in ("full-2-shift", "golden-mean"):
            s = REFERENCE[name]
            for f in (s.functions["a"], s.functions["b"]):
                bs = f.supports()[0]
                prof = fn.profile(bs, depth=6, seed="t")
                mat = materialize_profile(prof, s.matrix)
                for z in _word_sources(bs, s.matrix, 7):
                    # holonomy_apply raises unless z is in the domain disk
                    g = gd.GroupoidElement(oracles.holonomy_apply(bs, z), z, bs.side)
                    assert abs(prof.evaluate(g) - mat.evaluate(g)) < 1e-12, (name, g)
                    checked += 1
        assert checked == 2 * 2**7 + 2 * 34

    def test_profile_value_matches_word_bits(self):
        # the incremental hash against one _word_bit per prefix, at the
        # reference depth, on both sides and on points of both matrices
        golden = sft.TransitionMatrix.from_rows([[1, 1], [1, 0]])
        pts = sft.enumerate_homoclinic(FULL, P, Q, 3) + sft.enumerate_homoclinic(
            golden, sft.PeriodicOrbit((0, 1)), Q, 3
        )
        for anchor in (CA, CB):
            for radius in (1, 4):
                prof = fn.profile(gd.BaseSet(anchor, radius, 0), depth=30, seed="ref-a")
                (term,) = prof.terms
                sgn = 1 if prof.side == gd.STABLE else -1
                t = term.support.threshold
                for z in pts:
                    word = [z.at(sgn * (t + mm)) for mm in range(1, 31)]
                    ref = 1.0 + sum(
                        2.0**-mm * _word_bit("ref-a", word[:mm]) for mm in range(1, 31)
                    )
                    assert prof.profile_value(z) == term.coeff * ref

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.lists(st.integers(0, 2), min_size=12, max_size=12), min_size=3, max_size=3),
        st.lists(
            st.tuples(
                st.integers(0, 19),
                st.integers(0, 2),
                st.integers(0, 12),
                st.lists(st.integers(0, 2), max_size=3),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    def test_word_totals_match_one_pass_sums(self, pool, calls):
        # one word per call, as profile_value asks: interleaved seeds,
        # repeated words, shared prefixes and mixed lengths; each word is a
        # cut of a pool word plus a short tail
        for seed_no, base, cut, tail in calls:
            seed = f"p{seed_no}"
            word = tuple(pool[base][:cut] + tail)
            want = 1.0
            for mm in range(1, len(word) + 1):
                want += 2.0**-mm * _word_bit(seed, word[:mm])
            assert fn._word_totals(seed, {word: None}) == {word: want}

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(0, 2), min_size=12, max_size=40),
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.integers(0, 19),
                st.integers(0, 39),
                st.integers(0, 12),
                st.booleans(),
            ),
            min_size=1,
            max_size=60,
        ),
    )
    def test_sorted_block_words_match_one_pass_sums(self, seq, cuts):
        # blocks of words cut out of one sequence, read forward (stable
        # profiles) and backward (unstable ones), under several seeds, as
        # the block kernel hands them over; one call hashes each distinct
        # nonempty prefix of its words once, a walk of their trie
        blocks = {}
        for block, seed_no, start, length, backward in cuts:
            word = tuple(seq[start : start + length])
            seeds = blocks.setdefault(block, {})
            seeds.setdefault(f"w{seed_no}", set()).add(word[::-1] if backward else word)
        for _, seeds in sorted(blocks.items()):
            for seed, words in seeds.items():
                with counted_sha256() as steps:
                    totals = fn._word_totals(seed, dict.fromkeys(words))
                assert steps["update"] == len({w[:mm] for w in words for mm in range(1, len(w) + 1)})
                for word, total in totals.items():
                    want = 1.0
                    for mm in range(1, len(word) + 1):
                        want += 2.0**-mm * _word_bit(seed, word[:mm])
                    assert total == want

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_word_walk_matches_prefix_hashes(self, data):
        # the trie walk against hashing every prefix from scratch, on word
        # sets with the empty word, words that are prefixes of others and
        # shared prefixes, over alphabets of 1-4 symbols; each trie node
        # costs one update and one digest, and a hash state is copied once
        # per later branch off a node
        alphabet = data.draw(st.integers(1, 4))
        symbols = st.lists(st.integers(0, alphabet - 1), max_size=40)
        words = set()
        for base in data.draw(st.lists(symbols, min_size=1, max_size=6)):
            words.add(bytes(base))
            for cut, tail in data.draw(st.lists(st.tuples(st.integers(0, len(base)), symbols), max_size=4)):
                words.add(bytes(base[:cut] + tail[: 40 - cut]))
        if data.draw(st.booleans()):
            words.add(b"")
        with counted_sha256() as steps:
            totals = fn._word_totals("walk", dict.fromkeys(words))
        for word in words:
            want = 1.0
            for mm in range(1, len(word) + 1):
                want += 2.0**-mm * _word_bit("walk", word[:mm])
            assert totals[word] == want, word
        nodes = {w[:mm] for w in words for mm in range(1, len(w) + 1)}
        children = {}
        for node in nodes:
            children[node[:-1]] = children.get(node[:-1], 0) + 1
        assert steps["update"] == steps["digest"] == len(nodes)
        assert steps["copy"] == sum(c - 1 for c in children.values())

    def test_profile_involution_round_trip(self):
        prof = fn.profile(gd.BaseSet(CA, 1, 0), depth=6, seed="t")
        assert prof.involution().involution() == prof

    def test_profile_alpha_transport(self):
        prof = fn.profile(gd.BaseSet(CA, 1, 0), depth=6, seed="t")
        f1 = prof.alpha(1)
        for g in (CA, gd.GroupoidElement(STEP, Y, gd.STABLE)):
            assert f1.evaluate(g) == prof.evaluate(gd.phi_auto(g, -1))

    def test_sum_function(self):
        s = fn.LocallyConstantFunction(gd.STABLE, A.terms + E_UNIT.terms)
        assert s.evaluate(CA) == A.evaluate(CA) + E_UNIT.evaluate(CA)


REFERENCE = {name: mk() for name, mk in sn.REFERENCE_SCENARIOS.items()}
KAPPA_THREE = [dataclasses.replace(s, name=f"{s.name}-kappa-3", kappa=3.0) for s in REFERENCE.values()]
LINEARITY_SCENARIOS = {s.name: s for s in [*REFERENCE.values(), *KAPPA_THREE, period_two_scenario()]}
LINEARITY_REGISTRY = {
    name: sft.enumerate_homoclinic(s.matrix, s.orbit_p, s.orbit_q, 3)
    for name, s in LINEARITY_SCENARIOS.items()
}


class TestLinearity:
    # a function is the sum of its terms: represent of a mix of indicator
    # and profile terms is the entrywise sum of represent of each one-term
    # piece, on both reference matrices, their kappa = 3 copies and the
    # period-2 matrix.  Terms whose values cancel at an image point leave
    # that point out of represent(f), but not out of a piece, so the
    # registry is grown over f and every piece until it stops growing
    # before it is frozen.
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(sorted(LINEARITY_SCENARIOS)),
        st.lists(
            st.tuples(
                st.booleans(),
                st.integers(0, 4),
                st.sampled_from([0, 3, 8]),
                st.sampled_from([1.0, -0.5, 0.25j, 1 - 1j]),
            ),
            min_size=2,
            max_size=5,
        ),
        st.integers(-2, 3),
    )
    @example("period-2", [(False, 0, 3, 1.0), (False, 0, 3, -0.5), (False, 0, 3, -0.5)], 0)
    def test_represent_is_the_sum_over_terms(self, name, specs, k):
        s = LINEARITY_SCENARIOS[name]
        on_units = next(s.functions[k] for k in ("e_proj", "e_unit") if k in s.functions)
        off_diag, unit = (f.terms[0].support.anchor for f in (s.functions["a"], on_units))
        terms = tuple(
            fn.Term(gd.BaseSet(unit if on_unit else off_diag, radius, 0), coeff, depth, "lin")
            for on_unit, radius, depth, coeff in specs
        )
        f = fn.LocallyConstantFunction(gd.STABLE, terms).alpha(k)
        pieces = [fn.LocallyConstantFunction(gd.STABLE, (t,)) for t in f.terms]
        reg = fn.BasisRegistry.seeded(LINEARITY_REGISTRY[name], cap=100000)
        size = None
        while size != len(reg):
            size = len(reg)
            for g in (f, *pieces):
                fn.represent(g, reg)
        reg.freeze()
        summed = fn.SparseOperator()
        for piece in pieces:
            for (i, j), v in fn.represent(piece, reg).entries.items():
                summed.add(i, j, v)
        assert not (fn.represent(f, reg) - summed).entries
        assert reg.truncation_events == 0


class TestApplyToPoint:
    def test_one_domain_test_per_term_per_column(self, monkeypatch):
        # one _act call, which tests every term's domain once, per column
        # and function: the values pass reuses the images of the words pass
        calls = []
        real = fn._act

        def counted(actions, z):
            calls.append(len(actions))
            return real(actions, z)

        monkeypatch.setattr(fn, "_act", counted)
        prof = fn.profile(gd.BaseSet(CA, 1, 0), depth=8, seed="t")
        pts = seeded_registry(bound=3).points
        hits = sum(bool(fn.apply_to_point(f, x)) for f in (prof, A) for x in pts)
        assert hits > 0
        assert calls == [1] * len(pts) + [len(A.terms)] * len(pts)
        calls.clear()
        reg = seeded_registry(bound=3)
        for f in (prof, A):
            fn.represent(f, reg)
        assert calls == [1] * len(pts) + [len(A.terms)] * len(pts)


@pytest.fixture(scope="module")
def blocks():
    a = fn.profile(gd.BaseSet(CA, 1, 0), depth=20, seed="ref-a")
    b = fn.profile(gd.BaseSet(CB, 1, 0), depth=20, seed="ref-b")
    reg = fn.BasisRegistry.seeded(sft.enumerate_homoclinic(FULL, P, Q, 2), cap=6000)
    return fn.commutator_blocks(a, b, (-8, 12), reg, FULL)


class TestCommutatorBlocks:

    def test_vanishes_below_n0(self, blocks):
        nonzero = [n for n, op in blocks.blocks.items() if op.entries]
        assert min(nonzero) >= -0  # finite witnessed n0
        assert all(not blocks.blocks[n].entries for n in range(-8, min(nonzero)))

    def test_finite_ranks(self, blocks):
        for n, op in blocks.trusted_blocks().items():
            assert sc.numerical_rank(sc.singular_values(op)) < 6000

    def test_norms_decay(self, blocks):
        norms = {}
        for n, op in blocks.trusted_blocks().items():
            spec = sc.singular_values(op)
            if len(spec.values):
                norms[n] = spec.values[0]
        deep = [norms[n] for n in sorted(norms) if n >= 6]
        assert all(b < a for a, b in zip(deep, deep[1:]))

    def test_zero_factor_gives_zero_blocks(self):
        zero_s = fn.LocallyConstantFunction(gd.STABLE, ())
        zero_u = fn.LocallyConstantFunction(gd.UNSTABLE, ())
        for a, b in ((zero_s, B), (A, zero_u), (zero_s, zero_u)):
            out = fn.commutator_blocks(a, b, (-2, 3), seeded_registry(bound=2), FULL)
            assert not out.untrusted and not any(op.entries for op in out.blocks.values())

    def test_untrusted_flagging(self):
        a = fn.profile(gd.BaseSet(CA, 1, 0), depth=20, seed="ref-a")
        b = fn.profile(gd.BaseSet(CB, 1, 0), depth=20, seed="ref-b")
        reg = fn.BasisRegistry.seeded(sft.enumerate_homoclinic(FULL, P, Q, 2), cap=300)
        blocks = fn.commutator_blocks(a, b, (-2, 14), reg, FULL)
        assert blocks.untrusted
        assert set(blocks.trusted_blocks()).isdisjoint(blocks.untrusted)


def _pairs(s):
    stable = sorted(k for k, f in s.functions.items() if f.side == gd.STABLE)
    unstable = sorted(k for k, f in s.functions.items() if f.side == gd.UNSTABLE)
    return [(s, a, b) for a in stable for b in unstable]


def _two_ranges():
    """full-2-shift with a stable function of two terms on one source anchor
    and two range anchors: a column can have two rows, while the estimate
    counts one slot per support window."""
    s = REFERENCE["full-2-shift"]
    (term,) = s.functions["a"].terms
    other = gd.GroupoidElement(sft.shift(STEP, 5), term.support.anchor.second, gd.STABLE)
    two = fn.LocallyConstantFunction(
        gd.STABLE, ((term.support, 1.0), (gd.BaseSet(other, 1, gd.c_first_time(other)), 0.5))
    )
    return dataclasses.replace(s, name="two-ranges", functions={"a": two, "b": s.functions["b"]})


ORACLE_CASES = (
    [p for name in sorted(REFERENCE) for p in _pairs(REFERENCE[name])]
    + [(s, "a", "b") for s in KAPPA_THREE]
    + _pairs(period_two_scenario())
    + [(_two_ranges(), "a", "b")]
)


def _bridge_points(m, past, past_hi, future, future_lo):
    """Points matching `past` through past_hi and `future` from future_lo
    on, each spliced and canonicalised on its own."""
    if past_hi >= future_lo:
        if not m.allowed(past.at(future_lo - 1), future.at(future_lo)):
            return []
        cand = sft.splice_at(past, future, future_lo - 1)
        if cand.window(future_lo, past_hi + 1) != past.window(future_lo, past_hi + 1):
            return []
        return [cand]
    return [
        sft.splice_at(past, future, past_hi, w[1:])
        for w in m.paths(past.at(past_hi), future_lo - past_hi - 1)
        if m.allowed(w[-1], future.at(future_lo))
    ]


def intersection_points(m, unstable_center, unstable_depth, stable_center, stable_depth, k):
    """Enumeration oracle for fn.intersection_count."""
    shifted = sft.shift(unstable_center, k)
    return _bridge_points(m, shifted, unstable_depth - k, stable_center, -stable_depth)


def apply_to_column(f, col):
    """f applied to a column of points: the point-level apply_to_point at
    each point, summed by image point."""
    out = {}
    for x, weight in col.items():
        for y, v in oracles.apply_to_point(f, x).items():
            fn._accumulate(out, y, weight * v)
    return out


def point_level_blocks(a, b, window, reg, m):
    """commutator_blocks on points: the support spliced point by point, each
    column through apply_to_column(f, apply_to_point(g, x)), every image a
    canonical point."""
    blocks, untrusted = {}, {}
    for n in range(window[0], window[1] + 1):
        a_n, b_n = a.alpha(n), b
        est = fn.estimate_column_count(a_n, b_n, m)
        room = reg.cap - len(reg)
        blocks[n] = op = fn.SparseOperator()
        if est > room:
            untrusted[n] = f"support estimate {est} exceeds remaining capacity {room}"
            continue
        cols = {}
        for s_pat, u_pat, past_hi, future_lo in fn._support_windows(a_n, b_n):
            cols.update(dict.fromkeys(_bridge_points(m, s_pat, past_hi, u_pat, future_lo)))
        for x in sorted(cols, key=sft.EventuallyPeriodicPoint.sort_key):
            col = apply_to_column(a_n, oracles.apply_to_point(b_n, x))
            for y, v in apply_to_column(b_n, oracles.apply_to_point(a_n, x)).items():
                fn._accumulate(col, y, -v)
            if not col:
                continue
            j = reg.add(x)
            if j is None:
                untrusted[n] = "registry cap hit during assembly"
                continue
            for y, v in col.items():
                i = reg.add(y)
                if i is None:
                    untrusted[n] = "registry cap hit during assembly"
                    continue
                op.add(i, j, v)
    return fn.BlockOperator(tuple(window), blocks, untrusted, reg)


def mixed_blocks(blocks, a, b, window, reg, m):
    """blocks(...) with the unstable factor moving along: block n is
    [alpha^n(a), alpha^-n(b)], from one single-block call per n."""
    ns = range(window[0], window[1] + 1)
    runs = [blocks(a, b.alpha(-n), (n, n), reg, m) for n in ns]
    untrusted = {n: why for run in runs for n, why in run.untrusted.items()}
    return fn.BlockOperator(tuple(window), {n: run.blocks[n] for n, run in zip(ns, runs)}, untrusted, reg)


def _entries(op):
    return sorted((k, v.real.hex(), v.imag.hex()) for k, v in op.entries.items())


def _assert_same_assembly(fast, oracle):
    assert fast.untrusted == oracle.untrusted
    assert fast.basis.points == oracle.basis.points
    assert fast.basis.truncation_events == oracle.basis.truncation_events
    assert {n: _entries(op) for n, op in fast.blocks.items()} == {
        n: _entries(op) for n, op in oracle.blocks.items()
    }
    # every registered point is canonical
    for i, x in enumerate(fast.basis.points):
        again = sft.build_point(x.left_cycle, x.core, x.right_cycle, x.core_start)
        assert again == x and fast.basis.index[x] == i


def _seeds(s):
    return sft.enumerate_homoclinic(s.matrix, s.orbit_p, s.orbit_q, 3)


@pytest.mark.parametrize("mixed", [False, True])
@pytest.mark.parametrize(
    "s, a_name, b_name",
    ORACLE_CASES,
    ids=[f"{s.name}-{a}-{b}" for s, a, b in ORACLE_CASES],
)
def test_blocks_match_point_level_assembly(s, a_name, b_name, mixed):
    # the word-level kernel against the point-level assembly: blocks,
    # untrusted flags and the registry, bit for bit and in the same order
    a, b = s.functions[a_name], s.functions[b_name]

    def assemble(blocks):
        reg = fn.BasisRegistry.seeded(_seeds(s), cap=s.basis_cap)
        if mixed:
            return mixed_blocks(blocks, a, b, (-2, 6), reg, s.matrix)
        return blocks(a, b, (-2, 6), reg, s.matrix)

    fast = assemble(fn.commutator_blocks)
    _assert_same_assembly(fast, assemble(point_level_blocks))
    # a mixed block n of the period-2 scenario is alpha^-n of the unmixed
    # block 2n, and every even unmixed block there is zero
    assert (mixed and s.matrix == PERIOD2) or any(op.entries for op in fast.blocks.values())


@pytest.mark.parametrize("mixed", [False, True])
def test_cap_hit_during_assembly_matches_point_level(mixed):
    # caps just above the seeds: some block passes the estimate check and
    # then runs out of registry slots while it registers its columns and rows
    s = _two_ranges()
    a, b = s.functions["a"], s.functions["b"]
    seeds = _seeds(s)
    reasons = set()
    for cap in range(len(seeds), len(seeds) + 12):
        runs = []
        for blocks in (fn.commutator_blocks, point_level_blocks):
            reg = fn.BasisRegistry.seeded(seeds, cap=cap)
            if mixed:
                runs.append(mixed_blocks(blocks, a, b, (-2, 8), reg, s.matrix))
            else:
                runs.append(blocks(a, b, (-2, 8), reg, s.matrix))
        _assert_same_assembly(*runs)
        reasons |= set(runs[0].untrusted.values())
    assert "registry cap hit during assembly" in reasons


REPRESENT_CASES = [
    (s, name)
    for s in [*REFERENCE.values(), *KAPPA_THREE, period_two_scenario(), _two_ranges()]
    for name in sorted(s.functions)
]


def _disk_points(f, m):
    """Points around the domain disk of each term of f: the term's source
    with the four symbols around its threshold set every allowed way, so
    some lie in the disk and some do not."""
    pts = {}
    for bs in f.supports():
        src, t = bs.anchor.second, bs.threshold
        if f.side == gd.STABLE:
            pts.update(dict.fromkeys(_bridge_points(m, src, t - 2, src, t + 3)))
        else:
            pts.update(dict.fromkeys(_bridge_points(m, src, -t - 3, src, -t + 2)))
    return list(pts)


def _hex(v):
    return v.real.hex(), v.imag.hex()


@pytest.mark.parametrize("s, name", REPRESENT_CASES, ids=[f"{s.name}-{name}" for s, name in REPRESENT_CASES])
def test_represent_and_evaluate_match_point_level(s, name):
    # the word-level kernel against the point-level action at alpha^n, n in
    # -3..3, and at (-f)*, with the seeds and points around the domain
    # disks as columns: represent's entries, registry order and truncation
    # events on an open registry, a frozen one and one whose cap runs out
    # during the call, and evaluate's values, bit for bit (the coefficients
    # of (-f)* are -1 - 0j, so a lone profile's values have an imaginary
    # -0.0, which a sum started from 0j would turn into 0.0)
    g = s.functions[name]
    truncations = 0
    for n, f in [*((n, g.alpha(n)) for n in range(-3, 4)), ("(-f)*", g.scaled(-1).involution())]:
        cols = list(dict.fromkeys(_seeds(s) + _disk_points(f, s.matrix)))
        for cap, frozen in ((s.basis_cap, False), (s.basis_cap, True), (len(cols) + 3, False)):
            runs = []
            for represent in (fn.represent, oracles.represent):
                reg = fn.BasisRegistry.seeded(cols, cap=cap)
                if frozen:
                    reg.freeze()
                # the second call also has the rows of the first as columns
                ops = [_entries(represent(f, reg)) for _ in range(2)]
                runs.append((ops, reg.points, reg.truncation_events))
            assert runs[0] == runs[1], (n, cap, frozen)
            assert frozen or any(runs[0][0])
            truncations += runs[0][2]
        for x in cols:
            for y in [*oracles.apply_to_point(f, x), x, cols[0]]:
                gamma = gd.GroupoidElement(y, x, f.side)
                assert _hex(f.evaluate(gamma)) == _hex(oracles.evaluate(f, gamma)), (n, gamma)
    # a function on units maps every point to itself and registers nothing
    assert truncations or all(t.support.anchor.first == t.support.anchor.second for t in g.terms)


@pytest.mark.parametrize("name, rows", [("full-2-shift", {0: 12}), ("golden-mean", {0: 9, 4: 2})])
def test_rows_can_be_seed_points(name, rows):
    # a row need not be new to the registry, so registry indices do not
    # follow "the seeds, then a (column, row) pair per nonzero entry"
    s = REFERENCE[name]
    seeds = _seeds(s)
    reg = fn.BasisRegistry.seeded(seeds, cap=s.basis_cap)
    out = fn.commutator_blocks(s.functions["a"], s.functions["b"], (-2, 6), reg, s.matrix)
    for n, row in rows.items():
        assert {i for i, _ in out.blocks[n].entries} == {row}
        assert row < len(seeds) and reg.points[row] == seeds[row]


def test_assembly_calls_the_benchmark_hooks_through_the_module(monkeypatch):
    # the traced benchmark run wraps these two module attributes: the
    # estimate runs once per block, the support once per block that passes
    # the estimate, on (a_n, b_n, m), and returns canonical points
    s = REFERENCE["full-2-shift"]
    a, b, m = s.functions["a"], s.functions["b"], s.matrix
    estimates, supports = [], []
    real_estimate, real_support = fn.estimate_column_count, fn.commutator_column_support

    def estimate(*args):
        estimates.append(args[0])
        return real_estimate(*args)

    def support(*args):
        out = real_support(*args)
        supports.append((args, out))
        return out

    monkeypatch.setattr(fn, "estimate_column_count", estimate)
    monkeypatch.setattr(fn, "commutator_column_support", support)
    seeds = _seeds(s)
    out = fn.commutator_blocks(a, b, (-2, 10), fn.BasisRegistry.seeded(seeds, cap=len(seeds) + 30), m)
    turned_away = [n for n, why in out.untrusted.items() if why.startswith("support estimate")]
    assert turned_away and len(estimates) == 13
    assert len(supports) == 13 - len(turned_away)
    for (a_n, b_n, m_arg), pts in supports:
        assert a_n.side == gd.STABLE and b_n is b and m_arg is m
        for x in pts:
            assert sft.build_point(x.left_cycle, x.core, x.right_cycle, x.core_start) == x
    assert any(pts for _, pts in supports)


@pytest.mark.parametrize("name,window,repeats", [("full-2-shift", (-8, 15), 13), ("golden-mean", (-8, 19), 17)])
def test_support_enumerates_each_window_spec_once(monkeypatch, name, window, repeats):
    # the two composition orders often pin the same free window; the
    # support enumerates it once (the estimate still counts both)
    s = REFERENCE[name]
    a, b, m = s.functions["a"], s.functions["b"], s.matrix
    calls, real = [], fn._bridge_windows

    def bridge(*args):
        calls.append(args[1:])
        return real(*args)

    monkeypatch.setattr(fn, "_bridge_windows", bridge)
    seen = 0
    for n in range(window[0], window[1] + 1):
        specs = fn._support_windows(a.alpha(n), b)
        calls.clear()
        fn.commutator_column_support(a.alpha(n), b, m)
        assert len(calls) == len(set(calls)) == len(set(specs))
        seen += len(specs) - len(set(specs))
    assert seen == repeats


def _processes(monkeypatch, cpus):
    """Pins the CPU count that commutator_blocks and forked.run read; the
    list that the runs of blocks it hands to _fork_columns land in."""
    forks, real = [], fn._fork_columns

    def fork(jobs, *args):
        forks.append(sorted(jobs))
        return real(jobs, *args)

    monkeypatch.setattr(forked, "_cpus", lambda: cpus)
    monkeypatch.setattr(fn, "_fork_columns", fork)
    return forks


def _blocks_in(monkeypatch, cpus, s, window, cap):
    forks = _processes(monkeypatch, cpus)
    reg = fn.BasisRegistry.seeded(_seeds(s), cap=cap)
    return fn.commutator_blocks(s.functions["a"], s.functions["b"], window, reg, s.matrix), forks


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _assert_two_match_one(monkeypatch, s, window, cap) -> list:
    """Blocks, untrusted reasons, registry order and truncation events are
    the same whether the certain runs of blocks are split between two
    processes or all assembled in this one; the runs, each of blocks that
    pass the estimate check."""
    one, forks = _blocks_in(monkeypatch, 1, s, window, cap)
    assert not forks
    two, forks = _blocks_in(monkeypatch, 2, s, window, cap)
    assert forks
    _assert_same_assembly(two, one)
    _no_children_left()
    turned_away = {n for n, why in one.untrusted.items() if why.startswith("support estimate")}
    assert turned_away.isdisjoint(n for run in forks for n in run)
    return forks, one.untrusted


@pytest.mark.parametrize(
    "s, window, floor",
    [
        (REFERENCE["full-2-shift"], (-8, 15), fn.FORK_FLOOR),
        (REFERENCE["golden-mean"], (-8, 19), fn.FORK_FLOOR),
        (period_two_scenario(), (-4, 10), 0),
    ],
    ids=["full-2-shift", "golden-mean", "period-2"],
)
def test_two_processes_match_one(monkeypatch, s, window, floor):
    monkeypatch.setattr(fn, "FORK_FLOOR", floor)
    _assert_two_match_one(monkeypatch, s, window, s.basis_cap)


def test_two_processes_match_one_under_a_cap(monkeypatch):
    # caps at which a run of certain blocks ends inside the window: some
    # block hits the cap while it registers, later ones fail the estimate;
    # at 70 extra slots, a run bounded by columns alone, without their
    # rows, would take in a block that fails it
    monkeypatch.setattr(fn, "FORK_FLOOR", 0)
    s = _two_ranges()
    reasons = set()
    for extra in (21, 42, 70, 84):
        forks, untrusted = _assert_two_match_one(monkeypatch, s, (-4, 12), len(_seeds(s)) + extra)
        assert forks[-1][-1] < 12
        reasons |= {why.split()[0] for why in untrusted.values()}
    assert reasons == {"support", "registry"}


def _one_block_short(w, jobs):
    data = pickle.dumps([job() for job in jobs[1:]])
    os.write(w, b"." * len(jobs) + data)


@pytest.mark.parametrize(
    "send",
    [oracles.child_raises, oracles.child_sends_half_a_pickle, _one_block_short],
    ids=["_fails", "_truncated", "_one_block_short"],
)
def test_a_failed_child_leaves_the_result_unchanged(monkeypatch, send):
    # a child that exits non-zero or sends a short result: this process
    # computes its blocks, and no child is left to reap
    s = REFERENCE["full-2-shift"]
    one, _ = _blocks_in(monkeypatch, 1, s, (-8, 12), s.basis_cap)
    monkeypatch.setattr(forked, "_child", oracles.child_that(send))
    two, forks = _blocks_in(monkeypatch, 2, s, (-8, 12), s.basis_cap)
    assert forks
    _assert_same_assembly(two, one)
    _no_children_left()


def test_a_failed_fork_leaves_the_result_unchanged(monkeypatch):
    s = REFERENCE["full-2-shift"]
    one, _ = _blocks_in(monkeypatch, 1, s, (-8, 12), s.basis_cap)

    def fork():
        raise OSError("no fork")

    monkeypatch.setattr(forked.os, "fork", fork)
    two, forks = _blocks_in(monkeypatch, 2, s, (-8, 12), s.basis_cap)
    assert forks
    _assert_same_assembly(two, one)


ORPHAN = """
import os, sys, time
from sftops import forked, functions as fn, scenarios as sn, sft

fork = os.fork


def announced():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid


def slow(a_n, b, m):
    time.sleep(0.2)
    return []


os.fork, fn._block_columns, forked._cpus = announced, slow, lambda: 2
s = sn.REFERENCE_SCENARIOS["full-2-shift"]()
reg = fn.BasisRegistry.seeded(sft.enumerate_homoclinic(s.matrix, s.orbit_p, s.orbit_q, 3), cap=s.basis_cap)
fn.commutator_blocks(s.functions["a"], s.functions["b"], (-8, 15), reg, s.matrix)
"""


def _running(pid) -> bool:
    """Whether pid is a live process (not gone and not a zombie)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_a_child_ends_on_the_broken_pipe_when_the_parent_dies():
    # the child's share is 23 blocks of 0.2 s each; killed at its first
    # block, the parent leaves a child that ends after that block
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC_DIR), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-c", ORPHAN], env=env, stdout=subprocess.PIPE, text=True)
    child = None
    try:
        child = int(proc.stdout.readline())
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 2.5
        while _running(child) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(child)
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        if child is not None and _running(child):
            os.kill(child, signal.SIGKILL)


@pytest.mark.parametrize("name, window, bound_mb", [("full-2-shift", (-2, 14), 1.2), ("golden-mean", (-2, 18), 1.75)])
def test_assembly_memory_peak(monkeypatch, name, window, bound_mb):
    # between its two passes the kernel keeps each column's window and the
    # masks of its acting terms, not the images and words of every window
    # it met; the registry itself holds about 0.7 and 1.2 MB at the end
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    s = REFERENCE[name]
    monkeypatch.setattr(forked, "_cpus", lambda: 1)
    reg = fn.BasisRegistry.seeded(_seeds(s), cap=s.basis_cap)
    tracemalloc.start()
    try:
        fn.commutator_blocks(s.functions["a"], s.functions["b"], window, reg, s.matrix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb * 1e6


def _column_is_nonzero(a_n, b_n, x):
    fwd = apply_to_column(a_n, oracles.apply_to_point(b_n, x))
    bwd = apply_to_column(b_n, oracles.apply_to_point(a_n, x))
    col = dict(fwd)
    for y, v in bwd.items():
        col[y] = col.get(y, 0j) - v
    return any(v != 0 for v in col.values())


def _perturbations(support, m, lo, hi):
    """Support points plus every one-symbol flip over the probed window."""
    out = set(support)
    for x in support:
        for pos in range(lo, hi + 1):
            for s in range(m.n):
                if s == x.at(pos):
                    continue
                if m.allowed(x.at(pos - 1), s) and m.allowed(s, x.at(pos + 1)):
                    out.add(sft.splice_at(x, x, pos - 1, (s,)))
    return out


class TestSupportEnumerationSoundness:
    # the block assembly is exact only if the window enumeration covers
    # every basis point either composition order can touch; probe the
    # boundary by one-symbol perturbations of the enumerated support and
    # confirm no nonzero column falls outside it
    def test_no_column_outside_enumerated_support(self):
        a = fn.profile(gd.BaseSet(CA, 1, 0), depth=20, seed="ref-a")
        b = fn.profile(gd.BaseSet(CB, 1, 0), depth=20, seed="ref-b")
        nonzero_blocks = 0
        for n in range(0, 9):
            a_n = a.alpha(n)
            support = set(fn.commutator_column_support(a_n, b, FULL))
            if not support:
                continue
            probes = _perturbations(support, FULL, -n - 5, 7)
            hits = 0
            for x in probes:
                if _column_is_nonzero(a_n, b, x):
                    assert x in support, (n, x)
                    hits += 1
            nonzero_blocks += hits > 0
        assert nonzero_blocks >= 3  # the probe exercised genuine columns

    def test_mixed_variant_support(self):
        a = fn.profile(gd.BaseSet(CA, 1, 0), depth=20, seed="ref-a")
        b = fn.profile(gd.BaseSet(CB, 1, 0), depth=20, seed="ref-b")
        nonzero_blocks = 0
        for n in (2, 3, 4):
            a_n = a.alpha(n)
            b_n = b.alpha(-n)
            support = set(fn.commutator_column_support(a_n, b_n, FULL))
            if not support:
                continue
            probes = _perturbations(support, FULL, -n - 5, n + 6)
            hits = 0
            for x in probes:
                if _column_is_nonzero(a_n, b_n, x):
                    assert x in support, (n, x)
                    hits += 1
            nonzero_blocks += hits > 0
        assert nonzero_blocks >= 2


class TestIntersectionCounts:
    def test_disjoint_cores(self):
        # shifted unstable disk and stable disk with clashing overlap
        x = sft.build_point((0,), (1,), (0,), 0)
        c = sft.periodic_point((0,))
        assert fn.intersection_count(FULL, x, 2, c, 2, 0) == 0

    def test_matches_enumeration(self):
        for k in range(0, 10):
            cnt = fn.intersection_count(FULL, STEP, 2, STEP, 2, k)
            pts = intersection_points(FULL, STEP, 2, STEP, 2, k)
            assert cnt == len(pts)
            assert len(set(pts)) == len(pts)

    def test_growth_slope_near_entropy(self):
        ks = list(range(6, 13))
        counts = [fn.intersection_count(FULL, STEP, 2, STEP, 2, k) for k in ks]
        slope = np.polyfit(ks, np.log(counts), 1)[0]
        assert abs(slope - math.log(2)) / math.log(2) < 0.10

    def test_certificate_bound(self):
        h = sft.entropy(FULL)
        ks = list(range(0, 13))
        counts = [fn.intersection_count(FULL, STEP, 2, STEP, 2, k) for k in ks]
        c_fit = max(c / math.exp((h + 0.05) * k) for k, c in zip(ks, counts))
        assert all(
            c <= c_fit * math.exp((h + 0.05) * k) * (1 + 1e-12) for k, c in zip(ks, counts)
        )
