import math
from itertools import product

import pytest
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sftops import sampling as smp
from sftops import sft
from sftops.errors import BracketUndefined, NotIrreducible, OrbitsNotDisjoint, ZeroRowOrColumn

import oracles
from oracles import PERIOD2, local_set_membership

FULL = sft.TransitionMatrix.from_rows([[1, 1], [1, 1]])
GOLDEN = sft.TransitionMatrix.from_rows([[1, 1], [1, 0]])
P2 = sft.MetricParams(2.0)

ZERO = sft.periodic_point((0,))
ONE = sft.periodic_point((1,))
STEP = sft.build_point((0,), (), (1,), 0)


def pt(left, core, right, start):
    return sft.build_point(tuple(left), tuple(core), tuple(right), start)


def _raw_at(left, core, right, start: int, i: int):
    """Reference reader of a raw encoding, one symbol at a time."""
    end = start + len(core)
    if i < start:
        return left[(i - start) % len(left)]
    if i < end:
        return core[i - start]
    return right[(i - end) % len(right)]


class TestMatrix:
    def test_full_shift_ok(self):
        sft.validate_matrix(FULL)

    def test_golden_mean_ok(self):
        # strong connectivity by the explicit path 0 -> 1 -> 0
        sft.validate_matrix(GOLDEN)
        assert GOLDEN.allowed(0, 1) and GOLDEN.allowed(1, 0)

    def test_disconnected_loops(self):
        with pytest.raises(NotIrreducible):
            sft.validate_matrix(sft.TransitionMatrix.from_rows([[1, 0], [0, 1]]))

    def test_zero_row(self):
        with pytest.raises(ZeroRowOrColumn):
            sft.validate_matrix(sft.TransitionMatrix.from_rows([[0, 0], [1, 1]]))

    def test_zero_column(self):
        with pytest.raises(ZeroRowOrColumn):
            sft.validate_matrix(sft.TransitionMatrix.from_rows([[1, 0], [1, 0]]))

    def test_alphabet_fits_a_byte(self):
        # a cyclic permutation is irreducible at every size; the commutator
        # kernel reads each symbol as one byte
        def cycle(n):
            rows = [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)]
            return sft.TransitionMatrix.from_rows(rows)

        sft.validate_matrix(cycle(256))
        with pytest.raises(ZeroRowOrColumn, match="more than 256"):
            sft.validate_matrix(cycle(257))


class TestEntropy:
    def test_full_shift(self):
        assert abs(sft.entropy(FULL) - math.log(2)) < 1e-12

    def test_golden_mean(self):
        # Perron root of [[1,1],[1,0]] solves t^2 - t - 1 = 0
        root = (1 + math.sqrt(5)) / 2
        assert abs(sft.entropy(GOLDEN) - math.log(root)) < 1e-12
        assert abs(sft.entropy(GOLDEN) - 0.481212) < 1e-6

    def test_single_state(self):
        assert sft.entropy(sft.TransitionMatrix.from_rows([[1]])) == 0.0

    def test_permutation_invariance(self):
        m = sft.TransitionMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        perm = [2, 0, 1]
        rows = [[m.entries[perm[i]][perm[j]] for j in range(3)] for i in range(3)]
        m2 = sft.TransitionMatrix.from_rows(rows)
        assert abs(sft.entropy(m) - sft.entropy(m2)) < 1e-12


class TestDimension:
    def test_full_shift_kappa2(self):
        assert abs(sft.hausdorff_dimension(FULL, P2) - 2.0) < 1e-12

    def test_full_shift_kappa4(self):
        assert abs(sft.hausdorff_dimension(FULL, sft.MetricParams(4.0)) - 1.0) < 1e-12

    def test_trivial(self):
        one = sft.TransitionMatrix.from_rows([[1]])
        assert sft.hausdorff_dimension(one, P2) == 0.0


class TestPoints:
    def test_symbol_constant(self):
        assert ZERO.at(10**6) == 0

    def test_symbol_core(self):
        x = pt([0], [1], [0], 3)
        assert x.at(3) == 1 and x.at(2) == 0 and x.at(4) == 0

    def test_right_tail_alternates(self):
        x = sft.build_point((0,), (), (1, 0), 0)
        assert [x.at(i) for i in range(6)] == [1, 0, 1, 0, 1, 0]
        assert x.at(-1) == 0

    def test_canonical_power_reduction(self):
        assert sft.build_point((0, 1, 0, 1), (), (0, 1), 0) == sft.periodic_point((0, 1))

    def test_canonical_absorption(self):
        # a core made of tail symbols is absorbed entirely
        assert pt([0], [0, 0, 1], [0], 1) == pt([0], [1], [0], 3)

    def test_equal_encodings_same_form(self):
        a = pt([0], [1, 0, 0], [0], 3)
        b = pt([0], [1], [0], 3)
        assert a == b and hash(a) == hash(b)

    def test_hash_separates_core_starts(self):
        # CPython's hash(-1) == hash(-2), so a hash that takes core_start as
        # it is gives these points (equal but for core_start) 12 hashes
        xs = [pt([0], [1], [0], s) for s in range(-6, 7)]
        assert len({hash(x) for x in xs}) == len(xs)

    def test_reverse(self):
        x = pt([0], [1], [0], 3)
        assert sft.reverse_point(x) == pt([0], [1], [0], -3)
        assert sft.reverse_point(STEP).at(0) == 1 and sft.reverse_point(STEP).at(1) == 0

    def test_new_left_cycle_starts_below_floor(self):
        # ...100100|000...: the right tail reaches back to -2, so the new
        # left cycle is read on [-5, -2), below build_point's floor of -4
        x = sft.build_point((1, 0, 0), (), (0,), 0)
        assert x == sft.EventuallyPeriodicPoint(bytes([0, 0, 1]), b"", bytes([0]), -2)
        for i in range(-12, 6):
            assert x.at(i) == _raw_at((1, 0, 0), (), (0,), 0, i)

    def test_encode_decode_roundtrip(self):
        for x in (ZERO, STEP, pt([0], [1, 0], [1], -2), sft.periodic_point((0, 1))):
            assert sft.decode_point(sft.encode_point(x)) == x

    def test_validate_point(self):
        sft.validate_point(STEP, FULL)
        bad = sft.build_point((0,), (1,), (1,), 0)  # has 1->1
        with pytest.raises(ValueError):
            sft.validate_point(bad, GOLDEN)


class TestShift:
    def test_identity(self):
        x = pt([0], [1], [0], 3)
        assert sft.shift(x, 0) == x

    def test_inverse(self):
        x = pt([0], [1, 1, 0], [1], -2)
        assert sft.shift(sft.shift(x, 5), -5) == x

    def test_coordinates(self):
        x = pt([0], [1], [0], 3)
        y = sft.shift(x, 1)
        assert y == pt([0], [1], [0], 2)
        for i in range(-6, 8):
            assert y.at(i) == x.at(i + 1)

    def test_periodic_rotation(self):
        x = sft.periodic_point((0, 1))
        y = sft.shift(x, 1)
        for i in range(-4, 5):
            assert y.at(i) == x.at(i + 1)


class TestAgreement:
    def test_equal(self):
        assert sft.agreement_radius(ZERO, sft.periodic_point((0,))) is None

    def test_disagree_at_zero(self):
        assert sft.agreement_radius(ZERO, STEP) == 0

    def test_single_one_at_three(self):
        y = pt([0], [1], [0], 3)
        # brute force: largest n with agreement on |i| < n
        def brute(a, b):
            for n in range(0, 12):
                if any(a.at(i) != b.at(i) for i in range(-n, n + 1)):
                    return n
            return None

        assert brute(ZERO, y) == 3
        assert sft.agreement_radius(ZERO, y) == 3

    def test_metric_values(self):
        y = pt([0], [1], [0], 3)
        assert sft.metric(ZERO, ZERO, P2) == 0.0
        assert sft.metric(ZERO, STEP, P2) == 1.0
        assert sft.metric(ZERO, y, P2) == 0.125


class TestBracket:
    def test_b1_identity(self):
        for x in (ZERO, STEP, pt([0], [1, 0], [1], -2)):
            assert sft.bracket(x, x) == x

    def test_splice_past(self):
        y = pt([0], [1], [0], -2)
        out = sft.bracket(ZERO, y)
        assert out == y  # the 1 at -2 comes from y's past

    def test_undefined(self):
        with pytest.raises(BracketUndefined):
            sft.bracket(ZERO, ONE)

    def test_spec_splice_coordinates(self):
        x, y = ZERO, pt([0], [1], [0], -2)
        out = sft.bracket(x, y)
        for i in range(-6, 7):
            assert out.at(i) == (y.at(i) if i <= 0 else x.at(i))


class TestLocalSets:
    def test_reflexive(self):
        assert local_set_membership(STEP, STEP, 1, sft.STABLE)
        assert local_set_membership(STEP, STEP, 1, sft.UNSTABLE)

    def test_stable_example(self):
        y = pt([0], [1], [0], -2)
        assert local_set_membership(ZERO, y, 1, sft.STABLE)
        assert not local_set_membership(ZERO, y, 1, sft.UNSTABLE)

    def test_closed_forms_match_oracle(self):
        pts = sft.enumerate_homoclinic(FULL, sft.PeriodicOrbit((1,)), sft.PeriodicOrbit((0,)), 3)
        for eps in range(1, 9):
            for x in pts[::5]:
                for y in pts[::3]:
                    oracle_s = local_set_membership(x, y, eps, sft.STABLE)
                    oracle_u = local_set_membership(x, y, eps, sft.UNSTABLE)
                    assert oracle_s == sft.in_stable_set(x, y, eps)
                    assert oracle_u == sft.in_unstable_set(x, y, eps)


class TestOrbits:
    def test_primitive_required(self):
        with pytest.raises(ValueError):
            sft.PeriodicOrbit.from_word((0, 0))

    def test_points_distinct(self):
        orb = sft.PeriodicOrbit.from_word((0, 1), FULL)
        pts = orb.points()
        assert len(set(pts)) == 2

    def test_disallowed_cycle(self):
        with pytest.raises(ValueError):
            sft.PeriodicOrbit.from_word((1,), GOLDEN)  # 1 -> 1 forbidden


def brute_force_homoclinic(m, p, q, bound):
    """Cross-product oracle: left Q-rotations, core words, right P-rotations."""
    out = set()
    for length in range(0, bound + 1):
        for s in range(-bound, bound + 2 - length):
            e = s + length
            for qrot in q.pattern_rotations():
                for prot in p.pattern_rotations():
                    left = sft._tile(qrot, s, len(qrot))
                    right = sft._tile(prot, e, len(prot))
                    for w in product(range(m.n), repeat=length):
                        word = tuple(w)
                        seq_ok = all(
                            m.allowed(a, b)
                            for a, b in zip(
                                (left[-1],) + word, word + (right[0],)
                            )
                        )
                        if not seq_ok:
                            continue
                        x = sft.build_point(left, word, right, s)
                        if len(x.core) <= bound and -bound <= x.core_start and x.core_end <= bound + 1:
                            out.add(x)
    return out


def allowed_words(m, length):
    """Product-filter oracle: every allowed word of `length` symbols, in
    lexicographic order."""
    if length == 0:
        return [b""]
    return [
        bytes(w)
        for w in product(range(m.n), repeat=length)
        if all(m.allowed(w[i], w[i + 1]) for i in range(length - 1))
    ]


class TestPaths:
    @pytest.mark.parametrize("m", [FULL, GOLDEN, PERIOD2], ids=["full", "golden", "period-2"])
    def test_matches_product_filter(self, m):
        for length in range(0, 8):
            words = allowed_words(m, length)
            for first in range(m.n):
                if length:
                    assert m.paths(first, length - 1) == [w for w in words if w[0] == first]
                    # read backward, as on the unstable side
                    back = sorted(w[::-1] for w in words if w[-1] == first)
                    assert m.transpose().paths(first, length - 1) == back
                # the words that can follow `first`, as enumerate_homoclinic reads them
                assert [w[1:] for w in m.paths(first, length)] == [
                    w for w in words if not w or m.allowed(first, w[0])
                ]


class TestEnumeration:
    def test_l0_count_matches_bruteforce(self):
        p, q = sft.PeriodicOrbit((1,)), sft.PeriodicOrbit((0,))
        got = sft.enumerate_homoclinic(FULL, p, q, 0)
        assert set(got) == brute_force_homoclinic(FULL, p, q, 0)
        assert len(got) == 2  # the step point at both junction offsets

    def test_midsize_matches_bruteforce(self):
        p, q = sft.PeriodicOrbit((1,)), sft.PeriodicOrbit((0,))
        got = sft.enumerate_homoclinic(FULL, p, q, 2)
        assert set(got) == brute_force_homoclinic(FULL, p, q, 2)

    def test_golden_matches_bruteforce(self):
        p, q = sft.PeriodicOrbit((0, 1)), sft.PeriodicOrbit((0,))
        got = sft.enumerate_homoclinic(GOLDEN, p, q, 2)
        assert set(got) == brute_force_homoclinic(GOLDEN, p, q, 2)

    def test_not_disjoint(self):
        p = sft.PeriodicOrbit((0,))
        with pytest.raises(OrbitsNotDisjoint):
            sft.enumerate_homoclinic(FULL, p, p, 0)

    def test_monotone(self):
        p, q = sft.PeriodicOrbit((1,)), sft.PeriodicOrbit((0,))
        small = set(sft.enumerate_homoclinic(FULL, p, q, 2))
        large = set(sft.enumerate_homoclinic(FULL, p, q, 3))
        assert small <= large

    def test_all_homoclinic_and_deduplicated(self):
        p, q = sft.PeriodicOrbit((1,)), sft.PeriodicOrbit((0,))
        got = sft.enumerate_homoclinic(FULL, p, q, 4)
        assert len(got) == len(set(got))
        assert all(sft.is_homoclinic(x, p, q) for x in got)


words = st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=4)


class TestHypothesis:
    @settings(max_examples=150, deadline=None)
    @given(words, st.lists(st.integers(0, 1), max_size=5), words, st.integers(-5, 5))
    def test_canonical_form_is_stable(self, left, core, right, start):
        x = sft.build_point(tuple(left), tuple(core), tuple(right), start)
        again = sft.build_point(x.left_cycle, x.core, x.right_cycle, x.core_start)
        assert again == x
        for i in range(start - 8, start + len(core) + 8):
            assert x.at(i) == _raw_at(tuple(left), tuple(core), tuple(right), start, i)

    @settings(max_examples=100, deadline=None)
    @given(words, st.lists(st.integers(0, 1), max_size=5), words, st.integers(-5, 5))
    def test_window_matches_raw_reader(self, left, core, right, start):
        # every [lo, hi) from empty and reversed ranges through ranges inside
        # the core to ranges three cycle lengths past both ends, on the
        # canonical point and on the raw encoding build_point reads
        raw = (bytes(left), bytes(core), bytes(right), start)
        x = sft.build_point(*raw)
        reach = 3 * max(len(left), len(right)) + 1
        span = range(min(start, x.core_start) - reach, max(start + len(core), x.core_end) + reach + 1)
        seq = {i: _raw_at(*raw, i) for i in span}
        for y in (x, sft.EventuallyPeriodicPoint(*raw)):
            for lo in span:
                for hi in span:
                    assert y.window(lo, hi) == bytes(seq[i] for i in range(lo, hi))

    @settings(max_examples=150, deadline=None)
    @given(
        words,
        st.lists(st.integers(0, 1), max_size=4),
        words,
        st.integers(-4, 4),
        words,
        st.lists(st.integers(0, 1), max_size=4),
        words,
        st.integers(-4, 4),
        st.integers(-6, 6),
        st.lists(st.integers(0, 1), max_size=5),
    )
    def test_splice_matches_raw_reader(self, pl, pc, pr, ps, fl, fc, fr, fs, m, word):
        raw_past = (tuple(pl), tuple(pc), tuple(pr), ps)
        raw_future = (tuple(fl), tuple(fc), tuple(fr), fs)
        past, future = sft.build_point(*raw_past), sft.build_point(*raw_future)
        reach = 3 * max(map(len, (pl, pr, fl, fr))) + 1
        span = range(min(ps, fs, m) - reach, max(ps + len(pc), fs + len(fc), m + len(word)) + reach)
        for w in (tuple(word), ()):
            x = sft.splice_at(past, future, m, w)
            for i in span:
                if i <= m:
                    want = _raw_at(*raw_past, i)
                elif i <= m + len(w):
                    want = w[i - m - 1]
                else:
                    want = _raw_at(*raw_future, i)
                assert x.at(i) == want, (w, i)
            assert sft.build_point(x.left_cycle, x.core, x.right_cycle, x.core_start) == x

    @settings(max_examples=100, deadline=None)
    @given(words, st.lists(st.integers(0, 1), max_size=4), words, st.integers(-4, 4), st.integers(-6, 6))
    def test_shift_consistency(self, left, core, right, start, k):
        x = sft.build_point(tuple(left), tuple(core), tuple(right), start)
        y = sft.shift(x, k)
        for i in range(-6, 7):
            assert y.at(i) == x.at(i + k)
        assert sft.shift(y, -k) == x


# raw encodings over a 3-symbol alphabet with cycles of length <= 4: the
# symbol at i is a tail symbol for |i| > 10, and a pair of tails repeats
# within lcm(1, ..., 4) = 12 coordinates, so a scan of [-REACH, REACH]
# decides every agreement question
cycles3 = st.lists(st.integers(0, 2), min_size=1, max_size=4)
raw3 = st.tuples(cycles3, st.lists(st.integers(0, 2), max_size=5), cycles3, st.integers(-5, 5))
REACH = 40


def raw_encodings(n):
    """Raw encodings over n symbols: cycles up to 4, cores up to 7, starts -12..12."""

    def word(lo, hi):
        return st.lists(st.integers(0, n - 1), min_size=lo, max_size=hi).map(bytes)

    return st.tuples(word(1, 4), word(0, 7), word(1, 4), st.integers(-12, 12))


class TestWordOracles:
    @settings(max_examples=300, deadline=None)
    @given(raw3, raw3, st.booleans(), st.booleans(), st.integers(-14, 14))
    def test_agreement_matches_a_scan(self, rx, ry, same_left, same_right, k):
        # sharing a tail cycle (at any phase) makes agreement likely
        if same_left:
            ry = (rx[0],) + ry[1:]
        if same_right:
            ry = ry[:2] + (rx[2], ry[3])
        x, y = sft.build_point(*rx), sft.build_point(*ry)
        diff = [i for i in range(-REACH, REACH + 1) if _raw_at(*rx, i) != _raw_at(*ry, i)]
        if not diff:
            assert x == y
            assert sft.agreement_depth(x, y) == math.inf
            assert sft.agreement_floor(x, y) == -math.inf
            assert sft.agreement_radius(x, y) is None
        else:
            assert x != y
            left_tails_differ = diff[0] < -REACH + 12
            right_tails_differ = diff[-1] > REACH - 12
            assert sft.agreement_depth(x, y) == (-math.inf if left_tails_differ else diff[0] - 1)
            assert sft.agreement_floor(x, y) == (math.inf if right_tails_differ else diff[-1] + 1)
            assert sft.agreement_radius(x, y) == min(abs(i) for i in diff)
        assert sft.in_stable_set(x, y, -k) == all(i < k for i in diff)
        assert sft.in_unstable_set(x, y, k) == all(i > k for i in diff)

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(raw_encodings))
    def test_build_point_matches_the_raw_window_oracle(self, raw):
        assert sft.build_point(*raw) == oracles.build_point(*raw)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 4).flatmap(
            lambda n: st.lists(st.tuples(raw_encodings(n), st.booleans(), st.booleans()), min_size=1, max_size=6)
        ),
        st.integers(0, 5),
    )
    @example([(((0,), (1,), (1,), 0), False, False), (((1,), (), (1,), 0), False, False)], 0)
    @example([(((0, 1), (2,), (3, 2, 1), -9), False, False), (((0, 1, 1), (2,), (3, 2, 1), 9), False, True)], 1)
    def test_family_window_matches_the_pair_oracles(self, drawn, repeat):
        # a member shares the first one's left or right cycle (at its own
        # phase) or not, so tails agree or disagree arbitrarily far out;
        # one member appears twice, so the family holds an equal pair
        (left, _, right, _), _, _ = drawn[0]
        points = [
            sft.build_point(left if same_left else raw[0], raw[1], right if same_right else raw[2], raw[3])
            for raw, same_left, same_right in drawn
        ]
        points.append(points[repeat % len(points)])
        win = sft.FamilyWindow(points)
        assert win.points == list(dict.fromkeys(points))
        at = np.array([win.index[x] for x in points])
        i, j = at[:, None], at[None, :]
        assert win.depth(i, j).tolist() == [[sft.agreement_depth(x, y) for y in points] for x in points]
        assert win.floor(i, j).tolist() == [[sft.agreement_floor(x, y) for y in points] for x in points]

    @pytest.mark.parametrize(
        "raw, want",
        [
            # the right tail's periodicity reaches below the core's start,
            # so the left scan starts at its end, not at the start
            (((1, 2, 2, 2), (), (2, 2, 0, 2), 12), "2122*|@11|2220*"),
            # globally periodic: the phase is pinned at coordinate 0
            (((0, 1), (), (0, 1), 5), "10*|@0|10*"),
            (((0, 1, 0, 1), (0, 1, 0), (1, 0), -3), "10*|@0|10*"),
            (((2, 1), (2, 1, 2), (1, 2, 1, 2), 7), "12*|@0|12*"),
            (((0,), (0, 0, 0), (0, 0), -12), "0*|@0|0*"),
        ],
    )
    def test_build_point_examples(self, raw, want):
        x = sft.build_point(*raw)
        assert sft.encode_point(x) == want
        assert x == oracles.build_point(*raw)

    def test_point_questions_read_no_long_window(self, monkeypatch):
        # the deciding window spans the cores, coordinate 0 and one lcm of
        # each side's cycles, whatever the threshold asked about
        read = []
        window = sft.EventuallyPeriodicPoint.window

        def spy(self, lo, hi):
            read.append(hi - lo)
            return window(self, lo, hi)

        monkeypatch.setattr(sft.EventuallyPeriodicPoint, "window", spy)
        x, y = pt((0, 1), (2, 2), (1,), -3), pt((1, 0), (2, 1), (1, 1), 4)
        z = pt((0, 1), (2, 0, 2), (2,), -3)
        for a, b in ((x, y), (x, z), (y, y)):
            span = max(a.core_end, b.core_end, 0) - min(a.core_start, b.core_start, 0)
            bound = span + len(a.left_cycle + b.left_cycle + a.right_cycle + b.right_cycle)
            for e in (10**6, -(10**6)):
                read.clear()
                sft.in_unstable_set(a, b, e)
                sft.in_stable_set(a, b, e)
                assert read and max(read) <= bound, (a, b, e, read)

    def test_every_word_is_bytes(self):
        p, q = sft.PeriodicOrbit.from_word([0, 1], PERIOD2), sft.PeriodicOrbit((0, 2))
        x = sft.build_point([0, 2], [1, 0], [0, 1], -2)
        pts = [x, sft.splice_at(x, x, 1, bytes([2])), sft.splice_at(x, STEP, -1), sft.reverse_point(x)]
        pts += [sft.periodic_point((0, 1)), sft.shift(x, 3), sft.decode_point("0*|1,0@-2|1*")]
        pts += p.points() + sft.enumerate_homoclinic(PERIOD2, p, q, 3)
        words = [p.cycle, q.cycle, *p.pattern_rotations(), smp.path_to_cycle(PERIOD2, 1, q.cycle)]
        words += PERIOD2.paths(0, 3) + PERIOD2.paths(1, 0)
        for y in pts:
            words += [y.left_cycle, y.core, y.right_cycle, y.window(-6, 6), y.window(3, 1)]
        assert {type(w) for w in words} == {bytes}

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from([0, 1, 2, 10, 255]), min_size=1, max_size=3),
                st.lists(st.sampled_from([0, 1, 2, 10, 255]), max_size=3),
                st.lists(st.sampled_from([0, 1, 2, 10, 255]), min_size=1, max_size=3),
                st.integers(-3, 3),
            ),
            max_size=12,
        )
    )
    def test_sort_key_orders_like_int_tuples(self, raws):
        # the registry order: sorting by sort_key is sorting by the fields
        # read as tuples of ints
        pts = [sft.build_point(*r) for r in raws]
        pts += sft.enumerate_homoclinic(PERIOD2, sft.PeriodicOrbit((0, 1)), sft.PeriodicOrbit((0, 2)), 3)

        def as_ints(x):
            return (tuple(x.left_cycle), x.core_start, tuple(x.core), tuple(x.right_cycle))

        assert sorted(pts, key=sft.EventuallyPeriodicPoint.sort_key) == sorted(pts, key=as_ints)
