import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sftops import sft
from sftops import groupoid as gd
from sftops import sampling as smp
from sftops import scenarios as sn
from sftops.errors import NotComposable, SideMismatch

import oracles
from oracles import OutsideDomain, base_set_membership, holonomy_apply, local_set_membership

FULL = sft.TransitionMatrix.from_rows([[1, 1], [1, 1]])
P2 = sft.MetricParams(2.0)
P = sft.PeriodicOrbit((1,))
Q = sft.PeriodicOrbit((0,))

ZERO = sft.periodic_point((0,))
STEP = sft.build_point((0,), (), (1,), 0)


def pt(core, start):
    return sft.build_point((0,), tuple(core), (1,) if max(core, default=1) else (0,), start)


def stable(x, y):
    return gd.GroupoidElement(x, y, gd.STABLE)


def unstable(x, y):
    return gd.GroupoidElement(x, y, gd.UNSTABLE)


def c_first_time_bruteforce(a: gd.GroupoidElement, n_cap: int = 400) -> int:
    """Definitional oracle: scan N and test local-set membership."""
    sgn = 1 if a.side == gd.STABLE else -1
    side = gd.STABLE if a.side == gd.STABLE else gd.UNSTABLE
    for n in range(n_cap):
        x = sft.shift(a.first, sgn * n)
        y = sft.shift(a.second, sgn * n)
        if x == y or local_set_membership(x, y, 1, side):
            return n
    raise AssertionError("first time exceeded the scan cap")


def element_is_valid(a: gd.GroupoidElement, p: sft.PeriodicOrbit, q: sft.PeriodicOrbit) -> bool:
    """Invariant check: asymptotic pair on the correct transversal."""
    if a.side == gd.STABLE:
        if sft.agreement_floor(a.first, a.second) == math.inf:
            return False
        return sft.is_left_asymptotic(a.first, q) and sft.is_left_asymptotic(a.second, q)
    if sft.agreement_depth(a.first, a.second) == -math.inf:
        return False
    return sft.is_right_asymptotic(a.first, p) and sft.is_right_asymptotic(a.second, p)


class TestFirstTime:
    def test_identity_pair(self):
        assert gd.c_first_time(gd.unit(ZERO)) == 0

    def test_single_one_at_three(self):
        y = sft.build_point((0,), (1,), (0,), 3)
        a = stable(ZERO, y)
        assert gd.c_first_time(a) == 5
        assert c_first_time_bruteforce(a) == 5

    def test_shift_property(self):
        y = sft.build_point((0,), (1,), (0,), 3)
        a = stable(ZERO, y)
        cur = gd.c_first_time(a)
        for _ in range(4):
            prev = gd.phi_auto(a, -1)
            assert gd.c_first_time(prev) == cur + 1
            a, cur = prev, cur + 1

    def test_closed_form_matches_bruteforce(self):
        pts = sft.enumerate_homoclinic(FULL, P, Q, 3)
        pairs = 0
        for x in pts[::4]:
            for y in pts[::5]:
                if sft.agreement_floor(x, y) == math.inf:
                    continue
                a = stable(x, y)
                assert gd.c_first_time(a) == c_first_time_bruteforce(a)
                pairs += 1
        assert pairs >= 30

    def test_unstable_mirror(self):
        y = sft.build_point((0,), (1,), (0,), -5)
        a = unstable(ZERO, y)
        assert gd.c_first_time(a) == 7
        assert c_first_time_bruteforce(a) == 7
        # time reversal carries the unstable first time to the stable one
        assert gd.c_first_time(gd.reverse_element(a)) == 7


def _identity_family(m, p, q):
    """Elements with many equal and near-equal pairs: units on both sides,
    stable pairs, their inverses, shifts and time reversals."""
    pts = sft.enumerate_homoclinic(m, p, q, 3)[:12]
    base = [gd.unit(x, side) for x in pts[:6] for side in (gd.STABLE, gd.UNSTABLE)]
    base += [stable(x, y) for x in pts for y in pts if sft.agreement_floor(x, y) != math.inf][:20]
    els = list(base)
    for a in base:
        els += [gd.inverse(a), gd.phi_auto(a, -1), gd.phi_auto(a, 2), gd.reverse_element(a)]
        els.append(gd.reverse_element(gd.reverse_element(a)))  # equal to a, not identical
    return els


class TestElementIdentity:
    @pytest.mark.parametrize("name", sorted(sn.REFERENCE_SCENARIOS))
    def test_eq_and_hash_follow_the_fields(self, name):
        s = sn.REFERENCE_SCENARIOS[name]()
        els = _identity_family(s.matrix, s.orbit_p, s.orbit_q)
        fields = [(a.first, a.second, a.side) for a in els]
        equal_pairs = 0
        for a, fa in zip(els, fields):
            assert hash(a) == hash(fa)
            for b, fb in zip(els, fields):
                assert (a == b) == (fa == fb)
                assert (a != b) == (fa != fb)
                equal_pairs += a is not b and fa == fb
        assert equal_pairs > len(els)  # the family does exercise non-identical equality
        assert len(set(els)) == len(set(fields))

    def test_side_is_part_of_identity(self):
        a, b = gd.unit(STEP, gd.STABLE), gd.unit(STEP, gd.UNSTABLE)
        assert a != b and hash(a) != hash(b)

    def test_fields_and_repr_unchanged(self):
        a = stable(STEP, ZERO)
        assert [f.name for f in dataclasses.fields(a)] == ["first", "second", "side"]
        assert repr(a) == f"GroupoidElement(first={STEP!r}, second={ZERO!r}, side='stable')"
        assert a != (STEP, ZERO, gd.STABLE)


class TestCaches:
    def test_bounded_after_more_distinct_calls(self):
        a = stable(ZERO, sft.build_point((0,), (1,), (0,), 3))
        gd.min_splice_time.cache_clear()
        gd.c_first_time.cache_clear()
        calls = gd.CACHE_MAXSIZE + 100
        for j in range(calls):
            assert gd.c_first_time(gd.phi_auto(a, -j)) == 5 + j
        for cached in (gd.min_splice_time, gd.c_first_time):
            info = cached.cache_info()
            assert info.misses == calls
            assert info.maxsize == gd.CACHE_MAXSIZE
            assert info.currsize <= gd.CACHE_MAXSIZE
        # the first entry was evicted and is recomputed
        assert gd.c_first_time(a) == 5
        assert gd.c_first_time.cache_info().misses == calls + 1


class TestHolonomy:
    def setup_method(self):
        self.y = sft.build_point((0,), (1, 0), (1,), -2)  # step with a 1 at -2
        self.anchor = stable(STEP, self.y)
        self.v = gd.base_set(self.anchor, 3)

    def test_anchor_maps_home(self):
        assert holonomy_apply(self.v, self.y) == STEP
        assert base_set_membership(self.v, self.anchor)

    def test_outside_domain(self):
        with pytest.raises(OutsideDomain):
            holonomy_apply(self.v, sft.periodic_point((1,)))

    def test_isometry_on_domain(self):
        zs = [
            self.y,
            sft.build_point((0,), (1, 0, 1, 1, 1, 1, 1, 0), (1,), -2),
            sft.build_point((0,), (1, 0, 1, 1, 1, 1, 1, 0, 0), (1,), -2),
        ]
        for z1 in zs:
            for z2 in zs:
                if not (gd.in_domain(self.v, z1) and gd.in_domain(self.v, z2)):
                    continue
                h1, h2 = holonomy_apply(self.v, z1), holonomy_apply(self.v, z2)
                assert sft.agreement_radius(h1, h2) == sft.agreement_radius(z1, z2)

    def test_membership_implies_equal_first_time(self):
        z = sft.build_point((0,), (1, 0, 1, 1, 1, 1, 1, 0), (1,), -2)
        b = stable(holonomy_apply(self.v, z), z)
        assert base_set_membership(self.v, b)
        assert gd.c_first_time(b) == gd.c_first_time(self.anchor)

    def test_first_time_mismatch_excludes(self):
        w = sft.build_point((0,), (1,), (0,), 9)
        b = stable(ZERO, w)  # deep disagreement, different first time
        assert gd.c_first_time(b) != gd.c_first_time(self.anchor)
        assert not base_set_membership(self.v, b)

    def test_graph_element_invariants(self):
        z = sft.build_point((0,), (1, 0, 1, 1, 1, 1, 1, 0), (1,), -2)
        h = holonomy_apply(self.v, z)
        assert element_is_valid(stable(h, z), P, Q)


class TestMetric:
    def test_zero_on_diagonal(self):
        a = stable(ZERO, sft.build_point((0,), (1,), (0,), 3))
        assert gd.groupoid_metric_exponent(a, a) is None
        assert P2.value(gd.groupoid_metric_exponent(a, a)) == 0.0

    def test_first_time_mismatch_gives_one(self):
        a = stable(ZERO, sft.build_point((0,), (1,), (0,), 3))
        b = stable(ZERO, sft.build_point((0,), (1,), (0,), 4))
        assert gd.c_first_time(a) != gd.c_first_time(b)
        assert P2.value(gd.groupoid_metric_exponent(a, b)) == 1.0

    def test_unit_pair_example(self):
        y = sft.build_point((0,), (1,), (0,), 3)
        assert gd.groupoid_metric_exponent(gd.unit(ZERO), gd.unit(y)) == 3
        assert P2.value(gd.groupoid_metric_exponent(gd.unit(ZERO), gd.unit(y))) == 0.125

    def test_side_mismatch(self):
        with pytest.raises(SideMismatch):
            gd.groupoid_metric_exponent(gd.unit(ZERO), gd.unit(ZERO, gd.UNSTABLE))

    def test_units_two_branch_formula(self):
        xs = sft.enumerate_homoclinic(FULL, P, Q, 3)
        for x in xs[::6]:
            for y in xs[::7]:
                assert gd.units_metric_exponent(x, y) == gd.groupoid_metric_exponent(
                    gd.unit(x), gd.unit(y)
                )

    def test_strong_triangle(self):
        els = _element_family()
        import itertools

        def val(a, b):
            e = gd.groupoid_metric_exponent(a, b)
            return 0.0 if e is None else 2.0**-e

        for a, b, c in itertools.islice(itertools.combinations(els, 3), 3000):
            assert val(a, c) <= max(val(a, b), val(b, c)) + 1e-15


def _element_family():
    pts = sft.enumerate_homoclinic(FULL, P, Q, 3)
    els = []
    for x in pts[::3]:
        for y in pts[::4]:
            if sft.agreement_floor(x, y) != math.inf:
                els.append(stable(x, y))
    els = els[:30]
    # nested variation families supply pairs at every small distance
    from sftops import sampling as smp

    y = sft.build_point((0,), (1, 0), (1,), -2)
    els += smp.nested_family(FULL, stable(STEP, y), range(2, 9), P)
    els += smp.nested_family(FULL, gd.unit(STEP), range(2, 9), P)
    return els


REFERENCE = [mk() for mk in sn.REFERENCE_SCENARIOS.values()]
METRIC_SCENARIOS = {
    s.name: s
    for s in [
        *REFERENCE,
        *(dataclasses.replace(s, name=f"{s.name}-kappa-3", kappa=3.0) for s in REFERENCE),
        oracles.period_two_scenario(),
    ]
}
# the metric-audit family of each scenario on the stable side, and its time
# reversal on the unstable side
METRIC_FAMILIES = {}
for _name, _s in METRIC_SCENARIOS.items():
    _els = smp.audit_elements(_s.matrix, _s.orbit_p, _s.orbit_q, np.random.default_rng(0), 150)
    METRIC_FAMILIES[_name] = {gd.STABLE: _els, gd.UNSTABLE: [gd.reverse_element(e) for e in _els]}


class TestMetricOracle:
    # the close branch read from one agreement scan against the two-step
    # reading (a window compare through coordinate 0, then the radius scan),
    # on both reference matrices, their kappa = 3 copies and the period-2
    # matrix
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(sorted(METRIC_SCENARIOS)),
        st.sampled_from([gd.STABLE, gd.UNSTABLE]),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.integers(-2, 2),
    )
    def test_metric_matches_two_step_oracle(self, name, side, i, j, k):
        family = METRIC_FAMILIES[name][side]
        a = gd.phi_auto(family[i % len(family)], k)
        b = gd.phi_auto(family[j % len(family)], k)
        assert gd.groupoid_metric_exponent(a, b) == oracles.groupoid_metric_exponent(a, b)
        for x, y in ((a.first, b.first), (a.second, b.first), (a.first, a.second)):
            assert gd.units_metric_exponent(x, y) == oracles.units_metric_exponent(x, y)


def audit_family(s):
    """metric-audit's elements on scenario s at the default sample count,
    then their Phi^-1 shifts, then their inverses."""
    els = smp.audit_elements(s.matrix, s.orbit_p, s.orbit_q, np.random.default_rng(s.seed + 1), 240)
    return len(els), els + [gd.phi_auto(a, -1) for a in els] + [gd.inverse(a) for a in els]


class TestElementFamily:
    @pytest.mark.parametrize("name", ["full-2-shift", "golden-mean", "period-2"])
    def test_metric_matches_the_scalar_metric(self, name):
        # every pair of the elements, of their shifts and of their inverses,
        # in one family as the audit builds it, and the time reversal of
        # that family on the unstable side
        s = oracles.period_two_scenario() if name == "period-2" else sn.REFERENCE_SCENARIOS[name]()
        n, els = audit_family(s)
        seen = set()
        for family in (els, [gd.reverse_element(a) for a in els]):
            fam = gd.ElementFamily(family)
            assert fam.first_time.tolist() == [gd.c_first_time(a) for a in family]
            i, j = np.divmod(np.arange(n * n), n)
            for block in (0, n, 2 * n):
                got = fam.metric_exponents(i + block, j + block).tolist()
                want = [gd.groupoid_metric_exponent(family[a + block], family[b + block]) for a, b in zip(i, j)]
                assert [None if e == gd.NO_DISTANCE else e for e in got] == want
                seen.update(want)
        assert {None, 0, 1} < seen

    def test_one_side_only(self):
        a = stable(STEP, pt((1, 0), -2))
        with pytest.raises(SideMismatch):
            gd.ElementFamily([a, gd.reverse_element(a)])
        assert gd.ElementFamily([]).metric_exponents(np.arange(0), np.arange(0)).tolist() == []


class TestDynamics:
    def test_phi_identity(self):
        a = stable(ZERO, sft.build_point((0,), (1,), (0,), 3))
        assert gd.phi_auto(a, 0) == a

    def test_contraction_with_equality(self):
        els = _element_family()
        hits = 0
        for a in els:
            for b in els:
                e = gd.groupoid_metric_exponent(a, b)
                if e is not None and e >= 1:
                    ee = gd.groupoid_metric_exponent(gd.phi_auto(a, -1), gd.phi_auto(b, -1))
                    assert ee == e + 1
                    hits += 1
        assert hits > 20

    def test_global_sandwich(self):
        els = _element_family()
        for a in els:
            for b in els:
                e = gd.groupoid_metric_exponent(a, b)
                ee = gd.groupoid_metric_exponent(gd.phi_auto(a, -1), gd.phi_auto(b, -1))
                if e is None:
                    assert ee is None
                else:
                    assert ee is not None and e <= ee <= e + 1


class TestPairAlgebra:
    def test_compose_inverse(self):
        y = sft.build_point((0,), (1, 0), (1,), -2)
        a = stable(STEP, y)
        assert gd.compose(a, gd.inverse(a)) == gd.unit(STEP)
        assert a.first == STEP and a.second == y

    def test_not_composable(self):
        y = sft.build_point((0,), (1, 0), (1,), -2)
        with pytest.raises(NotComposable):
            gd.compose(stable(STEP, y), stable(STEP, y))

    def test_inversion_isometry(self):
        els = _element_family()
        for a in els[:20]:
            for b in els[:20]:
                assert gd.groupoid_metric_exponent(a, b) == gd.groupoid_metric_exponent(
                    gd.inverse(a), gd.inverse(b)
                )

    def test_source_locally_isometric(self):
        y = sft.build_point((0,), (1, 0), (1,), -2)
        v = gd.base_set(stable(STEP, y), 4)
        zs = [z for z in sft.enumerate_homoclinic(FULL, P, Q, 4) if gd.in_domain(v, z)]
        els = [stable(holonomy_apply(v, z), z) for z in zs]
        for a in els:
            for b in els:
                e = gd.groupoid_metric_exponent(a, b)
                eu = gd.units_metric_exponent(a.second, b.second)
                assert e == eu


class TestTopology:
    def test_ball_inside_base_set(self):
        els = _element_family()
        for a in els[:15]:
            n = 3
            v = gd.base_set(a, n, max(gd.c_first_time(a), 0))
            for b in els:
                e = gd.groupoid_metric_exponent(a, b)
                if e is not None and e >= n + 2:  # open ball of radius 2^-(n+1)
                    assert base_set_membership(v, b)

    def test_diameter_bound(self):
        y = sft.build_point((0,), (1, 0), (1,), -2)
        c = stable(STEP, y)
        for n in range(2, 6):
            v = gd.base_set(c, n)
            members = [
                stable(holonomy_apply(v, z), z)
                for z in sft.enumerate_homoclinic(FULL, P, Q, 5)
                if gd.in_domain(v, z)
            ]
            for a in members:
                for b in members:
                    e = gd.groupoid_metric_exponent(a, b)
                    assert e is None or e >= n + 1


class TestUnstableMirror:
    # z agrees with the anchor source w in the future and varies in the past
    def _data(self):
        w = sft.build_point((0,), (1, 1, 1, 0), (1,), 0)
        v = gd.base_set(unstable(STEP, w), 4)
        z = sft.build_point((0,), (1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0), (1,), -7)
        return w, v, z

    def test_holonomy_by_reversal(self):
        w, v, z = self._data()
        assert gd.in_domain(v, z)
        direct = holonomy_apply(v, z)
        rv = gd.BaseSet(gd.reverse_element(v.anchor), v.radius_exp, v.time)
        mirrored = sft.reverse_point(holonomy_apply(rv, sft.reverse_point(z)))
        assert direct == mirrored

    def test_unstable_holonomy_keeps_past(self):
        w, v, z = self._data()
        h = holonomy_apply(v, z)
        for i in range(-10, -v.time):
            assert h.at(i) == z.at(i)
        # the future is pinned to the anchor's range point
        assert sft.in_stable_set(STEP, h, v.time)
        assert element_is_valid(unstable(h, z), P, Q)
        assert base_set_membership(v, unstable(h, z))
