import math

import numpy as np
import pytest

from sftops import aufmetric as auf
from sftops import groupoid as gd
from sftops import sampling as smp
from sftops import scenarios as sn
from sftops import sft

import oracles
from oracles import base_set_membership

FULL = sft.TransitionMatrix.from_rows([[1, 1], [1, 1]])
P = sft.PeriodicOrbit((1,))
Q = sft.PeriodicOrbit((0,))
CP = auf.CoverIndexParams(2.0)
STEP = sft.build_point((0,), (), (1,), 0)


def elements(count=160, seed=3):
    rng = np.random.default_rng(seed)
    return smp.audit_elements(FULL, P, Q, rng, count)


REFERENCE = {name: mk() for name, mk in sn.REFERENCE_SCENARIOS.items()}
KAPPAS = (1.5, 2.0, 3.0)


def reference_elements(name, count, seed=5):
    s = REFERENCE[name]
    return smp.audit_elements(s.matrix, s.orbit_p, s.orbit_q, np.random.default_rng(seed), count)


# ---------------------------------------------------------------------------
# the pointwise cover definitions the table kernels are checked against


def k_index(n_a1, n, cp):
    """k(a, 1) = 1 and k(a, n+1) = N_{a,1} + n * ceil(log_lambda 3)."""
    if n < 1:
        raise ValueError("cover levels start at 1")
    if n == 1:
        return 1
    return n_a1 + (n - 1) * cp.ceil_log3


def v_set(a, v, cp):
    """The neighbourhood-base set V_v(a) of the self-similar model."""
    n_a = gd.c_first_time(a)
    return gd.BaseSet(a, auf.v_set_threshold(n_a, v, cp) - 1, max(n_a, v))


def v_set_membership(b, a, v, cp):
    return base_set_membership(v_set(a, v, cp), b)


def u_cover_member(a, c, n, cp):
    """Membership of a in U_n(c) = V_{k(c, n)}(c); level 0 is the whole space."""
    if n == 0:
        return True
    n_c1 = max(gd.c_first_time(c), 1)
    return v_set_membership(a, c, k_index(n_c1, n, cp), cp)


def v_index_cap(a, c, cp):
    """Largest v with a in V_v(c), -1 if a is in none.

    Membership at V-index v needs one-sided agreement depth of the source
    points >= max(N_c, v) + disk_margin plus the holonomy equation, so the
    cap is depth - disk_margin once the base requirements hold.
    """
    n_c = gd.c_first_time(c)
    d = gd.disk_depth(a.side, a.second, c.second)
    if d == -math.inf:
        return -1
    margin = cp.disk_margin
    cap = auf._DEEP if d == math.inf else int(d) - margin
    if cap < 0 or (d != math.inf and d < n_c + margin):
        return -1
    bs = v_set(c, min(cap, n_c), cp)
    if not gd.in_domain(bs, a.second):
        return -1
    if gd._holonomy_splice(bs, a.second) != a.first:
        return -1
    return cap


def cover_level_from_cap(cap, n_c1, cp):
    """Largest n >= 1 with k(c, n) <= cap, 0 if none."""
    if cap < 1:
        return 0
    if cap >= auf._DEEP:
        return auf._DEEP
    extra = (cap - n_c1) // cp.ceil_log3
    return max(1, 1 + extra) if cap >= n_c1 + cp.ceil_log3 else 1


def max_cover_level(a, c, cp):
    """Largest n >= 1 with a in U_n(c), 0 if none."""
    return cover_level_from_cap(v_index_cap(a, c, cp), max(gd.c_first_time(c), 1), cp)


def quasimetric_rho(a, b, candidates, n_max, cp):
    """inf{2**-n : some U_n-cover member around a candidate holds a and b}.

    Centers range over candidates plus a and b themselves, a documented
    over-approximation of the infimum over the whole groupoid; the level-0
    cover is the full space, so the value never exceeds 1.
    """
    if a == b:
        return 0.0
    best = 0
    for c in list(candidates) + [a, b]:
        lvl = min(max_cover_level(a, c, cp), max_cover_level(b, c, cp))
        best = max(best, lvl)
    return 2.0 ** -min(best, n_max)


def table_from_csv(text):
    """The table that table_to_csv wrote out."""
    # the table of no points is one empty header line
    lines = [ln for ln in text.strip().splitlines() if ln] or [""]
    ids = lines[0].split(",")[1:]
    m = len(ids)
    exps = np.full((m, m), -1, dtype=int)
    for i, ln in enumerate(lines[1:]):
        cells = ln.split(",")[1:]
        for j, cell in enumerate(cells):
            if cell == "0":
                exps[i, j] = -1
            elif cell == "1":
                exps[i, j] = 0
            else:
                if not cell.startswith("2^-"):
                    raise ValueError(f"bad table entry {cell!r}")
                exps[i, j] = int(cell[3:])
    return auf.QuasimetricTable(ids, exps)


def quasimetric_table(els, cp, n_max=40):
    return auf.build_quasimetric_table(els, cp, auf.build_vcap_table(els, cp), n_max)


def pair_vcap(els, cp):
    """The per-pair oracle: one v_index_cap call per table entry."""
    return np.array([[v_index_cap(a, c, cp) for c in els] for a in els], dtype=np.int64)


def chain_metric_oracle(t):
    """Floyd-Warshall allocating a new matrix per step."""
    d = t.values().copy()
    for k in range(t.size):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d


def sandwich_oracle(t, d):
    """The pairwise double loop over i < j."""
    rho = t.values()
    rep = auf.SandwichReport()
    for i in range(t.size):
        for j in range(i + 1, t.size):
            rep.checked += 1
            if d[i, j] > rho[i, j] + 1e-15:
                rep.upper_violations.append((t.point_ids[i], t.point_ids[j], d[i, j], rho[i, j]))
            if d[i, j] < 0.25 * rho[i, j] - 1e-15:
                rep.lower_violations.append((t.point_ids[i], t.point_ids[j], d[i, j], rho[i, j]))
    return rep


def star_oracle(elements, cp, rng, trials, n_levels, vcap):
    """Per-trial loops over witnesses and members, levels from rng.choice."""
    n_first = [gd.c_first_time(e) for e in elements]
    rep = auf.StarReport()
    for _ in range(trials):
        ai = int(rng.integers(len(elements)))
        n = int(rng.choice(n_levels))
        j = auf.j_index(n_first[ai], n, cp)
        in_a = vcap[:, ai] >= j
        if not in_a.any():
            rep.triples_checked += 1
            continue
        for bi in np.flatnonzero((vcap[in_a, :] >= j).any(axis=0)):
            rep.triples_checked += 1
            rep.witnesses += 1
            for ei in np.flatnonzero(vcap[:, bi] >= j):
                if vcap[ei, ai] < n:
                    rep.violations.append((ai, int(bi), int(ei), n))
    return rep


def csv_oracle(t):
    lines = [",".join([""] + list(t.point_ids))]
    for i, pid in enumerate(t.point_ids):
        row = [pid]
        for j in range(t.size):
            e = t.exponents[i, j]
            row.append("0" if e == -1 else ("1" if e == 0 else f"2^-{e}"))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def random_table(rng, m, values):
    """A symmetric table with off-diagonal exponents drawn from `values`."""
    e = rng.choice(values, size=(m, m))
    e = np.triu(e, 1)
    e = e + e.T
    np.fill_diagonal(e, -1)
    return auf.QuasimetricTable([f"p{i}" for i in range(m)], e)


def clustered_table(rng, m, top, spread):
    """A table whose pairs sit at exponent `top` except inside clusters of
    about three points, scattered over the indices, whose pairs draw
    exponents from top, ..., top + spread."""
    labels = rng.integers(0, max(1, m // 3), size=m)
    inside = labels[:, None] == labels[None, :]
    e = np.where(inside, rng.integers(top, top + spread + 1, size=(m, m)), top)
    e = np.triu(e, 1)
    e = e + e.T
    np.fill_diagonal(e, -1)
    return auf.QuasimetricTable([f"p{i}" for i in range(m)], e)


def close_components(t):
    """The components chain_metric runs on: pairs below the largest value."""
    return auf._components(t.values())


def scalar_quasimetric_exponents(els, cp, vcap, n_max):
    """The exponent table from cover_level_from_cap, one pair and one
    center at a time."""
    n_c1 = [max(gd.c_first_time(c), 1) for c in els]
    m = len(els)
    levels = [[cover_level_from_cap(int(vcap[i, j]), n_c1[j], cp) for j in range(m)] for i in range(m)]
    want = np.full((m, m), -1)
    for i in range(m):
        for j in range(m):
            if i != j:
                best = max(min(levels[i][k], levels[j][k]) for k in range(m))
                want[i, j] = min(max(best, 0), n_max)
    return want


@pytest.fixture(scope="module")
def reference_tables():
    out = {}
    for name in REFERENCE:
        els = reference_elements(name, 200)
        vcap = auf.build_vcap_table(els, CP)
        out[name] = (els, vcap, auf.build_quasimetric_table(els, CP, vcap=vcap))
    return out


class TestNestedFamily:
    def test_one_domain_test_per_candidate(self, monkeypatch):
        tested = []
        real_in_domain = gd.in_domain

        def counted_in_domain(v, z):
            tested.append(z)
            return real_in_domain(v, z)

        # nested_family takes its elements from gd.elements_of, which splices
        # each candidate that passed the test without testing it again
        monkeypatch.setattr(gd, "in_domain", counted_in_domain)
        anchor = gd.GroupoidElement(STEP, sft.build_point((0,), (1, 0), (1,), -2))
        depths = range(gd.c_first_time(anchor) + 2, 12)
        candidates = sum(
            len(smp.variations_at_depth(FULL, anchor.second, t, P)) for t in depths
        )
        els = smp.nested_family(FULL, anchor, depths, P)
        assert els
        assert len(tested) == candidates


class TestIndices:
    def test_ceil_log3(self):
        assert CP.ceil_log3 == 2
        assert auf.CoverIndexParams(3.0).ceil_log3 == 1
        assert auf.CoverIndexParams(1.5).ceil_log3 == 3

    def test_eps_prime_exp(self):
        assert [auf.CoverIndexParams(k).eps_prime_exp for k in KAPPAS] == [3, 2, 2]
        assert [auf.CoverIndexParams(k).disk_margin for k in KAPPAS] == [6, 4, 3]

    @pytest.mark.parametrize("kappa", KAPPAS + (1.2, 1.9, 2.5, 4.0, 10.0))
    def test_eps_prime_is_largest_realized_value_below_half(self, kappa):
        # kappa**-e <= kappa**-1 / 2 < kappa**-(e - 1) for e = eps_prime_exp
        e = auf.CoverIndexParams(kappa).eps_prime_exp
        half = kappa**-1 / 2
        assert kappa**-e <= half * (1 + 1e-12)
        assert kappa ** -(e - 1) > half

    def test_j_examples(self):
        assert auf.j_index(0, 0, CP) == 2
        assert auf.j_index(7, 3, CP) == 9

    def test_j_lower_bound(self):
        for n_a in range(0, 6):
            for n in range(0, 6):
                assert auf.j_index(n_a, n, CP) >= max(n_a, n) + 1

    def test_k_examples(self):
        assert k_index(5, 1, CP) == 1
        assert k_index(1, 3, CP) == 5  # 1 + 2 * ceil(log2 3)

    def test_k_step(self):
        for n_a1 in (1, 2, 5):
            for n in range(2, 8):
                assert k_index(n_a1, n + 1, CP) - k_index(n_a1, n, CP) == CP.ceil_log3

    def test_jk_induction(self):
        # j(a, k(a, n)) = k(a, n + 1)
        for n_a in (0, 1, 3, 7):
            n_a1 = max(n_a, 1)
            for n in range(1, 7):
                assert auf.j_index(n_a, k_index(n_a1, n, CP), CP) == k_index(
                    n_a1, n + 1, CP
                )


class TestCovers:
    def test_self_membership_all_levels(self):
        for a in elements(40)[::5]:
            for n in range(0, 7):
                assert u_cover_member(a, a, n, CP)

    def test_nesting(self):
        els = elements(80)
        a = els[10]
        for c in els[::7]:
            prev = True
            for n in range(1, 8):
                cur = u_cover_member(a, c, n, CP)
                assert prev or not cur  # membership at n+1 implies membership at n
                prev = cur

    def test_vcap_consistency(self):
        els = elements(60)
        vcap = auf.build_vcap_table(els, CP)
        for i, a in enumerate(els[::9]):
            for j, c in enumerate(els[::9]):
                lvl = max_cover_level(a, c, CP)
                for n in (1, 2, 3):
                    assert u_cover_member(a, c, n, CP) == (n <= lvl)


class TestVcapTable:
    @pytest.mark.parametrize("kappa", KAPPAS)
    @pytest.mark.parametrize("name", sorted(REFERENCE))
    def test_matches_per_pair_oracle(self, name, kappa):
        cp = auf.CoverIndexParams(kappa)
        stable = reference_elements(name, 40)
        unstable = [gd.reverse_element(a) for a in stable]
        # both sides, each source under several elements, repeated elements
        mixed = (
            stable[::2]
            + unstable[1::2]
            + [gd.unit(a.second, gd.UNSTABLE) for a in stable[:8]]
            + [gd.unit(a.second) for a in unstable[:8]]
            + stable[:4]
        )
        for els in (stable, unstable, mixed):
            assert len({a.second for a in els}) < len(els)
            want = pair_vcap(els, cp)
            assert (want[~np.eye(len(els), dtype=bool)] >= 0).any()
            assert np.array_equal(auf.build_vcap_table(els, cp), want)
        # far shifts put every core before 0 (stable) or after it
        # (unstable), so a holonomy cut can lie past the window's cores
        for els in ([gd.phi_auto(a, 40) for a in stable], [gd.phi_auto(a, -40) for a in unstable]):
            assert np.array_equal(auf.build_vcap_table(els, cp), pair_vcap(els, cp))

    def test_one_depth_per_source_pair(self, monkeypatch):
        # every depth and every holonomy image comes from the one family
        # window: each distinct point of the family is read once
        els = elements(160)
        for a in els:
            gd.c_first_time(a)  # cached before the count, as in the audit
        reads, real = [], sft.EventuallyPeriodicPoint.window

        def counting(x, lo, hi):
            reads.append(x)
            return real(x, lo, hi)

        monkeypatch.setattr(sft.EventuallyPeriodicPoint, "window", counting)
        vcap = auf.build_vcap_table(els, CP)
        monkeypatch.undo()
        assert np.array_equal(vcap, pair_vcap(els, CP))
        points = {x for a in els for x in (a.first, a.second)}
        assert len(reads) == len(set(reads)) == len(points) < len(els)
        assert set(reads) == points


class TestCoverLevels:
    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_matches_scalar_rule(self, kappa):
        cp = auf.CoverIndexParams(kappa)
        n_c1 = np.array([1, 2, 3, 5, 9], dtype=np.int64)
        boundary = {n + cp.ceil_log3 + d for n in n_c1 for d in (-1, 0, 1)}
        caps = sorted(boundary | set(range(-1, 30)) | {auf._DEEP - 1, auf._DEEP})
        vcap = np.repeat(np.array(caps, dtype=np.int64)[:, None], len(n_c1), axis=1)
        got = auf.cover_levels(vcap, n_c1, cp)
        for i, cap in enumerate(caps):
            for j, n in enumerate(n_c1):
                assert got[i, j] == cover_level_from_cap(cap, int(n), cp)

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_table_matches_scalar_levels(self, kappa):
        cp = auf.CoverIndexParams(kappa)
        els = reference_elements("golden-mean", 60)
        vcap = pair_vcap(els, cp)
        got = auf.build_quasimetric_table(els, cp, n_max=3, vcap=vcap).exponents
        assert np.array_equal(got, scalar_quasimetric_exponents(els, cp, vcap, 3))

    @pytest.mark.parametrize("n_max", [2, 40])
    def test_sparse_caps_match_scalar_levels(self, n_max):
        # most entries lie in no V-set, so many pairs share no center
        # (exponent 0); deep caps give levels far above n_max
        rng = np.random.default_rng(11)
        els = reference_elements("full-2-shift", 40)
        caps = rng.choice([-1, 0, 1, 3, 7, 15, 60, auf._DEEP], size=(40, 40), p=[0.9] + [0.1 / 7] * 7)
        vcap = np.maximum(caps, np.where(np.eye(40, dtype=bool), auf._DEEP, -1))
        got = auf.build_quasimetric_table(els, CP, n_max=n_max, vcap=vcap).exponents
        want = scalar_quasimetric_exponents(els, CP, vcap, n_max)
        assert np.array_equal(got, want)
        off = ~np.eye(40, dtype=bool)
        assert (want[off] == 0).any() and (want[off] == n_max).any()


class TestQuasimetric:
    def test_diagonal_zero(self):
        els = elements(50)
        t = quasimetric_table(els, CP)
        assert all(t.exponents[i, i] == -1 for i in range(t.size))
        assert t.values()[0, 0] == 0.0

    def test_rho_op_matches_table(self):
        els = elements(40)
        t = quasimetric_table(els, CP, n_max=40)
        v = t.values()
        for i in range(0, len(els), 7):
            for j in range(0, len(els), 5):
                got = quasimetric_rho(els[i], els[j], els, 40, CP)
                assert got == v[i, j]

    def test_rho_self_zero_and_cap(self):
        els = elements(20)
        assert quasimetric_rho(els[3], els[3], els, 40, CP) == 0.0
        assert quasimetric_rho(els[0], els[-1], [], 40, CP) <= 1.0

    def test_rho_candidate_monotone(self):
        els = elements(60)
        a, b = els[4], els[17]
        full = quasimetric_rho(a, b, els, 40, CP)
        sub = quasimetric_rho(a, b, els[:10], 40, CP)
        assert sub >= full

    def test_value_one_without_shared_cover(self):
        els = elements(50)
        t = quasimetric_table(els, CP)
        v = t.values()
        assert (v[~np.eye(t.size, dtype=bool)] > 0).all()
        assert v.max() == 1.0

    def test_candidate_restriction_monotone(self):
        els = elements(80)
        t_full = quasimetric_table(els, CP)
        sub = els[:40]
        t_sub = quasimetric_table(sub, CP)
        assert (t_sub.values() >= t_full.values()[:40, :40] - 1e-15).all()


class TestChainMetric:
    def _table(self, exps):
        ids = [str(i) for i in range(len(exps))]
        return auf.QuasimetricTable(ids, np.array(exps))

    def test_three_point_no_shortcut(self):
        # rho(a,b) = rho(b,c) = 1/2, rho(a,c) = 1: the chain 1/2 + 1/2 ties
        t = self._table([[-1, 1, 0], [1, -1, 1], [0, 1, -1]])
        d = auf.chain_metric(t)
        assert d[0, 2] == 1.0

    def test_three_point_shortcut(self):
        # rho(a,b) = rho(b,c) = 1/4: chain beats the direct edge
        t = self._table([[-1, 2, 0], [2, -1, 2], [0, 2, -1]])
        d = auf.chain_metric(t)
        assert d[0, 2] == 0.5

    def test_exhaustive_three_point_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            e = rng.integers(0, 5, size=(3, 3))
            e = np.minimum(e, e.T)
            np.fill_diagonal(e, -1)
            t = self._table(e)
            d = auf.chain_metric(t)
            v = t.values()
            for i in range(3):
                for j in range(3):
                    paths = [v[i, j]]
                    for k in range(3):
                        paths.append(v[i, k] + v[k, j])
                    paths.append(v[i, 0] + v[0, 1] + v[1, 2])
                    assert d[i, j] <= min(paths) + 1e-15

    def test_symmetry_and_diagonal(self):
        els = elements(60)
        t = quasimetric_table(els, CP)
        d = auf.chain_metric(t)
        assert np.allclose(d, d.T)
        assert np.allclose(np.diag(d), 0.0)


    @pytest.mark.parametrize("name", sorted(REFERENCE))
    def test_matches_allocating_oracle_on_reference(self, reference_tables, name):
        t = reference_tables[name][2]
        assert auf.chain_metric(t).tobytes() == chain_metric_oracle(t).tobytes()

    def test_matches_allocating_oracle_on_random_dyadic(self):
        rng = np.random.default_rng(17)
        for m in (1, 2, 5, 23, 60):
            for _ in range(4):
                t = random_table(rng, m, [0, 1, 2, 3, 5, 9, 40])
                assert np.array_equal(auf.chain_metric(t), chain_metric_oracle(t))

    @pytest.mark.parametrize("top", [0, 2])
    def test_bit_for_bit_on_clustered_tables(self, top):
        # many small components, scattered over the indices, below a top
        # of 1 and of 1/4
        rng = np.random.default_rng(23)
        sizes = []
        for m in (3, 7, 40, 150):
            for spread in (1, 3, 8):
                t = clustered_table(rng, m, top, spread)
                sizes += [len(c) for c in close_components(t)]
                assert auf.chain_metric(t).tobytes() == chain_metric_oracle(t).tobytes()
        assert max(sizes) > 3 and sizes.count(2) > 5

    def test_bit_for_bit_on_one_component_tables(self):
        # a path of close pairs through a random order joins every point,
        # and its two ends hold the largest value
        rng = np.random.default_rng(29)
        for m in (3, 9, 60):
            for values in ([0, 1, 2, 3, 5], [1, 2, 2, 6]):
                e = random_table(rng, m, values).exponents
                path = rng.permutation(m)
                e[path[:-1], path[1:]] = e[path[1:], path[:-1]] = values[0] + 1
                e[path[0], path[-1]] = e[path[-1], path[0]] = values[0]
                t = auf.QuasimetricTable([f"p{i}" for i in range(m)], e)
                assert [len(c) for c in close_components(t)] == [m]
                want = t.values()
                oracles.floyd_warshall(want)
                assert auf.chain_metric(t).tobytes() == chain_metric_oracle(t).tobytes() == want.tobytes()

    def test_bit_for_bit_on_one_and_two_points_and_equal_values(self):
        rng = np.random.default_rng(31)
        tables = [random_table(rng, m, [0, 3, 40]) for m in (1, 2, 2, 2)]
        tables.append(random_table(rng, 30, [4]))  # no pair below the top
        for t in tables:
            assert auf.chain_metric(t).tobytes() == chain_metric_oracle(t).tobytes()

    def test_memory_peak_on_two_point_clusters(self):
        # 1000 components of two points have nothing to shorten, so the
        # peak is the table of values; a table-sized step buffer, or a
        # temporary while the values are computed, would double it.  One
        # component over a whole 600-point table runs in place, one block
        # of rows at a time.
        import tracemalloc

        if tracemalloc.is_tracing():
            pytest.skip("tracemalloc is already tracing")
        m = 2000
        e = np.zeros((m, m), dtype=int)
        e[np.arange(0, m, 2), np.arange(1, m, 2)] = e[np.arange(1, m, 2), np.arange(0, m, 2)] = 3
        np.fill_diagonal(e, -1)
        pairs = auf.QuasimetricTable([str(i) for i in range(m)], e)
        one = random_table(np.random.default_rng(41), 600, [0, 1, 2, 3])
        assert [len(c) for c in close_components(one)] == [600]
        for t, bound in ((pairs, 1.5), (one, 1.3)):
            tracemalloc.start()
            try:
                d = auf.chain_metric(t)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound * t.exponents.nbytes, t.size
            want = t.values()
            if t is one:
                oracles.floyd_warshall(want)
            assert d.tobytes() == want.tobytes()


class TestSandwich:
    def test_cover_derived_table_clean(self):
        els = elements(140)
        t = quasimetric_table(els, CP)
        rep = auf.sandwich_check(t, auf.chain_metric(t))
        assert rep.ok and rep.checked == t.size * (t.size - 1) // 2

    def test_single_point(self):
        t = auf.QuasimetricTable(["a"], np.array([[-1]]))
        rep = auf.sandwich_check(t, auf.chain_metric(t))
        assert rep.ok

    def test_adversarial_violation_flagged(self):
        # a hand-built table violating the star condition: one long edge
        # whose endpoints are joined by a much cheaper chain
        exps = np.array([[-1, 4, 0], [4, -1, 4], [0, 4, -1]])
        t = auf.QuasimetricTable(["a", "b", "c"], exps)
        rep = auf.sandwich_check(t, auf.chain_metric(t))
        assert not rep.ok and rep.lower_violations

    def test_chain_below_rho(self):
        els = elements(100)
        t = quasimetric_table(els, CP)
        d = auf.chain_metric(t)
        assert (d <= t.values() + 1e-15).all()


    def test_matches_loop_oracle_with_both_violations(self):
        rng = np.random.default_rng(23)
        t = random_table(rng, 40, [0, 1, 2, 3, 4])
        # scale each entry of D by 1/8, 1/2, 1 or 2: too small, fine, too large
        d = t.values() * rng.choice([0.125, 0.5, 1.0, 2.0], size=(t.size, t.size))
        rep, ref = auf.sandwich_check(t, d), sandwich_oracle(t, d)
        assert ref.upper_violations and ref.lower_violations
        assert rep.checked == ref.checked
        assert rep.upper_violations == ref.upper_violations
        assert rep.lower_violations == ref.lower_violations

    @pytest.mark.parametrize("name", sorted(REFERENCE))
    def test_matches_loop_oracle_on_reference(self, reference_tables, name):
        t = reference_tables[name][2]
        d = auf.chain_metric(t)
        rep, ref = auf.sandwich_check(t, d), sandwich_oracle(t, d)
        assert (rep.checked, rep.upper_violations, rep.lower_violations) == (
            ref.checked,
            ref.upper_violations,
            ref.lower_violations,
        )


class TestStar:
    def test_star_holds_with_witnesses(self):
        els = elements(200, seed=9)
        rng = np.random.default_rng(4)
        rep = auf.star_refinement_check(els, CP, rng, 200, vcap=auf.build_vcap_table(els, CP))
        assert rep.ok
        assert rep.witnesses >= 100


    @pytest.mark.parametrize("name", sorted(REFERENCE))
    def test_matches_loop_oracle_on_tampered_table(self, reference_tables, name):
        els, vcap, _ = reference_tables[name]
        # knock a tenth of the memberships out, so members of V_j(b) leave V_n(a)
        knock = np.random.default_rng(29).random(vcap.shape) < 0.1
        tampered = np.where(knock, -1, vcap)
        levels = (0, 1, 2, 3)
        rng, ref_rng = np.random.default_rng(31), np.random.default_rng(31)
        rep = auf.star_refinement_check(els, CP, rng, 300, vcap=tampered)
        ref = star_oracle(els, CP, ref_rng, 300, levels, tampered)
        assert len(ref.violations) > 20
        assert rep.violations == ref.violations
        assert (rep.triples_checked, rep.witnesses) == (ref.triples_checked, ref.witnesses)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("name", sorted(REFERENCE))
    def test_matches_loop_oracle_on_reference(self, reference_tables, name):
        els, vcap, _ = reference_tables[name]
        rep = auf.star_refinement_check(els, CP, np.random.default_rng(37), 300, vcap=vcap)
        ref = star_oracle(els, CP, np.random.default_rng(37), 300, (0, 1, 2, 3), vcap)
        assert rep.ok and ref.ok
        assert (rep.triples_checked, rep.witnesses) == (ref.triples_checked, ref.witnesses)


class TestDiameter:
    def test_regression_matches_predicted_base(self):
        els = elements(220, seed=11)
        cp = CP
        vcap = auf.build_vcap_table(els, cp)
        t = auf.build_quasimetric_table(els, cp, vcap=vcap)
        d = auf.chain_metric(t)
        anchors = [i for i, e in enumerate(els) if e.first == e.second][:20]
        fit = auf.diameter_bound_check(els, d, anchors, cp, range(0, 9), vcap=vcap)
        # lambda = 2 predicts base 2**-(1/2) ~ 0.7071
        assert fit.predicted_slope == -0.5
        assert fit.relative_error <= 0.10
        assert fit.gamma_prime > 0

    def test_gamma_prime_bounds_every_level(self):
        els = elements(160, seed=11)
        vcap = auf.build_vcap_table(els, CP)
        t = auf.build_quasimetric_table(els, CP, vcap=vcap)
        d = auf.chain_metric(t)
        anchors = [i for i, e in enumerate(els) if e.first == e.second][:12]
        fit = auf.diameter_bound_check(els, d, anchors, CP, range(0, 8), vcap=vcap)
        for k, y in zip(fit.ks, fit.log2_diameters):
            assert 2.0**y <= 2.0 ** (-k / CP.ceil_log3) * fit.gamma_prime + 1e-12
        # k = 0 reduces the bound to gamma' itself
        assert 2.0 ** fit.log2_diameters[0] <= fit.gamma_prime + 1e-12


class TestCsv:
    def test_roundtrip(self):
        els = elements(40)
        t = quasimetric_table(els, CP)
        t2 = table_from_csv(auf.table_to_csv(t))
        assert np.array_equal(t.exponents, t2.exponents)
        assert t.point_ids == t2.point_ids

    def test_entry_format(self):
        t = auf.QuasimetricTable(["x", "y"], np.array([[-1, 3], [3, -1]]))
        text = auf.table_to_csv(t)
        assert "2^-3" in text and "0" in text

    def test_empty_table_round_trip(self):
        t = auf.QuasimetricTable([], np.zeros((0, 0), dtype=int))
        text = auf.table_to_csv(t)
        assert text == "\n"
        back = table_from_csv(text)
        assert back.point_ids == [] and back.exponents.shape == (0, 0)

    def test_matches_cell_loop_oracle(self):
        deep = [-1, 0, 1, 2, 9, 40, 1000, 10**6]
        rng = np.random.default_rng(41)
        for m in (0, 1, 3, 30):
            t = random_table(rng, m, deep)
            text = auf.table_to_csv(t)
            assert text == csv_oracle(t)
            back = table_from_csv(text)
            assert np.array_equal(back.exponents, t.exponents)
            assert back.point_ids == t.point_ids
