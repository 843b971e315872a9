"""Reference definitions and fixtures that several test modules share.

The program computes these objects through closed forms; the tests compare
it against the definitions here.
"""

import itertools
import math
import os
import pickle

import numpy as np

from sftops import functions as fn
from sftops import groupoid as gd
from sftops import scenarios as sn
from sftops import sft
from sftops.errors import SftopsError

FULL = sft.TransitionMatrix.from_rows([[1, 1], [1, 1]])
PERIOD2 = sft.TransitionMatrix.from_rows([[0, 1, 1], [1, 0, 0], [1, 0, 0]])


def build_point(left, core, right, start):
    """sft.build_point read off a raw point: the right tail's periodicity
    scanned down from the core's end, the left tail's up from the core's
    start, and the final cycles reduced to their primitive roots."""
    left = sft.primitive_root(bytes(left))
    right = sft.primitive_root(bytes(right))
    core = bytes(core)
    ml, mr = len(left), len(right)
    if ml == 0 or mr == 0:
        raise ValueError("cycles must be nonempty")
    end = start + len(core)
    period_lcm = math.lcm(ml, mr)
    floor = start - period_lcm - mr
    ceil = end + period_lcm + ml
    raw = sft.EventuallyPeriodicPoint(left, core, right, start)
    lo = floor - ml
    win = raw.window(lo, ceil + 1)
    r = end
    while r > floor and win[r - 1 - lo] == win[r - 1 + mr - lo]:
        r -= 1
    if r <= floor:
        w = sft.primitive_root(raw.window(0, mr))
        return sft.EventuallyPeriodicPoint(w, b"", w, 0)
    lft = start - 1
    while lft < ceil and win[lft + 1 - lo] == win[lft + 1 - ml - lo]:
        lft += 1
    if lft >= ceil:
        raise ValueError("the left tail extends past the periodicity bound")
    s, e = (r, r) if lft + 1 >= r else (lft + 1, r)
    return sft.EventuallyPeriodicPoint(
        sft.primitive_root(win[s - ml - lo : s - lo]),
        win[s - lo : e - lo],
        sft.primitive_root(win[e - lo : e + mr - lo]),
        s,
    )


def agree_from(x, y, lo: int) -> bool:
    """x.at(i) == y.at(i) for every i >= lo: one window from lo to one lcm
    of the right cycles past both cores (and lo)."""
    hi = max(x.core_end, y.core_end, lo) + math.lcm(len(x.right_cycle), len(y.right_cycle))
    return x.window(lo, hi + 1) == y.window(lo, hi + 1)


def agree_upto(x, y, hi: int) -> bool:
    """x.at(i) == y.at(i) for every i <= hi, the mirror image of agree_from."""
    lo = min(x.core_start, y.core_start, hi) - math.lcm(len(x.left_cycle), len(y.left_cycle))
    return x.window(lo, hi + 1) == y.window(lo, hi + 1)


def local_set_membership(x, y, eps_exp: int, side: str) -> bool:
    """Definitional test for y in X^s(x, kappa**-eps_exp) (resp. X^u).

    This is the oracle: strict metric inequality plus the bracket
    fixed-point equation.  eps_exp >= 1 so the bracket is defined.
    """
    if eps_exp < 1:
        raise ValueError("eps must be <= kappa**-1")
    r = sft.agreement_radius(x, y)
    if r is not None and r <= eps_exp:
        return False
    if side == sft.STABLE:
        return sft.bracket(x, y) == y
    if side == sft.UNSTABLE:
        return sft.bracket(y, x) == y
    raise ValueError(f"unknown side {side!r}")


def in_domain(v, z) -> bool:
    """z lies in the domain disk of the base set v: one-sided agreement with
    the anchor's source up to v's threshold, read by the local-set closed
    forms."""
    if v.side == sft.STABLE:
        return sft.in_unstable_set(v.anchor.second, z, v.threshold)
    return sft.in_stable_set(v.anchor.second, z, v.threshold)


def holonomy_splice(v, z):
    """The holonomy image of a z in v's domain disk, as one splice: the
    anchor's range past (stable) or future (unstable) onto z."""
    if v.side == sft.STABLE:
        return sft.splice_at(v.anchor.first, z, v.time)
    return sft.splice_at(z, v.anchor.first, -v.time - 1)


def elements_of(v, sources) -> list:
    """fn.elements_of point by point: (h(z), z) for each source z in the
    domain disk, in source order."""
    return [gd.GroupoidElement(holonomy_splice(v, z), z, v.side) for z in sources if in_domain(v, z)]


def base_set_membership(v, b) -> bool:
    """b lies on the bisection v: its source in the domain disk, its range
    the holonomy image of the source."""
    if b.side != v.side:
        return False
    if not in_domain(v, b.second):
        return False
    return holonomy_splice(v, b.second) == b.first


class OutsideDomain(SftopsError):
    """A point outside a base set's domain disk."""


def holonomy_apply(v, z):
    """The holonomy image of z, after testing that z lies in v's domain disk."""
    if not in_domain(v, z):
        raise OutsideDomain("point outside the base-set domain disk")
    return holonomy_splice(v, z)


def compose_base_sets(v, w, m) -> list:
    """fn.compose_base_sets with the composed anchor's range taken point by
    point: the center through W's domain test and splice, then V's."""
    if v.side != sft.STABLE:
        rev = compose_base_sets(fn.reverse_base_set(v), fn.reverse_base_set(w), m.transpose())
        return [fn.reverse_base_set(bs) for bs in rev]
    c2 = v.anchor.second
    e1, e2 = w.anchor.first, w.anchor.second
    tv, tw, nv, nw = v.threshold, w.threshold, v.time, w.time
    if sft.agreement_depth(e1, c2) < min(nw, tv):
        return []
    if e2.window(nw + 1, min(tw, tv) + 1) != c2.window(nw + 1, min(tw, tv) + 1):
        return []
    if tv > tw:
        if not m.allowed(e2.at(tw), c2.at(tw + 1)):
            return []
        center, depth = sft.splice_at(e2, c2, tw), tv
    else:
        center, depth = e2, tw
    if not in_domain(w, center):
        return []
    mid = holonomy_splice(w, center)
    if not in_domain(v, mid):
        return []
    anchor = gd.GroupoidElement(holonomy_splice(v, mid), center, sft.STABLE)
    return [gd.BaseSet(anchor, depth - 1, max(nv, nw))]


def metric_exponent(a, b):
    """The program's metric of two elements, read from a two-element
    gd.ElementFamily; None for distance zero."""
    (e,) = gd.ElementFamily([a, b]).metric_exponents([0], [1]).tolist()
    return None if e == gd.NO_DISTANCE else e


def _locally_close(x, y, side: str) -> bool:
    """Closed-disk branch condition of the two-branch metric: one-sided
    agreement through coordinate 0, compared as one window."""
    if side == sft.STABLE:
        return agree_upto(y, x, 0)
    return agree_from(y, x, 0)


def units_metric_exponent(x, y):
    """The two-step reading of the metric on the stable units space: the
    close-branch test, then the agreement radius scanned outward from 0."""
    if x == y:
        return None
    if not _locally_close(x, y, sft.STABLE):
        return 0
    return sft.agreement_radius(x, y)


def groupoid_metric_exponent(a, b):
    """The two-step reading of gd.ElementFamily.metric_exponents on a pair."""
    if a == b:
        return None
    if gd.c_first_time(a) != gd.c_first_time(b):
        return 0
    for x, y in ((a.second, b.second), (a.first, b.first)):
        if not _locally_close(x, y, a.side):
            return 0
    radii = (sft.agreement_radius(a.first, b.first), sft.agreement_radius(a.second, b.second))
    return min(r for r in radii if r is not None)


def floyd_warshall(d):
    """aufmetric's Floyd-Warshall before its steps ran in blocks of rows:
    in place, each step's sums in one table-sized buffer, complete before
    the minimum is written back."""
    via = np.empty_like(d)
    for k in range(len(d)):
        np.add(d[:, k, None], d[None, k, :], out=via)
        np.minimum(d, via, out=d)


def _term_value(f, x, term) -> complex:
    if term.depth == 0:
        return term.coeff
    return fn.LocallyConstantFunction(f.side, (term,)).profile_value(x)


def _lone_profile(f) -> bool:
    # a lone profile term's value is kept as computed, not added to 0j
    # (which would turn an imaginary -0.0 into 0.0)
    return len(f.terms) == 1 and f.terms[0].depth > 0


def apply_to_point(f, x) -> dict:
    """The point-level action that fn.apply_to_point computes on words: a
    term whose domain disk holds x sends delta_x to its value times
    delta_{h(x)}, one domain test and one splice per term, and the values
    are summed by image point in term order."""
    out = {}
    for term in f.terms:
        if in_domain(term.support, x):
            y = holonomy_splice(term.support, x)
            value = _term_value(f, x, term)
            if _lone_profile(f):
                return {y: value}
            fn._accumulate(out, y, value)
    return out


def represent(f, reg):
    """fn.represent column by column through apply_to_point above."""
    op = fn.SparseOperator()
    for j, x in enumerate(list(reg.points)):
        for y, v in apply_to_point(f, x).items():
            i = reg.add(y)
            if i is not None:
                op.add(i, j, v)
    return op


def evaluate(f, gamma) -> complex:
    """Sum of the term values over the base sets containing gamma."""
    total = 0.0 + 0.0j
    for term in f.terms:
        if base_set_membership(term.support, gamma):
            value = _term_value(f, gamma.second, term)
            if _lone_profile(f):
                return value
            total += value
    return total


def bridge_points(m, past, past_hi, future, future_lo):
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


def apply_to_column(f, col):
    """f applied to a column of points: the point-level apply_to_point at
    each point, summed by image point."""
    out = {}
    for x, weight in col.items():
        for y, v in apply_to_point(f, x).items():
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
            cols.update(dict.fromkeys(bridge_points(m, s_pat, past_hi, u_pat, future_lo)))
        for x in sorted(cols, key=sft.EventuallyPeriodicPoint.sort_key):
            col = apply_to_column(a_n, apply_to_point(b_n, x))
            for y, v in apply_to_column(b_n, apply_to_point(a_n, x)).items():
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
    return fn.BlockOperator(blocks, untrusted, reg)


def entries_hex(op):
    return sorted((k, v.real.hex(), v.imag.hex()) for k, v in op.entries.items())


def assert_same_assembly(fast, oracle):
    assert fast.untrusted == oracle.untrusted
    assert fast.basis.points == oracle.basis.points
    assert fast.basis.truncation_events == oracle.basis.truncation_events
    assert {n: entries_hex(op) for n, op in fast.blocks.items()} == {
        n: entries_hex(op) for n, op in oracle.blocks.items()
    }
    # every registered point is canonical
    for i, x in enumerate(fast.basis.points):
        again = sft.build_point(x.left_cycle, x.core, x.right_cycle, x.core_start)
        assert again == x and fast.basis.index[x] == i


def anchored_scenario(name, m, p, q, core_bound, tag, rank=None, **fields):
    """A scenario on m with orbits P = p and Q = q, or None when it has no
    anchors: those are the first pairs of enumerate_homoclinic(m, p, q,
    core_bound) that agree from 0 on (stable) or up to 0 (unstable), each
    base set at the anchor's c_first_time.  The pairs come in point order,
    or with a rank, a key on points, in the order of their larger rank.
    The profiles have depth 12 and seeds named by tag; `fields` sets the
    rest of the scenario."""
    pts = sft.enumerate_homoclinic(m, p, q, core_bound)

    def pairs():
        if rank is None:
            return itertools.product(pts, pts)
        ranked = sorted(pts, key=rank)
        return (pair for k, y in enumerate(ranked) for x in ranked[:k] for pair in ((x, y), (y, x)))

    def first(agree, side):
        pair = next(((x, y) for x, y in pairs() if x != y and agree(x, y, 0)), None)
        return pair and gd.GroupoidElement(*pair, side)

    ca, cb = first(agree_from, gd.STABLE), first(agree_upto, gd.UNSTABLE)
    if ca is None or cb is None:
        return None
    ta, tb = gd.c_first_time(ca), gd.c_first_time(cb)

    def terms(anchor, time, side, coeff=lambda k: 2.0**-k):
        return fn.LocallyConstantFunction(
            side, tuple((gd.BaseSet(anchor, time + k, time), coeff(k)) for k in range(4))
        )

    functions = {
        "a": fn.profile(gd.BaseSet(ca, ta + 1, ta), depth=12, seed=f"{tag}-a"),
        "b": fn.profile(gd.BaseSet(cb, tb + 1, tb), depth=12, seed=f"{tag}-b"),
        "a_terms": terms(ca, ta, gd.STABLE),
        "b_terms": terms(cb, tb, gd.UNSTABLE),
        # every term maps a point to itself, so the images merge; in tenths,
        # the merged weight times a value rounds unlike the sum of products
        "e_unit": terms(gd.unit(ca.first), 0, gd.STABLE, lambda k: (k + 1) / 10),
    }
    s = sn.Scenario(name=name, matrix=m, orbit_p=p, orbit_q=q, core_bound=core_bound, functions=functions, **fields)
    s.validate()
    return s


def period_two_scenario():
    """anchored_scenario on the period-2 irreducible matrix, P = (0, 1), Q = (0, 2)."""
    p, q = sft.PeriodicOrbit((0, 1)), sft.PeriodicOrbit((0, 2))
    return anchored_scenario(
        "period-2", PERIOD2, p, q, 5, "p2",
        kappa=2.0, window=(-4, 10), basis_cap=60000, p_grid=[0.5, 1.0], seed=1,
    )


def unequal_cycles_scenario():
    """anchored_scenario on the full 2-shift with P = (0, 0, 1) and Q = (0, 1):
    its homoclinic points have left cycles of length 2 and right cycles of
    length 3, so a window's left and right margins differ."""
    p, q = sft.PeriodicOrbit((0, 0, 1)), sft.PeriodicOrbit((0, 1))
    return anchored_scenario(
        "unequal-cycles", FULL, p, q, 5, "uc",
        kappa=2.0, window=(-4, 10), basis_cap=60000, p_grid=[0.5, 1.0], seed=1,
    )


def splice_at(past, future, m, word=b""):
    """sft.splice_at read symbol by symbol: past through m, word, future
    beyond, with past's left cycle below its core and future's right cycle
    above its core, canonicalised by the build_point oracle above."""
    end = m + len(word)
    lo, hi = min(past.core_start, m + 1), max(future.core_end, end + 1)
    left = bytes(past.at(i) for i in range(lo - len(past.left_cycle), lo))
    core = bytes(past.at(i) for i in range(lo, m + 1)) + bytes(word)
    core += bytes(future.at(i) for i in range(end + 1, hi))
    right = bytes(future.at(i) for i in range(hi, hi + len(future.right_cycle)))
    return build_point(left, core, right, lo)


def child_that(send):
    """A stand-in for forked._child that runs send(w, jobs) and exits 0
    after it."""

    def child(w, jobs):
        code = 1
        try:
            send(w, jobs)
            code = 0
        finally:
            os._exit(code)

    return child


def child_raises(w, jobs):
    raise RuntimeError("child failed")


def child_sends_half_a_pickle(w, jobs):
    data = pickle.dumps([job() for job in jobs])
    os.write(w, b"." * len(jobs) + data[: len(data) // 2])
