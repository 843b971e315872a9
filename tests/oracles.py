"""Reference definitions and fixtures that several test modules share.

The program computes these objects through closed forms; the tests compare
it against the definitions here.
"""

import math
import os
import pickle

import numpy as np

from sftops import functions as fn
from sftops import groupoid as gd
from sftops import scenarios as sn
from sftops import sft
from sftops.errors import SftopsError

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


def base_set_membership(v, b) -> bool:
    """b lies on the bisection v: its source in the domain disk, its range
    the holonomy image of the source."""
    if b.side != v.side:
        return False
    if not gd.in_domain(v, b.second):
        return False
    return gd._holonomy_splice(v, b.second) == b.first


class OutsideDomain(SftopsError):
    """A point outside a base set's domain disk."""


def holonomy_apply(v, z):
    """The holonomy image of z, after testing that z lies in v's domain disk."""
    if not gd.in_domain(v, z):
        raise OutsideDomain("point outside the base-set domain disk")
    return gd._holonomy_splice(v, z)


def _locally_close(x, y, side: str) -> bool:
    """Closed-disk branch condition of the two-branch metric: one-sided
    agreement through coordinate 0, compared as one window."""
    if side == sft.STABLE:
        return agree_upto(y, x, 0)
    return agree_from(y, x, 0)


def units_metric_exponent(x, y):
    """The two-step reading of gd.units_metric_exponent: the close-branch
    test, then the agreement radius scanned outward from 0."""
    if x == y:
        return None
    if not _locally_close(x, y, sft.STABLE):
        return 0
    return sft.agreement_radius(x, y)


def groupoid_metric_exponent(a, b):
    """The two-step reading of gd.groupoid_metric_exponent."""
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
        if gd.in_domain(term.support, x):
            y = gd._holonomy_splice(term.support, x)
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


def period_two_scenario():
    """A scenario on the period-2 irreducible matrix, P = (0, 1), Q = (0, 2).

    Its anchors are the first pairs of enumerate_homoclinic(..., 5) that
    agree from 0 on (stable) or up to 0 (unstable), each base set at the
    anchor's c_first_time.
    """
    m, p, q = PERIOD2, sft.PeriodicOrbit((0, 1)), sft.PeriodicOrbit((0, 2))
    pts = sft.enumerate_homoclinic(m, p, q, 5)

    def first(agree, side):
        x, y = next((x, y) for x in pts for y in pts if x != y and agree(x, y, 0))
        anchor = gd.GroupoidElement(x, y, side)
        return anchor, gd.c_first_time(anchor)

    (ca, ta), (cb, tb) = first(agree_from, gd.STABLE), first(agree_upto, gd.UNSTABLE)

    def terms(anchor, time, side, coeff=lambda k: 2.0**-k):
        return fn.LocallyConstantFunction(
            side, tuple((gd.BaseSet(anchor, time + k, time), coeff(k)) for k in range(4))
        )

    functions = {
        "a": fn.profile(gd.BaseSet(ca, ta + 1, ta), depth=12, seed="p2-a"),
        "b": fn.profile(gd.BaseSet(cb, tb + 1, tb), depth=12, seed="p2-b"),
        "a_terms": terms(ca, ta, gd.STABLE),
        "b_terms": terms(cb, tb, gd.UNSTABLE),
        # every term maps a point to itself, so the images merge; in tenths,
        # the merged weight times a value rounds unlike the sum of products
        "e_unit": terms(gd.unit(ca.first), 0, gd.STABLE, lambda k: (k + 1) / 10),
    }
    s = sn.Scenario(
        name="period-2", matrix=m, kappa=2.0, orbit_p=p, orbit_q=q, core_bound=5,
        window=(-4, 10), basis_cap=60000, functions=functions, p_grid=[0.5, 1.0], seed=1,
    )
    s.validate()
    return s


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
