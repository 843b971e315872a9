"""Reference definitions and fixtures that several test modules share.

The program computes these objects through closed forms; the tests compare
it against the definitions here.
"""

from sftops import functions as fn
from sftops import groupoid as gd
from sftops import scenarios as sn
from sftops import sft

PERIOD2 = sft.TransitionMatrix.from_rows([[0, 1, 1], [1, 0, 0], [1, 0, 0]])


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

    (ca, ta), (cb, tb) = first(sft.agree_from, gd.STABLE), first(sft.agree_upto, gd.UNSTABLE)

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
