"""Stable and unstable groupoids over transversals, with their ultrametrics.

An element is an ordered pair of points; on the stable side the pair is
forward-asymptotic (tails literally equal beyond some time) with both
points on the unstable transversal of Q, and mirrored on the unstable
side.  The two-branch ultrametric is computed on integer exponents: a
distance kappa**-e is represented by e, with None standing for zero.

The unstable side uses the mirrored closed forms directly (thresholds and
first times flip sign); :func:`reverse_element` provides the time-reversal
conjugation that the tests use to cross-check every mirrored formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import NotComposable, SideMismatch
from .sft import (
    STABLE,
    UNSTABLE,
    EventuallyPeriodicPoint,
    FamilyWindow,
    agreement_floor,
    agreement_depth,
    in_stable_set,
    in_unstable_set,
    reverse_point,
    shift,
    splice_at,
)


@dataclass(frozen=True, eq=False)
class GroupoidElement:
    """An ordered pair (first, second) = (range, source) on one side.

    The hash is computed once, at construction, and kept outside the
    fields: the metric and the per-element caches hash and compare the
    same elements many times.  Equality is field equality.  The stored hash
    is this process's, so an element is not to be unpickled in another.
    """

    first: EventuallyPeriodicPoint
    second: EventuallyPeriodicPoint
    side: str = STABLE

    def __post_init__(self):
        if self.side not in (STABLE, UNSTABLE):
            raise ValueError(f"unknown side {self.side!r}")
        object.__setattr__(self, "_hash", hash((self.first, self.second, self.side)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self._hash != other._hash:
            return False
        return self.side == other.side and self.first == other.first and self.second == other.second

    def sort_key(self):
        return (self.first.sort_key(), self.second.sort_key())


def unit(x: EventuallyPeriodicPoint, side: str = STABLE) -> GroupoidElement:
    return GroupoidElement(x, x, side)


def reverse_element(a: GroupoidElement) -> GroupoidElement:
    """Time-reversal conjugation; swaps the stable and unstable sides."""
    other = UNSTABLE if a.side == STABLE else STABLE
    return GroupoidElement(reverse_point(a.first), reverse_point(a.second), other)


def inverse(a: GroupoidElement) -> GroupoidElement:
    return GroupoidElement(a.second, a.first, a.side)


def compose(a: GroupoidElement, b: GroupoidElement) -> GroupoidElement:
    if a.side != b.side:
        raise SideMismatch("cannot compose elements of different sides")
    if a.second != b.first:
        raise NotComposable("source(a) != range(b)")
    return GroupoidElement(a.first, b.second, a.side)


def phi_auto(a: GroupoidElement, k: int) -> GroupoidElement:
    """The automorphism induced by the shift, applied coordinatewise."""
    return GroupoidElement(shift(a.first, k), shift(a.second, k), a.side)


# Entry bound of the two per-element caches below; a spectrum or audit run
# on the reference scenarios peaks at a few hundred distinct elements.
CACHE_MAXSIZE = 4096


def disk_depth(side: str, x, y):
    """Agreement depth d of x and y on the side's disk: they agree on i <= d
    (stable side) or on i >= -d (unstable side); inf when x == y."""
    return agreement_depth(x, y) if side == STABLE else -agreement_floor(x, y)


@lru_cache(maxsize=CACHE_MAXSIZE)
def min_splice_time(a: GroupoidElement) -> float:
    """Smallest integer N (of any sign) at which the holonomy splice around
    the pair is coherent: the other side's disk_depth is 1 - N, agreement on
    i >= N - 1 (stable side) or i <= 1 - N (unstable side).  -inf for a unit pair."""
    if a.first == a.second:
        return -math.inf
    depth = disk_depth(UNSTABLE if a.side == STABLE else STABLE, a.first, a.second)
    if depth == -math.inf:
        raise ValueError(f"pair is not {'stably' if a.side == STABLE else 'unstably'} equivalent")
    return 1 - int(depth)


@lru_cache(maxsize=CACHE_MAXSIZE)
def c_first_time(a: GroupoidElement) -> int:
    """First time N >= 0 after which the pair is locally stably (resp.
    unstably) close at scale kappa**-1.

    Stable closed form: the pair agrees on i >= N - 1, so N is two above
    the last disagreement index.  Mirrored on the unstable side.  The tests
    check it against the definition: the first N at which the shifted pair
    lies in one local stable (unstable) set.
    """
    return max(int(max(min_splice_time(a), -(10**9))), 0)


# ---------------------------------------------------------------------------
# base sets (bisections) and holonomy


@dataclass(frozen=True)
class BaseSet:
    """V^s(anchor, kappa**-(radius_exp+1), time) and the unstable mirror.

    The domain disk pins one-sided agreement up to threshold
    radius_exp + 1 with the anchor's source point.  Times and exponents
    can be negative: shift images of base sets stay in this form with all
    parameters translated.
    """

    anchor: GroupoidElement
    radius_exp: int
    time: int

    def __post_init__(self):
        if self.time < min_splice_time(self.anchor):
            raise ValueError("time below the first coherent splice time")
        if self.radius_exp < self.time:
            raise ValueError("radius exponent below the holonomy time")

    @property
    def side(self) -> str:
        return self.anchor.side

    @property
    def threshold(self) -> int:
        return self.radius_exp + 1


def base_set(anchor: GroupoidElement, radius_exp: int, time: Optional[int] = None) -> BaseSet:
    if time is None:
        time = c_first_time(anchor)
    return BaseSet(anchor, radius_exp, time)


def in_domain(v: BaseSet, z: EventuallyPeriodicPoint) -> bool:
    if v.side == STABLE:
        return in_unstable_set(v.anchor.second, z, v.threshold)
    return in_stable_set(v.anchor.second, z, v.threshold)


def _holonomy_splice(v: BaseSet, z: EventuallyPeriodicPoint) -> EventuallyPeriodicPoint:
    """Follow the holonomy of the bisection from a z in its domain disk:
    splice the anchor's range past (stable) or future (unstable) onto z."""
    if v.side == STABLE:
        return splice_at(v.anchor.first, z, v.time)
    return splice_at(z, v.anchor.first, -v.time - 1)


def elements_of(v: BaseSet, sources) -> list:
    """Graph elements (h(z), z) of the bisection over the given source points."""
    out = []
    for z in sources:
        if in_domain(v, z):
            out.append(GroupoidElement(_holonomy_splice(v, z), z, v.side))
    return out


# ---------------------------------------------------------------------------
# the two-branch groupoid ultrametric


def _close_exponent(x, y, side: str) -> Optional[int]:
    """Metric exponent of the point pair on the close branch, or 0 off it.

    The close branch is the closed disk: distance at most kappa**-1
    together with the bracket fixed point, i.e. one-sided agreement through
    coordinate 0 (on i <= 0 for the stable side, i >= 0 for the unstable).
    Such a pair first differs just past its disk_depth, so the exponent is
    disk_depth + 1; None when x == y.

    The closed reading (not the open local sets) is what makes the shift
    sandwich kappa**-1 D <= D o Phi**-1 <= D hold globally: with open
    disks, a pair at distance exactly kappa**-1 enters the close branch
    only after shifting and undershoots the lower bound.
    """
    reach = disk_depth(side, x, y)
    if reach == math.inf:
        return None
    return int(reach) + 1 if reach >= 0 else 0


# the exponent arrays' stand-in for None (distance zero)
NO_DISTANCE = 2**62


class ElementFamily:
    """Elements of one side, read through one sft.FamilyWindow of their
    points: per element the window indices of its range and source points
    and its c_first_time, so that metric_exponents evaluates
    groupoid_metric_exponent on arrays of element indices."""

    def __init__(self, elements):
        sides = {a.side for a in elements}
        if len(sides) > 1:
            raise SideMismatch("metric needs elements on one side")
        self.side = sides.pop() if sides else STABLE
        self.window = FamilyWindow([x for a in elements for x in (a.first, a.second)])
        index = self.window.index
        self.first = np.array([index[a.first] for a in elements], dtype=np.intp)
        self.second = np.array([index[a.second] for a in elements], dtype=np.intp)
        self.first_time = np.array([c_first_time(a) for a in elements], dtype=np.int64)

    def _close(self, i, j) -> np.ndarray:
        """_close_exponent of the points at window indices i and j."""
        reach = self.window.depth(i, j) if self.side == STABLE else -self.window.floor(i, j)
        return np.where(reach == math.inf, NO_DISTANCE, np.maximum(reach + 1, 0)).astype(np.int64)

    def metric_exponents(self, i, j) -> np.ndarray:
        """groupoid_metric_exponent of the elements at index arrays i and j,
        NO_DISTANCE where it is None."""
        exps = np.minimum(
            self._close(self.second[i], self.second[j]), self._close(self.first[i], self.first[j])
        )
        exps[self.first_time[i] != self.first_time[j]] = 0
        return exps


def units_metric_exponent(x, y) -> Optional[int]:
    """Pull-back metric on the stable units space: d(x, y) when locally
    close, else 1."""
    return _close_exponent(x, y, STABLE)


def groupoid_metric_exponent(a: GroupoidElement, b: GroupoidElement) -> Optional[int]:
    """Exponent e with D(a, b) = kappa**-e; None encodes D = 0.

    Branches: 1 on a first-time mismatch, 1 when either coordinate pair
    leaves the kappa**-1 local disks, else the max of the two point
    distances (min of the exponents).
    """
    if a.side != b.side:
        raise SideMismatch("metric needs elements on one side")
    if a == b:
        return None
    if c_first_time(a) != c_first_time(b):
        return 0
    exps = (_close_exponent(a.second, b.second, a.side), _close_exponent(a.first, b.first, a.side))
    return min(e for e in exps if e is not None)
