"""Stable and unstable groupoids over transversals, with their ultrametrics.

An element is an ordered pair of points; on the stable side the pair is
forward-asymptotic (tails literally equal beyond some time) with both
points on the unstable transversal of Q, and mirrored on the unstable
side.  The two-branch ultrametric is computed on integer exponents, by
ElementFamily over arrays of elements: a distance kappa**-e is represented
by e, with NO_DISTANCE standing for zero.  A base set (bisection) is data
here; its holonomy acts through the word kernel in sftops.functions.

The unstable side uses the mirrored closed forms directly (thresholds and
first times flip sign); :func:`reverse_element` provides the time-reversal
conjugation that the tests use to cross-check every mirrored formula.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
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
    reverse_point,
    shift,
)
from .slotted import Frozen


class GroupoidElement(Frozen):
    """An ordered pair (first, second) = (range, source) on one side.

    The hash is computed once, at construction, and kept outside the
    fields: the metric and the per-element caches hash and compare the
    same elements many times.  Equality is field equality.  An element
    pickles through its constructor, which computes the hash anew.
    """

    _fields = ("first", "second", "side")
    __slots__ = (*_fields, "_hash")

    def __init__(self, first: EventuallyPeriodicPoint, second: EventuallyPeriodicPoint, side: str = STABLE):
        if side not in (STABLE, UNSTABLE):
            raise ValueError(f"unknown side {side!r}")
        _set_first(self, first)
        _set_second(self, second)
        _set_side(self, side)
        _set_hash(self, hash((first, second, side)))

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


_set_first, _set_second, _set_side, _set_hash = (
    GroupoidElement.__dict__[name].__set__ for name in GroupoidElement.__slots__
)


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


class BaseSet(Frozen):
    """V^s(anchor, kappa**-(radius_exp+1), time) and the unstable mirror.

    The domain disk pins one-sided agreement up to threshold
    radius_exp + 1 with the anchor's source point.  Times and exponents
    can be negative: shift images of base sets stay in this form with all
    parameters translated.
    """

    __slots__ = _fields = ("anchor", "radius_exp", "time")

    def __init__(self, anchor: GroupoidElement, radius_exp: int, time: int):
        if time < min_splice_time(anchor):
            raise ValueError("time below the first coherent splice time")
        if radius_exp < time:
            raise ValueError("radius exponent below the holonomy time")
        super().__init__(anchor, radius_exp, time)

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


# ---------------------------------------------------------------------------
# the two-branch groupoid ultrametric


# the exponent arrays' stand-in for None (distance zero)
NO_DISTANCE = 2**62

# entries of one block of the close table's row comparisons (64 KB of bools)
_TABLE_BLOCK = 2**16


class ElementFamily:
    """Elements of one side, read through one sft.FamilyWindow of their
    points: per element the window indices of its range and source points
    and its c_first_time, so that metric_exponents evaluates the groupoid
    metric on arrays of element indices.  The window is marked at each
    element's `cut`, where V_{first_time}(element) splices.  The close
    branch of every pair of window points is computed once, on the first
    metric question, as the P x P table `close_table`."""

    def __init__(self, elements):
        sides = {a.side for a in elements}
        if len(sides) > 1:
            raise SideMismatch("metric needs elements on one side")
        self.side = sides.pop() if sides else STABLE
        self.first_time = np.array([c_first_time(a) for a in elements], dtype=np.int64)
        self.cut = self.first_time + 1 if self.side == STABLE else -self.first_time
        self.window = FamilyWindow([x for a in elements for x in (a.first, a.second)], self.cut.tolist())
        index = self.window.index
        self.first = np.array([index[a.first] for a in elements], dtype=np.intp)
        self.second = np.array([index[a.second] for a in elements], dtype=np.intp)

    def __len__(self) -> int:
        return len(self.first)

    def disk_depths(self, i, j) -> np.ndarray:
        """disk_depth of the points at window indices i and j, as floats."""
        return self.window.depth(i, j) if self.side == STABLE else -self.window.floor(i, j)

    @cached_property
    def close_table(self) -> np.ndarray:
        """close_exponents of every pair of window points, by window index.

        Built in blocks of rows, each compared with every row of the window
        through at most _TABLE_BLOCK row entries at once.

        The close branch is the closed disk: distance at most kappa**-1
        together with the bracket fixed point, i.e. one-sided agreement through
        coordinate 0 (on i <= 0 for the stable side, i >= 0 for the unstable).
        Such a pair first differs just past its disk_depth, so the exponent is
        disk_depth + 1.  On the stable side this is the pull-back metric of
        the units space.

        The closed reading (not the open local sets) is what makes the shift
        sandwich kappa**-1 D <= D o Phi**-1 <= D hold globally: with open
        disks, a pair at distance exactly kappa**-1 enters the close branch
        only after shifting and undershoots the lower bound.
        """
        p, width = self.window.rows.shape
        table = np.empty((p, p), dtype=np.int64)
        step = max(1, _TABLE_BLOCK // max(1, p * width))
        every = np.arange(p)[None, :]
        for r in range(0, p, step):
            reach = self.disk_depths(np.arange(r, min(r + step, p))[:, None], every)
            table[r : r + step] = np.where(reach == math.inf, NO_DISTANCE, np.maximum(reach + 1, 0))
        return table

    def close_exponents(self, i, j) -> np.ndarray:
        """Metric exponent of the points at window indices i and j on the
        close branch (see close_table), or 0 off it; NO_DISTANCE where the
        points are equal."""
        return self.close_table[i, j]

    def metric_exponents(self, i, j) -> np.ndarray:
        """Exponents e with D(a, b) = kappa**-e of the elements at index
        arrays i and j; NO_DISTANCE encodes D = 0.

        Branches: 1 on a first-time mismatch, 1 when either coordinate pair
        leaves the kappa**-1 local disks, else the max of the two point
        distances (min of the exponents).
        """
        close = self.close_table
        exps = np.minimum(close[self.second[i], self.second[j]], close[self.first[i], self.first[j]])
        exps[self.first_time[i] != self.first_time[j]] = 0
        return exps
