"""Exact symbolic dynamics for irreducible topological Markov chains.

Points of the shift space are bi-infinite allowed sequences with eventually
periodic tails, stored in a canonical finite encoding.  Every operation
(shift, splice, metric, enumeration) is exact arithmetic on byte strings
and integers; the metric kappa**-n is manipulated through its integer
exponent and converted to a float only for reporting.

Coordinate convention: a point ``x`` assigns a symbol ``x.at(i)`` to every
integer ``i``.  ``shift(x, k).at(i) == x.at(i + k)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    BracketUndefined,
    NotIrreducible,
    OrbitsNotDisjoint,
    ZeroRowOrColumn,
)

Word = bytes  # one symbol per byte; bytes compare like tuples of ints

STABLE = "stable"
UNSTABLE = "unstable"


# ---------------------------------------------------------------------------
# transition matrices


@dataclass(frozen=True)
class TransitionMatrix:
    """0/1 transition matrix over the alphabet {0, ..., n-1}."""

    entries: tuple

    @classmethod
    def from_rows(cls, rows) -> "TransitionMatrix":
        return cls(tuple(tuple(int(v) for v in row) for row in rows))

    @property
    def n(self) -> int:
        return len(self.entries)

    def allowed(self, i: int, j: int) -> bool:
        return self.entries[i][j] == 1

    def successors(self, i: int):
        return [j for j in range(self.n) if self.entries[i][j] == 1]

    def paths(self, first: int, steps: int):
        """The allowed words of steps + 1 symbols starting at `first`, in
        lexicographic order."""
        words = [bytes((first,))]
        for _ in range(steps):
            words = [w + bytes((s,)) for w in words for s in self.successors(w[-1])]
        return words

    def as_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=float)

    def transpose(self) -> "TransitionMatrix":
        n = self.n
        return TransitionMatrix(
            tuple(tuple(self.entries[j][i] for j in range(n)) for i in range(n))
        )


def validate_matrix(m: TransitionMatrix) -> None:
    """Raise unless m is square 0/1, has no zero row/column and is irreducible."""
    n = m.n
    if n == 0 or n > 256:
        # a word holds one symbol per byte
        raise ZeroRowOrColumn("empty matrix" if n == 0 else f"{n} symbols, more than 256")
    for row in m.entries:
        if len(row) != n:
            raise ZeroRowOrColumn("matrix is not square")
        for v in row:
            if v not in (0, 1):
                raise ZeroRowOrColumn(f"entry {v} is not a bit")
    for i in range(n):
        if not any(m.entries[i]):
            raise ZeroRowOrColumn(f"row {i} is zero")
        if not any(m.entries[j][i] for j in range(n)):
            raise ZeroRowOrColumn(f"column {i} is zero")
    reach = _reachable(m, 0)
    if len(reach) != n:
        missing = sorted(set(range(n)) - reach)
        raise NotIrreducible(f"states {missing} unreachable from state 0")
    reach_back = _reachable(m.transpose(), 0)
    if len(reach_back) != n:
        missing = sorted(set(range(n)) - reach_back)
        raise NotIrreducible(f"states {missing} cannot reach state 0")


def _reachable(m: TransitionMatrix, start: int) -> set:
    seen = {start}
    stack = [start]
    while stack:
        i = stack.pop()
        for j in m.successors(i):
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


def entropy(m: TransitionMatrix) -> float:
    """log of the Perron root, by power iteration on M + I.

    The +I shift makes the iteration converge for irreducible matrices of
    any period; it moves every eigenvalue by exactly one.
    """
    a = m.as_array() + np.eye(m.n)
    v = np.ones(m.n)
    lam = 0.0
    for _ in range(100_000):
        w = a @ v
        new_lam = float(np.max(w))
        v = w / new_lam
        if abs(new_lam - lam) <= 1e-12 * new_lam:
            lam = new_lam
            break
        lam = new_lam
    # Collatz-Wielandt refinement: for the converged positive vector the
    # ratio is the eigenvalue itself.
    w = a @ v
    lam = float(np.dot(w, v) / np.dot(v, v))
    rho = lam - 1.0
    if rho <= 1.0:
        return 0.0 if abs(rho - 1.0) < 1e-12 else math.log(max(rho, 1e-300))
    return math.log(rho)


@dataclass(frozen=True)
class MetricParams:
    """Expanding factor kappa > 1 of the self-similar ultrametric."""

    kappa: float

    def __post_init__(self):
        if not self.kappa > 1.0:
            raise ValueError("kappa must be > 1")

    def value(self, exponent: Optional[int]) -> float:
        """kappa**-exponent, with None meaning distance zero."""
        if exponent is None:
            return 0.0
        return self.kappa ** (-exponent)


def hausdorff_dimension(m: TransitionMatrix, p: MetricParams) -> float:
    return 2.0 * entropy(m) / math.log(p.kappa)


# ---------------------------------------------------------------------------
# eventually periodic points


def primitive_root(w: Word) -> Word:
    """Shortest word u with w = u**k."""
    n = len(w)
    for d in range(1, n + 1):
        if n % d == 0 and w[:d] * (n // d) == w:
            return w[:d]
    return w


def _tile(cycle: Word, offset: int, n: int) -> Word:
    """The n symbols of the periodic word cycle**inf read from index offset."""
    m = len(cycle)
    k = offset % m
    return (cycle * ((k + n) // m + 1))[k : k + n]


@dataclass(frozen=True)
class EventuallyPeriodicPoint:
    """Canonical encoding of an allowed bi-infinite eventually periodic sequence.

    For i < core_start the symbol is left_cycle[(i - core_start) % len],
    inside the core it is core[i - core_start], and for i >= core_end it is
    right_cycle[(i - core_end) % len].  Construction goes through
    :func:`build_point`, which produces the unique canonical form, so
    dataclass equality and hashing decide point equality.  An instance made
    without it from a raw encoding is only to be read.
    """

    left_cycle: Word
    core: Word
    right_cycle: Word
    core_start: int

    @property
    def core_end(self) -> int:
        return self.core_start + len(self.core)

    @property
    def is_periodic(self) -> bool:
        return not self.core and self.left_cycle == self.right_cycle and self.core_start == 0

    def at(self, i: int):
        j = i - self.core_start
        if j < 0:
            return self.left_cycle[j % len(self.left_cycle)]
        n = len(self.core)
        if j < n:
            return self.core[j]
        return self.right_cycle[(j - n) % len(self.right_cycle)]

    def window(self, lo: int, hi: int) -> Word:
        """The symbols on [lo, hi) as one word (empty when hi <= lo)."""
        if hi <= lo:
            return b""
        s = self.core_start
        e = s + len(self.core)
        if e <= lo:
            return _tile(self.right_cycle, lo - e, hi - lo)
        if hi <= s:
            return _tile(self.left_cycle, lo - s, hi - lo)
        out = self.core[max(lo, s) - s : hi - s]
        if lo < s:
            out = _tile(self.left_cycle, lo - s, s - lo) + out
        if e < hi:
            out += _tile(self.right_cycle, 0, hi - e)
        return out

    def __hash__(self):
        # 2 * core_start + 1, not core_start: CPython's hash(-1) == hash(-2)
        return hash((self.left_cycle, self.core, self.right_cycle, 2 * self.core_start + 1))

    def sort_key(self):
        return (self.left_cycle, self.core_start, self.core, self.right_cycle)

    def __repr__(self):
        return f"Point({encode_point(self)!r})"


def build_point(left: Word, core: Word, right: Word, start: int) -> EventuallyPeriodicPoint:
    """Canonicalize a raw encoding (words or iterables of ints): primitive
    cycles, minimal core, pinned phases.  The new cycles are rotations of
    the primitive roots, so primitive too."""
    left = primitive_root(bytes(left))
    right = primitive_root(bytes(right))
    core = bytes(core)
    ml, mr = len(left), len(right)
    if ml == 0 or mr == 0:
        raise ValueError("cycles must be nonempty")
    end = start + len(core)
    # the raw sequence from lo on, read once; the floor is at index ml (the
    # new left cycle can start ml below it)
    lo = start - math.lcm(ml, mr) - mr - ml
    win = _tile(left, lo - start, start - lo) + core + right

    # Extend the right tail's periodicity down from the core's end; hitting
    # the floor means the left-cyclic zone is itself mr-periodic over a full
    # lcm window, i.e. the sequence is globally periodic.
    e = end - lo
    while e > ml and win[e - 1] == win[e - 1 + mr]:
        e -= 1
    if e <= ml:
        w = _tile(right, -end, mr)
        return EventuallyPeriodicPoint(w, b"", w, 0)
    # then the left tail's periodicity up, at most to e
    s = min(start - lo, e)
    while s < e and win[s] == win[s - ml]:
        s += 1
    return EventuallyPeriodicPoint(win[s - ml : s], win[s:e], win[e : e + mr], s + lo)


def periodic_point(cycle: Word) -> EventuallyPeriodicPoint:
    """The point x with x.at(i) = cycle[i % len(cycle)]."""
    return build_point(cycle, b"", cycle, 0)


def _check_symbols(w: Word, m: TransitionMatrix) -> None:
    if w and max(w) >= m.n:
        raise ValueError(f"symbol {max(w)} outside the alphabet 0..{m.n - 1}")


def validate_point(x: EventuallyPeriodicPoint, m: TransitionMatrix) -> None:
    """Check every symbol against the alphabet and every adjacent pair
    against the transition matrix."""
    _check_symbols(x.left_cycle + x.core + x.right_cycle, m)
    lo = x.core_start - len(x.left_cycle) - 1
    w = x.window(lo, x.core_end + len(x.right_cycle) + 2)
    for i, (a, b) in enumerate(zip(w, w[1:]), lo):
        if not m.allowed(a, b):
            raise ValueError(f"forbidden transition {a}->{b} at index {i}")


def shift(x: EventuallyPeriodicPoint, k: int) -> EventuallyPeriodicPoint:
    """The shifted point y with y.at(i) = x.at(i + k)."""
    if k == 0:
        return x
    if x.is_periodic:
        w = _tile(x.left_cycle, k, len(x.left_cycle))
        return EventuallyPeriodicPoint(w, b"", w, 0)
    return EventuallyPeriodicPoint(
        x.left_cycle, x.core, x.right_cycle, x.core_start - k
    )


def reverse_point(x: EventuallyPeriodicPoint) -> EventuallyPeriodicPoint:
    """Time reversal: the point y with y.at(i) = x.at(-i)."""
    return build_point(x.right_cycle[::-1], x.core[::-1], x.left_cycle[::-1], 1 - x.core_end)


# ---------------------------------------------------------------------------
# agreement windows and the ultrametric


def _deciding_window(x, y):
    """(lo, a, b, l, r): x and y over [lo, hi), for l, r the lcms of their
    left and right cycle lengths, lo = min(core starts, 0) - l and
    hi = max(core ends, 0) + r.  Both points are cyclic outside their cores,
    so the pair of symbols repeats with period l below lo + l and with
    period r from hi - r on: the first l (last r) symbols decide agreement
    on the whole left (right) tail, and a == b exactly when x == y."""
    l = math.lcm(len(x.left_cycle), len(y.left_cycle))
    r = math.lcm(len(x.right_cycle), len(y.right_cycle))
    lo = min(x.core_start, y.core_start, 0) - l
    hi = max(x.core_end, y.core_end, 0) + r
    return lo, x.window(lo, hi), y.window(lo, hi), l, r


def agreement_depth(x, y):
    """Largest T with agreement on all i <= T (math.inf when x == y,
    -math.inf when the left tails disagree arbitrarily far down)."""
    lo, a, b, l, _ = _deciding_window(x, y)
    if a == b:
        return math.inf
    if a[:l] != b[:l]:
        return -math.inf
    k = l
    while a[k] == b[k]:
        k += 1
    return lo + k - 1


def agreement_floor(x, y):
    """Smallest F with agreement on all i >= F (-math.inf when x == y,
    math.inf when the right tails disagree arbitrarily far up)."""
    lo, a, b, _, r = _deciding_window(x, y)
    if a == b:
        return -math.inf
    k = len(a) - r
    if a[k:] != b[k:]:
        return math.inf
    while a[k - 1] == b[k - 1]:
        k -= 1
    return lo + k


class FamilyWindow:
    """The distinct points of a family, each read once over one shared
    window [lo, hi): lo = min(core starts, 0) - L and hi = max(core ends, 0)
    + R, for L and R the lcms of all the members' left and right cycle
    lengths.  The window holds a full L period of every pair's left tails
    and an R period of their right tails, as _deciding_window does for one
    pair, so a row decides its point and two rows decide agreement_depth
    and agreement_floor; `words[k]` is the row of `points[k]` as bytes."""

    def __init__(self, points):
        self.points = list(dict.fromkeys(points))
        self.index = {x: k for k, x in enumerate(self.points)}
        self.left = math.lcm(*(len(x.left_cycle) for x in self.points))
        self.right = math.lcm(*(len(x.right_cycle) for x in self.points))
        self.lo = min([x.core_start for x in self.points] + [0]) - self.left
        hi = max([x.core_end for x in self.points] + [0]) + self.right
        self.words = [x.window(self.lo, hi) for x in self.points]
        self.rows = np.frombuffer(b"".join(self.words), np.uint8).reshape(-1, hi - self.lo)

    def depth(self, i, j) -> np.ndarray:
        """agreement_depth of the points at index arrays i and j, as floats:
        from the first differing column."""
        differ = self.rows[i] != self.rows[j]
        k = differ.argmax(axis=-1)
        out = np.where(k < self.left, -math.inf, self.lo + k - 1.0)
        return np.where(differ.any(axis=-1), out, math.inf)

    def floor(self, i, j) -> np.ndarray:
        """agreement_floor of the points at index arrays i and j, as floats:
        from the last differing column."""
        differ = self.rows[i] != self.rows[j]
        k = differ.shape[-1] - differ[..., ::-1].argmax(axis=-1)
        out = np.where(k > differ.shape[-1] - self.right, math.inf, self.lo + k + 0.0)
        return np.where(differ.any(axis=-1), out, -math.inf)


def agreement_radius(x, y) -> Optional[int]:
    """Largest n >= 0 with x.at(i) == y.at(i) for |i| < n (None when x == y),
    scanned out from index -lo; a tail mismatch repeats in the window, nearer 0."""
    lo, a, b, _, _ = _deciding_window(x, y)
    if a == b:
        return None
    c, n = -lo, 0
    while (c + n >= len(a) or a[c + n] == b[c + n]) and (n > c or a[c - n] == b[c - n]):
        n += 1
    return n


def metric(x, y, p: MetricParams) -> float:
    return p.value(agreement_radius(x, y))


def splice_at(past, future, m: int, word: Word = b"") -> EventuallyPeriodicPoint:
    """The point equal to `past` on i <= m, to `word` on (m, m + len(word)]
    and to `future` beyond.  Caller guarantees the junctions are allowed."""
    end = m + len(word)
    lo = min(past.core_start, m)
    hi = max(future.core_end, end + 1)
    left = _tile(past.left_cycle, lo - past.core_start, len(past.left_cycle))
    right = _tile(future.right_cycle, hi - future.core_end, len(future.right_cycle))
    core = past.window(lo, m + 1) + bytes(word) + future.window(end + 1, hi)
    return build_point(left, core, right, lo)


def bracket(x, y) -> EventuallyPeriodicPoint:
    """[x, y]: past of y, future of x.  Defined when d(x, y) <= kappa**-1."""
    r = agreement_radius(x, y)
    if r is not None and r < 1:
        raise BracketUndefined("bracket needs agreement at coordinate 0")
    return splice_at(y, x, 0)


def in_stable_set(x, y, eps_exp: int) -> bool:
    """Closed form: y in X^s(x, kappa**-eps_exp) iff agreement on i >= -eps_exp."""
    return agreement_floor(y, x) <= -eps_exp


def in_unstable_set(x, y, eps_exp: int) -> bool:
    """Closed form: y in X^u(x, kappa**-eps_exp) iff agreement on i <= eps_exp."""
    return agreement_depth(y, x) >= eps_exp


# ---------------------------------------------------------------------------
# periodic orbits and homoclinic enumeration


@dataclass(frozen=True)
class PeriodicOrbit:
    """A periodic orbit, stored as one primitive allowed cycle word."""

    cycle: Word

    def __post_init__(self):
        object.__setattr__(self, "cycle", bytes(self.cycle))

    @classmethod
    def from_word(cls, w, m: TransitionMatrix = None) -> "PeriodicOrbit":
        w = bytes(int(s) for s in w)
        if not w:
            raise ValueError("empty cycle")
        if primitive_root(w) != w:
            raise ValueError(f"cycle {list(w)} is a proper power")
        if m is not None:
            _check_symbols(w, m)
            for i in range(len(w)):
                if not m.allowed(w[i], w[(i + 1) % len(w)]):
                    raise ValueError(f"cycle {list(w)} not allowed at step {i}")
        return cls(w)

    def points(self):
        return [periodic_point(w) for w in self.pattern_rotations()]

    def pattern_rotations(self):
        m = len(self.cycle)
        return [self.cycle[r:] + self.cycle[:r] for r in range(m)]


def orbits_disjoint(p: PeriodicOrbit, q: PeriodicOrbit) -> bool:
    # orbits of primitive cycles coincide iff the cycles are rotations
    return q.cycle not in p.pattern_rotations()


def is_left_asymptotic(x: EventuallyPeriodicPoint, q: PeriodicOrbit) -> bool:
    """Left tail of x is eventually a rotation of q's cycle (x in X^u(Q))."""
    return primitive_root(x.left_cycle) in q.pattern_rotations()


def is_right_asymptotic(x: EventuallyPeriodicPoint, p: PeriodicOrbit) -> bool:
    """Right tail of x is eventually a rotation of p's cycle (x in X^s(P))."""
    return primitive_root(x.right_cycle) in p.pattern_rotations()


def is_homoclinic(x, p: PeriodicOrbit, q: PeriodicOrbit) -> bool:
    return is_left_asymptotic(x, q) and is_right_asymptotic(x, p)


def enumerate_homoclinic(
    m: TransitionMatrix, p: PeriodicOrbit, q: PeriodicOrbit, core_bound: int
):
    """All canonical points of X^h(P, Q) with small core near the origin.

    Generates Q-cycle pasts and P-cycle futures around every core word of
    length <= core_bound whose window [s, e) sits inside [-core_bound,
    core_bound + 1], then canonicalizes and deduplicates.  The window bound
    pins the junction offsets; without it the family of shifted copies of
    any homoclinic point would make the result infinite.
    """
    if not orbits_disjoint(p, q):
        raise OrbitsNotDisjoint(f"orbits {list(p.cycle)} and {list(q.cycle)} share a point")
    if core_bound < 0:
        raise ValueError("core bound must be >= 0")
    seen = {}
    for length in range(0, core_bound + 1):
        # walks from the past's last symbol; the rest of a walk is a core word
        walks = {a: m.paths(a, length) for a in range(m.n)}
        for s in range(-core_bound, core_bound + 2 - length):
            e = s + length
            for q_rot in q.pattern_rotations():
                left = _tile(q_rot, s, len(q_rot))
                for p_rot in p.pattern_rotations():
                    right = _tile(p_rot, e, len(p_rot))
                    for w in walks[left[-1]]:
                        if not m.allowed(w[-1], right[0]):
                            continue
                        x = build_point(left, w[1:], right, s)
                        if len(x.core) > core_bound:
                            continue
                        if not (-core_bound <= x.core_start and x.core_end <= core_bound + 1):
                            continue
                        seen[x] = True
    return sorted(seen, key=EventuallyPeriodicPoint.sort_key)


# ---------------------------------------------------------------------------
# textual encoding: "<left>*|<core>@<start>|<right>*"


def _word_str(w: Word) -> str:
    if any(s > 9 for s in w):
        return ",".join(str(s) for s in w)
    return "".join(str(s) for s in w)


def _word_parse(text: str) -> Word:
    # a symbol outside 0..255 raises ValueError here
    return bytes(map(int, text.split(",") if "," in text else text))


def encode_point(x: EventuallyPeriodicPoint) -> str:
    return (
        f"{_word_str(x.left_cycle)}*|{_word_str(x.core)}@{x.core_start}|"
        f"{_word_str(x.right_cycle)}*"
    )


def decode_point(text: str) -> EventuallyPeriodicPoint:
    left_part, mid, right_part = text.split("|")
    if not (left_part.endswith("*") and right_part.endswith("*")):
        raise ValueError(f"bad point encoding {text!r}")
    core_txt, start_txt = mid.rsplit("@", 1)
    return build_point(
        _word_parse(left_part[:-1]),
        _word_parse(core_txt),
        _word_parse(right_part[:-1]),
        int(start_txt),
    )
