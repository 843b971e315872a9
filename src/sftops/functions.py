"""Locally constant function algebras and the fundamental representation.

A function is a finite list of terms, each a complex multiple of a
base-set indicator or a compressed profile of such indicators; the value
at an element is the sum of the values of the terms whose base sets
contain it, so every evaluation is exact.  The representation acts on
the span of an enumerated homoclinic basis; commutator blocks
R_n = alpha^n(a) b - b alpha^n(a) are assembled exactly by enumerating the
finitely many basis points their columns can touch, and a block is
"trusted" precisely when that enumeration completed within the basis cap.
"""

from __future__ import annotations

import hashlib
from functools import partial
from itertools import chain, repeat
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .errors import SideMismatch
from .groupoid import (
    BaseSet,
    GroupoidElement,
    inverse,
    phi_auto,
    reverse_element,
)
from .sft import (
    STABLE,
    UNSTABLE,
    EventuallyPeriodicPoint,
    TransitionMatrix,
    Window,
    _first_difference,
    agreement_depth,
    shift,
    splice_at,
)
from .slotted import Frozen, Slotted

# ---------------------------------------------------------------------------
# the function type
#
# A function is a finite list of terms on one side.  A depth-0 term is
# coeff times the indicator of its base set.  A deeper term is a compressed
# "profile": on its bisection graph it takes the value
# coeff * (1 + sum_{m <= depth} 2**-m * bit(word_m(source))), where
# word_m(z) is the cylinder word of the source z over the m coordinates
# beyond the domain threshold (forward on the stable side, backward on the
# unstable side) and bit is a seeded hash bit.  That is exactly a finite
# combination of indicator terms (one per word up to the depth), stored so
# that evaluation is O(depth) instead of O(2**depth); the tests expand a
# profile into those explicit terms and compare the two.
#
# The bit of word_m is the low bit of the first byte of
# SHA-256(f"{seed}:{','.join(word_m)}"), and the hash of word_m extends the
# hash of word_{m-1}.  _word_totals hashes a set of words under one seed in
# sorted order, so each edge of their trie is hashed once.


class Term(NamedTuple):
    support: BaseSet
    coeff: complex
    depth: int = 0
    seed: str = ""

    def marks(self) -> Tuple[int, int, int]:
        """(past, future, end), with future < past: the domain disk pins the
        coordinates below past (stable side) or from future on (unstable),
        the holonomy keeps the point from future on (stable) or below past
        (unstable), and the profile word runs from the pinned edge to end."""
        bs = self.support
        if bs.side == STABLE:
            return bs.threshold + 1, bs.time + 1, bs.threshold + 1 + self.depth
        return -bs.time, -bs.threshold, -bs.threshold - self.depth


class LocallyConstantFunction(Frozen):
    __slots__ = _fields = ("side", "terms")

    def __init__(self, side: str, terms: Tuple[Term, ...]):
        terms = tuple(Term(*t) for t in terms)
        for t in terms:
            if t.support.side != side:
                raise SideMismatch("term base set on the wrong side")
        super().__init__(side, terms)

    def supports(self) -> Tuple[BaseSet, ...]:
        return tuple(t.support for t in self.terms)

    def scaled(self, c: complex) -> "LocallyConstantFunction":
        return self._map(lambda t: t._replace(coeff=c * t.coeff))

    def _map(self, move) -> "LocallyConstantFunction":
        return LocallyConstantFunction(self.side, tuple(move(t) for t in self.terms))

    def alpha(self, k: int) -> "LocallyConstantFunction":
        """The shift automorphism, f -> f o Phi^-k on its side.

        A stable base set moves to anchor Phi^k(anchor) with threshold and
        time shallower by k; both deepen by k on the unstable side.
        """
        sgn = 1 if self.side == STABLE else -1

        def move(t):
            bs = t.support
            anchor = phi_auto(bs.anchor, k)
            return t._replace(support=BaseSet(anchor, bs.radius_exp - sgn * k, bs.time - sgn * k))

        return self._map(move)

    def involution(self) -> "LocallyConstantFunction":
        """f*(gamma) = conj(f(gamma^-1)): invert the base sets, conjugate.

        The holonomy is the identity beyond the splice time, so the range
        and source carry the same cylinder word and a profile transfers.
        """

        def move(t):
            bs = t.support
            inv = BaseSet(inverse(bs.anchor), bs.radius_exp, bs.time)
            return t._replace(support=inv, coeff=t.coeff.conjugate())

        return self._map(move)

    def profile_value(self, z: EventuallyPeriodicPoint) -> complex:
        """Value of the first term, a profile, on the graph element with source z."""
        term = self.terms[0]
        past, future, end = term.marks()
        word = z.window(past, end) if self.side == STABLE else z.window(end, future)[::-1]
        return term.coeff * _word_totals(term.seed, {word: None})[word]

    def evaluate(self, gamma: GroupoidElement) -> complex:
        """Sum of the term values over the base sets containing gamma: the
        entry of apply_to_point at the source, in the row of the range."""
        if gamma.side != self.side:
            raise SideMismatch("element on the wrong side")
        return apply_to_point(self, gamma.second).get(gamma.first, 0j)

    def lipschitz_constant(self, kappa: float) -> float:
        """Certified upper bound: an indicator at radius exponent n separates
        from its complement by at least kappa**-(n+1); a profile adds one
        such step of weight 2**-m per word coordinate m."""
        total = 0
        for bs, coeff, depth, _ in self.terms:
            base = abs(coeff) * kappa ** (bs.radius_exp + 1)
            if depth:
                steps = sum(
                    2.0**-mm * kappa ** (bs.radius_exp + 1 + mm) for mm in range(1, depth + 1)
                )
                base += abs(coeff) * steps
            total += base
        return total


def indicator(bs: BaseSet) -> LocallyConstantFunction:
    return LocallyConstantFunction(bs.side, ((bs, 1.0 + 0.0j),))


def profile(bs: BaseSet, depth: int, seed: str) -> LocallyConstantFunction:
    return LocallyConstantFunction(bs.side, (Term(bs, 1.0 + 0.0j, depth, seed),))


# symbol -> b",<symbol>", the bytes one more symbol adds to a word's hash
_SYMBOL_BYTES = tuple(f",{s}".encode() for s in range(256))


def reverse_base_set(bs: BaseSet) -> BaseSet:
    return BaseSet(reverse_element(bs.anchor), bs.radius_exp, bs.time)


# ---------------------------------------------------------------------------
# base-set composition and the convolution product


def _compose_stable(v: BaseSet, w: BaseSet, m: TransitionMatrix) -> List[BaseSet]:
    """Base sets whose union is the product bisection V.W on the stable side.

    Domain of the product: y with y in dom(W) and h_W(y) in dom(V), which
    pins y to e2 through T_w and to c2 on (N_w, T_v]; the image anchor must
    match c2 up to min(N_w, T_v).  The result is one base set at depth
    max(T_v, T_w) and time max(N_v, N_w).

    That time is coherent: h_v(z) agrees with z from N_v - 1 on (the anchor
    pair agrees there and z matches c2 up to T_v > N_v), likewise h_w, so
    the composed anchor agrees with its source from max(N_v, N_w) - 1 on.
    """
    c2 = v.anchor.second
    e1, e2 = w.anchor.first, w.anchor.second
    tv, tw, nv, nw = v.threshold, w.threshold, v.time, w.time
    # image-anchor consistency on i <= min(N_w, T_v)
    if agreement_depth(e1, c2) < min(nw, tv):
        return []
    # the two source constraints must agree on the overlap (N_w, min(T_w, T_v)]
    if e2.window(nw + 1, min(tw, tv) + 1) != c2.window(nw + 1, min(tw, tv) + 1):
        return []
    if tv > tw:
        if not m.allowed(e2.at(tw), c2.at(tw + 1)):
            return []
        center = splice_at(e2, c2, tw)
        depth = tv
    else:
        center = e2
        depth = tw
    # the anchor's range: the center under V after W, where both act
    ((_, image),) = _columns((indicator(v), indicator(w)), [_composed], [center])
    return [BaseSet(GroupoidElement(y, center, STABLE), depth - 1, max(nv, nw)) for y in image]


def compose_base_sets(v: BaseSet, w: BaseSet, m: TransitionMatrix) -> List[BaseSet]:
    if v.side != w.side:
        raise SideMismatch("cannot compose base sets across sides")
    if v.side == STABLE:
        return _compose_stable(v, w, m)
    rev = _compose_stable(reverse_base_set(v), reverse_base_set(w), m.transpose())
    return [reverse_base_set(bs) for bs in rev]


def convolve(
    f: LocallyConstantFunction, g: LocallyConstantFunction, m: TransitionMatrix
) -> LocallyConstantFunction:
    """Convolution product of indicator combinations, computed termwise
    through bisection composition."""
    if f.side != g.side:
        raise SideMismatch("cannot convolve across sides")
    if any(t.depth for t in f.terms + g.terms):
        raise ValueError("convolve takes depth-0 terms only")
    terms = []
    for bf, cf, _, _ in f.terms:
        for bg, cg, _, _ in g.terms:
            for composed in compose_base_sets(bf, bg, m):
                terms.append((composed, cf * cg))
    return LocallyConstantFunction(f.side, tuple(terms))


# ---------------------------------------------------------------------------
# basis registry and the fundamental representation


class BasisRegistry(Slotted):
    """Ordered registry of canonical homoclinic points with a growth cap."""

    __slots__ = _fields = ("cap", "points", "index", "truncation_events")

    @classmethod
    def seeded(cls, pts, cap: int) -> "BasisRegistry":
        reg = cls(cap, [], {}, 0)
        for x in pts:
            reg.add(x)
        return reg

    def copy(self) -> "BasisRegistry":
        """A registry that grows apart from this one from here on."""
        return BasisRegistry(self.cap, list(self.points), dict(self.index), self.truncation_events)

    def __len__(self) -> int:
        return len(self.points)

    def freeze(self) -> None:
        self.cap = len(self.points)

    def add(self, x) -> Optional[int]:
        """Index of x, growing the registry if allowed; None on truncation."""
        n = len(self.points)
        i = self.index.setdefault(x, n)  # one hash for a new point
        if i < n:
            return i
        if n >= self.cap:
            del self.index[x]
            self.truncation_events += 1
            return None
        self.points.append(x)
        return n


def _accumulate(acc: dict, key, v: complex) -> None:
    """acc[key] += v from 0j, dropping the entry when it cancels."""
    cur = acc.get(key, 0.0 + 0.0j) + v
    if cur == 0:
        acc.pop(key, None)
    else:
        acc[key] = cur


# Largest side of a dense matrix (64 MB at complex128): to_dense refuses a
# larger one, and the fredholm command exits before building one.
DENSE_SIDE_CAP = 2048


class SparseOperator(Slotted):
    """Complex matrix with finitely many entries, keyed by (row, column).

    A key is a registry index, or a (window slot, registry index) pair on
    an inflated operator; registry indices never move, so keys stay valid
    while the registry grows.
    """

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: Dict[tuple, complex] = None):
        self.entries = {} if entries is None else entries

    def add(self, i, j, v: complex) -> None:
        _accumulate(self.entries, (i, j), v)

    def dagger(self) -> "SparseOperator":
        return SparseOperator({(j, i): v.conjugate() for (i, j), v in self.entries.items()})

    def __sub__(self, other: "SparseOperator") -> "SparseOperator":
        out = SparseOperator(dict(self.entries))
        for (i, j), v in other.entries.items():
            out.add(i, j, -v)
        return out

    def matmul(self, other: "SparseOperator") -> "SparseOperator":
        by_row = {}
        for (i, j), v in other.entries.items():
            by_row.setdefault(i, []).append((j, v))
        out = SparseOperator()
        for (i, k), u in self.entries.items():
            for j, v in by_row.get(k, ()):
                out.add(i, j, u * v)
        return out

    def to_dense(self, size: int) -> np.ndarray:
        """The leading size x size corner of an operator keyed by registry
        indices; an index at or past size raises, and so does a pair key,
        which numpy would read as a fancy index (fredholm.densify lays out
        an inflated operator).  A size above DENSE_SIDE_CAP raises
        MemoryError before anything is allocated."""
        if size > DENSE_SIDE_CAP:
            raise MemoryError(f"refusing to densify size {size} above {DENSE_SIDE_CAP}")
        a = np.zeros((size, size), dtype=complex)
        for (i, j), v in self.entries.items():
            a[int(i), int(j)] = v
        return a


def apply_to_point(
    f: LocallyConstantFunction, x: EventuallyPeriodicPoint
) -> Dict[EventuallyPeriodicPoint, complex]:
    """The column of the fundamental representation at delta_x, as points.

    A term supported on a bisection sends delta_x to value * delta_{h(x)}
    when x lies in the domain disk, else to zero; the values of several
    acting terms are summed by image point, in term order.
    """
    ((_, col),) = _columns((f,), [_single], [x])
    return col


def elements_of(v: BaseSet, sources) -> list:
    """Graph elements (h(z), z) of the bisection v over the source points in
    its domain disk, in source order: the kernel's action of indicator(v)."""
    return elements_over([v], [sources])


def elements_over(vs, groups) -> list:
    """elements_of(v, sources) for each base set v of vs and its sources in
    groups, joined in order, from one kernel call: a source of group k is a
    column of indicator(vs[k]) alone."""
    cols, rules, sides = [], [], []
    for k, (v, sources) in enumerate(zip(vs, groups)):
        cols += sources
        rules += [partial(_nth, k)] * len(sources)
        sides += [v.side] * len(sources)
    columns = _columns(tuple(indicator(v) for v in vs), rules, cols)
    return [GroupoidElement(y, z, side) for (z, col), side in zip(columns, sides) for y in col]


def represent(f: LocallyConstantFunction, reg: BasisRegistry) -> SparseOperator:
    """Matrix of the fundamental representation over the current registry.

    Iterates over a snapshot of the registry as columns; image points not
    yet registered are added (or counted as truncation events when the
    registry is frozen or full).
    """
    op, _ = _register(_columns((f,), repeat(_single), list(reg.points)), reg)
    return op


def unitary_u(reg: BasisRegistry) -> SparseOperator:
    """Permutation matrix of u delta_x = delta_{shift(x, 1)} on the registry."""
    snapshot = list(reg.points)
    op = SparseOperator()
    for j, x in enumerate(snapshot):
        i = reg.add(shift(x, 1))
        if i is not None:
            op.add(i, j, 1.0)
    return op


# ---------------------------------------------------------------------------
# commutator blocks


class BlockOperator(Slotted):
    """Z-indexed block diagonal family over a shared basis registry."""

    __slots__ = _fields = ("blocks", "untrusted", "basis")

    def trusted_blocks(self) -> Dict[int, SparseOperator]:
        return {n: b for n, b in self.blocks.items() if n not in self.untrusted}


def _anchor_groups(f: LocallyConstantFunction):
    """Terms grouped by source anchor point: (least past, greatest future) of
    their marks, the weakest pins on both sides."""
    groups = {}
    for term in f.terms:
        key = term.support.anchor.second
        past, future, _ = term.marks()
        least, greatest = groups.get(key, (past, future))
        groups[key] = (min(least, past), max(greatest, future))
    return groups


def _block_window(fs, cols) -> Window:
    """The Window over the columns cols and the term anchors of fs, marked
    at each term's marks."""
    pts, cuts = list(cols), []
    for f in fs:
        for term in f.terms:
            pts += (term.support.anchor.first, term.support.anchor.second)
            cuts += term.marks()
    return Window(pts, cuts)


def _bridge_windows(m: TransitionMatrix, past: bytes, past_hi: int, future: bytes, future_lo: int):
    """Windows matching the window `past` through index past_hi and `future`
    from index future_lo on.  When the pinned regions overlap, the splice is
    unique (or impossible); otherwise every allowed bridging word over the
    free window contributes."""
    if past_hi >= future_lo:
        overlap = slice(future_lo, past_hi + 1)
        if m.allowed(past[future_lo - 1], future[future_lo]) and past[overlap] == future[overlap]:
            return [past[:future_lo] + future[future_lo:]]
        return []
    head, tail = past[: past_hi + 1], future[future_lo:]
    return [
        head + w[1:] + tail
        for w in m.paths(past[past_hi], future_lo - past_hi - 1)
        if m.allowed(w[-1], tail[0])
    ]


def commutator_column_support(
    a_n: LocallyConstantFunction,
    b: LocallyConstantFunction,
    m: TransitionMatrix,
) -> Optional[List[EventuallyPeriodicPoint]]:
    """Candidate basis points where either composition of a_n and b acts.

    a_n is the already-shifted stable function, b the unstable one.  Both
    orders pin a column's past to a stable-term source pattern and its
    future to an unstable-term source pattern, up to anchor-consistency
    conditions; the free window in between is enumerated exactly, as words
    over the block span, and each distinct window is canonicalised once.
    """
    if a_n.side != STABLE or b.side != UNSTABLE:
        raise SideMismatch("need a stable and an unstable factor")
    win = _block_window((a_n, b), ())
    cands: Dict[bytes, None] = {}
    # the two orders often pin the same window; each spec is enumerated once
    for s_pat, u_pat, past_hi, future_lo in dict.fromkeys(_support_windows(a_n, b)):
        past, future = win.read(s_pat), win.read(u_pat)
        cands.update(dict.fromkeys(_bridge_windows(m, past, past_hi - win.lo, future, future_lo - win.lo)))
    return sorted(map(win.point, cands), key=EventuallyPeriodicPoint.sort_key)


def _support_windows(a_n: LocallyConstantFunction, b: LocallyConstantFunction):
    """Free-window specs (stable pattern, unstable pattern, past_hi,
    future_lo) covering the columns of both composition orders, from the
    weakest pins of each stable and unstable source anchor (_anchor_groups).

    Order alpha^n(a).b pins a column to the unstable pattern from the
    unstable future on and, below the unstable past that its holonomy
    keeps, to the stable pattern below the stable past.  Order b.alpha^n(a)
    pins it to the stable pattern below the stable past and, from the
    stable future on that its holonomy keeps, to the unstable pattern from
    the unstable future on.
    """
    out = []
    for s_pat, (s_past, s_future) in _anchor_groups(a_n).items():
        for u_pat, (u_past, u_future) in _anchor_groups(b).items():
            out.append((s_pat, u_pat, min(s_past, u_past) - 1, u_future))
            out.append((s_pat, u_pat, s_past - 1, max(u_future, s_future)))
    return out


def estimate_column_count(
    a_n: LocallyConstantFunction, b: LocallyConstantFunction, m: TransitionMatrix
) -> int:
    """Upper bound on the support enumeration size, via path counting: the
    windows of each spec of either composition order."""
    return sum(_spec_count(m, spec) for spec in _support_windows(a_n, b))


def _spec_count(m: TransitionMatrix, spec: tuple) -> int:
    """The most windows _bridge_windows finds for one free-window spec."""
    s_pat, u_pat, past_hi, future_lo = spec
    gap = future_lo - past_hi
    if gap <= 1:
        return 1
    return _path_count(m, s_pat.at(past_hi), u_pat.at(future_lo), gap)


def _path_count(m: TransitionMatrix, start: int, end: int, length: int) -> int:
    """Number of allowed paths of `length` steps from start to end, exactly."""
    power = np.linalg.matrix_power(np.array(m.entries, dtype=object), length)
    return int(power[start, end])


# The kernel works on words: every point that some functions meet on a set
# of columns (column, anchor, holonomy image, row) is its row of the
# _block_window, the anchors' and each column's read once.  A domain test is
# a slice compare, a holonomy image a slice of the column window joined to
# a slice of an anchor window, a profile word a slice (reversed on the
# unstable side).  A column rule (_nth, _composed, _commutator), one per
# column, says how the functions' actions make the column.  A first pass
# runs it with each action noted, not valued: its profile words are
# collected and the mask of the column's acting terms kept.  _word_totals
# values each seed's words in place, a second pass runs the rule on values,
# and only then does a row become a canonical point.


def _actions(f: LocallyConstantFunction, win: Window, words: Dict[str, dict]) -> list:
    """Each term on the rows of win: (coeff, domain slice, the anchor source
    over it, splice cut, the anchor range before the cut (stable) or from it
    (unstable), stable, profile word slice, its seed's words or None)."""
    out = []
    stable = f.side == STABLE
    for term in f.terms:
        anchor = term.support.anchor
        rng, src = win.read(anchor.first), win.read(anchor.second)
        past, future, end = (mark - win.lo for mark in term.marks())
        if stable:
            domain, cut, keep, word = slice(past), future, slice(future), slice(past, end)
        else:
            domain, cut, keep, word = slice(future, None), past, slice(past, None), slice(future - 1, end - 1, -1)
        seen = words.setdefault(term.seed, {}) if term.depth else None
        out.append((term.coeff, domain, src[domain], cut, rng[keep], stable, word, seen))
    return out


def _act(actions: list, z: bytes) -> int:
    """The bit mask of the actions whose domain holds the window z."""
    mask, bit = 0, 1
    for _, domain, pattern, _, _, _, _, _ in actions:
        if z[domain] == pattern:
            mask |= bit
        bit <<= 1
    return mask


def _nth(k: int, apply, z: bytes) -> dict:
    """Column rule of function k alone: its action on the window z."""
    return apply(k, z)


_single = partial(_nth, 0)  # the column rule of one function


def _composed(apply, z: bytes) -> dict:
    """Column rule of the composition f_0 f_1 (f_1 acting first) on the window z."""
    return _twice(apply, 0, 1, z)


def _commutator(apply, z: bytes) -> dict:
    """Column rule of the commutator f_0 f_1 - f_1 f_0 on the window z."""
    col = _twice(apply, 0, 1, z)
    for row, v in _twice(apply, 1, 0, z).items():
        _accumulate(col, row, -v)
    return col


def _twice(apply, f: int, g: int, z: bytes) -> dict:
    """The action of function f summed over the images of g's action on z."""
    out = {}
    for y, w in apply(g, z).items():
        for row, v in apply(f, y).items():
            _accumulate(out, row, w * v)
    return out


def _word_totals(seed: str, words: dict) -> dict:
    """Sets each words[w] to 1 + sum_{m <= len(w)} 2**-m * bit(w[:m]) and
    returns words.

    The words are hashed in sorted order, a walk of their trie: a word
    resumes from the state of its common prefix with the word before and
    hashes each symbol past it with one update and one digest.  A state is
    kept, on a stack of (depth, hash, sum), only at a depth where a later
    word branches off the path: the running minima of the common prefixes
    of the following neighbours.  So a node costs a copy only per later
    branch off it."""
    order = sorted(words)
    starts = [0] + [_first_difference(u[: len(v)], v[: len(u)]) for u, v in zip(order, order[1:])]
    # Backward over the words, minima is the increasing stack of the running
    # minima of starts[i + 1:]: word i keeps its states at those deeper than
    # where it starts, and copies its start state if that one is among them.
    keeps, agains = [()] * len(order), [False] * len(order)
    minima: List[int] = []
    for i in range(len(order) - 1, -1, -1):
        j = len(minima)
        while j and minima[j - 1] > starts[i]:
            j -= 1
        agains[i] = again = j > 0 and minima[j - 1] == starts[i]
        if j < len(minima):
            keeps[i] = tuple(minima[j:])
        del minima[j - again :]
        minima.append(starts[i])
    stack = [(0, hashlib.sha256(f"{seed}:".encode()), 1.0)]
    for word, k, keep, again in zip(order, starts, keeps, agains):
        _, h, total = stack[-1] if again else stack.pop()
        if again and len(word) > k:
            h = h.copy()
        weight = 2.0**-k  # halves exactly to 2**-(i + 1) at symbol i
        i = k
        if not k and word:  # the first symbol follows the colon, without a comma
            h.update(_SYMBOL_BYTES[word[0]][1:])
            weight, i = 0.5, 1
            total += weight * (h.digest()[0] & 1)  # + 0.0 leaves total as it is
        for stop in (*keep, None):
            for symbol in word[i:stop]:
                h.update(_SYMBOL_BYTES[symbol])
                weight *= 0.5
                # digest() does not finalise h, so it needs no copy
                if h.digest()[0] & 1:
                    total += weight
            if stop is not None:
                i = stop
                stack.append((stop, h if stop == len(word) else h.copy(), total))
        words[word] = total
    return words


def _columns(fs: tuple, rules, cols: list):
    """(x, column) for each point x of cols, in order: rule(apply, window of
    x) with its rows made canonical points, rule being x's among rules (one
    per point, or repeat(rule)) and apply(k, y) the action of fs[k] on the
    window y."""
    win = _block_window(fs, cols)
    words: Dict[str, dict] = {}  # seed -> its profile words, then their totals
    actions = [_actions(f, win, words) for f in fs]
    lone = [len(f.terms) == 1 and f.terms[0].depth > 0 for f in fs]
    windows = [win.read(x) for x in cols]
    masks = [{} for _ in fs]  # per function: column window -> its _act mask

    def note(k: int, z: bytes) -> dict:
        # every image, weight 1: a superset of the images whose values
        # survive.  A rule acts at most twice, so only the column's own
        # images are acted on again: an image's images feed only values,
        # which this pass drops.
        mask = acting = _act(actions[k], z)
        images = {}
        for _, _, _, cut, piece, stable, word, seen in actions[k]:
            if acting & 1:
                images[piece + z[cut:] if stable else z[:cut] + piece] = 1.0
                if seen is not None:
                    seen[z[word]] = None
            acting >>= 1
        if z is not column:
            return {}
        masks[k][z] = mask
        return images

    for rule, column in zip(rules, windows):
        rule(note, column)
    for seed, seen in words.items():
        _word_totals(seed, seen)

    def apply(k: int, z: bytes) -> dict:
        # the values of the acting terms, summed by image window in term
        # order; an image's mask is tested again: keeping it would keep its
        # window
        acting = masks[k].get(z)
        if acting is None:
            acting = _act(actions[k], z)
        out = {}
        for coeff, _, _, cut, piece, stable, word, seen in actions[k]:
            if acting & 1:
                y = piece + z[cut:] if stable else z[:cut] + piece
                value = coeff if seen is None else coeff * seen[z[word]]
                if lone[k]:  # kept as computed: 0j + value turns an imaginary -0.0 into 0.0
                    return {y: value}
                _accumulate(out, y, value)
            acting >>= 1
        return out

    for x, rule, z in zip(cols, rules, windows):
        yield x, {win.point(row): v for row, v in rule(apply, z).items()}


def _register(columns, reg: BasisRegistry) -> Tuple[SparseOperator, bool]:
    """The operator of the (x, column) pairs of _columns, every nonzero
    column and then its rows registered in order, and whether the cap cut it."""
    op = SparseOperator()
    truncated = False
    for x, col in columns:
        if not col:
            continue
        j = reg.add(x)
        if j is None:
            truncated = True
            continue
        for y, v in col.items():
            i = reg.add(y)
            if i is None:
                truncated = True
                continue
            op.add(i, j, v)
    return op, truncated


# Below this many estimated columns a run of certain blocks is assembled in
# one process.  A fork and its pipe cost about 2 ms: on full-2-shift, two
# processes broke even on runs of 88 to 152 estimated columns.
FORK_FLOOR = 256


def _block_columns(a_n: LocallyConstantFunction, b: LocallyConstantFunction, m: TransitionMatrix) -> list:
    """The nonzero columns of block [a_n, b] in support order, each held
    flat as (x, row, value, row, value, ...): a tuple, not a dict, per column."""
    cols = commutator_column_support(a_n, b, m)
    return [(x, *chain.from_iterable(col.items())) for x, col in _columns((a_n, b), repeat(_commutator), cols) if col]


def _certain(est: dict, most: dict, n: int, room: int, slots: int) -> list:
    """The blocks n, n + 1, ... that pass the estimate check whatever the
    blocks before them register: block k has at most most[k] columns, each
    taking at most slots registry slots, so a block is certain while its
    estimate fits in the room left after those worst cases."""
    out = []
    while n in est and est[n] <= room:
        out.append(n)
        room -= slots * most[n]
        n += 1
    return out


def _fork_columns(jobs: dict, est: dict, b: LocallyConstantFunction, m: TransitionMatrix) -> dict:
    """n -> _block_columns of each block a_n of jobs (n -> a_n), the blocks
    split by estimate, largest first, between this process and a forked
    child (see forked.run)."""
    from . import forked

    shares, loads = ([], []), [0, 0]
    for n in sorted(jobs, key=lambda n: -est[n]):
        k = loads[1] < loads[0]  # the lighter share, this process's on a tie
        shares[k].append(n)
        loads[k] += est[n]
    mine, theirs = forked.run(*([partial(_block_columns, jobs[n], b, m) for n in share] for share in shares))
    return dict(zip(shares[0] + shares[1], mine + theirs))


def commutator_blocks(
    a: LocallyConstantFunction,
    b: LocallyConstantFunction,
    window: Tuple[int, int],
    reg: BasisRegistry,
    m: TransitionMatrix,
) -> BlockOperator:
    """Exact blocks R_n = alpha^n(a) b - b alpha^n(a) for n in the window.

    Each block's support columns are enumerated from the term patterns; a
    block whose enumeration would blow the registry cap is flagged
    untrusted and left empty.

    A block's columns do not depend on the registry, only its registration
    and the estimate check do.  So where a run of blocks is certain to pass
    the check (see _certain), worth a fork and there are two CPUs, their
    columns are computed in two processes; the blocks are then registered
    in order n = lo..hi as in one process, and the result is the same.
    """
    from . import forked  # imported here: the commands that never fork do not compile it

    if a.side != STABLE or b.side != UNSTABLE:
        raise SideMismatch("commutator needs a stable and an unstable function")
    n_min, n_max = window
    shifted = {n: a.alpha(n) for n in range(n_min, n_max + 1)}
    est = {n: estimate_column_count(a_n, b, m) for n, a_n in shifted.items()}
    # a block's columns, at most: the support enumerates each distinct spec
    # once, where the estimate counts both orders' specs
    most = {
        n: sum(_spec_count(m, spec) for spec in dict.fromkeys(_support_windows(a_n, b)))
        for n, a_n in shifted.items()
    }
    # the registry slots a column can take: itself and its rows
    slots = 1 + 2 * len(a.terms) * len(b.terms)
    blocks: Dict[int, SparseOperator] = {}
    untrusted: Dict[int, str] = {}
    ahead: Dict[int, list] = {}
    for n, a_n in shifted.items():
        room = reg.cap - len(reg)
        if est[n] > room:
            untrusted[n] = f"support estimate {est[n]} exceeds remaining capacity {room}"
            blocks[n] = SparseOperator()
            continue
        if n not in ahead:
            run = _certain(est, most, n, room, slots)
            if len(run) >= 2 and sum(est[k] for k in run) >= FORK_FLOOR and forked.two_cpus():
                ahead = _fork_columns({k: shifted[k] for k in run}, est, b, m)
        if n in ahead:
            columns = ((c[0], dict(zip(c[1::2], c[2::2]))) for c in ahead.pop(n))
        else:
            columns = _columns((a_n, b), repeat(_commutator), commutator_column_support(a_n, b, m))
        blocks[n], truncated = _register(columns, reg)
        if truncated:
            untrusted[n] = "registry cap hit during assembly"
    return BlockOperator(blocks, untrusted, reg)


# ---------------------------------------------------------------------------
# stable/unstable disk intersection counting


def intersection_count(
    m: TransitionMatrix,
    unstable_center: EventuallyPeriodicPoint,
    unstable_depth: int,
    stable_center: EventuallyPeriodicPoint,
    stable_depth: int,
    k: int,
) -> int:
    """Exact size of shift^k(B) intersect C for an unstable disk B (points
    agreeing with the center up to +depth) and a stable disk C (agreeing
    from -depth on).

    A point of the intersection is pinned outside a free window; the count
    is the number of allowed bridging words, a transition-matrix power.
    """
    past_hi = unstable_depth - k  # shifted unstable constraint
    future_lo = -stable_depth
    shifted = shift(unstable_center, k)
    if past_hi >= future_lo:
        # overlap: the two patterns must agree there; count is 0 or 1
        overlap = shifted.window(future_lo, past_hi + 1)
        return int(overlap == stable_center.window(future_lo, past_hi + 1))
    return _path_count(m, shifted.at(past_hi), stable_center.at(future_lo), future_lo - past_hi)

