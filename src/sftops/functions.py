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
import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .errors import SideMismatch
from .groupoid import (
    BaseSet,
    GroupoidElement,
    _holonomy_splice,
    in_domain,
    inverse,
    phi_auto,
    reverse_element,
)
from .sft import (
    STABLE,
    UNSTABLE,
    EventuallyPeriodicPoint,
    MetricParams,
    TransitionMatrix,
    agreement_depth,
    build_point,
    shift,
    splice_at,
)

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


@dataclass(frozen=True)
class LocallyConstantFunction:
    side: str
    terms: Tuple[Term, ...]

    def __post_init__(self):
        terms = tuple(Term(*t) for t in self.terms)
        for t in terms:
            if t.support.side != self.side:
                raise SideMismatch("term base set on the wrong side")
        object.__setattr__(self, "terms", terms)

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
        bs, coeff, depth, seed = self.terms[0]
        t = bs.threshold
        if self.side == STABLE:
            word = z.window(t + 1, t + depth + 1)
        else:
            word = z.window(-t - depth, -t)[::-1]
        return coeff * _word_totals(seed, {word: None})[word]

    def evaluate(self, gamma: GroupoidElement) -> complex:
        """Sum of the term values over the base sets containing gamma: the
        entry of apply_to_point at the source, in the row of the range."""
        if gamma.side != self.side:
            raise SideMismatch("element on the wrong side")
        return apply_to_point(self, gamma.second).get(gamma.first, 0j)

    def lipschitz_constant(self, p: MetricParams) -> float:
        """Certified upper bound: an indicator at radius exponent n separates
        from its complement by at least kappa**-(n+1); a profile adds one
        such step of weight 2**-m per word coordinate m."""
        total = 0
        for bs, coeff, depth, _ in self.terms:
            base = abs(coeff) * p.kappa ** (bs.radius_exp + 1)
            if depth:
                steps = sum(
                    2.0**-mm * p.kappa ** (bs.radius_exp + 1 + mm) for mm in range(1, depth + 1)
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
    if not in_domain(w, center):
        return []
    mid = _holonomy_splice(w, center)
    if not in_domain(v, mid):
        return []
    anchor = GroupoidElement(_holonomy_splice(v, mid), center, STABLE)
    return [BaseSet(anchor, depth - 1, max(nv, nw))]


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


@dataclass
class BasisRegistry:
    """Ordered registry of canonical homoclinic points with a growth cap."""

    cap: int = 20000
    points: List[EventuallyPeriodicPoint] = field(default_factory=list)
    index: Dict[EventuallyPeriodicPoint, int] = field(default_factory=dict)
    truncation_events: int = 0

    @classmethod
    def seeded(cls, pts, cap: int = 20000) -> "BasisRegistry":
        reg = cls(cap=cap)
        for x in pts:
            reg.add(x)
        return reg

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


@dataclass
class SparseOperator:
    """Complex matrix with finitely many entries, keyed by (row, column).

    A key is a registry index, or a (window slot, registry index) pair on
    an inflated operator; registry indices never move, so keys stay valid
    while the registry grows.
    """

    entries: Dict[tuple, complex] = field(default_factory=dict)

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
    ((_, col),) = _columns((f,), _single, [x])
    return col


def represent(f: LocallyConstantFunction, reg: BasisRegistry) -> SparseOperator:
    """Matrix of the fundamental representation over the current registry.

    Iterates over a snapshot of the registry as columns; image points not
    yet registered are added (or counted as truncation events when the
    registry is frozen or full).
    """
    op, _ = _assemble((f,), _single, list(reg.points), reg)
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


@dataclass
class BlockOperator:
    """Z-indexed block diagonal family over a shared basis registry."""

    window: Tuple[int, int]
    blocks: Dict[int, SparseOperator]
    untrusted: Dict[int, str]
    basis: BasisRegistry

    def trusted_blocks(self) -> Dict[int, SparseOperator]:
        return {n: b for n, b in self.blocks.items() if n not in self.untrusted}


def _anchor_groups(f: LocallyConstantFunction):
    """Terms grouped by source anchor point: (weakest threshold, deepest time)."""
    groups = {}
    for bs in f.supports():
        key = bs.anchor.second
        thr, tmax = groups.get(key, (bs.threshold, bs.time))
        groups[key] = (min(thr, bs.threshold), max(tmax, bs.time))
    return groups


def _block_span(fs, cols=()) -> Tuple[int, int, int]:
    """(lo, hi, L): the cores of the columns and term anchors, and the
    coordinates where a term's domain test, splice or profile word starts
    or ends, lie in [lo + L, hi - L], L the lcm of their cycle lengths, so a
    point spliced from them is its window over [lo, hi) (see _point)."""
    pts, cuts = list(cols), []
    for f in fs:
        for bs, _, depth, _ in f.terms:
            pts += (bs.anchor.first, bs.anchor.second)
            t = bs.threshold
            stable = (t + 1, bs.time + 1, t + depth + 1)
            cuts += stable if f.side == STABLE else (-t, -bs.time, -t - depth)
    period = math.lcm(*{len(c) for p in pts for c in (p.left_cycle, p.right_cycle)})
    lo = min([p.core_start for p in pts] + cuts, default=0) - period
    hi = max([p.core_end for p in pts] + cuts, default=0) + period
    return lo, hi, period


def _point(z: bytes, lo: int, period: int) -> EventuallyPeriodicPoint:
    """The canonical point whose window over the _block_span from lo is z."""
    return build_point(z[:period], z, z[-period:], lo)


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
    lo, hi, period = _block_span((a_n, b))
    cands: Dict[bytes, None] = {}
    # the two orders often pin the same window; each spec is enumerated once
    for s_pat, u_pat, past_hi, future_lo in dict.fromkeys(_support_windows(a_n, b)):
        s_win, u_win = s_pat.window(lo, hi), u_pat.window(lo, hi)
        cands.update(dict.fromkeys(_bridge_windows(m, s_win, past_hi - lo, u_win, future_lo - lo)))
    return sorted((_point(z, lo, period) for z in cands), key=EventuallyPeriodicPoint.sort_key)


def _support_windows(a_n: LocallyConstantFunction, b: LocallyConstantFunction):
    """Free-window specs covering the columns of both composition orders.

    Order alpha^n(a).b pins a column's future to the unstable source
    pattern from -T_u and its past (through the unstable splice) to the
    stable source pattern below min(T_s, -N_u - 1); order b.alpha^n(a)
    pins the past directly below T_s and the future (through the stable
    splice) above max(-T_u, N_s + 1).  Weakest pins give safe supersets.
    """
    out = []
    for s_pat, (s_thr, s_tmax) in _anchor_groups(a_n).items():
        for u_pat, (u_thr, u_tmax) in _anchor_groups(b).items():
            out.append((s_pat, u_pat, min(s_thr, -u_tmax - 1), -u_thr))
            out.append((s_pat, u_pat, s_thr, max(-u_thr, s_tmax + 1)))
    return out


def estimate_column_count(
    a_n: LocallyConstantFunction, b: LocallyConstantFunction, m: TransitionMatrix
) -> int:
    """Upper bound on the support enumeration size, via path counting."""
    total = 0
    for s_pat, u_pat, past_hi, future_lo in _support_windows(a_n, b):
        gap = future_lo - past_hi
        if gap <= 1:
            total += 1
            continue
        total += _path_count(m, s_pat.at(past_hi), u_pat.at(future_lo), gap)
    return total


def _path_count(m: TransitionMatrix, start: int, end: int, length: int) -> int:
    """Number of allowed paths of `length` steps from start to end, exactly."""
    power = np.linalg.matrix_power(np.array(m.entries, dtype=object), length)
    return int(power[start, end])


# The kernel works on words: every point that some functions meet on a set
# of columns (column, anchor, holonomy image, row) is its window over the
# _block_span.  The anchor windows are read once and each column's window
# once: a domain test is a slice compare, a holonomy image a slice of the
# column window joined to a slice of an anchor window, a profile word a
# slice (reversed on the unstable side).  A column rule says how the
# functions' actions make a column: _single for represent and
# apply_to_point, _commutator for a block.  A first pass runs the rule on
# every column with each action noted, not valued: its _act images are kept
# and its profile words collected.  _word_totals hashes each seed's words,
# a second pass runs the rule on the kept images' values, and a row
# becomes a canonical point only at the end.


def _actions(f: LocallyConstantFunction, lo: int, hi: int) -> list:
    """Each term on windows over [lo, hi): (term, domain slice, the anchor
    source over it, splice cut, the anchor range before the cut (stable) or
    from it (unstable), profile word slice, stable)."""
    out = []
    for term in f.terms:
        bs = term.support
        rng, src = bs.anchor.first.window(lo, hi), bs.anchor.second.window(lo, hi)
        if f.side == STABLE:
            t, cut = bs.threshold + 1 - lo, bs.time + 1 - lo
            domain, keep, word = slice(0, t), slice(0, cut), slice(t, t + term.depth)
        else:
            t, cut = -bs.threshold - lo, -bs.time - lo
            domain, keep, word = slice(t, None), slice(cut, None), slice(t - 1, t - 1 - term.depth, -1)
        out.append((term, domain, src[domain], cut, rng[keep], word, f.side == STABLE))
    return out


def _act(actions: list, z: bytes) -> list:
    """(image, term, profile word) for each action whose domain holds z."""
    return [
        (piece + z[cut:] if stable else z[:cut] + piece, term, z[at])
        for term, domain, pattern, cut, piece, at, stable in actions
        if z[domain] == pattern
    ]


def _apply(images: list, totals: dict, lone: bool) -> dict:
    """The values of the terms acting on a window (its _act images), summed
    by image window in term order.  A lone profile term's value is kept as
    computed: 0j + value would turn an imaginary -0.0 into 0.0."""
    out = {}
    for y, term, word in images:
        value = term.coeff * totals[term.seed][word] if term.depth else term.coeff
        if lone:
            return {y: value}
        _accumulate(out, y, value)
    return out


def _single(apply, z: bytes) -> dict:
    """Column rule of one function: its action on the window z."""
    return apply(0, z)


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
    returns words.  The words are hashed in sorted order, a walk of their
    trie: states[k] and totals[k] hold the hash and the sum through the
    last word's first k symbols, so a word hashes only the symbols past its
    common prefix with the one before."""
    states = [hashlib.sha256(f"{seed}:".encode())]
    totals = [1.0]
    last = b""
    for word in sorted(words):
        k = 0
        for a, b in zip(word, last):
            if a != b:
                break
            k += 1
        del states[k + 1 :], totals[k + 1 :]
        h, total = states[k], totals[k]
        weight = 2.0**-k  # halves exactly to 2**-(i + 1) at symbol i
        for i in range(k, len(word)):
            chunk = _SYMBOL_BYTES[word[i]]
            h = h.copy()
            h.update(chunk if i else chunk[1:])
            weight *= 0.5
            # digest() does not finalise h, so it needs no copy of its own
            if h.digest()[0] & 1:
                total += weight
            states.append(h)
            totals.append(total)
        words[word] = total
        last = word
    return words


def _columns(fs: tuple, rule, cols: list):
    """(x, column) for each point x of cols, in order: rule(apply, window of
    x) with its rows made canonical points, apply(k, y) being the action of
    fs[k] on the window y."""
    lo, hi, period = _block_span(fs, cols)
    actions = [_actions(f, lo, hi) for f in fs]
    lone = [len(f.terms) == 1 and f.terms[0].depth > 0 for f in fs]
    windows = [x.window(lo, hi) for x in cols]
    acted = [{} for _ in fs]  # per function: window -> its _act images
    words: Dict[str, dict] = {}  # seed -> its profile words

    def note(k: int, z: bytes) -> dict:
        # every image, weight 1: a superset of the images whose values survive
        acted[k][z] = images = _act(actions[k], z)
        for _, t, w in images:
            if t.depth:
                words.setdefault(t.seed, {})[w] = None
        return dict.fromkeys([y for y, _, _ in images], 1.0)

    for z in windows:
        rule(note, z)
    totals = {seed: _word_totals(seed, seen) for seed, seen in words.items()}

    def apply(k: int, z: bytes) -> dict:
        return _apply(acted[k][z], totals, lone[k])

    for x, z in zip(cols, windows):
        yield x, {_point(row, lo, period): v for row, v in rule(apply, z).items()}


def _assemble(fs: tuple, rule, cols: list, reg: BasisRegistry) -> Tuple[SparseOperator, bool]:
    """The operator of a column rule on the columns cols, every nonzero
    column and then its rows registered in order, and whether the cap cut it."""
    op = SparseOperator()
    truncated = False
    for x, col in _columns(fs, rule, cols):
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
    """
    if a.side != STABLE or b.side != UNSTABLE:
        raise SideMismatch("commutator needs a stable and an unstable function")
    n_min, n_max = window
    blocks: Dict[int, SparseOperator] = {}
    untrusted: Dict[int, str] = {}
    for n in range(n_min, n_max + 1):
        a_n = a.alpha(n)
        est = estimate_column_count(a_n, b, m)
        room = reg.cap - len(reg)
        if est > room:
            untrusted[n] = f"support estimate {est} exceeds remaining capacity {room}"
            blocks[n] = SparseOperator()
            continue
        cols = commutator_column_support(a_n, b, m)
        blocks[n], truncated = _assemble((a_n, b), _commutator, cols, reg)
        if truncated:
            untrusted[n] = "registry cap hit during assembly"
    return BlockOperator((n_min, n_max), blocks, untrusted, reg)


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

