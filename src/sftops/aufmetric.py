"""Cover-sequence metrization: quasimetric, chain metric, index bookkeeping.

The generic engine turns a sequence of covers into a 2-quasimetric rho
(dyadic values 2**-n) and then into the chain metric D by all-pairs
shortest paths, with the sandwich rho/4 <= D <= rho holding whenever the
covers satisfy the star condition.  The concrete cover system is built
from the groupoid base sets V_n(a) of the self-similar shift model, with
cover levels translated into integer agreement thresholds so that every
membership test is exact.

rho over a finite candidate set of centers is an over-approximation of
the true infimum over all centers; reports carry the candidate count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InsufficientData
from .groupoid import GroupoidElement, c_first_time
from .sft import STABLE, UNSTABLE, FamilyWindow

_FUZZ = 1e-9
_DEEP = 10**6  # stands for "member at every finite index"


@dataclass(frozen=True)
class CoverIndexParams:
    """Contraction constant of the ambient metric and ceil(log_lambda 3)."""

    lambda_x: float

    def __post_init__(self):
        if not self.lambda_x > 1.0:
            raise ValueError("lambda must be > 1")

    @property
    def ceil_log3(self) -> int:
        return max(1, math.ceil(math.log(3.0, self.lambda_x) - _FUZZ))

    @property
    def eps_prime_exp(self) -> int:
        # largest realized metric value lambda**-e <= lambda**-1 / 2
        return 1 + max(1, math.ceil(math.log(2.0, self.lambda_x) - _FUZZ))

    @property
    def disk_margin(self) -> int:
        """Threshold offset of the V-set disk radius lambda**-v * eps'/4."""
        return self.eps_prime_exp + math.floor(math.log(4.0, self.lambda_x) + _FUZZ)


def j_index(n_a: int, n: int, cp: CoverIndexParams) -> int:
    """j(a, n) = max(N_a, n) + ceil(log_lambda 3)."""
    return max(n_a, n) + cp.ceil_log3


def v_set_threshold(n_a: int, v: int, cp: CoverIndexParams) -> int:
    """One-sided agreement threshold of the disk of V_v(a)."""
    return max(n_a, v) + cp.disk_margin


def cover_levels(vcap: np.ndarray, n_c1: np.ndarray, cp: CoverIndexParams) -> np.ndarray:
    """Largest n >= 1 with k(c, n) <= vcap[i, j], 0 if none, where column j
    has center c with N_{c,1} = n_c1[j]; k(c, 1) = 1 and k(c, n + 1) =
    N_{c,1} + n * ceil(log_lambda 3)."""
    n_c1 = n_c1[None, :]
    deeper = 1 + (vcap - n_c1) // cp.ceil_log3
    return np.select(
        [vcap < 1, vcap >= _DEEP, vcap >= n_c1 + cp.ceil_log3], [0, _DEEP, deeper], default=1
    )


def build_vcap_table(elements: Sequence[GroupoidElement], cp: CoverIndexParams) -> np.ndarray:
    """vcap[i, j] = largest V-index v with elements[i] in V_v(elements[j]),
    -1 if none.

    a = elements[i] lies in V_v(c) when the one-sided agreement depth d of
    the source points is at least max(N_c, v) + disk_margin and the
    holonomy equation holds, so the entry is d - disk_margin once a lies in
    V_{N_c}(c).  Every point is read once, as a row of one sft.FamilyWindow.
    Rows are grouped by (side, source): the depths come per distinct center
    source, for all groups at once, from the window.  The domain test of
    V_{N_c}(c) is the depth test on c's side, since v_set_threshold(N_c,
    N_c) = N_c + disk_margin.  The holonomy image of a group's source z is
    then a lookup among the group's range rows: c's range row up to the
    splice cut joined to z's row after it (see _spliced_word).
    """
    m = len(elements)
    vm = np.full((m, m), -1, dtype=np.int64)
    win = FamilyWindow([x for a in elements for x in (a.first, a.second)])
    index = win.index
    groups = {}  # (side, source index) -> {range row: row indices}
    for i, a in enumerate(elements):
        by_range = groups.setdefault((a.side, index[a.second]), {})
        by_range.setdefault(win.words[index[a.first]], []).append(i)
    keys, rows_by_range = list(groups), list(groups.values())
    sources = np.array([z for _, z in keys], dtype=np.intp)
    stable = np.array([side == STABLE for side, _ in keys])
    centers = {}  # center source index -> column indices
    for j, c in enumerate(elements):
        centers.setdefault(index[c.second], []).append(j)
    margin = cp.disk_margin
    for source, columns in centers.items():
        by_side = {STABLE: win.depth(sources, source), UNSTABLE: -win.floor(sources, source)}
        depths = np.where(stable, by_side[STABLE], by_side[UNSTABLE])
        for j in columns:
            c = elements[j]
            n_c = c_first_time(c)
            inside = (depths >= n_c + margin) & (by_side[c.side] >= n_c + margin)
            for g in np.flatnonzero(inside):
                rows = rows_by_range[g].get(_spliced_word(win, c, int(sources[g]), n_c))
                if rows:
                    d = depths[g]
                    vm[rows, j] = _DEEP if d == math.inf else int(d) - margin
    return vm


def _spliced_word(win: FamilyWindow, c: GroupoidElement, z: int, n_c: int) -> bytes:
    """The window row of the holonomy image under V_{N_c}(c) of the point z
    (a window index) in its domain disk: c's range point up to the cut and z
    after it (stable side, cut after N_c), or z up to the cut and c's range
    point after it (unstable side, cut after -N_c - 1).  Where clamping the
    cut into [lo + L, hi - R] moves it, c's range point and z agree between
    the two cuts (c's points agree from N_c - 1 on, z agrees with c's source
    up to N_c + disk_margin; mirrored on the unstable side), so the row is
    the image's and equals a family point's row exactly when they are equal.
    """
    first, words = win.words[win.index[c.first]], win.words
    cut = n_c + 1 if c.side == STABLE else -n_c
    p = min(max(cut - win.lo, win.left), len(first) - win.right)
    if c.side == STABLE:
        return first[:p] + words[z][p:]
    return words[z][:p] + first[p:]


# ---------------------------------------------------------------------------
# quasimetric tables and the chain metric


@dataclass
class QuasimetricTable:
    """Symmetric table of rho values 2**-n, stored as integer exponents.

    exponents[i, j] = n encodes the value 2**-n; the diagonal is exactly
    zero and carries the sentinel -1.
    """

    point_ids: list
    exponents: np.ndarray
    candidate_count: int = 0

    def __post_init__(self):
        e = np.asarray(self.exponents, dtype=int)
        if e.shape != (len(self.point_ids), len(self.point_ids)):
            raise ValueError("exponent matrix shape mismatch")
        if not np.array_equal(e, e.T):
            raise ValueError("quasimetric table must be symmetric")
        if not all(e[i, i] == -1 for i in range(len(self.point_ids))):
            raise ValueError("diagonal must be zero (sentinel -1)")
        self.exponents = e

    @property
    def size(self) -> int:
        return len(self.point_ids)

    def values(self) -> np.ndarray:
        # computed in the one output array: no table-sized temporaries
        v = np.negative(self.exponents, out=np.empty(self.exponents.shape))
        np.power(2.0, v, out=v)
        np.fill_diagonal(v, 0.0)
        return v


def build_quasimetric_table(
    elements: Sequence[GroupoidElement],
    cp: CoverIndexParams,
    vcap: np.ndarray,
    n_max: int = 40,
) -> QuasimetricTable:
    """rho over the finite candidate family, centers restricted to it, from
    the family's build_vcap_table.

    exps[i, j] is the largest min(levels[i, c], levels[j, c]) over centers
    c, capped at n_max.  Levels are >= 0, so a pair scores above 0 only at a
    center where both rows have a level above 0: each center adds the outer
    minimum of its few such rows, and every other pair keeps 0.
    """
    m = len(elements)
    n_c1 = np.array([max(c_first_time(c), 1) for c in elements], dtype=np.int64)
    levels = cover_levels(vcap, n_c1, cp)
    exps = np.zeros((m, m), dtype=int)
    for c in range(m):
        rows = np.flatnonzero(levels[:, c])
        if len(rows) > 1:
            block = np.ix_(rows, rows)
            exps[block] = np.maximum(exps[block], np.minimum.outer(levels[rows, c], levels[rows, c]))
    np.minimum(exps, n_max, out=exps)
    np.fill_diagonal(exps, -1)
    return QuasimetricTable([str(i) for i in range(m)], exps, candidate_count=m)


# entries of one Floyd-Warshall step's sum buffer (256 KB of floats)
_STEP_BLOCK = 2**15


def _floyd_warshall(d: np.ndarray) -> None:
    """Floyd-Warshall in place, each step d = min(d, d[:, k] + d[k, :]) in
    blocks of rows, through one buffer of at most _STEP_BLOCK entries.  Row
    and column k do not change in step k (d[k, k] == 0 and no entry is
    negative), so every block reads the values the whole step would."""
    m = len(d)
    rows = max(1, _STEP_BLOCK // m)
    via = np.empty((min(rows, m), m))
    for k in range(m):
        for r in range(0, m, rows):
            block, buf = d[r : r + rows], via[: min(rows, m - r)]
            np.add(block[:, k, None], d[None, k, :], out=buf)
            np.minimum(block, buf, out=block)


def _components(d: np.ndarray) -> list:
    """The ascending member indices of each component of the graph whose
    edges are the off-diagonal pairs of the symmetric table d below its
    largest value, leaving out the points without an edge."""
    close = d < d.max()
    np.fill_diagonal(close, False)
    unseen = close.any(axis=1)
    out = []
    for s in np.flatnonzero(unseen):
        if not unseen[s]:
            continue
        unseen[s] = False
        members = front = np.array([s])
        while len(front):
            front = np.flatnonzero(close[front].any(axis=0) & unseen)
            unseen[front] = False
            members = np.concatenate([members, front])
        out.append(np.sort(members))
    return out


def chain_metric(t: QuasimetricTable) -> np.ndarray:
    """All-pairs shortest paths over the complete graph weighted by rho.

    Floyd-Warshall; sums of dyadic values are exact in binary floats.  It
    runs per component of the graph of pairs closer than the table's
    largest value `top`: a chain between two components has a step >= top,
    so their pairs keep top, and inside a component every pivot from
    outside is a no-op (d[i, k] = top), so the pass over its members in
    increasing order does the same float operations on each of its entries
    as the pass over the whole table.  Components of one or two points
    have nothing to shorten.
    """
    d = t.values()
    if t.size < 3:
        return d
    for members in _components(d):
        if len(members) == t.size:
            _floyd_warshall(d)
        elif len(members) > 2:
            block = np.ix_(members, members)
            sub = d[block]
            _floyd_warshall(sub)
            d[block] = sub
    return d


@dataclass
class SandwichReport:
    checked: int = 0
    upper_violations: list = field(default_factory=list)
    lower_violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.upper_violations and not self.lower_violations


def sandwich_check(t: QuasimetricTable, d: np.ndarray) -> SandwichReport:
    """Verify rho/4 <= D <= rho pairwise.

    A lower violation is evidence that rho fails the star condition (the
    sandwich is a theorem only for cover-derived quasimetrics); it is
    reported as data, not raised.
    """
    rho = t.values()
    ids = t.point_ids
    rep = SandwichReport()
    for i in range(t.size):
        dr, rr = d[i, i + 1 :], rho[i, i + 1 :]  # the pairs (i, j > i)
        rep.checked += len(dr)
        for j in np.flatnonzero(dr > rr + 1e-15):
            rep.upper_violations.append((ids[i], ids[i + 1 + j], dr[j], rr[j]))
        for j in np.flatnonzero(dr < 0.25 * rr - 1e-15):
            rep.lower_violations.append((ids[i], ids[i + 1 + j], dr[j], rr[j]))
    return rep


STAR_LEVELS = (0, 1, 2, 3)  # the cover levels n the star check samples


@dataclass
class StarReport:
    triples_checked: int = 0
    witnesses: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def star_refinement_check(
    elements: Sequence[GroupoidElement],
    cp: CoverIndexParams,
    rng,
    trials: int,
    vcap: np.ndarray,
) -> StarReport:
    """Sampled star lemma: whenever V_{j(a,n)}(a) meets V_{j(a,n)}(b) inside
    the sample, every sampled member of V_{j(a,n)}(b) lies in V_n(a).

    Each trial draws the center index and then the level index, the level
    as STAR_LEVELS[rng.integers(len(STAR_LEVELS))], which is rng.choice's
    draw.  Each distinct (center, level) pair is checked once; the counts
    and violations are then replayed in trial order.
    Violations are listed by trial, then witness b, then member e, both
    ascending.
    """
    m, k = len(elements), len(STAR_LEVELS)
    n_first = [c_first_time(e) for e in elements]
    # per trial the center index, then the level index, as scalar draws
    draws = np.fromiter((rng.integers(b) for _ in range(trials) for b in (m, k)), np.int64, 2 * trials)
    pairs, at = np.unique(draws[::2] * k + draws[1::2], return_inverse=True)
    # a center with no member in V_j(a) counts as one triple
    triples, witnesses = np.ones(len(pairs), np.int64), np.zeros(len(pairs), np.int64)
    violations = {}  # pair -> its violations, for the pairs with some
    for u, (ai, level) in enumerate(divmod(pair, k) for pair in pairs.tolist()):
        n = STAR_LEVELS[level]
        j = j_index(n_first[ai], n, cp)
        in_a = vcap[:, ai] >= j
        if not in_a.any():
            continue
        bis = np.flatnonzero((vcap[in_a, :] >= j).any(axis=0))  # b with a shared witness
        triples[u] = witnesses[u] = len(bis)
        # [b, e]: e in V_j(b) but not in V_n(a)
        bad = (vcap[:, bis] >= j).T & (vcap[:, ai] < n)
        if bad.any():
            violations[u] = [(ai, int(bis[b]), int(e), n) for b, e in zip(*np.nonzero(bad))]
    rep = StarReport(int(triples[at].sum()), int(witnesses[at].sum()))
    if violations:
        for u in at.tolist():
            rep.violations += violations.get(u, [])
    return rep


@dataclass
class DiameterFit:
    ks: list
    log2_diameters: list
    slope: float
    predicted_slope: float
    gamma_prime: float  # smallest constant with diam <= 2**(-k/ceil_log3) * gamma'

    @property
    def relative_error(self) -> float:
        return abs(self.slope - self.predicted_slope) / abs(self.predicted_slope)


def diameter_bound_check(
    elements: Sequence[GroupoidElement],
    d: np.ndarray,
    anchors: Sequence[int],
    cp: CoverIndexParams,
    k_range: Sequence[int],
    vcap: np.ndarray,
) -> DiameterFit:
    """Fit the decay of the chain-metric diameter of base sets of radius
    lambda**-(N + k) * gamma against k.

    Predicted exponential base is 2**(-1 / ceil(log_lambda 3)), i.e. a
    log2-slope of -1/ceil_log3.
    """
    n_first = [c_first_time(e) for e in elements]
    diams = {}
    for k in k_range:
        best = 0.0
        seen = False
        for ci in anchors:
            members = np.flatnonzero(vcap[:, ci] >= n_first[ci] + k)
            for ii in range(len(members)):
                for jj in range(ii + 1, len(members)):
                    seen = True
                    best = max(best, d[members[ii], members[jj]])
        if seen and best > 0.0:
            diams[k] = math.log2(best)
    if len(diams) < 3:
        raise InsufficientData(f"only {len(diams)} usable radius levels")
    ks = sorted(diams)
    ys = [diams[k] for k in ks]
    slope = np.polyfit(ks, ys, 1)[0]
    gamma = max(2.0 ** (y + k / cp.ceil_log3) for k, y in zip(ks, ys))
    return DiameterFit(ks, ys, float(slope), -1.0 / cp.ceil_log3, gamma)


# ---------------------------------------------------------------------------
# CSV export: entries "0", "1", "2^-n"


def table_to_csv(t: QuasimetricTable) -> str:
    rows = t.exponents.tolist()
    # each distinct exponent is formatted once
    cell = {e: "0" if e == -1 else ("1" if e == 0 else f"2^-{e}") for e in set().union(*rows)}
    lines = [",".join([""] + list(t.point_ids))]
    for pid, row in zip(t.point_ids, rows):
        lines.append(",".join([pid] + [cell[e] for e in row]))
    return "\n".join(lines) + "\n"
