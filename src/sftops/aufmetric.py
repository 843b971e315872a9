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
from typing import Sequence

import numpy as np

from .errors import InsufficientData
from .groupoid import ElementFamily
from .sampling import draws
from .slotted import Frozen, Slotted

_FUZZ = 1e-9
_DEEP = 10**6  # stands for "member at every finite index"


class CoverIndexParams(Frozen):
    """Contraction constant of the ambient metric and ceil(log_lambda 3)."""

    __slots__ = _fields = ("lambda_x",)

    def __init__(self, lambda_x: float):
        if not lambda_x > 1.0:
            raise ValueError("lambda must be > 1")
        super().__init__(lambda_x)

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


def cover_levels(vcap: np.ndarray, n_c1: np.ndarray, cp: CoverIndexParams) -> np.ndarray:
    """Largest n >= 1 with k(c, n) <= vcap, 0 if none, entry by entry, for
    the center c with N_{c,1} = n_c1 (broadcast against vcap); k(c, 1) = 1
    and k(c, n + 1) = N_{c,1} + n * ceil(log_lambda 3)."""
    deeper = 1 + (vcap - n_c1) // cp.ceil_log3
    return np.select(
        [vcap < 1, vcap >= _DEEP, vcap >= n_c1 + cp.ceil_log3], [0, _DEEP, deeper], default=1
    )


def build_vcap_table(family: ElementFamily, cp: CoverIndexParams) -> tuple:
    """The V-index entries of the family: int64 arrays (rows, centers, v),
    sorted by center and then row, with one entry for each element i = row
    and element j = center where i lies in some V-set of j, v being the
    largest V-index with i in V_v(element j).  No other pair has an entry,
    so the entries are the memberships, all with v >= 0.

    a = element i lies in V_v(c) when the one-sided agreement depth d of
    the source points is at least max(N_c, v) + disk_margin (the threshold
    of V_v(c)'s disk) and the holonomy equation holds, so the entry is d -
    disk_margin once a lies in V_{N_c}(c).  Rows are grouped by source: the
    depths come per distinct center source, for all groups at once, from
    the family's rows.  The domain test of V_{N_c}(c) is the depth test.
    The holonomy image of a group's source z is then a lookup among the
    group's range rows: c's range row up to the splice cut joined to z's
    row after it (see _spliced_word).
    """
    rows, centers, caps = [], [], []
    by_source = {}  # source index -> ({range row: row indices}, column indices)
    for i, (first, second) in enumerate(zip(family.first.tolist(), family.second.tolist())):
        by_range, columns = by_source.setdefault(second, ({}, []))
        by_range.setdefault(family.words[first], []).append(i)
        columns.append(i)
    sources, groups = np.array(list(by_source), dtype=np.intp), list(by_source.values())
    margin = cp.disk_margin
    for source, (_, columns) in zip(sources, groups):
        depths = family.disk_depths(sources, source)
        for j in columns:
            n_c = int(family.first_time[j])
            for g in np.flatnonzero(depths >= n_c + margin):
                members = groups[g][0].get(_spliced_word(family, j, int(sources[g])))
                if members:
                    d = depths[g]
                    rows += members
                    centers += [j] * len(members)
                    caps += [_DEEP if d == math.inf else int(d) - margin] * len(members)
    order = np.lexsort((rows, centers))
    return tuple(np.array(a, dtype=np.int64)[order] for a in (rows, centers, caps))


def _spliced_word(family: ElementFamily, j: int, z: int) -> bytes:
    """The row of the holonomy image under V_{N_c}(c), c element j, of the
    point z (a point index) in its domain disk: c's range point before the
    splice cut N_c + 1 and z from it, in the family's time."""
    p = int(family.first_time[j]) + 1 - family.lo
    return family.words[family.first[j]][:p] + family.words[z][p:]


# ---------------------------------------------------------------------------
# quasimetric tables and the chain metric


class QuasimetricTable(Slotted):
    """Symmetric table of rho values 2**-n, stored as integer exponents.

    exponents[i, j] = n encodes the value 2**-n; the diagonal is exactly
    zero and carries the sentinel -1.
    """

    __slots__ = _fields = ("point_ids", "exponents")

    def __init__(self, point_ids: list, exponents: np.ndarray):
        e = np.asarray(exponents)
        if e.dtype.kind != "i":
            e = e.astype(int)
        if e.shape != (len(point_ids), len(point_ids)):
            raise ValueError("exponent matrix shape mismatch")
        if not np.array_equal(e, e.T):
            raise ValueError("quasimetric table must be symmetric")
        if not all(e[i, i] == -1 for i in range(len(point_ids))):
            raise ValueError("diagonal must be zero (sentinel -1)")
        self.point_ids = point_ids
        self.exponents = e

    @property
    def size(self) -> int:
        return len(self.point_ids)

    def values(self) -> np.ndarray:
        v = _dyadic(self.exponents, np.empty(self.exponents.shape))
        np.fill_diagonal(v, 0.0)
        return v


def _dyadic(e: np.ndarray, out: np.ndarray) -> np.ndarray:
    """2.0**-e entry by entry, computed in `out`: no other temporary."""
    np.negative(e, out=out)
    return np.power(2.0, out, out=out)


def build_quasimetric_table(
    family: ElementFamily,
    cp: CoverIndexParams,
    vcap: tuple,
    n_max: int = 40,
) -> QuasimetricTable:
    """rho over the finite candidate family, centers restricted to it, from
    the family's V-index entries (build_vcap_table).

    exps[i, j] is the largest min(levels[i, c], levels[j, c]) over centers
    c, capped at n_max.  Levels are >= 0, and above 0 exactly at the
    entries with v >= 1, so a pair scores above 0 only at a center where
    both rows have such an entry: the levels are evaluated at those entries
    only, capped at n_max first (the cap commutes with the max and the
    mins), each center adds the outer minimum of its few rows, and every
    other pair keeps 0.  The exponents are int8, so n_max is at most 127.
    """
    if not 0 <= n_max <= np.iinfo(np.int8).max:
        raise ValueError(f"n_max {n_max} outside 0..127")
    m = len(family)
    keep = vcap[2] >= 1
    rows, centers, caps = (a[keep] for a in vcap)  # by center, rows ascending
    n_c1 = np.maximum(family.first_time[centers], 1)
    levels = np.minimum(cover_levels(caps, n_c1, cp), n_max).astype(np.int8)
    exps = np.zeros((m, m), dtype=np.int8)
    bounds = (np.flatnonzero(np.diff(centers)) + 1).tolist()  # where a new center's rows begin
    for lo, hi in zip([0] + bounds, bounds + [len(centers)]):
        if hi - lo > 1:
            block = np.ix_(rows[lo:hi], rows[lo:hi])
            exps[block] = np.maximum(exps[block], np.minimum.outer(levels[lo:hi], levels[lo:hi]))
    np.fill_diagonal(exps, -1)
    return QuasimetricTable([str(i) for i in range(m)], exps)


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


class SandwichReport(Slotted):
    __slots__ = _fields = ("checked", "upper_violations", "lower_violations")

    def __init__(self, checked: int = 0):
        self.checked = checked
        self.upper_violations = []
        self.lower_violations = []

    @property
    def ok(self) -> bool:
        return not self.upper_violations and not self.lower_violations


def sandwich_check(t: QuasimetricTable, d: np.ndarray) -> SandwichReport:
    """Verify rho/4 <= D <= rho pairwise, over the pairs (i, j > i) in
    order, one block of rows of at most _STEP_BLOCK entries at a time: rho
    is read from the exponents block by block, with no table-sized copy.

    A lower violation is evidence that rho fails the star condition (the
    sandwich is a theorem only for cover-derived quasimetrics); it is
    reported as data, not raised.
    """
    m, ids = t.size, t.point_ids
    rep = SandwichReport(m * (m - 1) // 2)
    step = max(1, _STEP_BLOCK // max(1, m))
    rho_rows, bound_rows = np.empty((2, min(step, m), m))
    for r in range(0, m, step):
        dr = d[r : r + step]
        rho, bound = _dyadic(t.exponents[r : r + step], rho_rows[: len(dr)]), bound_rows[: len(dr)]
        above = np.arange(m)[None, :] > np.arange(r, r + len(dr))[:, None]
        np.add(rho, 1e-15, out=bound)
        for i, j in zip(*np.nonzero(above & (dr > bound))):
            rep.upper_violations.append((ids[r + i], ids[j], dr[i, j], rho[i, j]))
        np.subtract(np.multiply(0.25, rho, out=bound), 1e-15, out=bound)
        for i, j in zip(*np.nonzero(above & (dr < bound))):
            rep.lower_violations.append((ids[r + i], ids[j], dr[i, j], rho[i, j]))
    return rep


STAR_LEVELS = (0, 1, 2, 3)  # the cover levels n the star check samples


class StarReport(Slotted):
    __slots__ = _fields = ("triples_checked", "witnesses", "violations")

    def __init__(self, triples_checked: int = 0, witnesses: int = 0):
        self.triples_checked = triples_checked
        self.witnesses = witnesses
        self.violations = []

    @property
    def ok(self) -> bool:
        return not self.violations


def star_refinement_check(
    family: ElementFamily,
    cp: CoverIndexParams,
    rng,
    trials: int,
    vcap: tuple,
) -> StarReport:
    """Sampled star lemma: whenever V_{j(a,n)}(a) meets V_{j(a,n)}(b) inside
    the sample, every sampled member of V_{j(a,n)}(b) lies in V_n(a).

    Each trial draws the center index and then the level index, the level
    as STAR_LEVELS[rng.integers(len(STAR_LEVELS))], which is rng.choice's
    draw; the draws come from sampling.draws, one chunk at a time.  Each
    distinct (center, level) pair is checked once, the first time it is
    drawn, by a walk over the V-index entries (build_vcap_table): per
    center its members and per member its centers, both ascending.  Each
    chunk then adds its trials' counts and violations in trial order.
    Violations are listed by trial, then witness b, then member e, both
    ascending.
    """
    m, k = len(family), len(STAR_LEVELS)
    n_first = family.first_time.tolist()
    members, centers = [[] for _ in range(m)], [[] for _ in range(m)]
    for e, c, v in zip(*(a.tolist() for a in vcap)):
        members[c].append((e, v))
        centers[e].append((c, v))
    # per pair center * k + level, -1 until checked; a center with no
    # member in V_j(a) counts as one triple
    triples, witnesses = np.full(m * k, -1, np.int64), np.zeros(m * k, np.int64)
    violations = {}  # pair -> its violations, for the pairs with some
    rep = StarReport()
    for ais, levels in draws(rng, (m, k), trials):
        pairs = ais * k + levels
        for u in dict.fromkeys(pairs[triples[pairs] < 0].tolist()):
            triples[u] = 1
            ai, level = divmod(u, k)
            n = STAR_LEVELS[level]
            j = j_index(n_first[ai], n, cp)
            in_a = [e for e, v in members[ai] if v >= j]
            if not in_a:
                continue
            bis = sorted({b for e in in_a for b, v in centers[e] if v >= j})  # b with a shared witness
            triples[u] = witnesses[u] = len(bis)
            # e in V_j(b) but not in V_n(a); a non-member of a has no entry >= 0
            level_in_a = dict(members[ai])
            bad = [(ai, b, e, n) for b in bis for e, v in members[b] if v >= j and level_in_a.get(e, -1) < n]
            if bad:
                violations[u] = bad
        rep.triples_checked += int(triples[pairs].sum())
        rep.witnesses += int(witnesses[pairs].sum())
        if violations:
            for u in pairs.tolist():
                rep.violations += violations.get(u, [])
    return rep


class DiameterFit(Slotted):
    # gamma_prime: the smallest constant with diam <= 2**(-k/ceil_log3) * gamma'
    __slots__ = _fields = ("ks", "log2_diameters", "slope", "predicted_slope", "gamma_prime")

    @property
    def relative_error(self) -> float:
        return abs(self.slope - self.predicted_slope) / abs(self.predicted_slope)


def diameter_bound_check(
    family: ElementFamily,
    d: np.ndarray,
    anchors: Sequence[int],
    cp: CoverIndexParams,
    k_range: Sequence[int],
    vcap: tuple,
) -> DiameterFit:
    """Fit the decay of the chain-metric diameter of base sets of radius
    lambda**-(N + k) * gamma against k.

    Predicted exponential base is 2**(-1 / ceil(log_lambda 3)), i.e. a
    log2-slope of -1/ceil_log3.  d is symmetric, non-negative and zero on
    the diagonal: a member block's largest entry is its diameter.  An
    anchor's members are its run of the V-index entries, rows ascending.
    """
    rows, centers, caps = vcap
    starts, ends = np.searchsorted(centers, anchors), np.searchsorted(centers, anchors, side="right")
    runs = [(rows[lo:hi], caps[lo:hi], family.first_time[ci]) for ci, lo, hi in zip(anchors, starts, ends)]
    diams = {}
    for k in k_range:
        best, seen = 0.0, False
        for run, run_caps, n_c in runs:
            members = run[run_caps >= n_c + k]
            if len(members) > 1:
                seen = True
                best = max(best, d[np.ix_(members, members)].max())
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


class _Cells(dict):
    """The CSV entry of each exponent, formatted at its first lookup."""

    def __missing__(self, e: int) -> str:
        text = self[e] = "0" if e == -1 else ("1" if e == 0 else f"2^-{e}")
        return text


def write_csv(t: QuasimetricTable, out) -> None:
    """Write t to the text file out one row at a time, each distinct
    exponent formatted once."""
    entry = _Cells().__getitem__
    out.write(",".join(["", *t.point_ids]) + "\n")
    for pid, row in zip(t.point_ids, t.exponents):
        out.write(",".join([pid, *map(entry, row.tolist())]) + "\n")
