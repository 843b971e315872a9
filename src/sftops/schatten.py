"""Singular values, Schatten (quasi)norms, decay certificates and verdicts.

Spectra may carry run-length multiplicities so that synthetic staircase
operators with 2**n-fold values stay cheap.  Dense SVD runs per connected
component of a sparse block's support graph, which keeps the factorization
exact-size even when the ambient registry is large.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InsufficientData, NonFiniteOperator, QuasiNormViolation
from .slotted import Slotted

RANK_FLOOR = 1e-14
TRIM_FLOOR = 1e-13


class SingularSpectrum(Slotted):
    """Nonincreasing singular values with optional multiplicities."""

    __slots__ = _fields = ("values", "counts", "source")

    def __init__(self, values: np.ndarray, counts: Optional[np.ndarray] = None, source: str = ""):
        self.values = np.asarray(values, dtype=float)
        if counts is None:
            self.counts = np.ones(len(self.values), dtype=np.int64)
        else:
            self.counts = np.asarray(counts, dtype=np.int64)
        self.source = source
        if len(self.counts) != len(self.values):
            raise ValueError("counts/values length mismatch")
        if np.any(self.values < 0):
            raise ValueError("negative singular value")
        if np.any(np.diff(self.values) > 0):
            raise ValueError("values must be nonincreasing")

    @property
    def total_count(self) -> int:
        return int(self.counts.sum())

    def expanded(self, limit: int = 50_000_000) -> np.ndarray:
        if self.total_count > limit:
            raise MemoryError("spectrum too large to expand")
        return np.repeat(self.values, self.counts)

    def value_at(self, index: int) -> float:
        """1-based index into the expanded nonincreasing sequence."""
        if index < 1 or index > self.total_count:
            raise IndexError("singular value index out of range")
        pos = np.searchsorted(np.cumsum(self.counts), index, side="left")
        return float(self.values[pos])


def merge_spectra(spectra: Sequence[SingularSpectrum], source: str = "") -> SingularSpectrum:
    vals = np.concatenate([s.values for s in spectra]) if spectra else np.array([])
    cnts = np.concatenate([s.counts for s in spectra]) if spectra else np.array([], dtype=np.int64)
    order = np.argsort(-vals, kind="stable")
    return SingularSpectrum(vals[order], cnts[order], source=source)


# ---------------------------------------------------------------------------
# singular values of sparse operators


def _connected_components(entries: Dict[Tuple[int, int], complex]):
    """Union-find over the bipartite support graph of the entries, its rows
    and columns numbered in order of appearance: the entries (i, j, v) of
    each component in entry order, the components in that of their first."""
    nodes: Dict = {}
    edges = [(nodes.setdefault((0, i), len(nodes)), nodes.setdefault((1, j), len(nodes))) for i, j in entries]
    parent = list(range(len(nodes)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    comps: Dict = {}
    for (i, _), ((row, col), v) in zip(edges, entries.items()):
        comps.setdefault(find(i), []).append((row, col, v))
    return list(comps.values())


def singular_values(a, source: str = "") -> SingularSpectrum:
    """Dense SVD, applied per support component for sparse operators.

    The components of one shape go through one stacked np.linalg.svd,
    which factors each matrix of the stack as a call on it alone would.  An
    infinite or NaN entry, whose SVD would not converge, raises.
    """
    if not np.isfinite(list(a.entries.values()) if hasattr(a, "entries") else a).all():
        raise NonFiniteOperator("an operator entry is not finite: a coefficient is too large")
    if hasattr(a, "entries"):
        if not a.entries:
            return SingularSpectrum(np.array([]), source=source)
        # shape -> [components so far, their entries' flat stack positions, values]
        by_shape: Dict[Tuple[int, int], list] = {}
        for comp in _connected_components(a.entries):
            # a lone entry, as in every component of a monomial block, needs no sort
            rows = [comp[0][0]] if len(comp) == 1 else sorted({i for i, _, _ in comp})
            cols = [comp[0][1]] if len(comp) == 1 else sorted({j for _, j, _ in comp})
            r, c = len(rows), len(cols)
            group = by_shape.setdefault((r, c), [0, [], []])
            for i, j, v in comp:
                group[1].append(group[0] * r * c + bisect_left(rows, i) * c + bisect_left(cols, j))
                group[2].append(v)
            group[0] += 1
        out = []
        for (r, c), (count, flat, values) in by_shape.items():
            stack = np.zeros(count * r * c, dtype=complex)
            stack[flat] = values
            out.append(np.linalg.svd(stack.reshape(count, r, c), compute_uv=False).ravel())
        vals = np.concatenate(out)
    else:
        arr = np.asarray(a)
        if arr.size == 0:
            return SingularSpectrum(np.array([]), source=source)
        vals = np.linalg.svd(arr, compute_uv=False)
    vals = np.sort(vals[vals > 0.0])[::-1]
    return SingularSpectrum(vals, source=source)


def numerical_rank(spec: SingularSpectrum) -> int:
    if len(spec.values) == 0:
        return 0
    top = spec.values[0]
    keep = spec.values > RANK_FLOOR * top
    return int(spec.counts[keep].sum())


def schatten_norm(spec: SingularSpectrum, p: float) -> float:
    if p <= 0:
        raise ValueError("p must be positive")
    return float(np.sum(power_masses(spec, p)) ** (1.0 / p))


def power_masses(spec: SingularSpectrum, p: float) -> np.ndarray:
    return spec.values**p * spec.counts


# ---------------------------------------------------------------------------
# quasinorm property check


class QuasiNormReport(Slotted):
    __slots__ = _fields = ("max_power_ratio", "max_constant_ratio", "power_subadditivity_failures")


def quasinorm_properties_check(p: float, trials: int, seed: int) -> QuasiNormReport:
    """Randomized test, on 8 x 8 complex Gaussian pairs, of
    |S+T|_p^p <= |S|_p^p + |T|_p^p and the quasinorm constant K = 2**(1/p).

    A failure of the p-power inequality is recorded as a finding; a
    violation of the quasinorm constant beyond 1e-9 raises.
    """
    if not 0 < p <= 1:
        raise ValueError("p must be in (0, 1]")
    rng = np.random.default_rng(seed)
    max_power = 0.0
    max_const = 0.0
    failures = 0
    k_const = 2.0 ** (1.0 / p)
    dim = 8
    for _ in range(trials):
        s = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        t = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        ns = np.linalg.svd(s, compute_uv=False)
        nt = np.linalg.svd(t, compute_uv=False)
        nst = np.linalg.svd(s + t, compute_uv=False)
        power_ratio = float(np.sum(nst**p) / (np.sum(ns**p) + np.sum(nt**p)))
        max_power = max(max_power, power_ratio)
        if power_ratio > 1.0 + 1e-12:
            failures += 1
        norm_s = float(np.sum(ns**p) ** (1 / p))
        norm_t = float(np.sum(nt**p) ** (1 / p))
        norm_st = float(np.sum(nst**p) ** (1 / p))
        const_ratio = norm_st / (k_const * (norm_s + norm_t))
        max_const = max(max_const, const_ratio)
        if const_ratio > 1.0 + 1e-9:
            raise QuasiNormViolation(
                f"quasinorm constant 2**(1/p) violated: ratio {const_ratio}"
            )
    return QuasiNormReport(max_power, max_const, failures)


# ---------------------------------------------------------------------------
# blockwise singular-value decay certificates


class BoundCertificate(Slotted):
    """Certified (index, bound) schedule for block operators with
    rank(T_n) <= C1 * alpha**n and |T_n| <= C2 * beta**-n from n0 on."""

    __slots__ = _fields = ("c1", "alpha", "c2", "beta", "n0", "schedule")

    def __init__(self, c1: float, alpha: float, c2: float, beta: float, n0: int):
        self.c1 = c1
        self.alpha = alpha
        self.c2 = c2
        self.beta = beta
        self.n0 = n0
        self.schedule: List[Tuple[int, float]] = []

    @property
    def exponent(self) -> float:
        return math.log(self.beta, self.alpha)

    def to_json_dict(self) -> dict:
        return {
            "C1": self.c1,
            "alpha": self.alpha,
            "C2": self.c2,
            "beta": self.beta,
            "n0": self.n0,
            "exponent": self.exponent,
            "schedule": [[int(i), float(b)] for i, b in self.schedule],
        }


def decay_bound_schedule(
    c1: float, alpha: float, c2: float, beta: float, n0: int, n_max: int
) -> BoundCertificate:
    """Schedule s_{1 + sum_{i<=n} rank_i} <= C2 * beta**-(n+1).

    Indices are 1-based positions in the merged nonincreasing spectrum;
    ranks are summed from block n0 + 1 up (the blocks are assumed
    reindexed so the hypotheses hold from n0 + 1 onward).
    """
    if alpha <= 1 or beta <= 1:
        raise ValueError("alpha and beta must exceed 1")
    cert = BoundCertificate(c1, alpha, c2, beta, n0)
    total = 0
    for n in range(n0 + 1, n0 + n_max + 1):
        total += math.floor(c1 * alpha**n)
        cert.schedule.append((total + 1, c2 * beta ** -(n + 1)))
    return cert


def schedule_violations(cert: BoundCertificate, spec: SingularSpectrum) -> List[Tuple[int, float, float]]:
    """Schedule entries whose bound the spectrum exceeds."""
    bad = []
    for index, bound in cert.schedule:
        if index > spec.total_count:
            break
        val = spec.value_at(index)
        if val > bound * (1 + 1e-12):
            bad.append((index, val, bound))
    return bad


def staircase_spectrum(alpha: int, beta: float, n_blocks: int) -> SingularSpectrum:
    """Synthetic block spectrum: alpha**n values beta**-n per block."""
    values = np.array([float(beta) ** -n for n in range(n_blocks + 1)])
    counts = np.array([int(alpha) ** n for n in range(n_blocks + 1)], dtype=np.int64)
    return SingularSpectrum(values, counts, source="staircase")


# ---------------------------------------------------------------------------
# decay-exponent regression and summability verdicts


class DecayFit(Slotted):
    __slots__ = _fields = ("slope", "r_squared")


def fit_decay_exponent(spec: SingularSpectrum, window: Optional[Tuple[int, int]] = None) -> DecayFit:
    """Least squares on log s_m versus log m over the index window."""
    vals = spec.expanded()
    if window is None:
        window = (1, len(vals))
    lo, hi = window
    vals = vals[lo - 1 : hi]
    idx = np.arange(lo, lo + len(vals))
    keep = vals > 0
    vals, idx = vals[keep], idx[keep]
    if len(vals) < 10:
        raise InsufficientData("need at least 10 positive values")
    x = np.log(idx.astype(float))
    y = np.log(vals)
    xm, ym = float(x.mean()), float(y.mean())
    var = float(np.dot(x - xm, x - xm))
    slope = float(np.dot(x - xm, y - ym)) / var
    intercept = ym - slope * xm
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - ym) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(float(slope), r2)


CONVERGENT = "CONVERGENT"
DIVERGENT_TREND = "DIVERGENT-TREND"
INCONCLUSIVE = "INCONCLUSIVE"


class SummabilityVerdict(Slotted):
    __slots__ = _fields = ("p", "verdict", "checkpoints", "partial_sums", "final_relative_increment")

    def to_json_dict(self) -> dict:
        return dict(zip(self._fields, self._values()))


def _partial_sum(values: np.ndarray, counts: np.ndarray, p: float, upto: int) -> float:
    """sum of the first `upto` terms of the expanded p-powers."""
    cum = np.cumsum(counts)
    pos = np.searchsorted(cum, upto, side="left")
    full = float(np.sum(values[:pos] ** p * counts[:pos]))
    prev = int(cum[pos - 1]) if pos > 0 else 0
    return full + float(values[pos] ** p) * (upto - prev) if pos < len(values) else full


def summability_verdict(spec: SingularSpectrum, p: float) -> SummabilityVerdict:
    """Trend verdict on sum s_m**p from partial sums at doubling checkpoints.

    Divergence is judged first, on per-octave growth rates through their
    maximum (a finite spectrum always exhausts eventually, which must not
    mask a growing bulk); convergence then requires the last half of the
    spectrum to contribute a relative increment below 1e-3.  Never claims
    a limit.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    keep = spec.values > (TRIM_FLOOR * spec.values[0] if len(spec.values) else 0.0)
    values, counts = spec.values[keep], spec.counts[keep]
    total = int(counts.sum()) if len(counts) else 0
    if total == 0:
        return SummabilityVerdict(p, CONVERGENT, [], [], 0.0)
    checkpoints = []
    m = 8
    while m < total:
        checkpoints.append(m)
        m *= 2
    if not checkpoints or checkpoints[-1] < total:
        checkpoints.append(total)
    sums = [_partial_sum(values, counts, p, c) for c in checkpoints]
    s_total = sums[-1]
    prev = sums[-2] if len(sums) > 1 else 0.0
    rel_final = float((s_total - prev) / s_total) if s_total > 0 else 0.0
    if len(checkpoints) < 4:
        verdict = CONVERGENT if rel_final < 1e-3 else INCONCLUSIVE
        return SummabilityVerdict(p, verdict, checkpoints, sums, rel_final)
    spans = np.diff(np.log(np.array(checkpoints, dtype=float)))
    rates = np.diff(np.array(sums)) / spans
    kstar = int(np.argmax(rates))
    k_count = len(rates)
    nondecreasing_to_peak = all(
        rates[i + 1] >= 0.60 * rates[i] for i in range(kstar)
    ) and all(rates[i + 2] >= 0.90 * rates[i] for i in range(max(kstar - 1, 0)))
    divergent = (rates[-1] >= 0.95 * rates[kstar]) or (
        kstar >= k_count // 2 and nondecreasing_to_peak
    )
    if divergent:
        return SummabilityVerdict(p, DIVERGENT_TREND, checkpoints, sums, rel_final)
    if rel_final < 1e-3:
        return SummabilityVerdict(p, CONVERGENT, checkpoints, sums, rel_final)
    return SummabilityVerdict(p, INCONCLUSIVE, checkpoints, sums, rel_final)
