"""Singular values, Schatten (quasi)norms, decay certificates and verdicts.

Spectra may carry run-length multiplicities so that synthetic staircase
operators with 2**n-fold values stay cheap.  Dense SVD runs per connected
component of a sparse block's support graph, which keeps the factorization
exact-size even when the ambient registry is large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InsufficientData, QuasiNormViolation

RANK_FLOOR = 1e-14
TRIM_FLOOR = 1e-13


@dataclass
class SingularSpectrum:
    """Nonincreasing singular values with optional multiplicities."""

    values: np.ndarray
    counts: Optional[np.ndarray] = None
    source: str = ""

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.counts is None:
            self.counts = np.ones(len(self.values), dtype=np.int64)
        else:
            self.counts = np.asarray(self.counts, dtype=np.int64)
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
    """Union-find over the bipartite support graph of the entries."""
    parent: Dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        for z in (x, y):
            parent.setdefault(z, z)
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for i, j in entries:
        union(("r", i), ("c", j))
    comps: Dict = {}
    for (i, j), v in entries.items():
        root = find(("r", i))
        comps.setdefault(root, []).append((i, j, v))
    return list(comps.values())


def singular_values(a, source: str = "") -> SingularSpectrum:
    """Dense SVD, applied per support component for sparse operators.

    The components of one shape go through one stacked np.linalg.svd,
    which factors each matrix of the stack as a call on it alone would.
    """
    if hasattr(a, "entries"):
        if not a.entries:
            return SingularSpectrum(np.array([]), source=source)
        by_shape: Dict[Tuple[int, int], list] = {}
        for comp in _connected_components(a.entries):
            rows = sorted({i for i, _, _ in comp})
            cols = sorted({j for _, j, _ in comp})
            by_shape.setdefault((len(rows), len(cols)), []).append((rows, cols, comp))
        out = []
        for (r, c), group in by_shape.items():
            flat, entries = [], []
            for k, (rows, cols, comp) in enumerate(group):
                ri = {x: n for n, x in enumerate(rows)}
                ci = {x: n for n, x in enumerate(cols)}
                for i, j, v in comp:
                    flat.append((k * r + ri[i]) * c + ci[j])
                    entries.append(v)
            stack = np.zeros(len(group) * r * c, dtype=complex)
            stack[flat] = entries
            out.append(np.linalg.svd(stack.reshape(len(group), r, c), compute_uv=False).ravel())
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


@dataclass
class QuasiNormReport:
    max_power_ratio: float
    max_constant_ratio: float
    power_subadditivity_failures: int


def quasinorm_properties_check(p: float, trials: int, seed: int = 0) -> QuasiNormReport:
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


@dataclass
class BoundCertificate:
    """Certified (index, bound) schedule for block operators with
    rank(T_n) <= C1 * alpha**n and |T_n| <= C2 * beta**-n from n0 on."""

    c1: float
    alpha: float
    c2: float
    beta: float
    n0: int
    schedule: List[Tuple[int, float]] = field(default_factory=list)

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
    c1: float, alpha: float, c2: float, beta: float, n0: int = 0, n_max: int = 40
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


@dataclass
class DecayFit:
    slope: float
    r_squared: float


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


@dataclass
class SummabilityVerdict:
    p: float
    verdict: str
    checkpoints: List[int]
    partial_sums: List[float]
    final_relative_increment: float

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "verdict": self.verdict,
            "checkpoints": self.checkpoints,
            "partial_sums": self.partial_sums,
            "final_relative_increment": self.final_relative_increment,
        }


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
