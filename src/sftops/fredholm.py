"""Inflated representations, Fredholm-module constructors, calculus checks.

The two commuting-modulo-compacts representations act on basis x window
blocks; products and commutators are assembled blockwise and certified on
interior blocks only (window truncation clips one column per shift power
at each edge).  The holomorphic-calculus lab checks the resolvent
commutator identity, trapezoid contour calculus and the corner-calculus
identity on small dense matrices.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .errors import (
    ContourHitsSpectrum,
    NotAProjection,
    NotCornerUnitary,
    SingularResolvent,
)
from .functions import (
    BasisRegistry,
    SparseOperator,
    represent,
    unitary_u,
)
from .schatten import (
    SingularSpectrum,
    schatten_norm,
    singular_values,
    summability_verdict,
)

# ---------------------------------------------------------------------------
# inflated operators on basis x window
#
# An inflated operator is a SparseOperator whose row and column keys are
# (window slot, registry index) pairs; block (r, c) is the part with row
# slot r and column slot c.


def inflate_stable(f, j: int, window: Tuple[int, int], reg: BasisRegistry) -> SparseOperator:
    """rho_s-bar of f u**j: block (n, n+j) carries alpha**n(f), or the
    identity when f is None (a bare shift power)."""
    lo, hi = window
    ones = {(i, i): 1.0 + 0.0j for i in range(len(reg))} if f is None else None
    out = SparseOperator()
    for n in range(max(lo, lo - j), min(hi, hi - j) + 1):
        block = ones if f is None else represent(f.alpha(n), reg).entries
        out.entries.update({((n, i), (n + j, k)): v for (i, k), v in block.items()})
    return out


def inflate_unstable(
    g, jp: int, window: Tuple[int, int], reg: BasisRegistry, u_mat: Optional[SparseOperator] = None
) -> SparseOperator:
    """rho_u-bar of g u**j': block (m + j', m) carries g u**j' on the basis."""
    lo, hi = window
    base = None if g is None else represent(g, reg)
    if jp:
        step = u_mat or unitary_u(reg)
        if jp < 0:
            step = step.dagger()
        for _ in range(abs(jp)):
            base = step if base is None else base.matmul(step)
    block = base.entries if base is not None else {(i, i): 1.0 + 0.0j for i in range(len(reg))}
    slots = range(max(lo, lo - jp), min(hi, hi - jp) + 1)
    return SparseOperator(
        {((m + jp, i), (m, k)): v for m in slots for (i, k), v in block.items()}
    )


def interior(op: SparseOperator, lo: int, hi: int) -> SparseOperator:
    """The blocks of an inflated operator with both slots in [lo, hi]."""
    return SparseOperator(
        {(r, c): v for (r, c), v in op.entries.items() if lo <= r[0] <= hi and lo <= c[0] <= hi}
    )


def densify(op: SparseOperator, window: Tuple[int, int], stride: int) -> np.ndarray:
    """Dense matrix of an inflated operator: key (slot, i) at the slot-major
    flat index (slot - lo) * stride + i, for i below the stride."""
    lo, hi = window
    flat = SparseOperator()
    for ((r, i), (c, k)), v in op.entries.items():
        if i >= stride or k >= stride:
            raise IndexError(f"registry index past the stride {stride}")
        flat.entries[(r - lo) * stride + i, (c - lo) * stride + k] = v
    return flat.to_dense((hi - lo + 1) * stride)


@dataclass
class KpwCommutator:
    matrix: SparseOperator
    interior_window: Tuple[int, int]
    spectrum: SingularSpectrum
    factorization_residual: float
    excluded_blocks: List[int]


def kpw_commutator(
    a, j: int, b, jp: int, window: Tuple[int, int], reg: BasisRegistry
) -> KpwCommutator:
    """Interior part of [rho_s(a u^j), rho_u(b u^j')], with its spectrum.

    The commutator carries [rho_s(a), rho_u(b)] u^j' from block (n, n) to
    block (n, n + j - j'), so a base block n is certified exactly when its
    image block is: n and n + j - j' both lie in the interior.  The two
    certified spectra must agree within 1e-10.  The images it registers go
    into a copy of reg, so reg and its indices stay as they were.
    """
    reg = replace(reg, points=list(reg.points), index=dict(reg.index))
    margin = max(abs(j), abs(jp)) + 1
    lo, hi = window[0] + margin, window[1] - margin
    u_mat = unitary_u(reg)
    big_a = inflate_stable(a, j, window, reg)
    big_b = inflate_unstable(b, jp, window, reg, u_mat=u_mat)
    comm = interior(big_a.matmul(big_b) - big_b.matmul(big_a), lo, hi)
    base_a = inflate_stable(a, 0, window, reg)
    base_b = inflate_unstable(b, 0, window, reg)
    d = j - jp
    base = base_a.matmul(base_b) - base_b.matmul(base_a)
    base = interior(base, max(lo, lo - d), min(hi, hi - d))
    spec = singular_values(comm, source="inflated")
    base_spec = singular_values(base, source="inflated")
    k = min(len(spec.values), len(base_spec.values))
    if k:
        resid = float(np.max(np.abs(spec.values[:k] - base_spec.values[:k])))
    else:
        resid = 0.0
    tail = max(
        float(spec.values[k:].max()) if len(spec.values) > k else 0.0,
        float(base_spec.values[k:].max()) if len(base_spec.values) > k else 0.0,
    )
    resid = max(resid, tail)
    slots = range(window[0], window[1] + 1)
    excluded = [n for n in slots if not (lo <= n <= hi and lo <= n + d <= hi)]
    return KpwCommutator(comm, (lo, hi), spec, resid, excluded)


# ---------------------------------------------------------------------------
# Fredholm modules


@dataclass
class FredholmModule:
    f_op: np.ndarray
    grading: Optional[np.ndarray] = None  # the Z/2 grading of an even module

    def rep(self, x: np.ndarray) -> np.ndarray:
        """The algebra acts by x on an odd module and by x (+) x on an even one."""
        if self.grading is None:
            return x
        dim = x.shape[0]
        out = np.zeros((2 * dim, 2 * dim), dtype=complex)
        out[:dim, :dim] = x
        out[dim:, dim:] = x
        return out


def make_odd_module(e: np.ndarray) -> FredholmModule:
    """Odd module (H, rho_B, 2e - 1) from a projection in the other image."""
    e = np.asarray(e, dtype=complex)
    if np.linalg.norm(e @ e - e) > 1e-12 * max(1.0, np.linalg.norm(e)):
        raise NotAProjection("e**2 != e")
    if np.linalg.norm(e.conj().T - e) > 1e-12 * max(1.0, np.linalg.norm(e)):
        raise NotAProjection("e not self-adjoint")
    return FredholmModule(2.0 * e - np.eye(e.shape[0]))


def make_even_module(v: np.ndarray, p_proj: np.ndarray) -> FredholmModule:
    """Balanced even module with off-diagonal F = v + 1 - p on the corner."""
    v = np.asarray(v, dtype=complex)
    p_proj = np.asarray(p_proj, dtype=complex)
    scale = max(1.0, np.linalg.norm(p_proj))
    if np.linalg.norm(v.conj().T @ v - p_proj) > 1e-12 * scale:
        raise NotCornerUnitary("v*v != p")
    if np.linalg.norm(v @ v.conj().T - p_proj) > 1e-12 * scale:
        raise NotCornerUnitary("vv* != p")
    f_op = v + np.eye(v.shape[0]) - p_proj
    dim = v.shape[0]
    grading = np.block(
        [[np.eye(dim), np.zeros((dim, dim))], [np.zeros((dim, dim)), -np.eye(dim)]]
    )
    big_f = np.zeros((2 * dim, 2 * dim), dtype=complex)
    big_f[:dim, dim:] = f_op.conj().T
    big_f[dim:, :dim] = f_op
    return FredholmModule(big_f, grading)


# ---------------------------------------------------------------------------
# holomorphic functional calculus lab


def contour_calculus(
    s: np.ndarray,
    f: Callable[[complex], complex],
    center: Optional[complex] = None,
    radius: Optional[float] = None,
    nodes: int = 256,
) -> np.ndarray:
    """(2 pi i)**-1 of the trapezoid sum of f(z)(z - S)**-1 on a circle.

    The default circle is centred at the spectral centroid with radius
    1.5x the spectral spread; the contour must clear the spectrum by 1e-3.
    """
    s = np.asarray(s, dtype=complex)
    eigs = np.linalg.eigvals(s)
    if center is None:
        center = complex(np.mean(eigs))
    if radius is None:
        spread = float(np.max(np.abs(eigs - center))) if len(eigs) else 1.0
        radius = 1.5 * max(spread, 1e-6)
    clearance = radius - np.max(np.abs(eigs - center))
    if clearance < 1e-3:
        raise ContourHitsSpectrum(f"clearance {clearance} below 1e-3")
    return _trapezoid(s, f, center, radius, nodes)


def _trapezoid(
    s: np.ndarray, f: Callable[[complex], complex], center: complex, radius: float, nodes: int
) -> np.ndarray:
    """(2 pi i)**-1 of the trapezoid sum of f(z)(z - S)**-1 on a circle."""
    n = s.shape[0]
    acc = np.zeros_like(s)
    for k in range(nodes):
        theta = 2.0 * math.pi * k / nodes
        z = center + radius * cmath.exp(1j * theta)
        acc += f(z) * cmath.exp(1j * theta) * np.linalg.inv(z * np.eye(n) - s)
    return acc * (radius / nodes)


def resolvent_commutator_check(s: np.ndarray, t: np.ndarray, z: complex) -> float:
    """Frobenius residual of [(z-S)^-1, T] = (z-S)^-1 [S,T] (z-S)^-1."""
    s = np.asarray(s, dtype=complex)
    t = np.asarray(t, dtype=complex)
    eigs = np.linalg.eigvals(s)
    if np.min(np.abs(eigs - z)) < 1e-9:
        raise SingularResolvent("z is numerically on the spectrum")
    res = np.linalg.inv(z * np.eye(s.shape[0]) - s)
    lhs = res @ t - t @ res
    rhs = res @ (s @ t - t @ s) @ res
    return float(np.linalg.norm(lhs - rhs))


def corner_calculus_check(
    ambient: np.ndarray,
    p_proj: np.ndarray,
    f: Callable[[complex], complex],
    exclude_zero: bool = False,
) -> float:
    """Residual of f_p(b) = p f(b) p for b = p.ambient.p inside the corner.

    With exclude_zero the ambient calculus runs with the modified function
    that vanishes near 0 (the two-contour case of the corner identity);
    the corner-relative calculus then must still match p g(b) p.
    """
    ambient = np.asarray(ambient, dtype=complex)
    p_proj = np.asarray(p_proj, dtype=complex)
    b = p_proj @ ambient @ p_proj
    idx = np.where(np.abs(np.diag(p_proj)) > 0.5)[0]
    corner = b[np.ix_(idx, idx)]
    eigs_corner = np.linalg.eigvals(corner)
    center = complex(np.mean(eigs_corner))
    spread = float(np.max(np.abs(eigs_corner - center)))
    radius = 1.5 * max(spread, 0.5)
    if exclude_zero and abs(center) <= radius + 0.25:
        # keep 0 strictly outside the corner contour
        radius = max(0.3, abs(center) - 0.3)
        if radius <= spread:
            raise ContourHitsSpectrum("cannot separate 0 from the corner spectrum")
    corner_val = contour_calculus(corner, f, center, radius)
    if exclude_zero:
        # two-contour ambient calculus of the extension that vanishes near
        # zero: the zero contour contributes nothing, so only the corner
        # contour remains
        dist = np.abs(np.abs(np.linalg.eigvals(b) - center) - radius)
        if np.min(dist) < 1e-3:
            raise ContourHitsSpectrum("explicit contour passes too near the spectrum")
        amb_val = _trapezoid(b, f, center, radius, 256)
    else:
        amb_val = contour_calculus(b, f)
    projected = (p_proj @ amb_val @ p_proj)[np.ix_(idx, idx)]
    return float(np.linalg.norm(corner_val - projected))


# ---------------------------------------------------------------------------
# summability reports


def summability_report(
    module: FredholmModule, funcs: Dict[str, object], p_grid: List[float]
) -> List[dict]:
    """One row per function and p: the p-norms q1, q2, q3 of rho(F* - F),
    rho(F**2 - 1) and [rho, F], and the verdict on the commutator's spectrum."""
    f_op = module.f_op
    rows = []
    for name, x in funcs.items():
        rho_x = module.rep(x)
        spectra = [
            singular_values(q)
            for q in (
                rho_x @ (f_op.conj().T - f_op),
                rho_x @ (f_op @ f_op - np.eye(f_op.shape[0])),
                rho_x @ f_op - f_op @ rho_x,
            )
        ]
        for p in p_grid:
            q1, q2, q3 = (schatten_norm(spec, p) for spec in spectra)
            verdict = summability_verdict(spectra[2], p).verdict
            rows.append({"func_id": name, "p": p, "q1": q1, "q2": q2, "q3": q3, "verdict": verdict})
    return rows
