"""The spectrum command: the trusted commutator blocks of a stable and an
unstable function over the block window, their merged singular spectrum,
its fits and certificates, and the summability verdicts."""

from __future__ import annotations

import math
import os

import numpy as np

from . import functions as fn
from . import schatten as sc
from . import sft
from .report import EXIT_INVALID, EXIT_OK, EXIT_RESOURCE, function_pair, skeleton
from .scenarios import Scenario


def _norm_slope(ns, norms):
    """Log-linear fit over the deepest two thirds of the nonzero blocks;
    None when fewer than two of them fall in that window."""
    lo = ns[-1] - (2 * (ns[-1] - ns[0])) // 3
    pos = [(n, v) for n, v in zip(ns, norms) if n >= lo and v > 0]
    if len(pos) < 2:
        return None
    xs = np.array([n for n, _ in pos], dtype=float)
    ys = np.log([v for _, v in pos])
    return float(np.polyfit(xs, ys, 1)[0]), (int(pos[0][0]), int(pos[-1][0]))


def spectrum_analysis(scenario: Scenario, a_name: str, b_name: str, window=None) -> dict:
    """Shared by the command and the acceptance suite."""
    m = scenario.matrix
    h = sft.entropy(m)
    window = window or scenario.window
    a = scenario.functions[a_name]
    b = scenario.functions[b_name]
    seeds = sft.enumerate_homoclinic(m, scenario.orbit_p, scenario.orbit_q, 3)
    reg = fn.BasisRegistry.seeded(seeds, cap=scenario.basis_cap)
    blocks = fn.commutator_blocks(a, b, window, reg, m)
    trusted = blocks.trusted_blocks()
    per_block = {}
    spectra = []
    spectra_by_n = {}
    ns, norms, ranks = [], [], []
    for n in sorted(trusted):
        spec = sc.singular_values(trusted[n], source=f"block {n}")
        spectra.append(spec)
        spectra_by_n[n] = spec
        norm = float(spec.values[0]) if len(spec.values) else 0.0
        rank = sc.numerical_rank(spec)
        per_block[n] = {"rank": rank, "norm": norm}
        if norm > 0:
            ns.append(n)
            norms.append(norm)
            ranks.append(rank)
    out = {
        "window": list(window),
        "basis_size": len(reg),
        "untrusted_blocks": {str(k): v for k, v in sorted(blocks.untrusted.items())},
        "trusted_blocks": sorted(trusted),
        "per_block": {str(k): v for k, v in per_block.items()},
    }
    if not trusted:
        return out
    merged = sc.merge_spectra(spectra, source=f"[{a_name},{b_name}]")
    out["_merged"] = merged
    out["_blocks"] = blocks
    out["spectrum_count"] = merged.total_count
    if ns:
        out["vanishing_n0"] = int(-min(0, ns[0]))
        fit = _norm_slope(ns, norms)
        if fit is not None:
            slope, fit_window = fit
            out["norm_fit"] = {
                "slope": slope,
                "target": -math.log(scenario.kappa),
                "relative_error": abs(slope + math.log(scenario.kappa)) / math.log(scenario.kappa),
                "block_window": list(fit_window),
            }
        # rank certificates and the certified blockwise schedule from the
        # fitted constants, checked against the merged spectrum of the
        # positive blocks; both need a nonzero block n >= 1
        deep = [(n, v, r) for n, v, r in zip(ns, norms, ranks) if n >= 1]
        if deep:
            rank_certs = {}
            for eps in (0.01, 0.05, 0.1):
                c_fit = max(r / math.exp((h + eps) * n) for n, _, r in deep)
                rank_certs[str(eps)] = {
                    "C": c_fit,
                    "holds": all(
                        r <= c_fit * math.exp((h + eps) * n) * (1 + 1e-9) for n, _, r in deep
                    ),
                }
            out["rank_certificates"] = rank_certs
            alpha_c = math.exp(h + 0.05)
            c1_fit = max(r / alpha_c**n for n, _, r in deep)
            try:
                c2_fit = max(v * scenario.kappa**n for n, v, _ in deep)
            except OverflowError:
                c2_fit = math.inf
            if not math.isfinite(c2_fit):
                out["decay_certificate_skipped"] = "C2 = max norm * kappa**n overflows a float"
            else:
                cert = sc.decay_bound_schedule(
                    c1_fit, alpha_c, c2_fit, scenario.kappa, 0, len(deep)
                )
                tail = sc.merge_spectra(
                    [spectra_by_n[n] for n in sorted(spectra_by_n) if n >= 1]
                )
                out["decay_certificate"] = cert.to_json_dict()
                out["decay_certificate"]["violations"] = len(
                    sc.schedule_violations(cert, tail)
                )
    if merged.total_count >= 32:
        tot = merged.total_count
        fit = sc.fit_decay_exponent(merged, (max(8, tot // 500), int(tot * 0.7)))
        out["spectrum_fit"] = {
            "slope": fit.slope,
            "r_squared": fit.r_squared,
            "target": -math.log(scenario.kappa) / h,
        }
    out["verdicts"] = {}
    for p in scenario.p_grid:
        v = sc.summability_verdict(merged, p)
        out["verdicts"][str(p)] = v.to_json_dict()
    return out


def run(scenario: Scenario, args):
    names = function_pair(scenario, "spectrum", [args.stable_function], [args.unstable_function])
    if names is None:
        return EXIT_INVALID, {}
    a_name, b_name = names
    analysis = spectrum_analysis(scenario, a_name, b_name, args.window)
    rep = skeleton(scenario, "spectrum")
    merged = analysis.pop("_merged", None)
    blocks = analysis.pop("_blocks", None)
    rep.update(analysis)
    if merged is not None:
        vals = merged.expanded(limit=2_000_000).tolist()
        with open(os.path.join(args.out, "spectrum.csv"), "w") as handle:
            handle.write("index,value\n" + "".join(["%d,%.17g\n" % iv for iv in enumerate(vals, start=1)]))
    reports = {}
    if blocks is not None:
        manifest = {
            "window": analysis["window"],
            "basis_size": analysis["basis_size"],
            "untrusted": analysis["untrusted_blocks"],
        }
        for n, op in sorted(blocks.trusted_blocks().items()):
            path = os.path.join(args.out, f"block_{n:+03d}.csv")
            entries = sorted(op.entries.items())
            rows = ["%s,%s,%.17g,%.17g\n" % (i, jj, v.real, v.imag) for (i, jj), v in entries]
            with open(path, "w") as handle:
                handle.write("row,col,re,im\n" + "".join(rows))
        reports["blocks_manifest.json"] = manifest
    reports["spectrum.json"] = rep
    return EXIT_OK if analysis.get("trusted_blocks") else EXIT_RESOURCE, reports
