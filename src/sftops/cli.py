"""Scenario-driven command line front end.

Every command reads a scenario JSON, runs deterministically from the
named seed, and writes machine-readable reports (JSON, CSV with 17
significant digits) into the output directory.

Exit codes: 0 success, 1 property-failure findings, 2 invalid input,
3 resource cap (no trusted block), 4 internal error (an uncaught exception
inside a command).
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from . import functions as fn
from . import groupoid as gd
from . import sft
from .errors import InsufficientData, InvalidScenario, NonFiniteOperator, NotAProjection, SftopsError
from .scenarios import (
    REFERENCE_SCENARIOS,
    Scenario,
    load_scenario,
    scenario_hash,
)

TOOL_VERSION = "sftops 0.1.0"

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _report_skeleton(scenario: Scenario, command: str) -> dict:
    return {
        "command": command,
        "scenario": scenario.name,
        "scenario_hash": scenario_hash(scenario),
        "tool_version": TOOL_VERSION,
    }


def _seeded_rng(scenario: Scenario, salt: int):
    return np.random.default_rng(scenario.seed + salt)


DRAW_CHUNK = 1024


def _draws(rng, bound: int, width: int, count: int):
    """The values of `width * count` successive int(rng.integers(bound))
    calls, in order, as width-tuples: per chunk of at most DRAW_CHUNK
    values, `width` index arrays, the k-th tuple's entries at position k.

    numpy draws rng.integers(bound, size=k) as k scalar draws, so the
    values and the generator state after them are the same
    (tests/test_cli.py pins this).  Drawing by chunk keeps only one chunk
    of draws alive.
    """
    per = max(1, DRAW_CHUNK // width)
    while count > 0:
        k = min(per, count)
        yield rng.integers(bound, size=(k, width)).T
        count -= k


# ---------------------------------------------------------------------------
# validate


def cmd_validate(scenario: Scenario, out_dir: str, args) -> int:
    rep = _report_skeleton(scenario, "validate")
    h = sft.entropy(scenario.matrix)
    rep["entropy"] = h
    rep["hausdorff_dimension"] = sft.hausdorff_dimension(scenario.matrix, scenario.metric)
    rep["summability_threshold"] = h / math.log(scenario.kappa)
    rep["alphabet"] = scenario.matrix.n
    rep["orbit_P"] = list(scenario.orbit_p.cycle)
    rep["orbit_Q"] = list(scenario.orbit_q.cycle)
    points = sft.enumerate_homoclinic(
        scenario.matrix, scenario.orbit_p, scenario.orbit_q, min(scenario.core_bound, 4)
    )
    rep["homoclinic_sample_size"] = len(points)
    _write_json(os.path.join(out_dir, "validate.json"), rep)
    return EXIT_OK


# ---------------------------------------------------------------------------
# metric audit


def _record(checks: dict, name: str, checked: int, failed, witness) -> None:
    """Count `checked` checks of one chunk of draws, those flagged in the
    bool array `failed` failing; the run's first failure gives the report
    its witness, witness(k) for the chunk's draw k."""
    entry = checks[name]
    entry[0] += checked
    bad = np.flatnonzero(failed)
    entry[1] += len(bad)
    if len(bad) and entry[2] is None:
        entry[2] = witness(int(bad[0]))


def _exponent(e):
    """An entry of a metric exponent array as the report writes it."""
    return None if e == gd.NO_DISTANCE else int(e)


def cmd_metric_audit(scenario: Scenario, out_dir: str, args) -> int:
    """Ultrametric / isometry / contraction property suite on sampled data.

    Draw order: the elements, then two indices per sampled pair, three per
    triangle and two pool indices per unit pair, each loop consuming its
    draws in order; no other draw comes between.  The loops take the same
    draws in the same order from `_draws`, one chunk at a time, in this one
    process, and check a chunk as array operations: the metric of the
    elements, their Phi^-1 shifts and their inverses comes from one
    groupoid.ElementFamily, and the unit pairs compare the metric of one
    ElementFamily of the pool's units with its close branch.  Each check's
    witness is its first failing draw.
    """
    from . import sampling as smp

    rng = _seeded_rng(scenario, 1)
    m = scenario.matrix
    samples = args.samples
    elements = smp.audit_elements(
        m, scenario.orbit_p, scenario.orbit_q, rng, max(240, samples // 40)
    )
    n = len(elements)
    # elements, then their shifts, then their inverses
    family = gd.ElementFamily(
        elements + [gd.phi_auto(a, -1) for a in elements] + [gd.inverse(a) for a in elements]
    )
    metric, first_time = family.metric_exponents, family.first_time
    pool = smp.homoclinic_pool(m, scenario.orbit_p, scenario.orbit_q, 2, range(0, 5))
    checks = {
        "ultrametric_triangle": [0, 0, None],
        "phi_contraction_equality": [0, 0, None],
        "phi_global_sandwich": [0, 0, None],
        "inversion_isometry": [0, 0, None],
        "first_time_shift": [0, 0, None],
        "units_two_branch": [0, 0, None],
        "holonomy_isometry": [0, 0, None],
    }

    for i, j in _draws(rng, n, 2, samples):
        e, ee, ei = metric(i, j), metric(i + n, j + n), metric(i + 2 * n, j + 2 * n)

        def against(other):
            """The witness (i, j, e, other) of the chunk's draw k."""
            return lambda k: (int(i[k]), int(j[k]), _exponent(e[k]), _exponent(other[k]))

        none = e == gd.NO_DISTANCE
        contracting = ~none & (e >= 1)
        failed = contracting & (ee != e + 1)
        _record(checks, "phi_contraction_equality", int(contracting.sum()), failed, against(ee))
        # global sandwich kappa^-1 D <= D Phi^-1 <= D on exponents; a pair at
        # distance 0 is witnessed by (i, j)
        held = np.where(none, ee == gd.NO_DISTANCE, (ee != gd.NO_DISTANCE) & (e <= ee) & (ee <= e + 1))
        _record(checks, "phi_global_sandwich", len(e), ~held, lambda k: against(ee)(k)[: 2 if none[k] else 4])
        _record(checks, "inversion_isometry", len(e), ei != e, against(ei))
        cs, csm = first_time[i], first_time[i + n]
        failed = (csm != cs + 1) & (cs != 0)
        _record(checks, "first_time_shift", len(e), failed, lambda k: (int(i[k]), int(cs[k]), int(csm[k])))

    def values(e):
        """kappa**-e per entry, 0.0 for NO_DISTANCE, each as Python computes it."""
        distinct, at = np.unique(e, return_inverse=True)
        return np.array([0.0 if x == gd.NO_DISTANCE else scenario.kappa ** -int(x) for x in distinct])[at]

    for i, j, k in _draws(rng, n, 3, samples // 3):
        dij, djk, dik = values(metric(i, j)), values(metric(j, k)), values(metric(i, k))
        held = dik <= np.maximum(dij, djk) + 1e-15
        _record(checks, "ultrametric_triangle", len(i), ~held, lambda t: (int(i[t]), int(j[t]), int(k[t])))

    # the pool's units: window index k is pool[k], and so is element k
    units = gd.ElementFamily([gd.unit(x) for x in pool])
    for xs, ys in _draws(rng, len(pool), 2, samples // 5):
        failed = units.metric_exponents(xs, ys) != units.close_exponents(xs, ys)
        _record(checks, "units_two_branch", len(xs), failed, lambda k: (str(pool[xs[k]]), str(pool[ys[k]])))

    anchors = [e for e in elements if e.first != e.second][:6] or elements[:3]
    budget = max(samples // 20, 50)
    for c in anchors:
        graph = fn.elements_of(gd.base_set(c, gd.c_first_time(c) + 3), pool)
        for a in graph:
            for b in graph:
                if budget <= 0:
                    break
                budget -= 1
                ok = sft.agreement_radius(a.first, b.first) == sft.agreement_radius(
                    a.second, b.second
                )
                _record(checks, "holonomy_isometry", 1, [not ok], lambda k: (str(a.second), str(b.second)))

    rep = _report_skeleton(scenario, "metric-audit")
    rep["sample_count"] = samples
    rep["element_count"] = n
    rep["checks"] = {
        name: {"checked": c, "failures": f, "first_counterexample": w}
        for name, (c, f, w) in checks.items()
    }
    failures = sum(f for _, f, _ in checks.values())
    rep["total_failures"] = failures
    _write_json(os.path.join(out_dir, "metric_audit.json"), rep)
    return EXIT_OK if failures == 0 else EXIT_FINDINGS


# ---------------------------------------------------------------------------
# AUF audit


def cmd_auf_audit(scenario: Scenario, out_dir: str, args) -> int:
    """Cover-sequence metrization checks on sampled elements."""
    from . import aufmetric as auf
    from . import sampling as smp

    rng = _seeded_rng(scenario, 2)
    m = scenario.matrix
    count = max(200, args.samples // 50)
    family = gd.ElementFamily(smp.audit_elements(m, scenario.orbit_p, scenario.orbit_q, rng, count))
    cp = auf.CoverIndexParams(scenario.kappa)
    vcap = auf.build_vcap_table(family, cp)
    table = auf.build_quasimetric_table(family, cp, vcap=vcap)

    dist = auf.chain_metric(table)
    sandwich = auf.sandwich_check(table, dist)
    anchors = np.flatnonzero(family.first == family.second)[:24]
    try:
        fit = auf.diameter_bound_check(family, dist, anchors, cp, range(0, 10), vcap=vcap)
    except InsufficientData as exc:
        # near kappa = 1: no slope, so the 10 % check cannot pass
        regression, fit_ok = {"insufficient_data": str(exc)}, False
    else:
        regression = {
            "slope": fit.slope,
            "predicted_slope": fit.predicted_slope,
            "relative_error": fit.relative_error,
            "gamma_prime": fit.gamma_prime,
            "ks": list(fit.ks),
        }
        fit_ok = fit.relative_error <= 0.10
    with open(os.path.join(out_dir, "quasimetric.csv"), "w") as handle:
        handle.write(auf.table_to_csv(table))
    star = auf.star_refinement_check(family, cp, rng, max(1000, args.samples // 10), vcap=vcap)

    rep = _report_skeleton(scenario, "auf-audit")
    rep["element_count"] = len(family)
    rep["candidate_count"] = table.size
    rep["sandwich"] = {
        "checked": sandwich.checked,
        "upper_violations": len(sandwich.upper_violations),
        "lower_violations": len(sandwich.lower_violations),
    }
    rep["star_refinement"] = {
        "triples_checked": star.triples_checked,
        "witnesses": star.witnesses,
        "violations": len(star.violations),
    }
    rep["diameter_regression"] = regression
    _write_json(os.path.join(out_dir, "auf_audit.json"), rep)
    ok = sandwich.ok and star.ok and fit_ok
    return EXIT_OK if ok else EXIT_FINDINGS


# ---------------------------------------------------------------------------
# spectrum


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
    """Shared by the CLI command and the acceptance suite."""
    from . import schatten as sc

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


def _function_pair(scenario: Scenario, command: str, stable_names, unstable_names):
    """The first of stable_names and the first of unstable_names that the
    scenario defines, or None after saying on stderr which is missing or
    on the wrong side."""
    names = []
    for wanted in (stable_names, unstable_names):
        found = [name for name in wanted if name in scenario.functions]
        if not found:
            listed = " or ".join(map(repr, wanted))
            print(f"{command}: unknown function name: {listed}", file=sys.stderr)
            return None
        names.append(found[0])
    sides = tuple(scenario.functions[name].side for name in names)
    if sides != (sft.STABLE, sft.UNSTABLE):
        print(f"{command} needs a stable and an unstable function, got {sides}", file=sys.stderr)
        return None
    return names


def cmd_spectrum(scenario: Scenario, out_dir: str, args) -> int:
    names = _function_pair(scenario, "spectrum", [args.stable_function], [args.unstable_function])
    if names is None:
        return EXIT_INVALID
    a_name, b_name = names
    analysis = spectrum_analysis(scenario, a_name, b_name, args.window)
    rep = _report_skeleton(scenario, "spectrum")
    merged = analysis.pop("_merged", None)
    blocks = analysis.pop("_blocks", None)
    rep.update(analysis)
    if merged is not None:
        vals = merged.expanded(limit=2_000_000).tolist()
        with open(os.path.join(out_dir, "spectrum.csv"), "w") as handle:
            handle.write("index,value\n" + "".join(["%d,%.17g\n" % iv for iv in enumerate(vals, start=1)]))
    if blocks is not None:
        manifest = {
            "window": analysis["window"],
            "basis_size": analysis["basis_size"],
            "untrusted": analysis["untrusted_blocks"],
        }
        for n, op in sorted(blocks.trusted_blocks().items()):
            path = os.path.join(out_dir, f"block_{n:+03d}.csv")
            entries = sorted(op.entries.items())
            rows = ["%s,%s,%.17g,%.17g\n" % (i, jj, v.real, v.imag) for (i, jj), v in entries]
            with open(path, "w") as handle:
                handle.write("row,col,re,im\n" + "".join(rows))
        _write_json(os.path.join(out_dir, "blocks_manifest.json"), manifest)
    _write_json(os.path.join(out_dir, "spectrum.json"), rep)
    if not analysis.get("trusted_blocks"):
        return EXIT_RESOURCE
    return EXIT_OK


# ---------------------------------------------------------------------------
# fredholm


def cmd_fredholm(scenario: Scenario, out_dir: str, args) -> int:
    from . import fredholm as fd

    names = _function_pair(scenario, "fredholm", ["e_proj", "e_unit"], ["b_terms", "b"])
    if names is None:
        return EXIT_INVALID
    proj_name, b_name = names
    proj_fn, b_fn = scenario.functions[proj_name], scenario.functions[b_name]
    m = scenario.matrix
    rep = _report_skeleton(scenario, "fredholm")
    seeds = list(sft.enumerate_homoclinic(m, scenario.orbit_p, scenario.orbit_q, 2))
    for f in scenario.functions.values():
        for bs in f.supports():
            for pt in (bs.anchor.first, bs.anchor.second):
                if sft.is_homoclinic(pt, scenario.orbit_p, scenario.orbit_q):
                    seeds.append(pt)
    lab_window = (-2, 2)
    reg = fn.BasisRegistry.seeded(seeds, cap=4000)
    # close the registry under the shifts the window needs
    for x in list(reg.points):
        for k in range(lab_window[0] - 1, lab_window[1] + 2):
            reg.add(sft.shift(x, k))
    # registers e's images before the freeze
    fn.represent(proj_fn, reg)
    reg.freeze()
    width = lab_window[1] - lab_window[0] + 1
    dim = len(reg) * width
    if dim > fn.DENSE_SIDE_CAP:
        print(
            f"fredholm: dense side {dim} ({len(reg)} basis points x {width} window slots)"
            f" exceeds the cap {fn.DENSE_SIDE_CAP}",
            file=sys.stderr,
        )
        return EXIT_RESOURCE

    e_infl = fd.inflate_stable(proj_fn, 0, lab_window, reg)
    e_dense = fd.densify(e_infl, lab_window, len(reg))
    b_infl = fd.inflate_unstable(b_fn, 0, lab_window, reg)
    b_dense = fd.densify(b_infl, lab_window, len(reg))

    try:
        module = fd.make_odd_module(e_dense)
    except NotAProjection as exc:
        print(f"fredholm: {proj_name} is not a projection: {exc}", file=sys.stderr)
        return EXIT_INVALID
    f_op = module.f_op
    rep["window"] = list(lab_window)
    rep["interior_margin"] = 1
    rep["odd_module"] = {
        "f_squared_residual": float(np.linalg.norm(f_op @ f_op - np.eye(dim))),
        "f_adjoint_residual": float(np.linalg.norm(f_op - f_op.conj().T)),
    }
    rep["summability_table"] = fd.summability_report(module, {b_name: b_dense}, scenario.p_grid)

    rng = _seeded_rng(scenario, 3)
    s_mat = rng.standard_normal((6, 6))
    t_mat = rng.standard_normal((6, 6))
    z = 2.0 * float(np.max(np.abs(np.linalg.eigvals(s_mat)))) + 1.0
    rep["resolvent_identity_residual"] = fd.resolvent_commutator_check(s_mat, t_mat, z)
    a_small = np.array([[0.4, 1.2], [0.0, -0.3]])
    series = np.eye(2)
    term = np.eye(2)
    for k in range(1, 40):
        term = term @ a_small / k
        series = series + term
    contour = fd.contour_calculus(a_small, cmath.exp, nodes=256)
    rep["contour_exp_residual"] = float(np.linalg.norm(contour - series))
    amb = np.diag([2.0, 2.5, 1.0, 0.7]).astype(complex)
    amb[0, 1] = amb[1, 0] = 0.2
    p_corner = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    rep["corner_residual_zero_inside"] = fd.corner_calculus_check(amb, p_corner, lambda zz: zz * zz)
    rep["corner_residual_zero_outside"] = fd.corner_calculus_check(
        amb, p_corner, lambda zz: zz * zz, exclude_zero=True
    )
    _write_json(os.path.join(out_dir, "fredholm.json"), rep)
    ok = (
        rep["odd_module"]["f_squared_residual"] == 0.0
        and rep["resolvent_identity_residual"] < 1e-10
        and rep["contour_exp_residual"] < 1e-8
        and rep["corner_residual_zero_inside"] < 1e-9
        and rep["corner_residual_zero_outside"] < 1e-9
    )
    return EXIT_OK if ok else EXIT_FINDINGS


# ---------------------------------------------------------------------------
# driver


def cmd_report_all(scenario: Scenario, out_dir: str, args) -> int:
    worst = EXIT_OK
    for runner in (cmd_validate, cmd_metric_audit, cmd_auf_audit, cmd_fredholm):
        code = runner(scenario, out_dir, args)
        worst = max(worst, code)
    worst = max(worst, cmd_spectrum(scenario, out_dir, args))
    return worst


COMMANDS = {
    "validate": cmd_validate,
    "metric-audit": cmd_metric_audit,
    "auf-audit": cmd_auf_audit,
    "spectrum": cmd_spectrum,
    "fredholm": cmd_fredholm,
    "report-all": cmd_report_all,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sftops",
        description="Groupoid metrics, commutator spectra and summability "
        "certificates for irreducible topological Markov chains.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--scenario", required=True, help="scenario JSON path or reference name")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument("--samples", type=int, default=10000)
    parser.add_argument("--window", type=_parse_window, default=None, help="a..b block window")
    parser.add_argument("--p-grid", type=_parse_grid, default=None)
    parser.add_argument("--cap", type=int, default=None, help="basis cap override")
    parser.add_argument("--stable-function", default="a")
    parser.add_argument("--unstable-function", default="b")
    return parser


def _parse_window(text: str):
    lo, hi = text.split("..")
    return (int(lo), int(hi))


def _parse_grid(text: str):
    return [float(t) for t in text.split(",")]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.samples < 0:
        print(f"invalid option: --samples must be >= 0, got {args.samples}", file=sys.stderr)
        return EXIT_INVALID
    try:
        if args.scenario in REFERENCE_SCENARIOS:
            scenario = REFERENCE_SCENARIOS[args.scenario]()
        else:
            scenario = load_scenario(args.scenario)
        if args.seed is not None:
            scenario.seed = args.seed
        if args.p_grid is not None:
            scenario.p_grid = args.p_grid
        if args.cap is not None:
            scenario.basis_cap = args.cap
        # --window only feeds spectrum and stays out of the scenario (and
        # so out of scenario_hash), but is validated with it
        dataclasses.replace(scenario, window=args.window or scenario.window).validate()
    except (InvalidScenario, SftopsError, ValueError) as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_INVALID
    os.makedirs(args.out, exist_ok=True)
    start = time.time()
    try:
        code = COMMANDS[args.command](scenario, args.out, args)
    except NonFiniteOperator as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:
        # a crash is not a property finding, so it must not exit 1; traceback
        # is imported here because importing it adds 0.1 MB to every run
        import traceback

        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    print(f"{args.command}: exit {code} in {time.time() - start:.1f}s", file=sys.stderr)
    return code


def cli() -> None:
    """Entry of `python -m sftops.cli` and of the `sftops` script: main(),
    then out through os._exit once both streams are flushed.

    That skips the interpreter's teardown, 25-35 ms per command, mostly
    numpy's module finalisation.  Nothing is lost: every report is closed
    by its with block and a forked child is reaped before main returns.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    cli()
