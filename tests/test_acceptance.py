"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np
import pytest

from sftops import aufmetric as auf
from sftops import fredholm as fd
from sftops import functions as fn
from sftops import groupoid as gd
from sftops import sampling as smp
from sftops import schatten as sc
from sftops import scenarios as sn
from sftops import sft
from sftops.cli import spectrum_analysis

from oracles import holonomy_apply

KAPPA = sft.MetricParams(2.0)


def _verdict(tag, ok, detail, elapsed=None):
    stamp = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}{stamp}")
    assert ok, f"{tag}: {detail}"


def _shift_cases():
    full = sft.TransitionMatrix.from_rows([[1, 1], [1, 1]])
    golden = sft.TransitionMatrix.from_rows([[1, 1], [1, 0]])
    return [
        ("full-2-shift", full, sft.PeriodicOrbit((1,)), sft.PeriodicOrbit((0,))),
        ("golden-mean", golden, sft.PeriodicOrbit((0, 1)), sft.PeriodicOrbit((0,))),
    ]


# -- criterion 1: exact-structure suite on the full L=6 enumerations --------


def _structure_suite(m, p, q, core_bound=6):
    pts = sft.enumerate_homoclinic(m, p, q, core_bound)
    n = len(pts)
    failures = 0

    # pairwise agreement radii (|None| encoded as a large sentinel)
    big = 10**6
    rad = np.full((n, n), big, dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            r = sft.agreement_radius(pts[i], pts[j])
            rad[i, j] = rad[j, i] = big if r is None else r

    # ultrametric law, exhaustively on all point triples via values
    vals = np.power(2.0, -rad.astype(float))
    np.fill_diagonal(vals, 0.0)
    for j in range(n):
        chained = np.maximum(vals[:, j][:, None], vals[j, :][None, :])
        failures += int((vals > chained + 1e-15).sum())

    # B1 and bracket caches on close pairs
    close_pairs = [(i, j) for i in range(n) for j in range(n) if rad[i, j] >= 1]
    bracket = {}
    for i, j in close_pairs:
        bracket[(i, j)] = sft.bracket(pts[i], pts[j])
    failures += sum(1 for i in range(n) if sft.bracket(pts[i], pts[i]) != pts[i])

    # splices are determined by (past of second, future of first): keys over
    # a window wide enough to pin the tails of every enumerated point
    span = core_bound + 2 + len(p.cycle) + len(q.cycle)

    def pastkey(x):
        return tuple(x.at(i) for i in range(-span, 1))

    def futkey(x):
        return tuple(x.at(i) for i in range(1, span + 1))

    pk = {i: pastkey(x) for i, x in enumerate(pts)}
    fk = {i: futkey(x) for i, x in enumerate(pts)}

    # B2: [x,[y,z]] = [x,z] for all x whenever both sides are defined.
    # Both are past(z)+future(x) splices, so over the full x-quantifier the
    # identity reduces to pastkey([y,z]) = pastkey(z) and matching
    # definedness, which depends only on symbol 0.
    for (j, k), w in bracket.items():
        if pastkey(w) != pk[k]:
            failures += 1
        if w.at(0) != pts[k].at(0):
            failures += 1
    # object-level spot check of the reduction
    for (j, k), w in list(bracket.items())[:: max(1, len(bracket) // 400)]:
        for i in range(0, n, 7):
            lhs_def = sft.agreement_radius(pts[i], w) != 0
            rhs_def = rad[i, k] >= 1
            if lhs_def != rhs_def:
                failures += 1
            elif lhs_def and sft.bracket(pts[i], w) != bracket.get(
                (i, k), sft.bracket(pts[i], pts[k])
            ):
                failures += 1

    # B3: [[x,y],z] = [x,z]: mirrors B2 through future keys
    for (i, j), w in bracket.items():
        if futkey(w) != fk[i]:
            failures += 1
    for (i, j), w in list(bracket.items())[:: max(1, len(bracket) // 400)]:
        for k in range(0, n, 7):
            lhs_def = sft.agreement_radius(w, pts[k]) != 0
            rhs_def = rad[i, k] >= 1
            if lhs_def != rhs_def:
                failures += 1
            elif lhs_def and sft.bracket(w, pts[k]) != bracket.get(
                (i, k), sft.bracket(pts[i], pts[k])
            ):
                failures += 1

    # B4 on all close pairs
    for (i, j), w in bracket.items():
        xs, ys = sft.shift(pts[i], 1), sft.shift(pts[j], 1)
        if sft.agreement_radius(xs, ys) != 0:
            if sft.bracket(xs, ys) != sft.shift(w, 1):
                failures += 1

    # contraction with equality C1/C2 on local-set members
    for idx in range(0, n, 9):
        x = pts[idx]
        stable_members = [y for y in pts if sft.in_stable_set(x, y, 1)]
        for y in stable_members:
            for z in stable_members:
                r0 = sft.agreement_radius(y, z)
                if r0 is None:
                    continue
                r1 = sft.agreement_radius(sft.shift(y, 1), sft.shift(z, 1))
                if r1 != r0 + 1:
                    failures += 1
        unstable_members = [y for y in pts if sft.in_unstable_set(x, y, 1)]
        for y in unstable_members:
            for z in unstable_members:
                r0 = sft.agreement_radius(y, z)
                if r0 is None:
                    continue
                if sft.agreement_radius(sft.shift(y, -1), sft.shift(z, -1)) != r0 + 1:
                    failures += 1

    # holonomy isometry, inversion isometry, source/range local isometry
    anchors = []
    for i in range(0, n, max(1, n // 6)):
        for j in range(0, n, max(1, n // 6)):
            if rad[i, j] != big and sft.agreement_floor(pts[i], pts[j]) != math.inf:
                anchors.append(gd.GroupoidElement(pts[i], pts[j], gd.STABLE))
    anchors = anchors[:8] or [gd.unit(pts[0])]
    for c in anchors:
        v = gd.base_set(c, gd.c_first_time(c) + 2)
        members = [z for z in pts if gd.in_domain(v, z)]
        graph = [gd.GroupoidElement(holonomy_apply(v, z), z, gd.STABLE) for z in members]
        for a in graph:
            for b in graph:
                r_src = sft.agreement_radius(a.second, b.second)
                r_img = sft.agreement_radius(a.first, b.first)
                if r_src != r_img:
                    failures += 1
                e = gd.groupoid_metric_exponent(a, b)
                if e != gd.units_metric_exponent(a.second, b.second):
                    failures += 1
                if e != gd.groupoid_metric_exponent(gd.inverse(a), gd.inverse(b)):
                    failures += 1
    return failures, n, len(close_pairs)


def test_criterion_1_exact_structure():
    t0 = time.time()
    total_failures = 0
    sizes = []
    for name, m, p, q in _shift_cases():
        fails, n_pts, n_close = _structure_suite(m, p, q)
        total_failures += fails
        sizes.append(f"{name}:{n_pts}pts/{n_close}close")
    elapsed = time.time() - t0
    _verdict(
        "1 [exact structure, L=6]",
        total_failures == 0 and elapsed < 60.0,
        f"failures={total_failures}, {', '.join(sizes)}, budget 60s",
        elapsed,
    )


# -- criterion 2: groupoid ultrametric dynamics ------------------------------


def test_criterion_2_metric_dynamics():
    t0 = time.time()
    rng = np.random.default_rng(20260809)
    violations = 0
    pairs = 0
    for name, m, p, q in _shift_cases():
        els = smp.audit_elements(m, p, q, rng, 260)
        n = len(els)
        for _ in range(5200):
            i, j = int(rng.integers(n)), int(rng.integers(n))
            a, b = els[i], els[j]
            e = gd.groupoid_metric_exponent(a, b)
            ee = gd.groupoid_metric_exponent(gd.phi_auto(a, -1), gd.phi_auto(b, -1))
            pairs += 1
            if e is None:
                violations += ee is not None
            else:
                if not (e <= ee <= e + 1):  # global sandwich on exponents
                    violations += 1
                if e >= 1 and ee != e + 1:  # exact local contraction
                    violations += 1
    _verdict(
        "2 [metric dynamics]",
        pairs >= 10**4 and violations == 0,
        f"pairs={pairs}, violations={violations}",
        time.time() - t0,
    )


# -- criterion 3: AUF engine --------------------------------------------------


def test_criterion_3_auf_engine():
    t0 = time.time()
    ok = True
    notes = []
    for name, m, p, q in _shift_cases():
        rng = np.random.default_rng(7)
        els = smp.audit_elements(m, p, q, rng, 220)
        cp = auf.CoverIndexParams(2.0)
        vcap = auf.build_vcap_table(els, cp)
        table = auf.build_quasimetric_table(els, cp, vcap=vcap)
        dist = auf.chain_metric(table)
        sand = auf.sandwich_check(table, dist)
        star = auf.star_refinement_check(els, cp, rng, 800, vcap=vcap)
        anchors = [i for i, e in enumerate(els) if e.first == e.second][:20]
        fit = auf.diameter_bound_check(els, dist, anchors, cp, range(0, 10), vcap=vcap)
        ok = ok and sand.ok and star.ok and star.triples_checked >= 1000
        ok = ok and len(els) >= 200 and fit.relative_error <= 0.10
        notes.append(
            f"{name}: els={len(els)} sandwich={len(sand.lower_violations)}"
            f" star={star.triples_checked}tr/{len(star.violations)}viol"
            f" diam_err={fit.relative_error:.3f}"
        )
    elapsed = time.time() - t0
    _verdict("3 [AUF engine]", ok and elapsed < 120.0, "; ".join(notes), elapsed)


# -- criteria 4 and 5: commutator certificates and summability ----------------


@pytest.fixture(scope="module")
def full_shift_analysis():
    t0 = time.time()
    scenario = sn.REFERENCE_SCENARIOS["full-2-shift"]()
    out = spectrum_analysis(scenario, "a", "b")
    out["_elapsed"] = time.time() - t0
    out["_scenario"] = scenario
    return out


@pytest.fixture(scope="module")
def golden_analysis():
    t0 = time.time()
    scenario = sn.REFERENCE_SCENARIOS["golden-mean"]()
    out = spectrum_analysis(scenario, "a", "b")
    out["_elapsed"] = time.time() - t0
    out["_scenario"] = scenario
    return out


def test_criterion_4_rank_norm_certificates(full_shift_analysis):
    t0 = time.time()
    rep = full_shift_analysis
    ok = rep["window"] == [-8, 24]
    ok = ok and rep["vanishing_n0"] == 0  # R_n = 0 for every n < 0 in window
    norm_err = rep["norm_fit"]["relative_error"]
    ok = ok and norm_err <= 0.10
    ok = ok and all(cert["holds"] for cert in rep["rank_certificates"].values())
    # mixed commutator slope within 10% of -2 log 2
    scenario = rep["_scenario"]
    seeds = sft.enumerate_homoclinic(scenario.matrix, scenario.orbit_p, scenario.orbit_q, 3)
    reg = fn.BasisRegistry.seeded(seeds, cap=scenario.basis_cap)
    a, b = scenario.functions["a"], scenario.functions["b"]
    # the mixed block n is [alpha^n(a), alpha^-n(b)]: one single-block call per n
    mixed = {}
    for n_blk in range(-4, 13):
        out = fn.commutator_blocks(a, b.alpha(-n_blk), (n_blk, n_blk), reg, scenario.matrix)
        mixed.update(out.trusted_blocks())
    ns, norms = [], []
    for n_blk in sorted(mixed):
        spec = sc.singular_values(mixed[n_blk])
        if len(spec.values) and n_blk >= 0:
            ns.append(n_blk)
            norms.append(spec.values[0])
    lo = ns[-1] - (2 * (ns[-1] - ns[0])) // 3
    pos = [(n_blk, v) for n_blk, v in zip(ns, norms) if n_blk >= lo]
    mixed_slope = float(np.polyfit([n for n, _ in pos], np.log([v for _, v in pos]), 1)[0])
    mixed_err = abs(mixed_slope + 2 * math.log(2)) / (2 * math.log(2))
    ok = ok and mixed_err <= 0.10
    _verdict(
        "4 [rank/norm certificates]",
        ok,
        f"n0={rep['vanishing_n0']}, norm slope err={norm_err:.3f},"
        f" rank certs hold, mixed slope err={mixed_err:.3f}",
        time.time() - t0 + rep["_elapsed"],
    )


def test_criterion_5_summability_threshold(full_shift_analysis, golden_analysis):
    total_elapsed = full_shift_analysis["_elapsed"] + golden_analysis["_elapsed"]
    rep = full_shift_analysis
    slope_err = abs(rep["spectrum_fit"]["slope"] + 1.0)
    ok = slope_err <= 0.15
    v13 = rep["verdicts"]["1.3"]
    v07 = rep["verdicts"]["0.7"]
    ok = ok and v13["verdict"] == "CONVERGENT" and v13["final_relative_increment"] < 1e-3
    ok = ok and v07["verdict"] == "DIVERGENT-TREND"
    grep = golden_analysis
    vlow = grep["verdicts"]["0.494"]
    vhigh = grep["verdicts"]["0.894"]
    flip = vlow["verdict"] == "DIVERGENT-TREND" and vhigh["verdict"] == "CONVERGENT"
    ok = ok and flip
    ok = ok and total_elapsed < 600.0
    _verdict(
        "5 [summability threshold]",
        ok,
        f"slope err={slope_err:.3f}, full p=1.3 {v13['verdict']}"
        f" (rel {v13['final_relative_increment']:.1e}), p=0.7 {v07['verdict']},"
        f" golden flip {vlow['verdict']}@0.494 -> {vhigh['verdict']}@0.894,"
        f" total {total_elapsed:.0f}s < 600s",
        total_elapsed,
    )


# -- criterion 6: singular-value lemma oracle ---------------------------------


def test_criterion_6_staircase_schedule():
    t0 = time.time()
    st = sc.staircase_spectrum(2, 3.0, 22)
    cert = sc.decay_bound_schedule(0.5, 2.0, 3.0, 3.0, 0, 20)
    violations = sc.schedule_violations(cert, st)
    fit = sc.fit_decay_exponent(st)
    slope_err = abs(fit.slope + math.log2(3)) / math.log2(3)
    _verdict(
        "6 [singular-value lemma oracle]",
        not violations and slope_err <= 0.05,
        f"schedule violations={len(violations)}, slope={fit.slope:.4f}"
        f" vs -log2(3)={-math.log2(3):.4f} (err {slope_err:.3f})",
        time.time() - t0,
    )


# -- criterion 7: Schatten numerics -------------------------------------------


def test_criterion_7_schatten_numerics():
    t0 = time.time()
    rng = np.random.default_rng(77)
    worst_svd = 0.0
    for _ in range(100):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        got = sc.singular_values(a).values
        gram = np.sqrt(np.maximum(np.linalg.eigvalsh(a.conj().T @ a), 0.0))[::-1]
        worst_svd = max(worst_svd, float(np.max(np.abs(got - gram) / got[0])))
    sub_failures = 0
    for p in (0.3, 0.5, 0.8, 1.0):
        rep = sc.quasinorm_properties_check(p, 250, seed=int(1000 * p))
        sub_failures += rep.power_subadditivity_failures
    worst_unitary = 0.0
    for _ in range(40):
        a = rng.standard_normal((7, 7))
        perm = np.eye(7)[rng.permutation(7)]
        phase = np.diag(np.exp(2j * np.pi * rng.random(7)))
        s1 = sc.singular_values(a).values
        s2 = sc.singular_values(perm @ phase @ a @ phase.conj().T @ perm.T).values
        worst_unitary = max(worst_unitary, float(np.max(np.abs(s1 - s2))))
    _verdict(
        "7 [Schatten numerics]",
        worst_svd < 1e-10 and sub_failures == 0 and worst_unitary < 1e-10,
        f"svd_vs_gram={worst_svd:.2e}, subadditivity failures={sub_failures}"
        f" (1000 trials), unitary invariance={worst_unitary:.2e}",
        time.time() - t0,
    )


# -- criterion 8: functional-calculus lab -------------------------------------


def test_criterion_8_functional_calculus():
    t0 = time.time()
    rng = np.random.default_rng(88)
    s_mat, t_mat = rng.standard_normal((5, 5)), rng.standard_normal((5, 5))
    z = 2.0 * float(np.max(np.abs(np.linalg.eigvals(s_mat)))) + 0.5
    res1 = fd.resolvent_commutator_check(s_mat, t_mat, z)
    a = np.array([[0.3, 1.1], [0.0, -0.2]], dtype=complex)
    series, term = np.eye(2, dtype=complex), np.eye(2, dtype=complex)
    for k in range(1, 40):
        term = term @ a / k
        series = series + term
    import cmath

    res2 = float(np.linalg.norm(fd.contour_calculus(a, cmath.exp, nodes=256) - series))
    amb = np.array(
        [[2.0, 0.3, 0.1, 0.0], [0.3, 2.5, 0.0, 0.2], [0.1, 0.0, 1.0, 0.5], [0.0, 0.2, 0.5, 0.8]],
        dtype=complex,
    )
    p_corner = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    res3 = fd.corner_calculus_check(amb, p_corner, lambda zz: zz * zz)
    res4 = fd.corner_calculus_check(amb, p_corner, lambda zz: zz * zz, exclude_zero=True)
    _verdict(
        "8 [functional calculus]",
        res1 < 1e-10 and res2 < 1e-8 and res3 < 1e-9 and res4 < 1e-9,
        f"resolvent={res1:.2e}, contour exp={res2:.2e}, corner in/out={res3:.2e}/{res4:.2e}",
        time.time() - t0,
    )


# -- criterion 9: Fredholm constructors ---------------------------------------


def test_criterion_9_fredholm_constructors():
    t0 = time.time()
    scenario = sn.REFERENCE_SCENARIOS["full-2-shift"]()
    m = scenario.matrix
    seeds = list(sft.enumerate_homoclinic(m, scenario.orbit_p, scenario.orbit_q, 2))
    seeds += [sft.build_point((0,), (1, 1, 1, 0), (1,), 0)]
    reg = fn.BasisRegistry.seeded(seeds, cap=3000)
    for x in list(reg.points):
        for k in range(-3, 4):
            reg.add(sft.shift(x, k))
    e_mat = fn.represent(scenario.functions["e_proj"], reg)
    fn.represent(scenario.functions["b_terms"], reg)
    reg.freeze()
    dim = len(reg)
    e_dense = fn.represent(scenario.functions["e_proj"], reg).to_dense(dim)
    b_dense = fn.represent(scenario.functions["b_terms"], reg).to_dense(dim)
    module = fd.make_odd_module(e_dense)
    f_op = module.f_op
    exact_f = np.linalg.norm(f_op @ f_op - np.eye(dim)) == 0.0 and np.linalg.norm(
        f_op - f_op.conj().T
    ) == 0.0
    q1 = b_dense @ (f_op.conj().T - f_op)
    q2 = b_dense @ (f_op @ f_op - np.eye(dim))
    exact_zero = np.all(q1 == 0) and np.all(q2 == 0)
    comm_f = b_dense @ f_op - f_op @ b_dense
    comm_e = b_dense @ e_dense - e_dense @ b_dense
    worst = 0.0
    for p in (0.7, 1.0, 1.3):
        n1 = sc.schatten_norm(sc.singular_values(comm_f), p)
        n2 = sc.schatten_norm(sc.singular_values(comm_e), p)
        worst = max(worst, abs(n1 - 2.0 * n2) / max(n1, 1e-30))
    _verdict(
        "9 [Fredholm constructors]",
        exact_f and exact_zero and worst < 1e-10,
        f"F identities exact={exact_f}, rho(F*-F)=rho(F^2-1)=0 exact={exact_zero},"
        f" p-norm doubling residual={worst:.2e}",
        time.time() - t0,
    )


# -- criterion 10: representation algebra -------------------------------------


def test_criterion_10_representation_algebra():
    t0 = time.time()
    failures = 0
    configs = 0
    for name, mk in sn.REFERENCE_SCENARIOS.items():
        scenario = mk()
        m = scenario.matrix
        term_fns = {
            k: f
            for k, f in scenario.functions.items()
            if all(t.depth == 0 for t in f.terms)
        }
        stable_fns = {k: f for k, f in term_fns.items() if f.side == gd.STABLE}
        unstable_fns = {k: f for k, f in term_fns.items() if f.side == gd.UNSTABLE}
        seeds = sft.enumerate_homoclinic(m, scenario.orbit_p, scenario.orbit_q, 4)
        reg = fn.BasisRegistry.seeded(seeds, cap=30000)
        prods = []
        for f in stable_fns.values():
            for g in stable_fns.values():
                prods.append((f, g, fn.convolve(f, g, m)))
        for f, g, h in prods:
            fn.represent(f, reg)
            fn.represent(g, reg)
            fn.represent(h, reg)
            fn.represent(f.involution(), reg)
        reg.freeze()
        for f, g, h in prods:
            lhs = fn.represent(f, reg).matmul(fn.represent(g, reg))
            rhs = fn.represent(h, reg)
            err = max((abs(v) for v in (lhs - rhs).entries.values()), default=0.0)
            failures += err > 1e-12
            configs += 1
        for f in stable_fns.values():
            d1 = fn.represent(f, reg).dagger()
            d2 = fn.represent(f.involution(), reg)
            failures += bool((d1 - d2).entries)
            configs += 1
        # alpha conjugation, columnwise on shift-complete columns
        for f in stable_fns.values():
            f1 = f.alpha(1)
            for x in list(reg.points)[::23]:
                lhs_col = fn.apply_to_point(f1, x)
                rhs_col = {
                    sft.shift(ypt, 1): v
                    for ypt, v in fn.apply_to_point(f, sft.shift(x, -1)).items()
                }
                failures += lhs_col != rhs_col
                configs += 1
        # rank <= 1 for bisection-indicator pairs across the two sides
        for f in stable_fns.values():
            for g in unstable_fns.values():
                for bs_f in f.supports()[:2]:
                    for bs_g in g.supports()[:2]:
                        ma = fn.represent(fn.indicator(bs_f), reg)
                        mb = fn.represent(fn.indicator(bs_g), reg)
                        failures += sc.numerical_rank(sc.singular_values(ma.matmul(mb))) > 1
                        failures += sc.numerical_rank(sc.singular_values(mb.matmul(ma))) > 1
                        configs += 2
        assert reg.truncation_events == 0, "configurations must be truncation-free"
    _verdict(
        "10 [representation algebra]",
        failures == 0,
        f"{configs} truncation-free configurations, failures={failures}",
        time.time() - t0,
    )
