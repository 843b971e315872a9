"""The metric-audit command: ultrametric, isometry and contraction checks
of the groupoid metric on sampled elements."""

from __future__ import annotations

import numpy as np

from . import functions as fn
from . import groupoid as gd
from . import sampling as smp
from . import sft
from .report import EXIT_FINDINGS, EXIT_OK, seeded_rng, skeleton

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


def run(scenario, args):
    """Ultrametric / isometry / contraction property suite on sampled data.

    Draw order: the elements, then two indices per sampled pair, three per
    triangle and two pool indices per unit pair, each loop consuming its
    draws in order; no other draw comes between.  The loops take their
    draws from sampling.draws, one chunk at a time, in this one process,
    and check a chunk as array operations: the metric of the
    elements, their Phi^-1 shifts and their inverses comes from one
    groupoid.ElementFamily, and the unit pairs compare the metric of one
    ElementFamily of the pool's units with its close branch.  Each check's
    witness is its first failing draw.
    """
    rng = seeded_rng(scenario, 1)
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

    for i, j in smp.draws(rng, (n, n), samples):
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

    # d(i, k) <= max(d(i, j), d(j, k)) on exponents; NO_DISTANCE is the largest
    for i, j, k in smp.draws(rng, (n, n, n), samples // 3):
        held = metric(i, k) >= np.minimum(metric(i, j), metric(j, k))
        _record(checks, "ultrametric_triangle", len(i), ~held, lambda t: (int(i[t]), int(j[t]), int(k[t])))

    # the pool's units: point index k is pool[k], and so is element k
    units = gd.ElementFamily([gd.unit(x) for x in pool])
    for xs, ys in smp.draws(rng, (len(pool), len(pool)), samples // 5):
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

    rep = skeleton(scenario, "metric-audit")
    rep["sample_count"] = samples
    rep["element_count"] = n
    rep["checks"] = {
        name: {"checked": c, "failures": f, "first_counterexample": w}
        for name, (c, f, w) in checks.items()
    }
    failures = sum(f for _, f, _ in checks.values())
    rep["total_failures"] = failures
    return EXIT_OK if failures == 0 else EXIT_FINDINGS, {"metric_audit.json": rep}
