"""The auf-audit command: cover-sequence metrization checks on sampled
elements."""

from __future__ import annotations

import os

import numpy as np

from . import aufmetric as auf
from . import groupoid as gd
from . import sampling as smp
from .errors import InsufficientData
from .report import EXIT_FINDINGS, EXIT_OK, seeded_rng, skeleton


def run(scenario, args):
    rng = seeded_rng(scenario, 2)
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
    with open(os.path.join(args.out, "quasimetric.csv"), "w") as handle:
        auf.write_csv(table, handle)
    star = auf.star_refinement_check(family, cp, rng, max(1000, args.samples // 10), vcap=vcap)

    rep = skeleton(scenario, "auf-audit")
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
    ok = sandwich.ok and star.ok and fit_ok
    return EXIT_OK if ok else EXIT_FINDINGS, {"auf_audit.json": rep}
