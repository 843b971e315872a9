"""The validate command: entropy, dimension and threshold of the scenario."""

from __future__ import annotations

import math

from . import sft
from .report import EXIT_OK, skeleton


def run(scenario, args):
    rep = skeleton(scenario, "validate")
    h = sft.entropy(scenario.matrix)
    rep["entropy"] = h
    rep["hausdorff_dimension"] = sft.hausdorff_dimension(scenario.matrix, scenario.kappa)
    rep["summability_threshold"] = h / math.log(scenario.kappa)
    rep["alphabet"] = scenario.matrix.n
    rep["orbit_P"] = list(scenario.orbit_p.cycle)
    rep["orbit_Q"] = list(scenario.orbit_q.cycle)
    points = sft.enumerate_homoclinic(
        scenario.matrix, scenario.orbit_p, scenario.orbit_q, min(scenario.core_bound, 4)
    )
    rep["homoclinic_sample_size"] = len(points)
    return EXIT_OK, {"validate.json": rep}
