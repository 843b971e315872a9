"""The fredholm command: the odd Fredholm module of a projection on a
window of the inflated representation, its summability table and the
holomorphic-calculus checks."""

from __future__ import annotations

import cmath
import sys

import numpy as np

from . import fredholm as fd
from . import functions as fn
from . import sft
from .errors import NotAProjection, ResourceLimit
from .report import EXIT_FINDINGS, EXIT_INVALID, EXIT_OK, function_pair, seeded_rng, skeleton


def run(scenario, args):
    names = function_pair(scenario, "fredholm", ["e_proj", "e_unit"], ["b_terms", "b"])
    if names is None:
        return EXIT_INVALID, {}
    proj_name, b_name = names
    proj_fn, b_fn = scenario.functions[proj_name], scenario.functions[b_name]
    m = scenario.matrix
    rep = skeleton(scenario, "fredholm")
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
        raise ResourceLimit(
            f"dense side {dim} ({len(reg)} basis points x {width} window slots) exceeds the cap {fn.DENSE_SIDE_CAP}"
        )

    # e's dense matrix lives only while F is built and b's is built after
    # it, so F, b and one summability operator are the dense matrices held
    e_infl = fd.inflate_stable(proj_fn, 0, lab_window, reg)
    try:
        module = fd.make_odd_module(fd.densify(e_infl, lab_window, len(reg)))
    except NotAProjection as exc:
        print(f"fredholm: {proj_name} is not a projection: {exc}", file=sys.stderr)
        return EXIT_INVALID, {}
    f_op = module.f_op
    rep["window"] = list(lab_window)
    rep["interior_margin"] = 1
    # the norm of F - F* is that of its negation F* - F
    rep["odd_module"] = {
        "f_squared_residual": float(np.linalg.norm(fd.square_defect(f_op))),
        "f_adjoint_residual": float(np.linalg.norm(fd.adjoint_defect(f_op))),
    }
    b_dense = fd.densify(fd.inflate_unstable(b_fn, 0, lab_window, reg), lab_window, len(reg))
    rep["summability_table"] = fd.summability_report(module, {b_name: b_dense}, scenario.p_grid)

    rng = seeded_rng(scenario, 3)
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
    ok = (
        rep["odd_module"]["f_squared_residual"] == 0.0
        and rep["resolvent_identity_residual"] < 1e-10
        and rep["contour_exp_residual"] < 1e-8
        and rep["corner_residual_zero_inside"] < 1e-9
        and rep["corner_residual_zero_outside"] < 1e-9
    )
    return EXIT_OK if ok else EXIT_FINDINGS, {"fredholm.json": rep}
