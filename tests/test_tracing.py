"""Smoke test of the benchmark's traced path (perfbench/tracing.py).

The traced benchmark run wraps module functions of the program by name,
drives the spectrum stage block by block and times a few functions on the
deepest block's columns.  This runs that path on a small window, so that a
change to the program that breaks it fails here, not first in a traced
benchmark run.
"""

import filecmp
import math
import pathlib
import sys

import numpy as np

from sftops import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402


def test_traced_spectrum_stage_and_microbenchmarks(tmp_path):
    mods = tracing.import_program()
    before = {name: dict(vars(mod)) for name, mod in mods.items()}
    scenario = mods["scenarios"].REFERENCE_SCENARIOS["full-2-shift"]()
    tr, ct = tracing.Tracer("smoke"), tracing.Counters()
    # blocks -1 and 2-4 have no support columns; the deepest, 7, has four
    patches = tracing.install_patches(mods, tr, ct)
    try:
        trusted, verdicts = tracing.spectrum_stage(mods, tr, ct, scenario, (-2, 7), str(tmp_path / "drive"))
    finally:
        patches.restore()
    # restore puts back every module attribute it wrapped
    for name, mod in mods.items():
        assert all(vars(mod).get(k) is v for k, v in before[name].items()), name

    assert trusted == list(range(-2, 8))
    assert set(verdicts) == {str(p) for p in scenario.p_grid}
    assert [s["attrs"]["n"] for s in tr.spans if s["name"] == "functions.block"] == trusted
    assert ct.values["functions.columns_enumerated"] > 0
    assert ct.values["functions.columns_estimated"] >= ct.values["functions.columns_enumerated"]
    (a_n, b, cols), = ct.block_columns.values()
    assert cols and a_n.side == "stable" and b.side == "unstable"

    # the per-block drive writes the CLI's spectrum reports byte for byte
    cli_dir = tmp_path / "cli"
    assert cli.main(["spectrum", "--scenario", "full-2-shift", "--window=-2..7", "--out", str(cli_dir)]) == 0
    names = sorted(p.name for p in cli_dir.glob("*.csv"))
    assert names == sorted(p.name for p in (tmp_path / "drive").iterdir())
    _, mismatch, errors = filecmp.cmpfiles(tmp_path / "drive", cli_dir, names, shallow=False)
    assert not mismatch and not errors

    smp = mods["sampling"]
    rng = np.random.default_rng(0)
    ct.elements = smp.audit_elements(scenario.matrix, scenario.orbit_p, scenario.orbit_q, rng, 40)
    micro = tracing.microbenchmarks(mods, ct, 0)
    assert set(micro) == {name for name in tracing.PER_LAYER_UNITS if name.endswith(".us_per_op")}
    assert all(math.isfinite(v) and v > 0 for v in micro.values())
