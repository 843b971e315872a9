import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time
import warnings
import zlib

import numpy as np
import pytest

from sftops import aufmetric as auf
from sftops import cli
from sftops import cmd_metric_audit
from sftops import cmd_spectrum
from sftops import cmd_validate
from sftops import forked
from sftops import groupoid as gd
from sftops import sampling as smp
from sftops import scenarios as sn

import oracles
from oracles import period_two_scenario

ROOT = pathlib.Path(__file__).resolve().parent.parent
REFERENCE_DIR = pathlib.Path(sn.REFERENCE_DIR)


def scenario_text(s):
    return json.dumps(sn.scenario_to_dict(s), indent=2, sort_keys=True)


def small_scenario(tmp_path, name="small"):
    s = sn.REFERENCE_SCENARIOS["full-2-shift"]()
    s.name = name
    s.basis_cap = 3000
    s.window = (-4, 10)
    path = tmp_path / f"{name}.json"
    path.write_text(scenario_text(s))
    return str(path)


def run(args):
    return cli.main(args)


class TestValidate:
    def test_full_shift_numbers(self, tmp_path):
        out = tmp_path / "o"
        assert run(["validate", "--scenario", "full-2-shift", "--out", str(out)]) == 0
        rep = json.loads((out / "validate.json").read_text())
        assert abs(rep["entropy"] - math.log(2)) < 1e-12
        assert abs(rep["hausdorff_dimension"] - 2.0) < 1e-12
        assert abs(rep["summability_threshold"] - 1.0) < 1e-12

    def test_golden_mean_entropy(self, tmp_path):
        out = tmp_path / "o"
        assert run(["validate", "--scenario", "golden-mean", "--out", str(out)]) == 0
        rep = json.loads((out / "validate.json").read_text())
        assert abs(rep["entropy"] - 0.481212) < 1e-6

    def test_disconnected_matrix_exit_2(self, tmp_path):
        bad = {
            "name": "bad",
            "matrix": [[1, 0], [0, 1]],
            "kappa": 2.0,
            "orbit_P": [1],
            "orbit_Q": [0],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert run(["validate", "--scenario", str(path), "--out", str(tmp_path)]) == 2

    def test_unreadable_scenario_exit_2(self, tmp_path):
        assert run(["validate", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2

    def test_overlapping_orbits_exit_2(self, tmp_path):
        bad = {
            "name": "bad",
            "matrix": [[1, 1], [1, 1]],
            "kappa": 2.0,
            "orbit_P": [0],
            "orbit_Q": [0],
        }
        path = tmp_path / "bad2.json"
        path.write_text(json.dumps(bad))
        assert run(["validate", "--scenario", str(path), "--out", str(tmp_path)]) == 2


def _tamper_metric(monkeypatch):
    # the tamper is a function of the (unordered) element pair alone, on
    # the family metric that the sampled loops and the unit pairs read, so
    # its witnesses do not depend on call order
    def broken(a, b):
        x, y = sorted([f"{a.first}{a.second}", f"{b.first}{b.second}"])
        return zlib.crc32((x + y).encode()) % 31 == 0

    real_family = gd.ElementFamily.metric_exponents

    def tampered_family(family, i, j):
        e = real_family(family, i, j)
        pts = family.window.points

        def element(k):
            return gd.GroupoidElement(pts[family.first[k]], pts[family.second[k]], family.side)

        hit = np.array([broken(element(a), element(b)) for a, b in zip(i, j)], dtype=bool)
        return np.where(hit & (e != gd.NO_DISTANCE), e + 1, e)

    monkeypatch.setattr(gd.ElementFamily, "metric_exponents", tampered_family)


class TestMetricAudit:
    def test_zero_failures(self, tmp_path):
        out = tmp_path / "o"
        code = run(
            ["metric-audit", "--scenario", "full-2-shift", "--out", str(out), "--samples", "3000"]
        )
        assert code == 0
        rep = json.loads((out / "metric_audit.json").read_text())
        assert rep["total_failures"] == 0
        assert rep["sample_count"] == 3000

    def test_sample_count_respected(self, tmp_path):
        out = tmp_path / "o"
        run(["metric-audit", "--scenario", "full-2-shift", "--out", str(out), "--samples", "777"])
        rep = json.loads((out / "metric_audit.json").read_text())
        for name in ("inversion_isometry", "phi_global_sandwich"):
            assert rep["checks"][name]["checked"] == 777

    def test_tampered_metric_surfaces_failure(self, tmp_path, monkeypatch):
        _tamper_metric(monkeypatch)
        out = tmp_path / "o"
        code = run(
            ["metric-audit", "--scenario", "full-2-shift", "--out", str(out), "--samples", "2000"]
        )
        assert code == 1
        rep = json.loads((out / "metric_audit.json").read_text())
        assert rep["total_failures"] > 0
        bad = [c for c in rep["checks"].values() if c["failures"]]
        assert bad and bad[0]["first_counterexample"] is not None
        # pinned witnesses: building them only on failure must not change them
        checks = rep["checks"]
        assert checks["inversion_isometry"]["first_counterexample"] == [199, 151, 1, 0]
        assert checks["ultrametric_triangle"]["first_counterexample"] == [179, 162, 132]
        assert checks["units_two_branch"]["failures"] == 6
        assert checks["units_two_branch"]["first_counterexample"] == [
            "Point('0*|@0|1*')",
            "Point('0*|@-1|1*')",
        ]


@pytest.mark.parametrize("command", ["metric-audit", "auf-audit"])
def test_negative_samples_exit_2(tmp_path, capsys, command):
    out = tmp_path / "o"
    assert run([command, "--scenario", "full-2-shift", "--out", str(out), "--samples", "-3"]) == 2
    assert "--samples" in capsys.readouterr().err
    assert not out.exists()
    # zero draws nothing and still reports
    assert run([command, "--scenario", "full-2-shift", "--out", str(out), "--samples", "0"]) == 0


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert (
                run(
                    [
                        "metric-audit",
                        "--scenario",
                        "full-2-shift",
                        "--out",
                        str(out),
                        "--samples",
                        "1500",
                    ]
                )
                == 0
            )
        assert (out1 / "metric_audit.json").read_bytes() == (out2 / "metric_audit.json").read_bytes()

    def test_seed_changes_sampling(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run(["auf-audit", "--scenario", "full-2-shift", "--out", str(out1), "--samples", "4000"])
        run(
            [
                "auf-audit",
                "--scenario",
                "full-2-shift",
                "--out",
                str(out2),
                "--samples",
                "4000",
                "--seed",
                "99",
            ]
        )
        r1 = json.loads((out1 / "auf_audit.json").read_text())
        r2 = json.loads((out2 / "auf_audit.json").read_text())
        assert r1["star_refinement"] != r2["star_refinement"]


# SHA-256 of the audit reports by --samples: the 2000 entries were recorded
# before the AUF tables were shared per source and the metric-audit elements
# built once, the 20000 entries (the benchmark's size) before the audits'
# draws were batched; the latter equal the seed-0 records in
# perfbench/digests.json
AUDIT_DIGESTS = {
    ("full-2-shift", "auf-audit"): {
        2000: {
            "auf_audit.json": "6b88423402c6228226cb798b6d353e682a351bf451ef896af2a354af7a1f3ae2",
            "quasimetric.csv": "a9a8ddd4a3899dc30e9a6c71cf9ee5608e35910eaa498c31273533a5983697c0",
        },
        20000: {
            "auf_audit.json": "d8ce725f55f9e2b599a5a4d55fd77cde761f29befa12d47f6f38b398185e64ea",
            "quasimetric.csv": "ba4bdbca361910e181604c2bcf7620ef570f090625693a453b6dac871881c962",
        },
    },
    ("full-2-shift", "metric-audit"): {
        2000: {
            "metric_audit.json": "6a39c59e68595810447d190c82494b9657275b1275c5b27573da77d63fed5f55",
        },
        20000: {
            "metric_audit.json": "9712d60a8206865a5c87996e2662ff0f6b47ac0b235eed4dd2663e63d2c71c85",
        },
    },
    ("golden-mean", "auf-audit"): {
        2000: {
            "auf_audit.json": "586e3ea631736edf78d914f3fbcf04926fde176addbb6590072faf56c95f17b3",
            "quasimetric.csv": "cb9728b2fc5320909f0dc2e5cd346353937cdeff43c6af1f301c319ad8e1c995",
        },
        20000: {
            "auf_audit.json": "cea209d77818f125d31c83a84625b107c78a29528c095d8ab2ae2ceb8e3af1ee",
            "quasimetric.csv": "e50282a19dafc0e74db822008cdbe53c9a558a547b8ee2edfef60bad12af2cd4",
        },
    },
    ("golden-mean", "metric-audit"): {
        2000: {
            "metric_audit.json": "91bb5d84b284b823981febeb3395a40346951fa1e3d53744e920f0f58a06289a",
        },
        20000: {
            "metric_audit.json": "7d94b12c6da2a8751d436d31f155c9e068675104d24fd52715b89cc62d908f29",
        },
    },
}


@pytest.mark.parametrize("scenario,command", sorted(AUDIT_DIGESTS))
def test_audit_reports_pinned(tmp_path, scenario, command):
    for samples, digests in AUDIT_DIGESTS[scenario, command].items():
        out = tmp_path / str(samples)
        argv = [command, "--scenario", scenario, "--out", str(out), "--samples", str(samples)]
        assert run(argv) == 0
        for name, digest in digests.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, (samples, name)


def test_audit_pins_match_benchmark_digests():
    # the benchmark checks its seed-0 reports against the same bytes
    recorded = json.loads((ROOT / "perfbench" / "digests.json").read_text())["audit-mix"]
    for (scenario, command), by_samples in AUDIT_DIGESTS.items():
        assert recorded[f"{scenario} {command} --samples 20000"] == by_samples[20000]


# the benchmark's other seed-0 reports, keyed by command line as in
# perfbench/digests.json: spectrum at the benchmark windows, validate and
# fredholm
REPORT_PINS = {
    "full-2-shift spectrum --window=-8..15": "spectrum",
    "golden-mean spectrum --window=-8..19": "spectrum",
    "full-2-shift validate": "audit-mix",
    "golden-mean validate": "audit-mix",
    "full-2-shift fredholm": "audit-mix",
    "golden-mean fredholm": "audit-mix",
}


@pytest.mark.parametrize("key", sorted(REPORT_PINS))
def test_reports_match_benchmark_digests(tmp_path, key):
    recorded = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    scenario, command, *flags = key.split()
    assert run([command, "--scenario", scenario, "--out", str(tmp_path), *flags]) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()
    }
    assert digests == recorded[REPORT_PINS[key]][key]


def audit_draw_bounds(name):
    """Every bound the audits draw indices from on a reference scenario."""
    s = sn.REFERENCE_SCENARIOS[name]()
    m, p, q = s.matrix, s.orbit_p, s.orbit_q
    bounds = {len(smp.homoclinic_pool(m, p, q, 2, range(0, 5)))}  # metric-audit unit pairs
    for samples in (2000, 10000, 20000):
        rng = np.random.default_rng(s.seed + 1)
        bounds.add(len(smp.audit_elements(m, p, q, rng, max(240, samples // 40))))
        rng = np.random.default_rng(s.seed + 2)
        bounds.add(len(smp.audit_elements(m, p, q, rng, max(200, samples // 50))))
    return sorted(bounds)


@pytest.mark.parametrize("name", sorted(sn.REFERENCE_SCENARIOS))
def test_numpy_draw_contract(name):
    # the audits batch their index draws; if a numpy release changes how a
    # batch relates to scalar draws, this fails instead of the reports
    # changing silently
    bounds = audit_draw_bounds(name)
    assert len(bounds) >= 3
    for bound in bounds:
        for seed in (0, 1, 2**32 + 7):
            for count in (1, 7, cmd_metric_audit.DRAW_CHUNK, 2 * cmd_metric_audit.DRAW_CHUNK + 3):
                scalar_rng, batch_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                scalar = [int(scalar_rng.integers(bound)) for _ in range(count)]
                assert [int(v) for (chunk,) in cmd_metric_audit._draws(batch_rng, bound, 1, count) for v in chunk] == scalar
                chunk = batch_rng.integers(bound, size=count).tolist()
                assert chunk == [int(scalar_rng.integers(bound)) for _ in range(count)]
                assert batch_rng.bit_generator.state == scalar_rng.bit_generator.state
    levels = auf.STAR_LEVELS
    for seed in (0, 1, 2):
        choice_rng, index_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for bound in bounds:
            assert int(choice_rng.integers(bound)) == int(index_rng.integers(bound))
            for _ in range(50):
                drawn = levels[int(index_rng.integers(len(levels)))]
                assert int(choice_rng.choice(levels)) == drawn
        assert choice_rng.bit_generator.state == index_rng.bit_generator.state
    # the star check draws each trial's center index and level index in one
    # call over the alternating bounds
    for bound in bounds:
        for seed in (0, 1, 2**32 + 7):
            for trials in (1, 7, 1000, 2003):
                scalar_rng, batch_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                scalar = [int(scalar_rng.integers(b)) for _ in range(trials) for b in (bound, len(levels))]
                assert batch_rng.integers(np.tile([bound, len(levels)], trials)).tolist() == scalar
                assert batch_rng.bit_generator.state == scalar_rng.bit_generator.state


class TestAufAudit:
    def test_clean_run(self, tmp_path):
        out = tmp_path / "o"
        code = run(
            ["auf-audit", "--scenario", "full-2-shift", "--out", str(out), "--samples", "5000"]
        )
        assert code == 0
        rep = json.loads((out / "auf_audit.json").read_text())
        assert rep["sandwich"]["lower_violations"] == 0
        assert rep["star_refinement"]["violations"] == 0
        assert rep["diameter_regression"]["relative_error"] <= 0.10
        assert (out / "quasimetric.csv").exists()


class TestSpectrum:
    def test_small_spectrum_run(self, tmp_path):
        path = small_scenario(tmp_path)
        out = tmp_path / "o"
        code = run(["spectrum", "--scenario", path, "--out", str(out)])
        assert code == 0
        rep = json.loads((out / "spectrum.json").read_text())
        assert rep["vanishing_n0"] >= 0
        assert rep["trusted_blocks"]
        csv_lines = (out / "spectrum.csv").read_text().splitlines()
        assert csv_lines[0] == "index,value"
        assert len(csv_lines) == rep["spectrum_count"] + 1
        # 17 significant digits in the CSV payload
        assert any(len(line.split(",")[1]) >= 17 for line in csv_lines[1:])

    def test_unknown_function_exit_2(self, tmp_path):
        path = small_scenario(tmp_path)
        code = run(
            [
                "spectrum",
                "--scenario",
                path,
                "--out",
                str(tmp_path),
                "--stable-function",
                "missing",
            ]
        )
        assert code == 2

    def test_no_trusted_blocks_exit_3(self, tmp_path):
        path = small_scenario(tmp_path)
        out = tmp_path / "o"
        code = run(["spectrum", "--scenario", path, "--out", str(out), "--cap", "4"])
        assert code == 3

    def test_decay_certificate_sound(self, tmp_path):
        path = small_scenario(tmp_path)
        out = tmp_path / "o"
        assert run(["spectrum", "--scenario", path, "--out", str(out)]) == 0
        rep = json.loads((out / "spectrum.json").read_text())
        cert = rep["decay_certificate"]
        assert cert["violations"] == 0
        assert cert["schedule"] and cert["exponent"] > 0

    def test_empty_function_trivially_convergent(self, tmp_path):
        from sftops import functions as fnmod

        s = sn.REFERENCE_SCENARIOS["full-2-shift"]()
        s.basis_cap = 500
        s.window = (-2, 4)
        s.functions["zero"] = fnmod.LocallyConstantFunction("stable", ())
        analysis = cmd_spectrum.spectrum_analysis(s, "zero", "b")
        assert analysis["spectrum_count"] == 0
        assert all(v["verdict"] == "CONVERGENT" for v in analysis["verdicts"].values())

    def test_window_flag(self, tmp_path):
        path = small_scenario(tmp_path)
        out = tmp_path / "o"
        code = run(["spectrum", "--scenario", path, "--out", str(out), "--window=-2..6"])
        assert code == 0
        rep = json.loads((out / "spectrum.json").read_text())
        assert rep["window"] == [-2, 6]

    @pytest.mark.parametrize(
        "flags",
        [
            # block 0 is the only nonzero block of the multi-term pair
            ("--stable-function=a_terms", "--unstable-function=b_terms", "--window=-2..6"),
            # blocks 0 and 1 are nonzero, and the fit window is block 1 alone
            ("--window=0..1",),
        ],
    )
    def test_one_nonzero_block_in_fit_window(self, tmp_path, flags):
        out = tmp_path / "o"
        assert run(["spectrum", "--scenario", "full-2-shift", "--out", str(out), *flags]) == 0
        rep = json.loads((out / "spectrum.json").read_text())
        assert "norm_fit" not in rep
        assert rep["verdicts"] and rep["spectrum_count"] >= 1


class TestFredholmCommand:
    def test_residuals(self, tmp_path):
        out = tmp_path / "o"
        code = run(["fredholm", "--scenario", "full-2-shift", "--out", str(out)])
        assert code == 0
        rep = json.loads((out / "fredholm.json").read_text())
        assert rep["odd_module"]["f_squared_residual"] == 0.0
        assert rep["resolvent_identity_residual"] < 1e-10
        assert rep["contour_exp_residual"] < 1e-8
        assert rep["corner_residual_zero_inside"] < 1e-9
        assert rep["corner_residual_zero_outside"] < 1e-9
        assert rep["summability_table"]

    def test_verdict_column_present(self, tmp_path):
        out = tmp_path / "o"
        run(["fredholm", "--scenario", "full-2-shift", "--out", str(out)])
        rep = json.loads((out / "fredholm.json").read_text())
        assert all("verdict" in row for row in rep["summability_table"])


    def test_oversized_basis_exit_3(self, tmp_path, capsys):
        # the reference functions on the full 16-shift: 2423 basis points
        # with e's images, so dense matrices of side 12115 (2.3 GB each)
        path = edited_reference(tmp_path, ["matrix"], [[1] * 16 for _ in range(16)])
        start = time.perf_counter()
        assert run(["fredholm", "--scenario", path, "--out", str(tmp_path / "o")]) == 3
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "dense side 12115 (2423 basis points x 5 window slots)" in err
        assert "Traceback" not in err


class TestScenarioRoundTrip:
    def test_reference_scenarios_serialize(self, tmp_path):
        for name, mk in sn.REFERENCE_SCENARIOS.items():
            s = mk()
            path = tmp_path / f"{name}.json"
            path.write_text(scenario_text(s))
            s2 = sn.load_scenario(str(path))
            assert sn.scenario_hash(s) == sn.scenario_hash(s2)

    def test_reference_hashes_pinned(self):
        # recorded before the function types were merged; every report
        # carries this hash
        pinned = {"full-2-shift": "37c68ad9b43fffb3", "golden-mean": "9da2ff7c046d10a1"}
        for name, mk in sn.REFERENCE_SCENARIOS.items():
            assert sn.scenario_hash(mk()) == pinned[name]


def shipped_functions():
    text = (REFERENCE_DIR / "full-2-shift.json").read_text()
    return json.loads(text)["functions"]


class TestFunctionJson:
    """The three JSON spellings of a term list, read from the shipped file."""

    def round_trip(self, d):
        f = sn.function_from_dict(json.loads(json.dumps(d)))
        return f, json.loads(json.dumps(sn.function_to_dict(f)))

    def test_terms_form(self):
        d = shipped_functions()["e_unit"]
        f, back = self.round_trip(d)
        assert back == d
        assert len(f.terms) == 6 and all(t.depth == 0 for t in f.terms)

    def test_profile_form(self):
        d = shipped_functions()["a"]
        f, back = self.round_trip(d)
        assert back == d
        ((_, coeff, depth, seed),) = f.terms
        assert (coeff, depth, seed) == (1.0, 30, "ref-a")

    def test_sum_form(self):
        fns = shipped_functions()
        d = {"side": "stable", "sum": [fns["a_terms"], fns["a"], fns["e_proj"]]}
        f, back = self.round_trip(d)
        assert back == d
        parts = [sn.function_from_dict(p) for p in d["sum"]]
        assert f.terms == sum((p.terms for p in parts), ())

    def test_sum_normalised_to_maximal_runs(self):
        fns = shipped_functions()
        nested = {"side": "stable", "sum": [fns["a_terms"], {"side": "stable", "sum": [fns["e_proj"]]}]}
        _, back = self.round_trip(nested)
        merged = dict(fns["a_terms"], terms=fns["a_terms"]["terms"] + fns["e_proj"]["terms"])
        assert back == merged
        lone = {"side": "stable", "sum": [fns["a"]]}
        assert self.round_trip(lone)[1] == fns["a"]

    def test_side_mismatch_in_sum_exit_2(self, tmp_path):
        data = json.loads((REFERENCE_DIR / "full-2-shift.json").read_text())
        fns = data["functions"]
        fns["mixed"] = {"side": "stable", "sum": [fns["a"], fns["b"]]}
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(data))
        assert run(["validate", "--scenario", str(path), "--out", str(tmp_path)]) == 2


def edited_reference(tmp_path, keys, value):
    """The shipped full-2-shift scenario with the entry at `keys` set to value."""
    data = json.loads((REFERENCE_DIR / "full-2-shift.json").read_text())
    target = data
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    return str(path)


ANCHOR = ["functions", "a", "profile", "support", "anchor"]


class TestBadInput:
    """Bad input exits 2 with a message, not with a traceback, 1 or 3."""

    @pytest.mark.parametrize(
        "keys,value,message",
        [
            (["orbit_P"], [1.7], "orbit_P symbol must be an integer"),
            (["matrix", 0, 0], 1.5, "matrix entry must be an integer"),
            (["core_bound"], True, "core_bound must be an integer"),
            (["window"], [-8.5, 3], "window bound must be an integer"),
            (["window"], ["-8", "3"], "window bound must be an integer"),
            (["basis_cap"], 2000.9, "basis_cap must be an integer"),
            (["seed"], 3.5, "seed must be an integer"),
            (["seed"], -5, "seed must be >= 0"),
            (["functions", "a", "profile", "support", "radius_exp"], 1.0, "radius_exp must be an integer"),
            (["functions", "a", "profile", "support", "time"], 0.0, "time must be an integer"),
            (["functions", "a", "profile", "depth"], 30.5, "depth must be an integer"),
            (["kappa"], "2", "kappa must be a number"),
            (["kappa"], True, "kappa must be a number"),
            (["p_grid"], ["1.0"], "p_grid entry must be a number"),
            (["p_grid"], [0.7, False], "p_grid entry must be a number"),
            (["functions", "e_proj", "terms", 0, "coeff"], [True, False], "coeff must be a number"),
            (["functions", "a", "profile", "coeff"], [1.0, "0"], "coeff must be a number"),
            (ANCHOR, ["0*|@0|1*"], "anchor must be an array of two entries"),
            (ANCHOR, ["0*|@0|1*", "0*|10@-2|1*", "0*|@0|1*"], "anchor must be an array of two entries"),
            (ANCHOR, "0*|@0|1*", "anchor must be an array of two entries"),
            (ANCHOR, ["0*|@0|1*", 5], "anchor point must be a string"),
            (["functions", "e_proj", "terms", 0, "coeff"], [1.0], "coeff must be an array of two entries"),
            (["functions", "a", "profile", "coeff"], [1.0, 0.0, 0.0], "coeff must be an array of two entries"),
            (["functions", "a", "profile", "seed"], 7, "profile seed must be a string"),
            (["functions", "a", "profile", "seed"], "\ud800x", "profile seed must be UTF-8 text"),
            (["name"], ["x"], "name must be a string"),
            (["functions", "e_proj", "terms", 0, "coeff"], [math.nan, 0.0], "coeff must be finite"),
            (["functions", "e_proj", "terms", 0, "coeff"], [1.0, math.inf], "coeff must be finite"),
            (["functions", "a", "profile", "coeff"], [math.nan, 0.0], "coeff must be finite"),
            (["functions", "a", "profile", "coeff"], [-math.inf, 0.0], "coeff must be finite"),
        ],
        ids=[
            "orbit-float", "matrix-float", "core-bound-bool", "window-float", "window-strings",
            "cap-float", "seed-float", "seed-negative", "radius-float", "time-float", "depth-float",
            "kappa-string", "kappa-bool", "p-string", "p-bool", "coeff-bool", "profile-coeff-string",
            "anchor-one-point", "anchor-three-points", "anchor-string", "anchor-point-number",
            "coeff-one-part", "profile-coeff-three-parts", "profile-seed-number",
            "profile-seed-surrogate", "name-list",
            "coeff-nan", "coeff-infinity", "profile-coeff-nan", "profile-coeff-infinity",
        ],
    )
    def test_non_integer_exit_2(self, tmp_path, capsys, keys, value, message):
        # int() used to truncate these (exit 0, reporting the truncated
        # value), and float() and complex() read a string or a bool as a
        # number; a float or string window crashed spectrum (exit 4).  A
        # short anchor or coeff raised IndexError (exit 1), a long one was
        # cut to two entries, and str() read a number or a list as a profile
        # seed or a name (exit 0).  A NaN or infinite coeff made the SVD of
        # spectrum fail to converge (exit 4), and so did a profile seed with
        # a lone surrogate, which the profile bits cannot hash (exit 4)
        path = edited_reference(tmp_path, keys, value)
        for command in ("validate", "spectrum"):
            assert run([command, "--scenario", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"invalid scenario: {message}" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["validate", "metric-audit"])
    def test_negative_seed_flag_exit_2(self, tmp_path, capsys, command):
        # the seed is a u64; metric-audit used to crash on it (exit 4)
        argv = [command, "--scenario", "full-2-shift", "--out", str(tmp_path), "--seed", "-5"]
        assert run(argv) == 2
        assert "seed" in capsys.readouterr().err

    def test_nan_p_grid_exit_2(self, tmp_path):
        # used to exit 0 and write "p": NaN, which is not JSON
        path = small_scenario(tmp_path)
        out = tmp_path / "o"
        assert run(["spectrum", "--scenario", path, "--out", str(out), "--p-grid", "nan,1"]) == 2
        assert not out.exists()

    def test_infinite_kappa_exit_2(self, tmp_path):
        # json reads the Infinity that json.dumps writes
        path = edited_reference(tmp_path, ["kappa"], math.inf)
        assert run(["validate", "--scenario", path, "--out", str(tmp_path)]) == 2

    def test_kappa_one_exit_2(self, tmp_path):
        path = edited_reference(tmp_path, ["kappa"], 1.0)
        assert run(["validate", "--scenario", path, "--out", str(tmp_path)]) == 2

    def test_negative_depth_exit_2(self, tmp_path):
        path = edited_reference(tmp_path, ["functions", "a", "profile", "depth"], -1)
        assert run(["validate", "--scenario", path, "--out", str(tmp_path)]) == 2

    def test_bad_p_grid_and_window_exit_2(self, tmp_path):
        path = small_scenario(tmp_path)
        argv = ["spectrum", "--scenario", path, "--out", str(tmp_path), "--p-grid=-1,0", "--window=2..1"]
        assert run(argv) == 2

    def test_empty_window_exit_2(self, tmp_path):
        path = small_scenario(tmp_path)
        assert run(["spectrum", "--scenario", path, "--out", str(tmp_path), "--window=2..1"]) == 2

    def test_zero_cap_exit_2(self, tmp_path):
        path = small_scenario(tmp_path)
        assert run(["spectrum", "--scenario", path, "--out", str(tmp_path), "--cap=0"]) == 2

    @pytest.mark.parametrize(
        "malform",
        [
            lambda data: [data],
            lambda data: dict(data, functions=[]),
            lambda data: dict(data, window=[3]),
            lambda data: dict(data, core_bound=1e400),
        ],
        ids=["top-level-list", "functions-list", "one-ended-window", "overflowing-core-bound"],
    )
    def test_malformed_json_exit_2(self, tmp_path, capsys, malform):
        data = json.loads((REFERENCE_DIR / "full-2-shift.json").read_text())
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(malform(data)))
        assert run(["validate", "--scenario", str(path), "--out", str(tmp_path)]) == 2
        assert "invalid scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("depth", [600, 100000], ids=["sum", "array"])
    def test_nesting_past_the_recursion_limit_exit_2(self, tmp_path, capsys, depth):
        # a RecursionError used to escape the reader (exit 1, a traceback);
        # json.dumps cannot write the text, so it is built here
        data = json.loads((REFERENCE_DIR / "full-2-shift.json").read_text())
        if depth == 600:
            deep = json.dumps(data["functions"]["a"])
            for _ in range(depth):
                deep = '{"side": "stable", "sum": [' + deep + "]}"
            data["functions"]["deep"] = "DEEP"
            text = json.dumps(data).replace('"DEEP"', deep)
        else:
            text = "[" * depth
        path = tmp_path / "nested.json"
        path.write_text(text)
        assert run(["validate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "invalid scenario" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_swapped_sides_exit_2(self, tmp_path, capsys):
        path = small_scenario(tmp_path)
        argv = ["spectrum", "--scenario", path, "--out", str(tmp_path)]
        argv += ["--stable-function=b", "--unstable-function=a"]
        assert run(argv) == 2
        assert "stable" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,value",
        [
            ("anchor", "0*|5,1,0@-3|1*"),
            ("anchor", "0*|-1,1,0@-3|1*"),
            ("orbit_P", [5]),
            ("orbit_P", [-1]),
        ],
        ids=["anchor-above", "anchor-negative", "orbit-above", "orbit-negative"],
    )
    def test_symbol_outside_alphabet_exit_2(self, tmp_path, capsys, field, value):
        # above the alphabet used to raise IndexError (exit 1); a negative
        # symbol used to wrap around to n - 1 and pass (exit 0)
        data = json.loads((REFERENCE_DIR / "full-2-shift.json").read_text())
        if field == "anchor":
            data["functions"]["a"]["profile"]["support"]["anchor"][1] = value
        else:
            data[field] = value
        path = tmp_path / "symbols.json"
        path.write_text(json.dumps(data))
        assert run(["validate", "--scenario", str(path), "--out", str(tmp_path)]) == 2
        assert "invalid scenario" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "drop,copy",
        [
            (["b_terms", "b"], {}),
            (["b_terms"], {"b": "a"}),
            ([], {"e_proj": "b"}),
            ([], {"e_proj": "a_terms"}),
        ],
        ids=["no-b", "stable-b", "unstable-projection", "not-a-projection"],
    )
    def test_bad_fredholm_functions_exit_2(self, tmp_path, capsys, drop, copy):
        # these used to raise KeyError or NotAProjection (exit 4) or, for a
        # stable b, to run and exit 0
        data = json.loads((REFERENCE_DIR / "full-2-shift.json").read_text())
        functions = data["functions"]
        for name in drop:
            del functions[name]
        for name, source in copy.items():
            functions[name] = functions[source]
        path = tmp_path / "functions.json"
        path.write_text(json.dumps(data))
        assert run(["fredholm", "--scenario", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "fredholm" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "keys,command,message",
        [
            (["functions", "e_proj", "terms", 0, "coeff"], "fredholm", "e_proj is not a projection"),
            (["functions", "a", "profile", "coeff"], "spectrum", "spectrum: an operator entry is not finite"),
        ],
        ids=["projection", "profile"],
    )
    def test_huge_finite_coeff_exit_2(self, tmp_path, capsys, keys, command, message):
        # a finite coeff passes validation, but 1e308 overflows: e**2 - e had
        # an infinite residual against an infinite tolerance, which passed,
        # and both commands died in an SVD that did not converge (exit 4).
        # The overflow is expected, so it warns nothing (a warning raised
        # here would exit 4)
        path = edited_reference(tmp_path, keys, [1e308, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([command, "--scenario", path, "--out", str(tmp_path / "o"), "--window=-4..8"]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_report_all_exits_2_on_bad_fredholm_functions(self, tmp_path, capsys):
        data = json.loads((REFERENCE_DIR / "full-2-shift.json").read_text())
        data["functions"]["e_proj"] = data["functions"]["b"]
        path = tmp_path / "functions.json"
        path.write_text(json.dumps(data))
        argv = ["report-all", "--scenario", str(path), "--out", str(tmp_path)]
        assert run(argv + ["--window=-2..2", "--samples", "200"]) == 2
        assert "Traceback" not in capsys.readouterr().err


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    # points and elements hash differently in each process (bytes and str
    # hashes are salted); no report may follow a set's or a hash's order
    for name in sorted(sn.REFERENCE_SCENARIOS):
        outs = []
        for hash_seed in ("1", "12345"):
            out = tmp_path / f"{name}-{hash_seed}"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(ROOT / "src"))
            argv = [sys.executable, "-m", "sftops.cli", "report-all", "--scenario", name]
            argv += ["--out", str(out), "--window=-6..8", "--samples", "1000"]
            assert subprocess.run(argv, env=env, capture_output=True).returncode == 0
            outs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outs[0] == outs[1] and len(outs[0]) > 10, name


def test_report_all_passes_the_function_flags_to_spectrum(tmp_path):
    # report-all's spectrum reads --stable-function and --unstable-function
    # as spectrum does; it used to run a and b whatever the flags said
    flags = ["--scenario", "full-2-shift", "--window=-2..6", "--samples", "200"]
    flags += ["--stable-function", "a_terms", "--unstable-function", "b_terms"]
    alone, together = tmp_path / "spectrum", tmp_path / "report-all"
    code = run(["spectrum", *flags, "--out", str(alone)])
    assert run(["report-all", *flags, "--out", str(together)]) >= code
    written = sorted(path.name for path in alone.iterdir())
    assert "spectrum.json" in written
    for name in written:
        assert (together / name).read_bytes() == (alone / name).read_bytes(), name


def test_command_line_exits_like_main(tmp_path):
    # python -m sftops.cli leaves through os._exit, which skips the
    # interpreter's teardown: the exit codes, the last stderr line and the
    # report bytes must still be those of cli.main in this process
    period_two = tmp_path / "period-2.json"
    period_two.write_text(scenario_text(period_two_scenario()))
    kappa = reference_at_kappa(tmp_path, "golden-mean", 1.05)
    cases = {
        "validate": (["validate", "--scenario", "full-2-shift"], 0, r"validate: exit 0 in \d+\.\ds"),
        "kappa": (["auf-audit", "--scenario", kappa, "--samples", "200"], 1, r"auf-audit: exit 1 in \d+\.\ds"),
        "missing": (["validate", "--scenario", str(tmp_path / "nope.json")], 2, r"invalid scenario: .*nope\.json.*"),
        "usage": (["no-such-command", "--scenario", "full-2-shift"], 2, r"sftops: error: argument command: .*"),
        "cap": (["spectrum", "--scenario", small_scenario(tmp_path), "--cap", "4"], 3, r"spectrum: exit 3 in \d+\.\ds"),
        "period-2": (["auf-audit", "--scenario", str(period_two), "--samples", "200"], 0, r"auf-audit: exit 0 in \d+\.\ds"),
    }
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    procs = {
        label: subprocess.Popen(
            [sys.executable, "-m", "sftops.cli", *argv, "--out", str(tmp_path / label)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        for label, (argv, _, _) in cases.items()
    }
    for label, proc in procs.items():
        err = proc.communicate()[1].decode()
        _, code, last = cases[label]
        assert proc.returncode == code, (label, err)
        assert re.fullmatch(last, err.rstrip().splitlines()[-1]), (label, err)
    regression = json.loads((tmp_path / "kappa" / "auf_audit.json").read_text())["diameter_regression"]
    assert regression == {"insufficient_data": "only 0 usable radius levels"}
    here = tmp_path / "in-process"
    assert run([*cases["period-2"][0], "--out", str(here)]) == 0
    reports = {p.name: p.read_bytes() for p in (tmp_path / "period-2").iterdir()}
    assert reports == {p.name: p.read_bytes() for p in here.iterdir()}
    assert set(reports) == {"auf_audit.json", "quasimetric.csv"}


def test_period_two_scenario_runs_every_command(tmp_path):
    # a third matrix, of period 2, through every command but report-all:
    # no crash, and the same bytes on a second run
    path = tmp_path / "period-2.json"
    path.write_text(scenario_text(period_two_scenario()))
    commands = [
        ["validate"],
        ["metric-audit", "--samples", "2000"],
        ["auf-audit", "--samples", "2000"],
        ["spectrum"],
        ["fredholm"],
    ]
    outs = []
    for out in (tmp_path / "r1", tmp_path / "r2"):
        for command, *flags in commands:
            assert run([command, "--scenario", str(path), "--out", str(out), *flags]) in (0, 1)
        outs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outs[0] == outs[1]
    assert {"validate.json", "metric_audit.json", "auf_audit.json", "spectrum.json", "fredholm.json"} <= set(outs[0])


def test_internal_error_exit_4(tmp_path, monkeypatch, capsys):
    # a crash inside a command is not a property finding (exit 1)
    def crash(scenario, args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cmd_validate, "run", crash)
    assert run(["validate", "--scenario", "full-2-shift", "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err
    assert err.rstrip().splitlines()[-1] == "internal error: RuntimeError: boom"


@pytest.mark.parametrize("sub", ["", "sub"], ids=["a-file", "below-a-file"])
def test_out_that_names_a_file_exits_2(tmp_path, capsys, sub):
    # --out naming an existing file, or a path below one, is invalid input
    # (exit 2) with a message; it used to end in an os.makedirs traceback
    # and exit 1, the code of property findings
    taken = tmp_path / "taken"
    taken.write_text("kept")
    out = taken / sub if sub else taken
    assert run(["validate", "--scenario", "full-2-shift", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    why = "Not a directory" if sub else "File exists"
    assert err.rstrip().splitlines() == [f"invalid option: --out {str(out)!r} cannot be made a directory: {why}"]
    assert taken.read_text() == "kept"


def test_readme_lists_exactly_the_cli_options():
    # a flag the README does not document (say, one that is parsed and
    # never read) fails here
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z-]*", section))
    parsed = {
        opt
        for action in cli.build_parser()._actions
        for opt in action.option_strings
        if opt not in ("-h", "--help")
    }
    assert parsed == documented
    assert len(parsed) == 9


def reference_at_kappa(tmp_path, name, kappa):
    data = json.loads((REFERENCE_DIR / f"{name}.json").read_text())
    data["kappa"] = kappa
    path = tmp_path / f"{name}-{kappa}.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("kappa", [1.05, 1.5, 3.0])
@pytest.mark.parametrize("name", sorted(sn.REFERENCE_SCENARIOS))
def test_no_valid_kappa_exits_4(tmp_path, name, kappa):
    # near 1 the diameter regression has no usable radius level: the audit
    # says so in its report and fails the check (exit 1), it does not crash
    path = reference_at_kappa(tmp_path, name, kappa)
    for command in ("validate", "metric-audit", "auf-audit", "spectrum", "fredholm"):
        out = tmp_path / command
        code = run([command, "--scenario", path, "--out", str(out), "--samples", "200", "--window=-2..4"])
        assert code in (0, 1), (command, code)
    regression = json.loads((tmp_path / "auf-audit" / "auf_audit.json").read_text())["diameter_regression"]
    if kappa == 1.05:
        assert regression == {"insufficient_data": "only 0 usable radius levels"}
    else:
        assert "slope" in regression


def test_spectrum_huge_kappa_skips_the_decay_certificate(tmp_path):
    # C2 = max norm * kappa**n overflows a float: no certificate, exit 0
    path = reference_at_kappa(tmp_path, "full-2-shift", 1e200)
    assert run(["spectrum", "--scenario", path, "--out", str(tmp_path), "--window=-2..8"]) == 0
    rep = json.loads((tmp_path / "spectrum.json").read_text())
    assert "decay_certificate" not in rep
    assert rep["decay_certificate_skipped"] == "C2 = max norm * kappa**n overflows a float"


# ---------------------------------------------------------------------------
# the audits in one process


def test_halves_keep_one_chunk_of_draws():
    # the sampled loops draw one chunk at a time, not the whole loop as a
    # list: 100000 draws as Python ints would take about 3.6 MB
    import tracemalloc

    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    tracemalloc.start()
    try:
        for width in (2, 3):
            for _ in cmd_metric_audit._draws(np.random.default_rng(0), 1000, width, 50000):
                pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.2e6


def _audit_reports(tmp_path, monkeypatch, cpus, scenario, samples, label):
    """Exit codes and report bytes of both audits, run with `cpus` CPUs;
    and how many times os.fork was called."""
    forks = []
    real = os.fork

    def fork():
        forks.append(1)
        return real()

    monkeypatch.setattr(forked, "_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", fork)
    out = tmp_path / label
    codes = [
        run([command, "--scenario", scenario, "--out", str(out), "--samples", str(samples)])
        for command in ("metric-audit", "auf-audit")
    ]
    monkeypatch.undo()
    return codes, {p.name: p.read_bytes() for p in out.iterdir()}, len(forks)


@pytest.mark.parametrize("name", ["full-2-shift", "golden-mean", "period-2"])
def test_audits_with_two_cpus_do_not_fork(tmp_path, monkeypatch, name):
    # both audits run in the command's process whatever the CPU count
    if name == "period-2":
        path = tmp_path / "period-2.json"
        path.write_text(scenario_text(period_two_scenario()))
        name = str(path)
    for samples in (0, 777, 20000):
        one = _audit_reports(tmp_path, monkeypatch, 1, name, samples, f"one-{samples}")
        two = _audit_reports(tmp_path, monkeypatch, 2, name, samples, f"two-{samples}")
        assert one[2] == two[2] == 0
        assert one[:2] == two[:2], samples
        assert {"metric_audit.json", "auf_audit.json", "quasimetric.csv"} == set(one[1])


def test_tampered_metric_in_two_processes_matches_one(tmp_path, monkeypatch):
    # a tamper that is a function of the pair alone fails the same checks
    # with the same witnesses whatever the CPU count, and nothing forks
    argv = ["metric-audit", "--scenario", "full-2-shift", "--samples", "2000"]
    reports = []
    for cpus in (1, 2):
        _tamper_metric(monkeypatch)
        forks = []

        def fork():
            forks.append(1)
            raise OSError("the audits must not fork")

        monkeypatch.setattr(forked, "_cpus", lambda: cpus)
        monkeypatch.setattr(os, "fork", fork)
        out = tmp_path / str(cpus)
        assert run([*argv, "--out", str(out)]) == 1
        monkeypatch.undo()
        assert not forks
        reports.append((out / "metric_audit.json").read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["checks"]["inversion_isometry"]["failures"] > 0


def _fork_fails():
    raise OSError("no fork")


@pytest.mark.parametrize(
    "target, name, stand_in",
    [
        (forked, "_child", oracles.child_that(oracles.child_raises)),
        (forked, "_child", oracles.child_that(oracles.child_sends_half_a_pickle)),
        (forked.os, "fork", _fork_fails),
    ],
    ids=["child-raises", "truncated-pickle", "fork-fails"],
)
def test_a_failed_audit_child_leaves_the_reports_unchanged(tmp_path, monkeypatch, target, name, stand_in):
    # the audits do not use the fork helper, so a failing child or fork
    # changes no report, and no child is left
    one = _audit_reports(tmp_path, monkeypatch, 1, "full-2-shift", 777, "one")
    monkeypatch.setattr(target, name, stand_in)
    two = _audit_reports(tmp_path, monkeypatch, 2, "full-2-shift", 777, "two")
    assert two[2] == 0 and two[:2] == one[:2]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
