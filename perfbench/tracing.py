"""Traced in-process run: spans, cProfile, counters and microbenchmarks.

Every traced run drives the whole pipeline in-process, stage by stage:

* spectrum stages: ``sft.enumerate_homoclinic`` -> ``BasisRegistry.seeded``
  -> ``functions.commutator_blocks`` once per block index on the shared
  registry -> ``schatten.singular_values`` per trusted block ->
  ``merge_spectra`` -> ``summability_verdict`` -> report CSVs;
* audit stages: ``validate``, ``metric-audit``, ``auf-audit`` and
  ``fredholm`` through ``sftops.cli.main``.

The workload sets which stages run at its benchmark size; the others run
at a small probe size so that every layer metric is measured on every
workload.  Spans come from this file only: around the calls it makes and
around public module functions it wraps for the duration of the traced
drive.  The same drive runs once untraced first; the difference in wall
time is the tracing overhead.  The per-block drive must reproduce the
CLI's ``spectrum`` reports byte for byte.
"""

from __future__ import annotations

import contextlib
import cProfile
import filecmp
import functools
import importlib
import json
import os
import pstats
import random
import shutil
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import workloads as wl

PER_LAYER_UNITS: Dict[str, str] = {
    # sft: point canonicalisation and read paths
    "sft.self_s": "s",
    "sft.build_point.calls": "count",
    "sft.build_point.self_s": "s",
    "sft.build_point.us_per_op": "us",
    "sft.splice_at.calls": "count",
    "sft.splice_at.self_s": "s",
    "sft.splice_at.us_per_op": "us",
    "sft.at.calls": "count",
    "sft.agreement_depth.calls": "count",
    "sft.agreement_depth.us_per_op": "us",
    "sft.enumerate_homoclinic_s": "s",
    # functions: profile evaluation, column assembly, registry
    "functions.self_s": "s",
    "functions.profile_value.calls": "count",
    "functions.profile_value.self_s": "s",
    "functions.profile_value.us_per_op": "us",
    "functions.apply_to_point.calls": "count",
    "functions.apply_to_point.us_per_op": "us",
    "functions.assembly_s": "s",
    "functions.deepest_block_s": "s",
    "functions.columns_enumerated": "count",
    "functions.columns_estimated": "count",
    "functions.columns_nonzero": "count",
    "functions.columns_per_s": "1/s",
    "functions.estimate_ratio": "ratio",
    "functions.nonzero_ratio": "ratio",
    "functions.registry_size": "count",
    "functions.truncation_events": "count",
    "functions.trusted_blocks": "count",
    "functions.untrusted_blocks": "count",
    # schatten: per-block SVD, merge, verdicts
    "schatten.self_s": "s",
    "schatten.singular_values_s": "s",
    "schatten.components": "count",
    "schatten.max_component": "count",
    "schatten.merge_s": "s",
    "schatten.verdict_s": "s",
    # groupoid: metric and its caches
    "groupoid.self_s": "s",
    "groupoid.in_domain.calls": "count",
    "groupoid.holonomy_apply.calls": "count",
    "groupoid.metric_exponent.calls": "count",
    "groupoid.min_splice_time.hits": "count",
    "groupoid.min_splice_time.misses": "count",
    "groupoid.min_splice_time.size": "count",
    "groupoid.c_first_time.size": "count",
    # aufmetric: cover tables and chain metric
    "aufmetric.self_s": "s",
    "aufmetric.vcap_table_s": "s",
    "aufmetric.quasimetric_table_s": "s",
    "aufmetric.chain_metric_s": "s",
    "aufmetric.star_s": "s",
    "aufmetric.elements": "count",
    # fredholm: inflated representations and dense SVDs
    "fredholm.self_s": "s",
    "fredholm.inflate_s": "s",
    "fredholm.summability_s": "s",
    "fredholm.dense_dim": "count",
    # cli and set-up
    "cli.report_write_s": "s",
    "cli.report_bytes": "bytes",
    "scenarios.load_s": "s",
    "sampling.audit_elements_s": "s",
    # the tracing itself
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}

MICRO_INPUTS = 500
MICRO_BATCHES = 5


class Tracer:
    """In-memory span recorder: name, start, end, parent span, run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.stage = run_id
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.stage,
            "start": time.perf_counter() - self._t0,
            "end": None,
        }
        if attrs:
            rec["attrs"] = attrs
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._stack.pop()

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


class NullTracer:
    stage = ""

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        yield None


class Counters:
    """Counts gathered at wrapped layer boundaries during the traced drive."""

    def __init__(self):
        self.values: Dict[str, float] = defaultdict(float)
        self.block: Optional[int] = None
        self.block_columns: Dict[int, tuple] = {}
        self.elements: list = []

    def add(self, name: str, v: float) -> None:
        self.values[name] += v

    def peak(self, name: str, v: float) -> None:
        self.values[name] = max(self.values[name], v)


# ---------------------------------------------------------------------------
# wrapping public module functions for the duration of a traced drive


class Patches:
    def __init__(self):
        self._saved: List[tuple] = []

    def wrap(self, module, attr: str, make: Callable) -> None:
        orig = getattr(module, attr)
        self._saved.append((module, attr, orig))
        setattr(module, attr, functools.wraps(orig)(make(orig)))

    def restore(self) -> None:
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)


def _spanned(tr: Tracer, name: str, after: Optional[Callable] = None):
    def make(orig):
        def wrapper(*args, **kwargs):
            with tr.span(name):
                out = orig(*args, **kwargs)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    return make


def install_patches(mods, tr: Tracer, ct: Counters) -> Patches:
    sft, smp, fn, sc, auf, fd, cli = (
        mods["sft"], mods["sampling"], mods["functions"], mods["schatten"],
        mods["aufmetric"], mods["fredholm"], mods["cli"],
    )
    p = Patches()
    # callers import enumerate_homoclinic both as an attribute and by name
    p.wrap(sft, "enumerate_homoclinic", _spanned(tr, "sft.enumerate_homoclinic"))
    p.wrap(smp, "enumerate_homoclinic", _spanned(tr, "sft.enumerate_homoclinic"))

    def keep_elements(args, out):
        ct.elements = list(out)

    p.wrap(smp, "audit_elements", _spanned(tr, "sampling.audit_elements", keep_elements))

    def count_elements(args, out):
        ct.add("aufmetric.elements", len(args[0]))

    p.wrap(auf, "build_vcap_table", _spanned(tr, "aufmetric.vcap_table", count_elements))
    p.wrap(auf, "build_quasimetric_table", _spanned(tr, "aufmetric.quasimetric_table"))
    p.wrap(auf, "chain_metric", _spanned(tr, "aufmetric.chain_metric"))
    p.wrap(auf, "star_refinement_check", _spanned(tr, "aufmetric.star"))

    def dense_dim(args, out):
        window, reg = args[2], args[3]
        ct.peak("fredholm.dense_dim", len(reg) * (window[1] - window[0] + 1))

    p.wrap(fd, "inflate_stable", _spanned(tr, "fredholm.inflate", dense_dim))
    p.wrap(fd, "inflate_unstable", _spanned(tr, "fredholm.inflate"))
    p.wrap(fd, "summability_report", _spanned(tr, "fredholm.summability"))
    p.wrap(cli, "_write_json", _spanned(tr, "cli.report_write"))

    def columns(args, out):
        ct.add("functions.columns_enumerated", len(out))
        if ct.block is not None:
            ct.block_columns[ct.block] = (args[0], args[1], list(out))

    p.wrap(fn, "commutator_column_support", _spanned(tr, "functions.column_support", columns))
    p.wrap(fn, "estimate_column_count", _spanned(
        tr, "functions.estimate_column_count",
        lambda args, out: ct.add("functions.columns_estimated", out),
    ))

    def components(args, out):
        ct.add("schatten.components", len(out))
        ct.peak("schatten.max_component", max((len(c) for c in out), default=0))

    p.wrap(sc, "_connected_components", _spanned(tr, "schatten.components", components))
    return p


# ---------------------------------------------------------------------------
# the drive


PROGRAM_MODULES = (
    "aufmetric", "cli", "fredholm", "functions", "groupoid", "sampling", "scenarios", "schatten", "sft",
)


def import_program() -> dict:
    return {name: importlib.import_module(f"sftops.{name}") for name in PROGRAM_MODULES}


def _fmt(x: float) -> str:
    return "%.17g" % x


def spectrum_stage(mods, tr, ct: Optional[Counters], scenario, window, out_dir: str):
    """Per-block drive of the spectrum pipeline; writes the CLI's CSV reports.

    Returns the trusted block indices and the verdicts over the p grid.
    """
    sft, fn, sc = mods["sft"], mods["functions"], mods["schatten"]
    m = scenario.matrix
    a, b = scenario.functions["a"], scenario.functions["b"]
    seeds = sft.enumerate_homoclinic(m, scenario.orbit_p, scenario.orbit_q, 3)
    with tr.span("functions.registry_seed"):
        reg = fn.BasisRegistry.seeded(seeds, cap=scenario.basis_cap)
    blocks, untrusted = {}, {}
    for n in range(window[0], window[1] + 1):
        if ct is not None:
            ct.block = n
        with tr.span("functions.block", n=n):
            result = fn.commutator_blocks(a, b, (n, n), reg, m)
        blocks[n] = result.blocks[n]
        untrusted.update(result.untrusted)
    if ct is not None:
        ct.block = None
    trusted = [n for n in sorted(blocks) if n not in untrusted]
    spectra = []
    for n in trusted:
        with tr.span("schatten.singular_values", n=n):
            spectra.append(sc.singular_values(blocks[n], source=f"block {n}"))
    with tr.span("schatten.merge"):
        merged = sc.merge_spectra(spectra, source="[a,b]")
    with tr.span("schatten.verdict"):
        verdicts = {str(p): sc.summability_verdict(merged, p).to_json_dict() for p in scenario.p_grid}
    os.makedirs(out_dir, exist_ok=True)
    with tr.span("cli.report_write"):
        with open(os.path.join(out_dir, "spectrum.csv"), "w") as handle:
            handle.write("index,value\n")
            for i, v in enumerate(merged.expanded(limit=2_000_000), start=1):
                handle.write(f"{i},{_fmt(v)}\n")
        for n in trusted:
            with open(os.path.join(out_dir, f"block_{n:+03d}.csv"), "w") as handle:
                handle.write("row,col,re,im\n")
                for (i, j), v in sorted(blocks[n].entries.items()):
                    handle.write(f"{i},{j},{_fmt(v.real)},{_fmt(v.imag)}\n")
    if ct is not None:
        ct.add("functions.registry_size", len(reg))
        ct.add("functions.truncation_events", reg.truncation_events)
        ct.add("functions.trusted_blocks", len(trusted))
        ct.add("functions.untrusted_blocks", len(untrusted))
        ct.add("functions.columns_nonzero", sum(len({j for _, j in blocks[n].entries}) for n in trusted))
        deepest = max(trusted, default=None)
        ct.block_columns = {k: v for k, v in ct.block_columns.items() if k == deepest}
    return trusted, verdicts


def _clear_caches(mods) -> None:
    gd = mods["groupoid"]
    gd.min_splice_time.cache_clear()
    gd.c_first_time.cache_clear()


def _collect_caches(mods, ct: Optional[Counters]) -> None:
    if ct is None:
        return
    gd = mods["groupoid"]
    for name in ("min_splice_time", "c_first_time"):
        info = getattr(gd, name).cache_info()
        ct.add(f"groupoid.{name}.hits", info.hits)
        ct.add(f"groupoid.{name}.misses", info.misses)
        ct.peak(f"groupoid.{name}.size", info.currsize)


def drive(mods, workload: wl.Workload, paths, tr, ct, out_root: str) -> List[Tuple[str, List[str]]]:
    """Run every stage once; returns (stage, problems) per stage.

    Group-level caches are cleared before each stage, as each CLI command
    starts in a fresh process.
    """
    cli = mods["cli"]
    flip = workload.times_spectrum
    outcomes = []
    for name, window in workload.spectrum_stages:
        tr.stage = f"spectrum:{name}"
        _clear_caches(mods)
        with tr.span("drive.spectrum"):
            with tr.span("scenarios.load"):
                scenario = mods["scenarios"].load_scenario(paths[name])
            out_dir = os.path.join(out_root, f"spectrum-{name}")
            shutil.rmtree(out_dir, ignore_errors=True)
            trusted, verdicts = spectrum_stage(mods, tr, ct, scenario, window, out_dir)
        _collect_caches(mods, ct)
        outcomes.append((tr.stage, wl.check_spectrum(trusted, verdicts, window, flip)))
    for name, samples in workload.audit_stages:
        for cmd_name in wl.AUDIT_COMMANDS:
            sseed = wl.command_seed(name, cmd_name, paths[name])
            cmd = wl.audit_command(name, cmd_name, samples)
            out_dir = os.path.join(out_root, cmd.slug)
            shutil.rmtree(out_dir, ignore_errors=True)
            tr.stage = f"{cmd_name}:{name}"
            _clear_caches(mods)
            argv = [cmd_name, "--scenario", paths[name], "--out", out_dir, "--seed", str(sseed), *cmd.flags]
            with tr.span(f"cli.{cmd_name}"):
                with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
                    code = cli.main(argv)
            _collect_caches(mods, ct)
            problems, _ = wl.check_command(cmd, code, out_dir)
            outcomes.append((tr.stage, problems))
    return outcomes


def _tree_bytes(root: str) -> int:
    total = 0
    for base, _, files in os.walk(root):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


# ---------------------------------------------------------------------------
# microbenchmarks (tracing off)


def _us_per_op(call: Callable, inputs: list) -> float:
    if not inputs:
        raise ValueError("no inputs for a microbenchmark")
    per_op = []
    for _ in range(MICRO_BATCHES):
        start = time.perf_counter()
        for x in inputs:
            call(x)
        per_op.append((time.perf_counter() - start) / len(inputs))
    return statistics.median(per_op) * 1e6


def _subsample(items: list, k: int) -> list:
    if len(items) <= k:
        return list(items)
    step = len(items) / k
    return [items[int(i * step)] for i in range(k)]


def microbenchmarks(mods, ct: Counters, seed: int) -> Dict[str, float]:
    sft, fn = mods["sft"], mods["functions"]
    out = {}
    (a_n, b, cols), = ct.block_columns.values()
    cols = _subsample(cols, MICRO_INPUTS)
    pairs = list(zip(cols, cols[1:] + cols[:1]))
    out["sft.build_point.us_per_op"] = _us_per_op(
        lambda x: sft.build_point(x.left_cycle, x.core, x.right_cycle, x.core_start), cols
    )
    out["sft.splice_at.us_per_op"] = _us_per_op(lambda xy: sft.splice_at(xy[0], xy[1], 0), pairs)
    out["functions.profile_value.us_per_op"] = _us_per_op(a_n.profile_value, cols)
    out["functions.apply_to_point.us_per_op"] = _us_per_op(
        lambda x: (fn.apply_to_point(b, x), fn.apply_to_point(a_n, x)), cols
    ) / 2.0
    rng = random.Random(seed)
    els = ct.elements
    el_pairs = []
    for _ in range(MICRO_INPUTS):
        e, f = els[rng.randrange(len(els))], els[rng.randrange(len(els))]
        el_pairs.append((e.second, f.second))
        el_pairs.append((e.first, f.first))
    out["sft.agreement_depth.us_per_op"] = _us_per_op(
        lambda xy: sft.agreement_depth(xy[0], xy[1]), el_pairs
    )
    return out


# ---------------------------------------------------------------------------
# profile aggregation


def _profile_tables(prof: cProfile.Profile, src_pkg: str):
    mod_self: Dict[str, float] = defaultdict(float)
    calls: Dict[Tuple[str, str], int] = defaultdict(int)
    self_s: Dict[Tuple[str, str], float] = defaultdict(float)
    for (path, _, func), (_, nc, tt, _, _) in pstats.Stats(prof).stats.items():
        if os.path.dirname(os.path.abspath(path)) != src_pkg:
            continue
        mod = os.path.splitext(os.path.basename(path))[0]
        mod_self[mod] += tt
        calls[(mod, func)] += nc
        self_s[(mod, func)] += tt
    return mod_self, calls, self_s


def run_traced(workload: wl.Workload, seed: int, work: str) -> dict:
    env = wl.program_env()
    sys.path.insert(0, wl.SRC)
    mods = import_program()
    paths = wl.write_scenarios(seed, os.path.join(work, "inputs"))
    attempted = failed = 0

    def account(stage: str, problems: List[str]) -> None:
        nonlocal attempted, failed
        attempted += 1
        if problems:
            failed += 1
            print(f"FAIL {stage}: {'; '.join(problems)}", file=sys.stderr)

    # the CLI's own spectrum reports, the reference for the per-block drive
    cli_dirs = {}
    for name, window in workload.spectrum_stages:
        cmd = wl.spectrum_command(name, window)
        out_dir = os.path.join(work, "cli", f"spectrum-{name}")
        shutil.rmtree(out_dir, ignore_errors=True)
        code, _, _ = wl.run_child(wl.command_argv(cmd, paths[name], out_dir), env)
        problems, _ = wl.check_command(cmd, code, out_dir, workload.times_spectrum)
        account(f"cli spectrum:{name}", problems)
        cli_dirs[name] = out_dir

    untraced_root = os.path.join(work, "untraced")
    start = time.perf_counter()
    outcomes = drive(mods, workload, paths, NullTracer(), None, untraced_root)
    untraced_s = time.perf_counter() - start
    for stage, problems in outcomes:
        account(f"untraced {stage}", problems)

    tr = Tracer(f"{workload.name}-s{seed}-{os.getpid()}")
    ct = Counters()
    traced_root = os.path.join(work, "traced")
    patches = install_patches(mods, tr, ct)
    prof = cProfile.Profile()
    start = time.perf_counter()
    prof.enable()
    try:
        outcomes = drive(mods, workload, paths, tr, ct, traced_root)
    finally:
        prof.disable()
        patches.restore()
    traced_s = time.perf_counter() - start
    for stage, problems in outcomes:
        account(f"traced {stage}", problems)

    # the per-block drive reproduces the CLI's spectrum reports exactly
    for name, _ in workload.spectrum_stages:
        cli_dir = cli_dirs[name]
        names = sorted(f for f in os.listdir(cli_dir) if f.endswith(".csv")) if os.path.isdir(cli_dir) else []
        cli_trusted = []
        try:
            with open(os.path.join(cli_dir, "spectrum.json")) as handle:
                cli_trusted = json.load(handle)["trusted_blocks"]
        except (OSError, KeyError, ValueError):
            pass
        for label, root in (("untraced", untraced_root), ("traced", traced_root)):
            mine = os.path.join(root, f"spectrum-{name}")
            mine_names = sorted(os.listdir(mine)) if os.path.isdir(mine) else []
            problems = []
            if not names or mine_names != names:
                problems.append(f"report files differ: {mine_names[:3]} vs {names[:3]}")
            else:
                _, mismatch, errors = filecmp.cmpfiles(mine, cli_dir, names, shallow=False)
                problems += [f"{f} differs from the CLI" for f in mismatch + errors]
            drive_trusted = sorted(int(f[len("block_"):-len(".csv")]) for f in mine_names if f.startswith("block_"))
            if drive_trusted != cli_trusted:
                problems.append("trusted blocks differ from the CLI")
            account(f"{label} reproduces cli spectrum:{name}", problems)

    micro = microbenchmarks(mods, ct, seed)
    mod_self, calls, self_s = _profile_tables(prof, os.path.join(wl.SRC, "sftops"))
    v = ct.values
    block_spans = [s for s in tr.spans if s["name"] == "functions.block"]
    # deepest block of the first spectrum stage, the workload-size one
    deepest = max(
        (s for s in block_spans if s["run"] == block_spans[0]["run"]),
        key=lambda s: s["attrs"]["n"],
    )
    assembly_s = tr.total("functions.block")
    metrics = {
        "sft.self_s": mod_self["sft"],
        "sft.build_point.calls": calls[("sft", "build_point")],
        "sft.build_point.self_s": self_s[("sft", "build_point")],
        "sft.splice_at.calls": calls[("sft", "splice_at")],
        "sft.splice_at.self_s": self_s[("sft", "splice_at")],
        "sft.at.calls": calls[("sft", "at")],
        "sft.agreement_depth.calls": calls[("sft", "agreement_depth")],
        "sft.enumerate_homoclinic_s": tr.total("sft.enumerate_homoclinic"),
        "functions.self_s": mod_self["functions"],
        "functions.profile_value.calls": calls[("functions", "profile_value")],
        "functions.profile_value.self_s": self_s[("functions", "profile_value")],
        "functions.apply_to_point.calls": calls[("functions", "apply_to_point")],
        "functions.assembly_s": assembly_s,
        "functions.deepest_block_s": deepest["end"] - deepest["start"],
        "functions.columns_enumerated": v["functions.columns_enumerated"],
        "functions.columns_estimated": v["functions.columns_estimated"],
        "functions.columns_nonzero": v["functions.columns_nonzero"],
        "functions.columns_per_s": v["functions.columns_enumerated"] / assembly_s if assembly_s else 0.0,
        "functions.estimate_ratio": (
            v["functions.columns_enumerated"] / v["functions.columns_estimated"]
            if v["functions.columns_estimated"] else 0.0
        ),
        "functions.nonzero_ratio": (
            v["functions.columns_nonzero"] / v["functions.columns_enumerated"]
            if v["functions.columns_enumerated"] else 0.0
        ),
        "functions.registry_size": v["functions.registry_size"],
        "functions.truncation_events": v["functions.truncation_events"],
        "functions.trusted_blocks": v["functions.trusted_blocks"],
        "functions.untrusted_blocks": v["functions.untrusted_blocks"],
        "schatten.self_s": mod_self["schatten"],
        "schatten.singular_values_s": tr.total("schatten.singular_values"),
        "schatten.components": v["schatten.components"],
        "schatten.max_component": v["schatten.max_component"],
        "schatten.merge_s": tr.total("schatten.merge"),
        "schatten.verdict_s": tr.total("schatten.verdict"),
        "groupoid.self_s": mod_self["groupoid"],
        "groupoid.in_domain.calls": calls[("groupoid", "in_domain")],
        "groupoid.holonomy_apply.calls": calls[("groupoid", "holonomy_apply")],
        "groupoid.metric_exponent.calls": calls[("groupoid", "groupoid_metric_exponent")],
        "groupoid.min_splice_time.hits": v["groupoid.min_splice_time.hits"],
        "groupoid.min_splice_time.misses": v["groupoid.min_splice_time.misses"],
        "groupoid.min_splice_time.size": v["groupoid.min_splice_time.size"],
        "groupoid.c_first_time.size": v["groupoid.c_first_time.size"],
        "aufmetric.self_s": mod_self["aufmetric"],
        "aufmetric.vcap_table_s": tr.total("aufmetric.vcap_table"),
        "aufmetric.quasimetric_table_s": tr.total("aufmetric.quasimetric_table"),
        "aufmetric.chain_metric_s": tr.total("aufmetric.chain_metric"),
        "aufmetric.star_s": tr.total("aufmetric.star"),
        "aufmetric.elements": v["aufmetric.elements"],
        "fredholm.self_s": mod_self["fredholm"],
        "fredholm.inflate_s": tr.total("fredholm.inflate"),
        "fredholm.summability_s": tr.total("fredholm.summability"),
        "fredholm.dense_dim": v["fredholm.dense_dim"],
        "cli.report_write_s": tr.total("cli.report_write"),
        "cli.report_bytes": _tree_bytes(traced_root),
        "scenarios.load_s": tr.total("scenarios.load"),
        "sampling.audit_elements_s": tr.total("sampling.audit_elements"),
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_ratio": traced_s / untraced_s,
        "trace.spans": len(tr.spans),
    }
    metrics.update(micro)

    top = sorted(self_s.items(), key=lambda kv: -kv[1])[:25]
    trace_path = os.path.join(os.path.dirname(work), f"trace-{workload.name}-s{seed}.json")
    with open(trace_path, "w") as handle:
        json.dump(
            {
                "run_id": tr.run_id,
                "workload": workload.name,
                "seed": seed,
                "spans": tr.spans,
                "profile_top_self_s": [[f"{m}.{f}", s, calls[(m, f)]] for (m, f), s in top],
                "metrics": metrics,
            },
            handle,
            indent=1,
        )
    print(f"workload {workload.name} seed {seed} (traced): spans in {trace_path}")
    for name in PER_LAYER_UNITS:
        print(f"  {name:<36} {float(metrics[name]):16.6f} {PER_LAYER_UNITS[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        },
    }
