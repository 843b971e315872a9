"""Closed-loop benchmark of the sftops CLI.

Run from the repository root:

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 60 --trace 0

With --trace 0 one client runs the workload's commands, one at a time,
each in its own `python -m sftops.cli` subprocess, for --seconds seconds,
checks every report, and prints the end-to-end metrics.  With --trace 1
the workload's stages are driven in-process with spans and cProfile and
the per-layer metrics are printed instead (see tracing.py).  The last
line of standard output is always one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import signal
import sys
import time
from typing import Dict, List, Tuple

import workloads as wl

OUT_ROOT = os.path.join(wl.ROOT, ".perfbench_out")
SETUP_REPEATS = 3
MIN_ROUNDS = 2
# A shared machine's speed drifts with its neighbours' load, by up to 60 % within
# ten minutes, and switches between a fast and a slow state every 20 s or so.
# Two calibration probes that run no sftops code are timed next to the
# measurements, each of the same kind of cost as what it calibrates:
#
# * a fixed pure-Python loop, in this process, before the first command and
#   after every command: tuple slicing, small-int arithmetic and dict
#   look-ups, the work the commands spend their time on.  Each command's wall
#   time is divided by the mean of the two loop probes around it.  The loop
#   is short (about 0.2 s) because a speed state lasts far longer than that;
#   a probe next to every command follows the switching.
# * a fresh interpreter that imports numpy, right after every set-up probe:
#   interpreter start and library loading, what set-up spends its time on.
#   Each set-up probe is divided by the start-up probe that follows it.
#
# The medians of these ratios are reported in seconds at the speed at which
# the probes take REFERENCE_CALIBRATION_S and REFERENCE_STARTUP_S.
REFERENCE_CALIBRATION_S = 0.2
CALIBRATION_LOOPS = 300_000
REFERENCE_STARTUP_S = 0.125
STARTUP_PROBE = "import numpy\n"

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "results_per_s": "1/s",
    "peak_rss_mb": "MB",
}

SETUP_PROBE = (
    "import sys\n"
    "import sftops.cli\n"
    "from sftops.scenarios import load_scenario\n"
    "load_scenario(sys.argv[1]).validate()\n"
)


def calibration_probe() -> float:
    start = time.perf_counter()
    table: Dict[tuple, int] = {}
    for i in range(CALIBRATION_LOOPS):
        word = (i & 1, (i >> 1) & 1, (i >> 2) & 1, i % 3)
        key = word[1:] + word[:1]
        table[key] = table.get(key, 0) + sum(key)
    return time.perf_counter() - start


def timed_python(code: str, args: List[str], env: Dict[str, str]) -> float:
    status, wall, _ = wl.run_child([sys.executable, "-c", code, *args], env)
    if status != 0:
        raise RuntimeError(f"probe exited with {status}: {code!r}")
    return wall


def setup_probe(path: str, env: Dict[str, str]) -> Tuple[float, float]:
    """Wall times of set-up (interpreter start + import + scenario
    load/validate) and of the start-up probe timed right after it."""
    return timed_python(SETUP_PROBE, [path], env), timed_python(STARTUP_PROBE, [], env)


def run_untraced(workload: wl.Workload, seed: int, seconds: float, work: str) -> dict:
    start = time.perf_counter()
    env = wl.program_env()
    paths = wl.write_scenarios(seed, os.path.join(work, "inputs"))
    setup_path = paths[workload.commands[0].scenario]
    setup_probe(setup_path, env)  # warm-up: bytecode compilation
    # Set-up probes are spread through the run, one after each round, so
    # that their median sees the same machine load as the commands do.
    setups = [setup_probe(setup_path, env) for _ in range(SETUP_REPEATS)]
    calibrations = [calibration_probe()]

    walls: Dict[str, List[float]] = {c.key: [] for c in workload.commands}
    # each command's wall time over the mean of the loop probes around it
    ratios: Dict[str, List[float]] = {c.key: [] for c in workload.commands}
    first_digests: Dict[str, Dict[str, str]] = {}
    round_rss: List[float] = []
    round_results: List[int] = []
    attempted = failed = 0
    # closed loop: start another round only if it should end within --seconds
    first_round = time.perf_counter()
    while len(round_rss) < MIN_ROUNDS or (
        time.perf_counter() - start + (time.perf_counter() - first_round) / len(round_rss) <= seconds
    ):
        rss = 0.0
        results = 0
        for cmd in workload.commands:
            out_dir = os.path.join(work, "reports", cmd.slug)
            shutil.rmtree(out_dir, ignore_errors=True)
            argv = wl.command_argv(cmd, paths[cmd.scenario], out_dir)
            code, wall, peak = wl.run_child(argv, env)
            calibrations.append(calibration_probe())
            attempted += 1
            problems, n = wl.check_command(cmd, code, out_dir)
            if code == 0:
                digests = wl.report_digests(out_dir)
                problems += wl.check_digests(
                    workload.name, cmd, seed, digests, first_digests.get(cmd.key)
                )
                first_digests.setdefault(cmd.key, digests)
            if problems:
                failed += 1
                print(f"FAIL {cmd.key}: {'; '.join(problems)}", file=sys.stderr)
            walls[cmd.key].append(wall)
            ratios[cmd.key].append(wall / ((calibrations[-2] + calibrations[-1]) / 2))
            rss = max(rss, peak)
            results += n
        setups.append(setup_probe(setup_path, env))
        round_rss.append(rss)
        round_results.append(results)

    rounds = len(round_rss)
    wall_s = REFERENCE_CALIBRATION_S * sum(statistics.median(v) for v in ratios.values())
    metrics = {
        "wall_s": wall_s,
        "setup_s": REFERENCE_STARTUP_S * statistics.median(s / u for s, u in setups),
        "results_per_s": statistics.median(round_results) / wall_s,
        "peak_rss_mb": statistics.median(round_rss),
    }
    print(f"workload {workload.name} seed {seed}: {rounds} rounds, {attempted} commands")
    for key, samples in walls.items():
        print(f"  {key}: wall s " + " ".join(f"{w:.3f}" for w in samples))
    print("  setup probes: s " + " ".join(f"{s:.3f}" for s, _ in setups))
    print("  start-up probes: s " + " ".join(f"{u:.3f}" for _, u in setups))
    print("  calibration probes: s " + " ".join(f"{w:.3f}" for w in calibrations))
    print(f"  {'raw_wall_s':<14} {sum(statistics.median(v) for v in walls.values()):12.4f} s (unscaled)")
    print(f"  {'raw_setup_s':<14} {statistics.median(s for s, _ in setups):12.4f} s (unscaled)")
    for name, value in metrics.items():
        print(f"  {name:<14} {value:12.4f} {END_TO_END_UNITS[name]}")
    print(f"  {'fail_ratio':<14} {failed / max(attempted, 1):12.4f} ratio")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so a running command is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(wl.SRC, "sftops", "cli.py")):
        print(f"no sftops sources under {wl.SRC}; run from the repository root", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    work = os.path.join(OUT_ROOT, f"{workload.name}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    if args.trace:
        import tracing

        result = tracing.run_traced(workload, args.seed, work)
    else:
        result = run_untraced(workload, args.seed, args.seconds, work)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
