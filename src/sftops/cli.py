"""Scenario-driven command line front end.

Every command reads a scenario JSON, runs deterministically from the
named seed, and writes machine-readable reports (JSON, CSV with 17
significant digits) into the output directory.

A command's body is the run() of a module that only that command imports
(COMMANDS), so each command compiles and builds only its own code.  run()
writes the command's CSV reports itself and returns its exit code and its
JSON reports, which main writes through _write_json.  The exit codes are
sftops.report's.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from functools import partial

from .errors import NonFiniteOperator, ResourceLimit, SftopsError
from .report import EXIT_INTERNAL, EXIT_INVALID, EXIT_RESOURCE
from .scenarios import REFERENCE_SCENARIOS, load_scenario, validate_window

# command -> the module of its body; report-all runs them all, in this order
COMMANDS = {
    "validate": "cmd_validate",
    "metric-audit": "cmd_metric_audit",
    "auf-audit": "cmd_auf_audit",
    "fredholm": "cmd_fredholm",
    "spectrum": "cmd_spectrum",
}


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _run(command: str, scenario, args) -> int:
    """One command's body, its JSON reports written; its exit code, 3 with
    the message when it refuses a table over its size bound."""
    try:
        code, reports = importlib.import_module(f"sftops.{COMMANDS[command]}").run(scenario, args)
    except ResourceLimit as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    for name, payload in reports.items():
        _write_json(os.path.join(args.out, name), payload)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sftops",
        description="Groupoid metrics, commutator spectra and summability "
        "certificates for irreducible topological Markov chains.",
    )
    parser.add_argument("command", choices=sorted([*COMMANDS, "report-all"]))
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
    given = {"seed": args.seed, "p_grid": args.p_grid, "basis_cap": args.cap}
    overrides = {name: value for name, value in given.items() if value is not None}
    try:
        if args.window:  # --window only feeds spectrum and stays out of the scenario
            validate_window(args.window)
        scenario = REFERENCE_SCENARIOS.get(args.scenario, partial(load_scenario, args.scenario))(**overrides)
    except (SftopsError, ValueError) as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"invalid option: --out {args.out!r} cannot be made a directory: {exc.strerror}", file=sys.stderr)
        return EXIT_INVALID
    start = time.time()
    try:
        if args.command == "report-all":
            code = max(_run(command, scenario, args) for command in COMMANDS)
        else:
            code = _run(args.command, scenario, args)
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
