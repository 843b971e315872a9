"""What the command bodies share: exit codes, the report skeleton, the
seeded generator and the choice of a stable and an unstable function.

Exit codes: 0 success, 1 property-failure findings, 2 invalid input,
3 resource cap (no trusted block), 4 internal error (an uncaught exception
inside a command).
"""

from __future__ import annotations

import sys

import numpy as np

from . import sft
from .scenarios import Scenario, scenario_hash

TOOL_VERSION = "sftops 0.1.0"

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


def skeleton(scenario: Scenario, command: str) -> dict:
    return {
        "command": command,
        "scenario": scenario.name,
        "scenario_hash": scenario_hash(scenario),
        "tool_version": TOOL_VERSION,
    }


def seeded_rng(scenario: Scenario, salt: int):
    return np.random.default_rng(scenario.seed + salt)


def function_pair(scenario: Scenario, command: str, stable_names, unstable_names):
    """The first of stable_names and the first of unstable_names that the
    scenario defines, or None after saying on stderr which is missing or
    on the wrong side."""
    names = []
    for wanted in (stable_names, unstable_names):
        found = [name for name in wanted if name in scenario.functions]
        if not found:
            listed = " or ".join(map(repr, wanted))
            print(f"{command}: unknown function name: {listed}", file=sys.stderr)
            return None
        names.append(found[0])
    sides = tuple(scenario.functions[name].side for name in names)
    if sides != (sft.STABLE, sft.UNSTABLE):
        print(f"{command} needs a stable and an unstable function, got {sides}", file=sys.stderr)
        return None
    return names
