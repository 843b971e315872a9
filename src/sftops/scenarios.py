"""Scenario schema, JSON (de)serialization, the shipped reference scenarios."""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import os
from functools import partial

from .errors import InvalidScenario, OrbitsNotDisjoint
from .groupoid import BaseSet, GroupoidElement
from .functions import LocallyConstantFunction, Term
from .sft import (
    STABLE,
    UNSTABLE,
    PeriodicOrbit,
    TransitionMatrix,
    decode_point,
    encode_point,
    orbits_disjoint,
    validate_matrix,
    validate_point,
)
from .slotted import Slotted


class Scenario(Slotted):
    __slots__ = _fields = (
        "name",
        "matrix",
        "kappa",
        "orbit_p",
        "orbit_q",
        "core_bound",
        "window",
        "basis_cap",
        "functions",
        "p_grid",
        "seed",
    )

    def replace(self, **changes) -> "Scenario":
        """A new scenario with the named fields changed and the rest shared."""
        fields = {name: getattr(self, name) for name in self._fields}
        fields.update(changes)
        return Scenario(**fields)

    def validate(self) -> None:
        validate_matrix(self.matrix)
        if not (math.isfinite(self.kappa) and self.kappa > 1):
            raise InvalidScenario("kappa must be finite and > 1")
        PeriodicOrbit.from_word(self.orbit_p.cycle, self.matrix)
        PeriodicOrbit.from_word(self.orbit_q.cycle, self.matrix)
        if not orbits_disjoint(self.orbit_p, self.orbit_q):
            raise OrbitsNotDisjoint("orbit_P and orbit_Q share a point")
        if self.window[0] > self.window[1]:
            raise InvalidScenario("empty window")
        if not all(math.isfinite(p) and p > 0 for p in self.p_grid):
            raise InvalidScenario("p grid must be finite and positive")
        if self.core_bound < 0 or self.basis_cap < 1:
            raise InvalidScenario("bad core bound or basis cap")
        if self.seed < 0:
            raise InvalidScenario(f"seed must be >= 0, got {self.seed}")
        for f in self.functions.values():
            for bs, coeff, depth, seed in f.terms:
                if not cmath.isfinite(coeff):
                    raise InvalidScenario(f"coeff must be finite, got {coeff!r}")
                if depth < 0:
                    raise InvalidScenario("negative profile depth")
                try:
                    seed.encode()  # the profile bits hash the seed's UTF-8 bytes
                except UnicodeEncodeError:
                    raise InvalidScenario(f"profile seed must be UTF-8 text, got {seed!r}") from None
                for pt in (bs.anchor.first, bs.anchor.second):
                    validate_point(pt, self.matrix)


def _base_set_to_dict(bs: BaseSet) -> dict:
    return {
        "anchor": [encode_point(bs.anchor.first), encode_point(bs.anchor.second)],
        "radius_exp": bs.radius_exp,
        "time": bs.time,
    }


def _integer(value, what: str) -> int:
    """A JSON integer; int() would truncate a float and convert a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidScenario(f"{what} must be an integer, got {value!r}")
    return value


def _number(value, what: str) -> float:
    """A JSON number; float() and complex() would convert a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidScenario(f"{what} must be a number, got {value!r}")
    return float(value)


def _string(value, what: str) -> str:
    """A JSON string; str() would turn a number or a list into text."""
    if not isinstance(value, str):
        raise InvalidScenario(f"{what} must be a string, got {value!r}")
    return value


def _pair(value, what: str) -> list:
    """A JSON array of exactly two entries."""
    if not isinstance(value, list) or len(value) != 2:
        raise InvalidScenario(f"{what} must be an array of two entries, got {value!r}")
    return value


def _coeff(value) -> complex:
    real, imag = _pair(value, "coeff")
    return complex(_number(real, "coeff"), _number(imag, "coeff"))


def _base_set_from_dict(d: dict, side: str) -> BaseSet:
    first, second = (decode_point(_string(p, "anchor point")) for p in _pair(d["anchor"], "anchor"))
    anchor = GroupoidElement(first, second, side)
    return BaseSet(anchor, _integer(d["radius_exp"], "radius_exp"), _integer(d["time"], "time"))


def function_to_dict(f: LocallyConstantFunction) -> dict:
    """`terms` for depth-0 terms, `profile` for one deeper term, and
    otherwise a `sum` over the maximal runs of those two forms."""
    runs = []
    for t in f.terms:
        if t.depth == 0 and runs and runs[-1][-1].depth == 0:
            runs[-1].append(t)
        else:
            runs.append([t])
    parts = [_run_to_dict(f.side, run) for run in runs] or [_run_to_dict(f.side, [])]
    return parts[0] if len(parts) == 1 else {"side": f.side, "sum": parts}


def _run_to_dict(side: str, run) -> dict:
    if run and run[0].depth > 0:
        ((bs, c, depth, seed),) = run
        return {
            "side": side,
            "profile": {
                "support": _base_set_to_dict(bs),
                "depth": depth,
                "seed": seed,
                "coeff": [c.real, c.imag],
            },
        }
    terms = [dict(_base_set_to_dict(bs), coeff=[c.real, c.imag]) for bs, c, _, _ in run]
    return {"side": side, "terms": terms}


def function_from_dict(d: dict) -> LocallyConstantFunction:
    """The term list of any of the three forms; a `sum` concatenates its parts."""
    side = d["side"]
    if side not in (STABLE, UNSTABLE):
        raise InvalidScenario(f"unknown side {side!r}")
    if "sum" in d:
        terms = tuple(t for part in d["sum"] for t in function_from_dict(part).terms)
    elif "profile" in d:
        p = d["profile"]
        terms = (
            Term(
                _base_set_from_dict(p["support"], side),
                _coeff(p["coeff"]),
                _integer(p["depth"], "depth"),
                _string(p["seed"], "profile seed"),
            ),
        )
    else:
        terms = tuple(
            (_base_set_from_dict(t, side), _coeff(t["coeff"]))
            for t in d["terms"]
        )
    return LocallyConstantFunction(side, terms)


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "name": s.name,
        "matrix": [list(row) for row in s.matrix.entries],
        "kappa": s.kappa,
        "orbit_P": list(s.orbit_p.cycle),
        "orbit_Q": list(s.orbit_q.cycle),
        "core_bound": s.core_bound,
        "window": list(s.window),
        "basis_cap": s.basis_cap,
        "functions": {k: function_to_dict(f) for k, f in sorted(s.functions.items())},
        "p_grid": s.p_grid,
        "seed": s.seed,
    }


def scenario_from_dict(d: dict) -> Scenario:
    if not isinstance(d, dict) or not isinstance(d.get("functions", {}), dict):
        raise InvalidScenario("a scenario and its functions must be JSON objects")
    try:
        s = Scenario(
            name=_string(d.get("name", "scenario"), "name"),
            matrix=TransitionMatrix.from_rows(
                [[_integer(v, "matrix entry") for v in row] for row in d["matrix"]]
            ),
            kappa=_number(d["kappa"], "kappa"),
            orbit_p=PeriodicOrbit.from_word([_integer(v, "orbit_P symbol") for v in d["orbit_P"]]),
            orbit_q=PeriodicOrbit.from_word([_integer(v, "orbit_Q symbol") for v in d["orbit_Q"]]),
            core_bound=_integer(d.get("core_bound", 4), "core_bound"),
            window=tuple(_integer(v, "window bound") for v in d.get("window", (-8, 24))),
            basis_cap=_integer(d.get("basis_cap", 20000), "basis_cap"),
            functions={k: function_from_dict(v) for k, v in d.get("functions", {}).items()},
            p_grid=[_number(p, "p_grid entry") for p in d.get("p_grid", [0.7, 1.0, 1.3])],
            seed=_integer(d.get("seed", 0), "seed"),
        )
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise InvalidScenario(str(exc)) from exc
    if len(s.window) != 2:
        raise InvalidScenario("window must be two integers")
    s.validate()
    return s


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as handle:
            return scenario_from_dict(json.load(handle))
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nesting past the interpreter's limit, in the decoder or a `sum`
        raise InvalidScenario(f"cannot read scenario: {exc}") from exc


def scenario_hash(s: Scenario) -> str:
    canon = json.dumps(scenario_to_dict(s), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# reference scenarios: the JSON files shipped in the package's reference/


REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
REFERENCE_SCENARIOS = {
    name: partial(load_scenario, os.path.join(REFERENCE_DIR, f"{name}.json"))
    for name in ("full-2-shift", "golden-mean")
}
