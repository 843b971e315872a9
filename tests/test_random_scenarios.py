"""Random scenarios through every command.

A scenario is drawn on a random irreducible matrix of 2 to 4 symbols, with
two disjoint periodic orbits and anchors from enumerate_homoclinic whose
cores lie nearest coordinate 0 (see oracles.anchored_scenario).  Every command runs twice on it: each exits 0,
1, 2 or 3, never 4, and the two runs write the same bytes.  Its blocks
from the word-level kernel equal the point-level assembly.
"""

import contextlib
import hashlib
import io
import itertools
import json
import pathlib
import tempfile
from unittest import mock

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from sftops import cli
from sftops import functions as fn
from sftops import groupoid as gd
from sftops import scenarios as sn
from sftops import sft
from sftops.errors import SftopsError

import oracles

# a few runs per command at small sizes, and fredholm's dense side capped
# at DENSE_SIDE: on 4 symbols its registry reaches the default cap's 2048,
# whose SVDs take seconds
SAMPLES = "100"
DENSE_SIDE = 512
COMMANDS = [
    ["validate"],
    ["metric-audit", "--samples", SAMPLES],
    ["auf-audit", "--samples", SAMPLES],
    ["spectrum"],
    ["spectrum", "--stable-function", "a_terms", "--unstable-function", "b_terms"],
    ["fredholm"],
    ["report-all", "--samples", SAMPLES],
]


def core_gap(x):
    """How far the core of x lies from coordinate 0: 0 when it reaches 0."""
    return max(x.core_start, -x.core_end, 0)


def orbits(m):
    """One primitive allowed cycle of at most 3 symbols per periodic orbit of m."""
    out = {}
    for length in (1, 2, 3):
        for w in itertools.product(range(m.n), repeat=length):
            allowed = all(m.allowed(w[i], w[(i + 1) % length]) for i in range(length))
            if allowed and sft.primitive_root(bytes(w)) == bytes(w):
                out.setdefault(min(w[r:] + w[:r] for r in range(length)), None)
    return [sft.PeriodicOrbit(w) for w in out]


@st.composite
def random_scenarios(draw):
    n = draw(st.integers(2, 4))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    m = sft.TransitionMatrix.from_rows(draw(st.lists(bits, min_size=n, max_size=n)))
    try:
        sft.validate_matrix(m)
    except SftopsError:
        assume(False)
    cycles = orbits(m)
    assume(len(cycles) >= 2)
    p, q = draw(st.permutations(cycles))[:2]
    # anchors whose cores lie nearest 0: in point order, the first pairs'
    # cores sit at -3, and fewer blocks of the window hold an entry
    s = oracles.anchored_scenario(
        "random", m, p, q, 3, "fuzz", rank=core_gap,
        kappa=draw(st.sampled_from([1.2, 1.5, 2.0, 3.0])),
        window=(-2, 8),
        basis_cap=draw(st.sampled_from([50, 2000])),
        p_grid=[0.7, 1.0],
        seed=draw(st.integers(0, 2**16)),
    )
    assume(s is not None)
    unit = gd.unit(s.functions["a"].terms[0].support.anchor.first)
    s.functions["e_proj"] = fn.indicator(gd.BaseSet(unit, 2, 0))
    return s


def digests(out: pathlib.Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(random_scenarios())
def test_every_command_runs_twice_alike(s):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(fn, "DENSE_SIDE_CAP", DENSE_SIDE):
        path = pathlib.Path(tmp) / "random.json"
        path.write_text(json.dumps(sn.scenario_to_dict(s)))
        for command in COMMANDS:
            runs = []
            for k in range(2):
                out = pathlib.Path(tmp) / f"{command[0]}-{k}"
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = cli.main([*command, "--scenario", str(path), "--out", str(out)])
                assert code in (0, 1, 2, 3), (command, err.getvalue())
                runs.append((code, digests(out)))
            assert runs[0] == runs[1], command
    a, b = s.functions["a"], s.functions["b"]
    seeds = sft.enumerate_homoclinic(s.matrix, s.orbit_p, s.orbit_q, 3)
    fast, slow = (
        blocks(a, b, s.window, fn.BasisRegistry.seeded(seeds, cap=s.basis_cap), s.matrix)
        for blocks in (fn.commutator_blocks, oracles.point_level_blocks)
    )
    oracles.assert_same_assembly(fast, slow)
