"""Deterministic sample families of points and groupoid elements.

The audits need element families that vary at a controlled range of
depths: around each anchor we plant points that agree with the anchor's
source to exactly depth t and then deviate, for t over a window, so that
base-set disks of every radius still capture nontrivial pairs.  All
sampling is reproducible from a seeded generator.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .errors import ResourceLimit
from .functions import elements_over
from .groupoid import GroupoidElement, base_set, c_first_time, unit
from .sft import (
    STABLE,
    EventuallyPeriodicPoint,
    PeriodicOrbit,
    TransitionMatrix,
    Window,
    enumerate_homoclinic,
    periodic_point,
    shift,
    splice_at,
)

DRAW_CHUNK = 1024


def draws(rng, bounds, count: int):
    """`count` rounds of int(rng.integers(b)) for b in bounds, as one index
    array per position of `bounds` for each chunk of at most DRAW_CHUNK
    values; numpy draws a (k, len(bounds)) batch as those scalar calls, to
    the values and the generator state after them (tests/test_cli.py pins
    this), and only one chunk is alive at a time."""
    per = max(1, DRAW_CHUNK // len(bounds))
    while count > 0:
        k = min(per, count)
        yield rng.integers(bounds, size=(k, len(bounds))).T
        count -= k


def homoclinic_pool(
    m: TransitionMatrix,
    p: PeriodicOrbit,
    q: PeriodicOrbit,
    core_bound: int,
    depth_shifts,
) -> list:
    """Homoclinic points with cores pushed to a range of future depths."""
    base = enumerate_homoclinic(m, p, q, core_bound)
    seen = {}
    for j in depth_shifts:
        for x in base:
            seen[shift(x, -j)] = True
    return sorted(seen, key=EventuallyPeriodicPoint.sort_key)


def path_to_cycle(m: TransitionMatrix, start: int, cycle) -> bytes:
    """Shortest allowed word start..first-symbol-of-cycle (inclusive ends)."""
    targets = set(cycle)
    seen = {start: bytes((start,))}
    queue = deque([start])
    while queue:
        s = queue.popleft()
        if s in targets:
            return seen[s]
        for t in m.successors(s):
            if t not in seen:
                seen[t] = seen[s] + bytes((t,))
                queue.append(t)
    raise ValueError("cycle unreachable; matrix not irreducible?")


def variations_at_depth(
    m: TransitionMatrix, b: EventuallyPeriodicPoint, t: int, p: PeriodicOrbit
) -> list:
    """Points equal to b through index t, deviating at t + 1, then p-asymptotic."""
    out = []
    cur = b.at(t + 1)
    cycle = periodic_point(p.cycle)
    for s in m.successors(b.at(t)):
        if s == cur:
            continue
        word = path_to_cycle(m, s, p.cycle)
        # the P-tail in the phase where the word's last symbol lands on it
        tail = shift(cycle, p.cycle.index(word[-1]) - t - len(word))
        out.append(splice_at(b, tail, t, word))
    return out


def nested_family(
    m: TransitionMatrix,
    anchor: GroupoidElement,
    depths,
    p: PeriodicOrbit,
) -> list:
    """Graph elements (h(z), z) for z varying at each depth around the
    anchor, depth by depth: elements_of the anchor's base set at each depth
    over that depth's variations, all from one kernel call."""
    sets, groups = [], []
    n_a = c_first_time(anchor)
    for t in depths:
        sets.append(base_set(anchor, max(t - 1, n_a)))
        groups.append(variations_at_depth(m, anchor.second, t, p))
    return elements_over(sets, groups)


# The bound on the pair tables of a pool of P points with rows of W symbols:
# P * P * 8 per int64 table (stable_pairs' permutation, metric-audit's units
# close_table), plus a P * P * W term that no table fills any more (no code
# compares every pair of pool rows); it is kept so that the same pools exit
# 3, as tests/test_cli.py::TestAuditPoolBound pins.
POOL_TABLE_BYTES = 2**26


def stable_pairs(pool, limit: int, rng) -> list:
    """Stably equivalent ordered pairs drawn from the pool (of distinct
    points): the first `limit` of them in the order of one permutation of
    the n * n pool pairs, pair (i, j) at i * n + j.  Past the cores of one
    Window of the pool each right tail repeats with a period dividing
    `right`, so two points are stably equivalent when their rows end in the
    same `right` symbols.  A pool over POOL_TABLE_BYTES is refused."""
    n = len(pool)
    window = Window(pool, [0])
    need = n * n * (window.hi - window.lo + 8)
    if need > POOL_TABLE_BYTES:
        raise ResourceLimit(f"pool pair tables {need} bytes ({n} pool points) exceed the cap {POOL_TABLE_BYTES}")
    tails = {}
    codes = np.array([tails.setdefault(x.window(window.hi - window.right, window.hi), len(tails)) for x in pool])
    order = rng.permutation(n * n)
    hits = order[(codes[:, None] == codes).ravel()[order]][:limit]
    return [GroupoidElement(pool[i], pool[j], STABLE) for i, j in zip(*np.divmod(hits, n))]


def audit_elements(
    m: TransitionMatrix,
    p: PeriodicOrbit,
    q: PeriodicOrbit,
    rng,
    count: int,
) -> list:
    """Stable-side element family: nested families around a few anchors plus
    units and random stably equivalent pairs."""
    pool = homoclinic_pool(m, p, q, 2, range(0, 6))
    units = [unit(x) for x in pool]
    anchor_units = [units[i] for (picks,) in draws(rng, (len(units),), 4) for i in picks.tolist()]
    anchor_pairs = stable_pairs(pool, 4, rng)
    seen = {}
    for a in anchor_units + anchor_pairs:
        seen[a] = True
        for e in nested_family(m, a, range(c_first_time(a) + 2, 16), p):
            seen[e] = True
    for e in stable_pairs(pool, count, rng):
        if len(seen) >= count:
            break
        seen[e] = True
    out = sorted(seen, key=GroupoidElement.sort_key)
    return out[:count] if len(out) > count else out
