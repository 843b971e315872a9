"""Deterministic sample families of points and groupoid elements.

The audits need element families that vary at a controlled range of
depths: around each anchor we plant points that agree with the anchor's
source to exactly depth t and then deviate, for t over a window, so that
base-set disks of every radius still capture nontrivial pairs.  All
sampling is reproducible from a seeded generator.
"""

from __future__ import annotations

import math
from collections import deque

from .groupoid import GroupoidElement, base_set, c_first_time, elements_of, unit
from .sft import (
    STABLE,
    EventuallyPeriodicPoint,
    PeriodicOrbit,
    TransitionMatrix,
    agreement_floor,
    enumerate_homoclinic,
    periodic_point,
    shift,
    splice_at,
)


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
    """Graph elements (h(z), z) for z varying at each depth around the anchor."""
    out = []
    n_a = c_first_time(anchor)
    for t in depths:
        r = max(t - 1, n_a)
        try:
            bs = base_set(anchor, r)
        except ValueError:
            continue
        out += elements_of(bs, variations_at_depth(m, anchor.second, t, p))
    return out


def stable_pairs(pool, limit: int, rng) -> list:
    """Stably equivalent ordered pairs drawn from the pool."""
    n = len(pool)
    out = []
    order = rng.permutation(n * n)
    for idx in order:
        i, j = divmod(int(idx), n)
        x, y = pool[i], pool[j]
        if agreement_floor(x, y) != math.inf:
            out.append(GroupoidElement(x, y, STABLE))
            if len(out) >= limit:
                break
    return out


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
    anchor_units = [units[int(rng.integers(len(units)))] for _ in range(4)]
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
