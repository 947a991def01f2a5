"""Deterministic fleet arrival processes.

A fleet run replays ``invocations`` function invocations over a
``duration_s`` window. Arrivals are generated epoch by epoch so the
whole process is deterministic *and* shardable: every epoch derives its
own child seed from ``(seed, epoch)``, so epoch 7 of a million-invocation
fleet produces the same arrival times and function assignments whether
the fleet is simulated in one pass or resumed mid-way.

Two arrival patterns:

* ``poisson`` — a homogeneous Poisson process. Conditioned on the number
  of events in a window, Poisson arrival times are distributed as the
  order statistics of uniforms, so each epoch draws ``count`` uniforms
  and sorts them — exact, not an approximation.
* ``diurnal`` — an inhomogeneous process with a sinusoidal day/night
  intensity plus short deterministic bursts (the Azure Functions traces
  show both a diurnal envelope and bursty spikes). Per-epoch counts
  follow the integrated intensity (largest-remainder rounding keeps the
  total exact); within an epoch, arrival times are drawn by rejection
  sampling against the local intensity.

The invocation mix over the workload registry is either ``uniform`` or
``azure`` — a Zipf-like popularity skew (the Azure study's headline
observation: a small fraction of functions receives the vast majority
of invocations), with the popularity ranking itself a deterministic
function of the fleet seed.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
from typing import Dict, List, Sequence, Tuple

PATTERNS = ("poisson", "diurnal")
MIXES = ("azure", "uniform")

#: Period of the diurnal intensity envelope, in seconds. Fleets shorter
#: than a day sweep a proportional slice of the cycle.
DAY_S = 86_400.0

#: Diurnal envelope: intensity swings between (1 - DEPTH) and (1 + DEPTH)
#: around the mean rate.
DIURNAL_DEPTH = 0.6

#: Bursts: each burst window multiplies intensity by BURST_GAIN for
#: BURST_FRACTION of the day, at deterministic seed-derived offsets.
BURST_COUNT = 4
BURST_GAIN = 3.0
BURST_FRACTION = 0.02


def epoch_seed(seed: int, epoch: int, salt: str = "arrivals") -> int:
    """Child seed for one epoch, independent of every other epoch."""
    blob = f"{salt}/{seed}/{epoch}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def mix_weights(names: Sequence[str], mix: str, seed: int) -> List[float]:
    """Per-function invocation probabilities, summing to 1.

    ``uniform`` spreads invocations evenly; ``azure`` applies a
    Zipf-like skew (weight ∝ 1/rank) over a seed-derived popularity
    ranking, mimicking the heavy-tailed Azure Functions mix.
    """
    if mix not in MIXES:
        raise ValueError(f"unknown mix {mix!r}; choose from {MIXES}")
    n = len(names)
    if n == 0:
        raise ValueError("mix_weights needs at least one function")
    if mix == "uniform":
        return [1.0 / n] * n
    ranks = list(range(1, n + 1))
    random.Random(epoch_seed(seed, 0, salt="mix")).shuffle(ranks)
    raw = [1.0 / rank for rank in ranks]
    total = sum(raw)
    return [w / total for w in raw]


@functools.lru_cache(maxsize=64)
def _burst_windows(seed: int) -> Tuple[Tuple[float, float], ...]:
    """Deterministic burst windows (start, end) within one day-cycle.

    Cached per seed: ``intensity`` asks for them on every rejection
    draw, and re-deriving them (a sha256 and a ``Random`` seeding) cost
    more than the draw itself.
    """
    rng = random.Random(epoch_seed(seed, 0, salt="bursts"))
    width = BURST_FRACTION * DAY_S
    return tuple(
        sorted(
            (start := rng.uniform(0.0, DAY_S - width), start + width)
            for _ in range(BURST_COUNT)
        )
    )


def intensity(t: float, pattern: str, seed: int) -> float:
    """Relative arrival intensity at time ``t`` (mean ≈ 1 over a day)."""
    if pattern == "poisson":
        return 1.0
    base = 1.0 + DIURNAL_DEPTH * math.sin(2.0 * math.pi * t / DAY_S)
    phase = t % DAY_S
    for start, end in _burst_windows(seed):
        if start <= phase < end:
            return base * BURST_GAIN
    return base


def _intensity_mass(
    start: float, end: float, pattern: str, seed: int, steps: int = 32
) -> float:
    """Integrated intensity over ``[start, end)`` (midpoint rule)."""
    if pattern == "poisson":
        return end - start
    width = (end - start) / steps
    return width * sum(
        intensity(start + (i + 0.5) * width, pattern, seed)
        for i in range(steps)
    )


def epoch_edges(duration_s: float, epochs: int) -> List[float]:
    """The ``epochs + 1`` time boundaries of an epoch-sharded window."""
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    return [duration_s * i / epochs for i in range(epochs + 1)]


def epoch_counts(
    invocations: int,
    duration_s: float,
    epochs: int,
    pattern: str,
    seed: int,
) -> List[int]:
    """How many of ``invocations`` land in each epoch.

    Counts follow each epoch's share of the integrated intensity;
    largest-remainder rounding keeps ``sum(counts) == invocations``
    exactly, so sharding never drops or invents an arrival.
    """
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}; choose from {PATTERNS}")
    edges = epoch_edges(duration_s, epochs)
    masses = [
        _intensity_mass(edges[i], edges[i + 1], pattern, seed)
        for i in range(epochs)
    ]
    total_mass = sum(masses)
    shares = [invocations * m / total_mass for m in masses]
    counts = [int(s) for s in shares]
    remainders = sorted(
        range(epochs), key=lambda i: (shares[i] - counts[i], -i), reverse=True
    )
    for i in remainders[: invocations - sum(counts)]:
        counts[i] += 1
    return counts


def epoch_arrivals(
    epoch: int,
    count: int,
    start: float,
    end: float,
    pattern: str,
    seed: int,
) -> List[float]:
    """Sorted arrival times for one epoch, derived only from
    ``(seed, epoch, count)`` — every epoch is independently replayable."""
    rng = random.Random(epoch_seed(seed, epoch))
    if pattern == "poisson":
        return sorted(rng.uniform(start, end) for _ in range(count))
    peak = (1.0 + DIURNAL_DEPTH) * BURST_GAIN
    times: List[float] = []
    while len(times) < count:
        t = rng.uniform(start, end)
        if rng.uniform(0.0, peak) <= intensity(t, pattern, seed):
            times.append(t)
    times.sort()
    return times


def assign_functions(
    epoch: int,
    count: int,
    weights: Sequence[float],
    seed: int,
) -> List[int]:
    """Function index per arrival in one epoch (weighted by the mix)."""
    rng = random.Random(epoch_seed(seed, epoch, salt="mix-draws"))
    cumulative: List[float] = []
    acc = 0.0
    for w in weights:
        acc += w
        cumulative.append(acc)
    picks: List[int] = []
    for _ in range(count):
        u = rng.uniform(0.0, acc)
        lo, hi = 0, len(cumulative) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if u <= cumulative[mid]:
                hi = mid
            else:
                lo = mid + 1
        picks.append(lo)
    return picks
