"""Workload ``fleet-diurnal``: a seeded four-stack fleet race.

``simulate_fleet`` on ``baseline,memento,snapshot,reclaim`` with
``pattern=diurnal``, ``mix=azure``, ``policy=keepalive``. Set-up fills
the 256 engine shards (16 functions x 4 stacks x warm/cold x 2 profile
seeds) through ``ExperimentEngine.run_many``; the timed calls then find
every shard in the engine's memo, so they measure arrival generation,
the pool pass and the reduction, and no replay.
"""

from __future__ import annotations

import contextlib
import time
from pathlib import Path
from typing import Any, Dict, List

import benchlib
from benchlib import Outcome, Probe

STACKS = ("baseline", "memento", "snapshot", "reclaim")

#: Invocations per simulated fleet. Small enough that a run holds
#: several calls (their median is the figure), large enough that the
#: pool pass dwarfs the per-call shard lookups.
INVOCATIONS = 10_000

#: Simulated window: one whole day. The diurnal envelope needs a full
#: period, and over a shorter window the seed decides whether one of the
#: four 3x bursts falls inside it, which doubles or halves the arrival
#: cost (a one-hour window at seed 8 ran 2x faster than at seeds 1-7).
DURATION_S = 86_400.0

#: Cold fan-outs per run; ``setup_s`` is their median. Each costs about
#: 11 s with two workers, so two is what the run budget allows.
SETUPS = 2

#: Engine worker processes for the fan-out.
FANOUT_JOBS = 2


def fleet_request(seed: int) -> Any:
    from repro.api import FleetRequest

    return FleetRequest(
        invocations=INVOCATIONS,
        duration_s=DURATION_S,
        pattern="diurnal",
        mix="azure",
        policy="keepalive",
        stacks=STACKS,
        seed=42 if seed == 0 else benchlib.derive_seed(seed, "fleet"),
    )


def fan_out(request: Any) -> tuple:
    """One cold fan-out into a fresh memory-only engine."""
    from repro.api import ExperimentEngine
    from repro.fleet.simulate import fleet_run_requests

    engine = ExperimentEngine(
        use_disk_cache=False, use_ledger=False, jobs=FANOUT_JOBS
    )
    shards = fleet_run_requests(request)
    start = time.perf_counter()
    engine.run_many([shards[key] for key in sorted(shards)])
    return engine, time.perf_counter() - start, len(shards)


def fleet_outputs(result: Any) -> Dict[str, Any]:
    """The FleetResult payload minus ``fleet_key``, which folds in the
    source fingerprint and so changes with any edit to the program."""
    payload = result.to_dict()
    payload.pop("fleet_key", None)
    return payload


def install_probe(probe: Probe) -> None:
    """Wrap the named layers, not ``simulate_fleet`` around them: its
    own per-arrival loop and the engine's memo walk stay in
    ``fleet-diurnal.other_s``."""
    from repro.api import RunRequest
    from repro.fleet import arrival, pool, simulate

    probe.wrap(RunRequest, "content_key", "harness.engine.lookup")
    # ``simulate`` reaches the arrival process through the module, so
    # wrapping the module attributes catches every call.
    probe.wrap(arrival, "epoch_arrivals", "fleet.arrival.arrivals")
    probe.wrap(arrival, "epoch_counts", "fleet.arrival.counts")
    probe.wrap(arrival, "assign_functions", "fleet.arrival.assign")
    probe.count(arrival, "intensity", "fleet.arrival.intensity")
    probe.wrap(pool.FleetPool, "invoke", "fleet.pool.invoke")
    probe.wrap(pool.FleetPool, "finish", "fleet.pool.finish")

    def count_samples(args: tuple, summary: Any) -> None:
        probe.calls["fleet.metrics.samples"] += len(args[0])

    # ``simulate`` imported the reduction helpers by name.
    probe.wrap(simulate, "percentile_summary", "fleet.metrics.reduce",
               on_result=count_samples)
    probe.wrap(simulate, "compare_stacks", "fleet.metrics.reduce")


def timed_call(simulate: Any, request: Any, engine: Any,
               traced: bool) -> Dict[str, Any]:
    """One ``simulate_fleet`` call, with its layers wrapped when traced."""
    with contextlib.ExitStack() as scope:
        probe = scope.enter_context(Probe()) if traced else None
        if probe is not None:
            install_probe(probe)
        start = time.perf_counter()
        result = simulate.simulate_fleet(request, engine=engine)
        wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "probe": probe,
        "digest": benchlib.digest(fleet_outputs(result)),
        "result": result,
    }


def run(root: Path, work: Path, seed: int, seconds: float,
        trace: bool) -> Outcome:
    from repro.fleet import simulate

    outcome = Outcome()
    request = fleet_request(seed)

    setups: List[float] = []
    calls: List[Dict[str, Any]] = []
    failed = False
    for _ in range(SETUPS):
        if failed:
            break
        engine = None  # drop the previous memo before the next fan-out
        engine, elapsed, shards = fan_out(request)
        setups.append(elapsed)
        benchlib.log(f"fleet fan-out {shards} shards {elapsed:.2f}s")
        # Each set-up is followed by its share of the timed calls, so the
        # calls sample the host across the whole run, not its last seconds.
        started = time.perf_counter()
        block_calls = 0
        while (
            not block_calls
            or time.perf_counter() - started < seconds / SETUPS
        ):
            block_calls += 1
            traced = trace and len(calls) % 2 == 1
            outcome.attempted += 1
            try:
                record = timed_call(simulate, request, engine, traced)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                outcome.failed += 1
                outcome.problems.append(f"fleet call: {exc!r}")
                failed = True
                break
            result = record.pop("result")
            calls.append(record)
            benchlib.log(
                f"fleet call {len(calls)} "
                f"{'traced' if traced else 'untraced'} "
                f"{record['wall_s']:.2f}s digest {record['digest']}"
            )
    if not calls:
        return outcome

    digests = sorted({c["digest"] for c in calls})
    if len(digests) != 1:
        outcome.problems.append(f"fleet calls disagree: digests {digests}")
    if result.invocations != INVOCATIONS or set(result.stacks) != set(STACKS):
        outcome.problems.append("fleet result does not cover the request")

    plain = [c for c in calls if c["probe"] is None]
    call_ms = [c["wall_s"] * 1e3 for c in plain]
    work = INVOCATIONS * len(STACKS)
    outcome.end_to_end = {
        "setup_s": benchlib.median(setups),
        "peak_rss_mb": benchlib.self_peak_rss_mb(),
        "throughput_per_s": work / (benchlib.median(call_ms) / 1e3),
        "latency_p50_ms": benchlib.percentile(call_ms, 50),
        "latency_p95_ms": benchlib.percentile(call_ms, 95),
    }
    outcome.report = {
        "fleet_invocations_per_s": outcome.end_to_end["throughput_per_s"],
        "invocations": INVOCATIONS,
        "stacks": list(STACKS),
        "calls": len(calls),
        "latency_samples": len(call_ms),
        "setup_samples_s": setups,
        "output_digest": digests[0],
        "cold_start_p95_ms": {
            name: m.cold_start_ms.get("p95")
            for name, m in result.stacks.items()
        },
    }
    if trace:
        traced = [c for c in calls if c["probe"] is not None]
        outcome.per_layer = traced_layers(traced, plain, setups)
        wall = benchlib.mean(c["wall_s"] for c in traced)
        carried = sum(
            value for name, value in outcome.per_layer.items()
            if name.startswith(("fleet.arrival.", "fleet.pool."))
            and name.endswith("_s")
        )
        outcome.report["prediction"] = {
            "claim": "fleet.arrival.* + fleet.pool.* carry most of "
                     "fleet-diurnal",
            "share": carried / wall,
            "confirmed": carried / wall > 0.5,
        }
    return outcome


def traced_layers(traced: list, plain: list,
                  setups: List[float]) -> Dict[str, float]:
    """Per-layer figures per fleet call, averaged over traced calls."""
    n = len(traced)

    def self_s(layer: str) -> float:
        return sum(c["probe"].self_s[layer] for c in traced) / n

    def calls(layer: str) -> float:
        return sum(c["probe"].calls[layer] for c in traced) / n

    wall = benchlib.mean(c["wall_s"] for c in traced)
    plain_wall = benchlib.median(c["wall_s"] for c in plain)
    attributed = benchlib.mean(c["probe"].attributed_s() for c in traced)
    return {
        "fleet.arrival.arrivals_s": self_s("fleet.arrival.arrivals")
        + self_s("fleet.arrival.counts"),
        "fleet.arrival.assign_s": self_s("fleet.arrival.assign"),
        "fleet.arrival.intensity_calls": calls("fleet.arrival.intensity"),
        "fleet.arrival.epoch_arrivals_calls": calls(
            "fleet.arrival.arrivals"
        ),
        "fleet.pool.invoke_s": self_s("fleet.pool.invoke"),
        "fleet.pool.invocations": calls("fleet.pool.invoke"),
        "fleet.pool.finish_s": self_s("fleet.pool.finish"),
        "fleet.metrics.reduce_s": self_s("fleet.metrics.reduce"),
        "fleet.metrics.latency_samples": calls("fleet.metrics.samples"),
        "harness.engine.lookup_s": self_s("harness.engine.lookup"),
        "harness.engine.fanout_s": benchlib.median(setups),
        "fleet-diurnal.other_s": wall - attributed,
        "trace.overhead_pct": 100.0 * (wall / plain_wall - 1.0),
    }
