"""The repository's benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 bench/run.py --workload sweep --seed 0 --seconds 15 --trace 0

``--workload`` is ``sweep``, ``fleet-diurnal`` or ``service-mixed``
(README.md says why each exists and which layers it stresses).
``--seed`` generates the inputs; ``0`` is the registry's own
configuration. ``--seconds`` is how long the measured loop runs.
``--trace 0`` runs the program unmodified and reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced work, wraps the
layers' public functions in the traced part only, and reports the
per-layer metrics, the tracing overhead and the unattributed remainder.

Progress goes to stderr. Stdout carries one JSON report line, then the
result as the last line::

    {"correct": true, "attempted": 30, "failed": 0,
     "metrics": {"setup_s": {"value": 0.41, "unit": "s"}, ...}}

Exits 2 without a result when the program's source (``src/repro``) is
not next to this directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import benchlib

WORKLOADS = {
    "sweep": "sweep_workload",
    "fleet-diurnal": "fleet_workload",
    "service-mixed": "service_workload",
}

#: (name, unit). Every workload reports all of them; what the unit of
#: work and the operation are on each workload is in README.md.
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
]

#: (name, unit). A layer that a workload never calls reports 0.
PER_LAYER: List[Tuple[str, str]] = [
    ("workloads.generate_s", "s"),
    ("workloads.generate_calls", "count"),
    ("workloads.pack_s", "s"),
    ("harness.system.build_s", "s"),
    ("harness.system.run_s", "s"),
    ("harness.system.events_per_s", "1/s"),
    ("harness.engine.lookup_s", "s"),
    ("harness.engine.fanout_s", "s"),
    ("harness.engine.hit_ratio", "ratio"),
    ("backends.put_s", "s"),
    ("obs.ledger.append_s", "s"),
    ("sim.cycles.baseline", "cycles"),
    ("sim.cycles.memento", "cycles"),
    ("sim.dram_bytes.baseline", "B"),
    ("sim.dram_bytes.memento", "B"),
    ("sim.llc.misses.memento", "count"),
    ("sim.kernel.faults.baseline", "count"),
    ("sim.kernel.faults.memento", "count"),
    ("core.hot.alloc_hit_rate", "ratio"),
    ("core.bypass.bypassed_lines", "count"),
    ("sim.bypass_gain_cycles", "cycles"),
    ("sim.paper_speedup_mae", "ratio"),
    ("fleet.arrival.arrivals_s", "s"),
    ("fleet.arrival.assign_s", "s"),
    ("fleet.arrival.intensity_calls", "count"),
    ("fleet.arrival.epoch_arrivals_calls", "count"),
    ("fleet.pool.invoke_s", "s"),
    ("fleet.pool.invocations", "count"),
    ("fleet.pool.finish_s", "s"),
    ("fleet.metrics.reduce_s", "s"),
    ("fleet.metrics.latency_samples", "count"),
    ("service.client.submit_ms", "ms"),
    ("service.client.poll_ms", "ms"),
    ("service.client.polls_per_job", "count"),
    ("service.client.poll_sleep_ms", "ms"),
    ("service.client.fetch_ms", "ms"),
    ("service.jobs.queue_wait_ms", "ms"),
    ("service.jobs.run_ms", "ms"),
    ("sweep.other_s", "s"),
    ("fleet-diurnal.other_s", "s"),
    ("service-mixed.other_s", "s"),
    ("trace.overhead_pct", "%"),
]


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum: int, frame: object) -> None:
    # Unwind through the ``finally`` blocks, which stop servers and
    # remove the work directory.
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            f"bench: no program source at {root / 'src' / 'repro'}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))

    scratch = root / ".bench_work"
    work = scratch / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        env = benchlib.environment(args.seed)
        module = importlib.import_module(WORKLOADS[args.workload])
        outcome = module.run(
            root, work, args.seed, args.seconds, bool(args.trace)
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if scratch.exists() and not any(scratch.iterdir()):
            scratch.rmdir()

    table = PER_LAYER if args.trace else END_TO_END
    source = outcome.per_layer if args.trace else outcome.end_to_end
    if not args.trace and not source:
        print(json.dumps({"problems": outcome.problems}), file=sys.stderr)
        return 1
    metrics: Dict[str, Dict[str, object]] = {
        name: {"value": float(source.get(name, 0.0)), "unit": unit}
        for name, unit in table
    }
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": env,
        "problems": outcome.problems,
        "end_to_end": outcome.end_to_end,
        **outcome.report,
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
