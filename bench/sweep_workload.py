"""Workload ``sweep``: the paper's evaluation loop on five workloads.

One *pass* runs ``run_all`` (baseline, memento, memento without bypass)
for each of ``html`` (Python/pymalloc), ``US`` (C++/jemalloc),
``html-go`` (Go), ``Redis`` (dataproc, jemalloc with purge) and
``deploy`` (platform op), serially, through a fresh
``ExperimentEngine`` on an empty private json store with its run
ledger. Every pass repeats the same seeded inputs, so every pass must
produce the same outputs.
"""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

import benchlib
from benchlib import Outcome, Probe

NAMES = ("html", "US", "html-go", "Redis", "deploy")

#: Fresh-interpreter set-ups timed per run; ``setup_s`` is their median.
SETUPS = 5

#: Passes per run at least, however short ``--seconds`` is: every pass
#: is compared with another, and each workload's figure is its median
#: over passes. A pass takes 11-19 s on a 2-core host, so a third pass
#: would not fit the run budget of all three workloads.
MIN_PASSES = 2

#: A cold start of the program as a sweep pays it: import the API,
#: fingerprint the source (first content key), open an engine on an
#: empty private store.
COLD_START = (
    "import sys\n"
    "from repro.api import ExperimentEngine, get_workload, "
    "source_fingerprint\n"
    "source_fingerprint()\n"
    "ExperimentEngine(cache_dir=sys.argv[1], jobs=1, backend='json')\n"
    "[get_workload(name) for name in sys.argv[2:]]\n"
)


def specs_for(seed: int) -> list:
    """Seed 0 is the registry's own traces (the data the model was
    calibrated on); any other seed derives fresh trace seeds."""
    from repro.api import get_workload

    specs = [get_workload(name) for name in NAMES]
    if seed == 0:
        return specs
    return [
        dataclasses.replace(
            spec, seed=benchlib.derive_seed(seed, "sweep", spec.name)
        )
        for spec in specs
    ]


def paper_targets(root: Path) -> Dict[str, float]:
    """Fig. 8 bars, read from the paper-claim suite's own table."""
    source = (root / "benchmarks" / "test_fig08_speedup.py").read_text()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "PAPER_TARGETS"
            for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise RuntimeError("PAPER_TARGETS not found")


def time_setup(root: Path, work: Path, index: int) -> float:
    store = work / f"setup-{index}"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", COLD_START, str(store), *NAMES],
        env=env,
        check=True,
        cwd=str(work),
        timeout=120,
    )
    return time.perf_counter() - start


def run_pass(specs: list, store: Path) -> Dict[str, Any]:
    """One sweep pass; returns per-workload op times and results."""
    from repro.api import ExperimentEngine, run_all

    engine = ExperimentEngine(
        cache_dir=store,
        jobs=1,
        use_disk_cache=True,
        use_ledger=True,
        backend="json",
    )
    op_s: List[float] = []
    results = []
    for spec in specs:
        start = time.perf_counter()
        (result,) = run_all([spec], engine=engine)
        op_s.append(time.perf_counter() - start)
        results.append(result)
    return {"op_s": op_s, "results": results}


def outputs(results: list) -> list:
    return [
        [r.baseline.to_dict(), r.memento.to_dict(), r.memento_nobypass.to_dict()]
        for r in results
    ]


def install_probe(probe: Probe) -> None:
    """Wrap the run path's layer boundaries (see README's layer map).

    Only the named layers are wrapped, not the entry point around them
    (``run_all`` / ``run_many``): time spent outside every layer then
    stays in ``sweep.other_s`` instead of in an entry span's self time.
    """
    from repro.api import RunRequest, SimulatedSystem
    from repro.backends import JsonBackend
    from repro.harness import system as system_module
    from repro.obs.ledger import RunLedger
    from repro.workloads import synth
    from repro.workloads.trace import Trace

    probe.wrap(RunRequest, "content_key", "harness.engine.lookup")
    probe.wrap(JsonBackend, "get", "harness.engine.lookup")
    probe.wrap(JsonBackend, "put", "backends.put")
    probe.wrap(RunLedger, "append", "obs.ledger.append")
    probe.wrap(SimulatedSystem, "__init__", "harness.system.build")
    probe.wrap(SimulatedSystem, "run", "harness.system.run")

    def count_events(args: tuple, trace: Any) -> None:
        probe.calls["workloads.events"] += len(trace)

    # ``system.run`` calls the name it imported; wrap both spellings.
    probe.wrap(system_module, "generate_trace", "workloads.generate",
               on_result=count_events)
    probe.wrap(synth, "generate_trace", "workloads.generate",
               on_result=count_events)
    probe.wrap(Trace, "columnar", "workloads.pack")


def sim_counts(results: list, targets: Dict[str, float]) -> Dict[str, float]:
    """Simulated outputs summed per stack: deterministic per seed."""
    base = [r.baseline for r in results]
    mem = [r.memento for r in results]

    def total(runs: list, key: str) -> float:
        return float(sum(run.stats.get(key, 0.0) for run in runs))

    hot_hits = total(mem, "memento.hot.alloc_hits")
    hot_misses = total(mem, "memento.hot.alloc_misses")
    return {
        "sim.cycles.baseline": float(sum(r.total_cycles for r in base)),
        "sim.cycles.memento": float(sum(r.total_cycles for r in mem)),
        "sim.dram_bytes.baseline": float(sum(r.dram_bytes for r in base)),
        "sim.dram_bytes.memento": float(sum(r.dram_bytes for r in mem)),
        "sim.llc.misses.memento": total(mem, "llc.misses"),
        "sim.kernel.faults.baseline": total(base, "kernel.fault.faults"),
        "sim.kernel.faults.memento": total(mem, "kernel.fault.faults"),
        "core.hot.alloc_hit_rate": hot_hits / max(1.0, hot_hits + hot_misses),
        "core.bypass.bypassed_lines": float(
            sum(r.bypassed_lines for r in mem)
        ),
        "sim.bypass_gain_cycles": float(
            sum(
                r.memento_nobypass.total_cycles - r.memento.total_cycles
                for r in results
            )
        ),
        "sim.paper_speedup_mae": benchlib.mean(
            abs(r.speedup - targets[r.spec.name]) for r in results
        ),
    }


def run(root: Path, work: Path, seed: int, seconds: float,
        trace: bool) -> Outcome:
    from repro.api import generate_trace

    outcome = Outcome()
    targets = paper_targets(root)
    specs = specs_for(seed)

    setups = [time_setup(root, work, i) for i in range(SETUPS)]

    # Alternate untraced and traced passes in trace mode; untraced runs
    # never wrap anything. Every pass repeats the same inputs, so their
    # outputs are compared.
    passes: List[Dict[str, Any]] = []
    started = time.perf_counter()
    while (
        len(passes) < MIN_PASSES or time.perf_counter() - started < seconds
    ):
        traced = trace and len(passes) % 2 == 1
        store = work / f"pass-{len(passes)}"
        outcome.attempted += 3 * len(specs)
        with contextlib.ExitStack() as scope:
            probe = scope.enter_context(Probe()) if traced else None
            if probe is not None:
                install_probe(probe)
            wall_start = time.perf_counter()
            try:
                record = run_pass(specs, store)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                outcome.failed += 3 * len(specs)
                outcome.problems.append(f"pass {len(passes)}: {exc!r}")
                break
            record["wall_s"] = time.perf_counter() - wall_start
        shutil.rmtree(store, ignore_errors=True)
        record["probe"] = probe
        record["digest"] = benchlib.digest(outputs(record["results"]))
        passes.append(record)
        benchlib.log(
            f"sweep pass {len(passes)} {'traced' if traced else 'untraced'}"
            f" {record['wall_s']:.2f}s digest {record['digest']}"
        )
    if not passes:
        return outcome

    digests = sorted({p["digest"] for p in passes})
    if len(digests) != 1:
        outcome.problems.append(f"passes disagree: digests {digests}")

    # Host-side numbers come from untraced passes only.
    plain = [p for p in passes if p["probe"] is None]
    events = 3 * sum(len(generate_trace(spec)) for spec in specs)
    # One figure per workload: the median of its run_all time over the
    # untraced passes. Latency percentiles are taken across the five.
    per_workload = [
        benchlib.median(p["op_s"][i] for p in plain)
        for i in range(len(specs))
    ]
    op_ms = [t * 1e3 for t in per_workload]
    sims = sim_counts(passes[0]["results"], targets)

    outcome.end_to_end = {
        "setup_s": benchlib.median(setups),
        "peak_rss_mb": benchlib.self_peak_rss_mb(),
        "throughput_per_s": events / sum(per_workload),
        "latency_p50_ms": benchlib.percentile(op_ms, 50),
        "latency_p95_ms": benchlib.percentile(op_ms, 95),
    }
    outcome.report = {
        "sweep_events_per_s": outcome.end_to_end["throughput_per_s"],
        "paper_speedup_mae": sims["sim.paper_speedup_mae"],
        "events_per_pass": events,
        "passes": len(passes),
        "untraced_passes": len(plain),
        "latency_samples": len(op_ms),
        "pass_wall_s": [round(p["wall_s"], 4) for p in passes],
        "workload_median_s": dict(zip(NAMES, per_workload)),
        "speedups": {
            r.spec.name: r.speedup for r in passes[0]["results"]
        },
        "setup_samples_s": setups,
        "output_digest": digests[0],
        "sim": sims,
    }
    if trace:
        traced = [p for p in passes if p["probe"] is not None]
        outcome.per_layer, outcome.report["prediction"] = traced_layers(
            traced, plain, sims
        )
    return outcome


def traced_layers(traced: list, plain: list,
                  sims: Dict[str, float]) -> tuple:
    """Per-layer figures per pass, averaged over the traced passes."""
    n = len(traced)

    def self_s(layer: str) -> float:
        return sum(p["probe"].self_s[layer] for p in traced) / n

    def calls(layer: str) -> float:
        return sum(p["probe"].calls[layer] for p in traced) / n

    wall = benchlib.mean(p["wall_s"] for p in traced)
    plain_wall = benchlib.median(p["wall_s"] for p in plain)
    attributed = benchlib.mean(p["probe"].attributed_s() for p in traced)
    run_s = self_s("harness.system.run")
    layers = {
        "workloads.generate_s": self_s("workloads.generate"),
        "workloads.generate_calls": calls("workloads.generate"),
        "workloads.pack_s": self_s("workloads.pack"),
        "harness.system.build_s": self_s("harness.system.build"),
        "harness.system.run_s": run_s,
        "harness.system.events_per_s": (
            calls("workloads.events") / run_s if run_s else 0.0
        ),
        "harness.engine.lookup_s": self_s("harness.engine.lookup"),
        "backends.put_s": self_s("backends.put"),
        "obs.ledger.append_s": self_s("obs.ledger.append"),
        "sweep.other_s": wall - attributed,
        "trace.overhead_pct": 100.0 * (wall / plain_wall - 1.0),
        **sims,
    }
    carried = sum(
        layers[key]
        for key in (
            "workloads.generate_s",
            "workloads.pack_s",
            "harness.system.build_s",
            "harness.system.run_s",
        )
    )
    return layers, {
        "claim": "workloads.* + harness.system.* carry most of sweep",
        "share": carried / wall,
        "confirmed": carried / wall > 0.5,
    }
