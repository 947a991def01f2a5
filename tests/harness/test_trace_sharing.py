"""Batch-scoped trace sharing in the experiment engine.

A batch's misses are grouped by resolved workload spec; each group
generates and packs its trace once and replays it for every request.
"""

import gc
import weakref
from dataclasses import replace

import pytest

from repro.harness import system as system_module
from repro.harness.engine import ExperimentEngine, RunRequest
from repro.harness.experiment import run_all, workload_requests
from repro.harness.system import SimulatedSystem
from repro.obs import Tracer
from repro.obs.instruments import Instruments
from repro.workloads import synth
from repro.workloads.registry import get_workload


def small(name: str = "aes", num_allocs: int = 1_500):
    return replace(get_workload(name), num_allocs=num_allocs)


def make_engine(tmp_path) -> ExperimentEngine:
    return ExperimentEngine(cache_dir=tmp_path / "cache")


def count_generations(monkeypatch) -> list:
    """Count trace generations under both spellings: the engine calls
    the module attribute, ``SimulatedSystem.run`` the name it imported."""
    calls = []
    real = synth.generate_trace

    def counted(spec):
        calls.append(spec.name)
        return real(spec)

    monkeypatch.setattr(synth, "generate_trace", counted)
    monkeypatch.setattr(system_module, "generate_trace", counted)
    return calls


def test_trio_generates_its_trace_once(tmp_path, monkeypatch):
    spec = small("html")
    calls = count_generations(monkeypatch)
    (result,) = run_all([spec], engine=make_engine(tmp_path))
    assert calls == ["html"]
    monkeypatch.undo()
    runs = (result.baseline, result.memento, result.memento_nobypass)
    for run, request in zip(runs, workload_requests(spec)):
        assert run.to_dict() == request.execute().to_dict()


def span_names(span) -> list:
    return [span.name] + [
        name for child in span.children for name in span_names(child)
    ]


def test_shared_trace_loads_and_packs_once(tmp_path):
    tracer = Tracer()
    run_all(
        [small("html")],
        engine=make_engine(tmp_path),
        instruments=Instruments(tracer=tracer),
    )
    (batch,) = tracer.roots
    names = span_names(batch)
    assert names.count("trace.load") == 1
    assert names.count("trace.pack") == 1
    assert names.count("system.run") == 3


def test_parallel_groups_equal_serial(tmp_path):
    requests = [
        request
        for spec in (small("aes"), small("html-go", 1_000))
        for request in workload_requests(spec)
    ]
    serial = make_engine(tmp_path / "serial").run_many(requests, jobs=1)
    engine = make_engine(tmp_path / "parallel")
    parallel = engine.run_many(requests, jobs=2)
    assert engine.stats["engine.parallel_batches"] == 1
    for left, right in zip(serial, parallel):
        assert left.to_dict() == right.to_dict()


def test_interleaved_specs_keep_request_order(tmp_path, monkeypatch):
    aes, html = small("aes", 1_000), small("html", 1_000)
    requests = [
        RunRequest(aes, memento=False),
        RunRequest(html, memento=False),
        RunRequest(aes, memento=True),
        RunRequest(html, memento=True),
    ]
    calls = count_generations(monkeypatch)
    results = make_engine(tmp_path).run_many(requests)
    assert sorted(calls) == ["aes", "html"]
    monkeypatch.undo()
    for result, request in zip(results, requests):
        assert result.to_dict() == request.execute().to_dict()


def test_no_earlier_system_alive_at_replay_start(tmp_path, monkeypatch):
    # A reused trace skips the allocation churn that used to run the
    # cyclic collector between runs; the engine collects before each
    # reuse so the previous system is gone before the next replay.
    systems = []
    survivors = []
    real_run = SimulatedSystem.run

    def run(self, trace=None):
        survivors.append(sum(ref() is not None for ref in systems))
        systems.append(weakref.ref(self))
        return real_run(self, trace)

    monkeypatch.setattr(SimulatedSystem, "run", run)
    run_all([small("html")], engine=make_engine(tmp_path))
    assert survivors == [0, 0, 0]


def test_group_unfreezes_the_heap_even_when_a_run_fails(
    tmp_path, monkeypatch
):
    # The collection before a reuse runs with the older heap frozen;
    # left frozen, those objects would never be collected again.
    run_all([small("aes", 1_000)], engine=make_engine(tmp_path / "ok"))
    assert gc.get_freeze_count() == 0

    real_run = SimulatedSystem.run
    calls = []

    def failing_run(self, trace=None):
        calls.append(self.stack_name)
        if len(calls) == 2:
            raise RuntimeError("replay failed")
        return real_run(self, trace)

    monkeypatch.setattr(SimulatedSystem, "run", failing_run)
    with pytest.raises(RuntimeError, match="replay failed"):
        run_all([small("aes", 1_000)], engine=make_engine(tmp_path / "bad"))
    assert gc.get_freeze_count() == 0


def test_duplicates_run_once_with_one_ledger_line_per_key(tmp_path):
    engine = make_engine(tmp_path)
    base = RunRequest(small(num_allocs=1_000), memento=False)
    mem = RunRequest(small(num_allocs=1_000), memento=True)
    results = engine.run_many([base, mem, base, mem, base])
    assert engine.stats["engine.misses"] == 2
    assert results[0] is results[2] is results[4]
    assert results[1] is results[3]
    assert results[0].to_dict() != results[1].to_dict()
    assert len(engine.ledger.read()) == 2
