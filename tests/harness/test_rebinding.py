"""Instrumentation rebinding and replay-path parity regressions.

The replay hot paths are closure factories that bind observability and
audit hooks at construction time. A system replays a trace through one
of two loops: the packed loop over the columnar form, or the event loop
(per-event audits, non-canonical traces). These properties must hold:

* a system built with empty ``Instruments`` after an instrumented one
  replays bit-identically to one built before it (no residue);
* systems carrying different ``Instruments`` can be built and run
  concurrently, each observer seeing exactly its own system;
* the packed loop and the event loop produce bit-identical results on
  every workload, and leave identical simulator state — including cache
  metadata invariants like boolean dirty bits (audit rule:
  cache-writeback-ledger).
"""

import dataclasses
import json
import random
import sys
import threading

import pytest

from repro.audit import AuditContext, Auditor
from repro.audit.invariants import CacheWritebackLedger
from repro.core.config import MementoConfig
from repro.harness.system import SimulatedSystem
from repro.obs.events import EventRing
from repro.obs.instruments import Instruments
from repro.obs.profile import CycleProfile
from repro.obs.tracing import Tracer
from repro.stacks import stack_names
from repro.workloads.registry import all_workloads, get_workload
from repro.workloads.synth import generate_trace
from repro.workloads.trace import Trace

ALL_SPECS = [spec.resolved() for spec in all_workloads()]


def small_spec(num_allocs=250):
    return dataclasses.replace(
        get_workload("html").resolved(), num_allocs=num_allocs
    )


def run_once(spec, stack, instruments=None):
    return SimulatedSystem(
        spec, stack, instruments=instruments
    ).run().to_dict()


class Marker:
    """A non-canonical event: a trace holding one has no packed form."""


def event_loop_trace(trace):
    """``trace`` plus a leading :class:`Marker`, so ``run()`` replays it
    through the event loop (which skips the marker)."""
    return Trace(
        trace.name, trace.language, trace.category,
        [Marker(), *trace.events],
    )


def run_both_loops(spec, stack, trace, **kwargs):
    """``run()`` results of the packed loop and the event loop."""
    packed = SimulatedSystem(spec, stack, **kwargs).run(trace)
    stepped = SimulatedSystem(spec, stack, **kwargs).run(
        event_loop_trace(trace)
    )
    return (
        json.dumps(packed.to_dict(), sort_keys=True),
        json.dumps(stepped.to_dict(), sort_keys=True),
    )


@pytest.mark.parametrize("stack", stack_names())
def test_rebinding_after_uninstall_is_bit_identical(stack):
    spec = small_spec()
    before = run_once(spec, stack)
    # An event-epoch auditor sends the instrumented run through the
    # event loop, so this also pins that loop to the packed one.
    instrumented = run_once(spec, stack, Instruments(
        tracer=Tracer(),
        ring=EventRing(),
        profile=CycleProfile(),
        audit=Auditor(epoch="event"),
    ))
    after = run_once(spec, stack, Instruments())
    assert after == before
    # The instrumented run simulates the same numbers too — hooks
    # observe, never perturb.
    assert instrumented.pop("audit")["violations"] == 0
    assert instrumented == before


@pytest.mark.parametrize("stack", ["memento", "baseline"])
@pytest.mark.parametrize(
    "spec", ALL_SPECS, ids=[spec.name for spec in ALL_SPECS]
)
def test_event_and_packed_loops_bit_identical_every_workload(spec, stack):
    sized = dataclasses.replace(spec, num_allocs=400)
    packed, stepped = run_both_loops(sized, stack, generate_trace(sized))
    assert packed == stepped


@pytest.mark.parametrize("seed", [1, 7, 1234])
def test_event_and_packed_loops_bit_identical_randomized_short_traces(seed):
    rng = random.Random(seed)
    spec = get_workload(rng.choice(["html", "Redis", "deploy"])).resolved()
    spec = dataclasses.replace(
        spec,
        num_allocs=rng.randrange(20, 200),
        seed=rng.randrange(1 << 30),
    )
    trace = generate_trace(spec)
    for stack in stack_names():
        packed, stepped = run_both_loops(spec, stack, trace)
        assert packed == stepped, stack


def test_event_and_packed_loops_identical_profile_attribution():
    spec = small_spec(400)
    trace = generate_trace(spec)
    payloads = []
    for replayed in (trace, event_loop_trace(trace)):
        profile = CycleProfile()
        SimulatedSystem(
            spec, "memento", instruments=Instruments(profile=profile)
        ).run(replayed)
        payloads.append(profile.to_dict())
    assert payloads[0] == payloads[1]


def observed_run(spec, stack, build_gate=None, run_gate=None):
    """Build and run one system with its own profile and auditor;
    returns the observers' payloads. The optional barriers line up two
    threads so that both constructions happen before either run."""
    profile = CycleProfile()
    auditor = Auditor(epoch="interval", every=64)
    system = SimulatedSystem(
        spec, stack, instruments=Instruments(profile=profile, audit=auditor)
    )
    if build_gate is not None:
        build_gate.wait()
    result = system.run()
    if run_gate is not None:
        run_gate.wait()
    return {
        "profile": profile.to_dict(),
        "audit": auditor.summary(),
        "result": result.to_dict(),
    }


def test_concurrent_systems_with_different_instruments():
    """Two systems, each with its own Instruments, built and run on
    two threads at once: every observer reports exactly what a serial
    run of its system reports."""
    legs = [(small_spec(400), "memento"), (small_spec(300), "baseline")]
    serial = [observed_run(spec, stack) for spec, stack in legs]
    build_gate = threading.Barrier(len(legs))
    run_gate = threading.Barrier(len(legs))
    concurrent = [None] * len(legs)
    errors = []

    def worker(index):
        try:
            spec, stack = legs[index]
            concurrent[index] = observed_run(
                spec, stack, build_gate, run_gate
            )
        except BaseException as exc:  # surfaced by the assert below
            errors.append(exc)
            build_gate.abort()
            run_gate.abort()

    threads = [
        threading.Thread(target=worker, args=(index,))
        for index in range(len(legs))
    ]
    # A short switch interval makes the two replays interleave finely.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    for mine, reference in zip(concurrent, serial):
        assert mine["audit"]["violations"] == 0
        assert mine == reference


def test_event_and_packed_loops_identical_nondefault_config():
    spec = dataclasses.replace(
        get_workload("Redis").resolved(), num_allocs=300
    )
    packed, stepped = run_both_loops(
        spec, "memento", generate_trace(spec),
        memento_config=MementoConfig(bypass_enabled=False),
    )
    assert packed == stepped


@pytest.mark.parametrize("memento", [True, False], ids=["memento", "baseline"])
def test_columnar_replay_keeps_boolean_dirty_bits(memento):
    """Audit rule: cache-writeback-ledger.

    The packed write column is an int64 array; pre-fix the columnar path
    installed those ints as cache dirty bits where the event path
    installs booleans, so the two paths left observably different
    metadata.
    """
    spec = small_spec()
    columnar = generate_trace(spec).columnar()
    system = SimulatedSystem(spec, memento)
    system._replay_columnar(columnar)
    assert CacheWritebackLedger().check(AuditContext.from_system(system)) == []
    caches = system.core.caches
    for cache in (caches.l1d, caches.l2, caches.llc):
        for cache_set in cache._sets:
            for dirty in cache_set.values():
                assert isinstance(dirty, bool)
