"""Perfetto trace-event export: schema, nesting, round trips."""

import json
from dataclasses import replace

import pytest

from repro.harness.engine import RunRequest
from repro.obs.events import EventRing
from repro.obs.instruments import Instruments
from repro.obs.metrics import event_record, span_record
from repro.obs.timeline import (
    EVENT_TID,
    SPAN_TID,
    event_trace_events,
    export_timeline,
    span_trace_events,
    trace_events,
    validate_trace_events,
)
from repro.obs.tracing import Tracer
from repro.workloads.registry import get_workload


def nested_span_payload():
    tracer = Tracer()
    with tracer.span("outer", workload="html"):
        with tracer.span("inner.a"):
            pass
        with tracer.span("inner.b"):
            pass
    return tracer.to_dict()["spans"]


def strip_starts(spans):
    """Simulate a pre-``start`` span payload (older metrics files)."""
    out = []
    for span in spans:
        span = dict(span)
        span.pop("start", None)
        if "children" in span:
            span["children"] = strip_starts(span["children"])
        out.append(span)
    return out


class TestSpanEvents:
    def test_complete_event_schema(self):
        events = span_trace_events(nested_span_payload())
        assert [e["name"] for e in events] == ["outer", "inner.a", "inner.b"]
        for event in events:
            assert event["ph"] == "X"
            assert event["tid"] == SPAN_TID
            assert event["ts"] >= 0 and event["dur"] >= 0
        assert events[0]["args"] == {"workload": "html"}

    def test_children_nest_inside_the_parent(self):
        outer, inner_a, inner_b = span_trace_events(nested_span_payload())
        outer_end = outer["ts"] + outer["dur"]
        for child in (inner_a, inner_b):
            assert child["ts"] >= outer["ts"]
            assert child["ts"] + child["dur"] <= outer_end + 1e-6
        assert inner_b["ts"] >= inner_a["ts"]

    def test_earliest_span_rebases_to_zero(self):
        events = span_trace_events(nested_span_payload())
        assert min(e["ts"] for e in events) == 0

    def test_startless_payload_synthesizes_monotone_layout(self):
        spans = strip_starts(nested_span_payload())
        events = span_trace_events(spans)
        validate_trace_events(events)
        starts = [e["ts"] for e in events]
        assert starts == sorted(starts)


class TestEventInstants:
    def test_timestamped_ring_records_share_the_clock(self):
        ring = EventRing(capacity=16, sample_every=1, timestamps=True)
        ring.record("hot.alloc_hit", 3)
        ring.record("tlb.shootdown", 1)
        events = event_trace_events(ring.to_dict())
        assert [e["ph"] for e in events] == ["i", "i"]
        assert events[0]["tid"] == EVENT_TID
        assert events[0]["args"] == {"seq": 1, "value": 3}
        assert events[1]["ts"] >= events[0]["ts"]

    def test_bare_records_lay_out_by_index(self):
        ring = EventRing(capacity=16, sample_every=1)
        ring.record("a")
        ring.record("b")
        events = event_trace_events(ring.to_dict())
        assert [e["ts"] for e in events] == [0.0, 1.0]


class TestTraceEvents:
    def test_metadata_tracks_are_emitted(self):
        records = [span_record({"spans": nested_span_payload()})]
        events = trace_events(records)
        meta = [e for e in events if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert {"repro", "phases", "hw events"} <= names

    def test_spans_and_events_share_one_base(self):
        tracer = Tracer()
        ring = EventRing(capacity=8, sample_every=1, timestamps=True)
        with tracer.span("run"):
            ring.record("hot.alloc_hit")
        records = [
            span_record(tracer.to_dict()),
            event_record(ring.to_dict()),
        ]
        events = trace_events(records)
        (span,) = [e for e in events if e["ph"] == "X"]
        (instant,) = [e for e in events if e["ph"] == "i"]
        # The instant fired while the span was open.
        assert span["ts"] <= instant["ts"] <= span["ts"] + span["dur"]

    def test_other_record_kinds_are_ignored(self):
        events = trace_events([{"kind": "run", "workload": "html"}])
        assert all(e["ph"] == "M" for e in events)


class TestValidation:
    def test_missing_field_raises(self):
        with pytest.raises(ValueError, match="missing"):
            validate_trace_events([{"ph": "X", "ts": 0, "pid": 1}])

    def test_negative_duration_raises(self):
        with pytest.raises(ValueError, match="dur"):
            validate_trace_events(
                [{"ph": "X", "ts": 0, "dur": -1, "pid": 1, "tid": 1}]
            )

    def test_non_monotone_track_raises(self):
        events = [
            {"ph": "X", "ts": 10, "dur": 1, "pid": 1, "tid": 1},
            {"ph": "X", "ts": 5, "dur": 1, "pid": 1, "tid": 1},
        ]
        with pytest.raises(ValueError, match="out of order"):
            validate_trace_events(events)

    def test_separate_tracks_validate_independently(self):
        events = [
            {"ph": "X", "ts": 10, "dur": 1, "pid": 1, "tid": 1},
            {"ph": "X", "ts": 5, "dur": 1, "pid": 1, "tid": 2},
        ]
        assert validate_trace_events(events) == 2


class TestExport:
    def test_real_run_exports_a_loadable_trace(self, tmp_path):
        tracer = Tracer()
        ring = EventRing(timestamps=True)
        spec = replace(get_workload("html").resolved(), num_allocs=1_000)
        RunRequest(spec=spec, memento=True).execute(
            instruments=Instruments(tracer=tracer, ring=ring)
        )
        records = [
            span_record(tracer.to_dict()),
            event_record(ring.to_dict()),
        ]
        out = export_timeline(tmp_path / "trace.json", records)
        payload = json.loads(out.read_text())
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        assert validate_trace_events(events) == len(events)
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert "system.run" in names and "replay" in names
        assert any(e["ph"] == "i" for e in events)
