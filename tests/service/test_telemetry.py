"""Service telemetry: trace propagation, health teeth, client retries.

The tentpole acceptance criterion lives here: one trace id minted by the
client appears on the ``client.submit`` span, the synthesized
``job.queued``/``job.run`` spans, and the engine's own spans — readable
back through ``GET /api/v1/traces/<id>``, exported to JSONL, and
renderable as a valid Perfetto timeline.
"""

import io
import json
import urllib.error
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.harness.engine import ExperimentEngine, RunRequest
from repro.obs.metrics import read_jsonl
from repro.obs.timeline import export_timeline
from repro.obs.tracing import Tracer
from repro.service.app import ExperimentServer, ServiceState, op_health
from repro.service.client import ServiceClient, ServiceError
from repro.service.telemetry import ServiceTelemetry, stamp_trace_id
from repro.workloads.registry import get_workload


def small(name: str = "aes", num_allocs: int = 1_200):
    return replace(get_workload(name), num_allocs=num_allocs)


def walk(spans):
    stack = list(spans)
    while stack:
        span = stack.pop()
        yield span
        stack.extend(span.get("children", ()))


@pytest.fixture
def server(tmp_path):
    engine = ExperimentEngine(cache_dir=tmp_path, backend="memory")
    with ExperimentServer(
        host="127.0.0.1", port=0, engine=engine,
        telemetry_path=tmp_path / "telemetry.jsonl",
    ) as srv:
        yield srv


@pytest.fixture
def client(server):
    return ServiceClient(server.url, timeout=30)


class TestTracePropagation:
    def test_one_trace_id_spans_client_queue_and_engine(
        self, tmp_path, server
    ):
        tracer = Tracer()
        client = ServiceClient(server.url, timeout=30, tracer=tracer)
        job_id = client.submit(RunRequest(small(), memento=True))
        client.result(job_id, timeout=60)
        trace_id = client.last_trace_id
        assert trace_id

        # Client side: the submit span carries the id and the job id.
        client_spans = tracer.to_dict()["spans"]
        (submit_span,) = [
            s for s in client_spans if s["name"] == "client.submit"
        ]
        assert submit_span["attrs"]["trace_id"] == trace_id
        assert submit_span["attrs"]["job_id"] == job_id

        # Server side: the stored trace holds queue + engine spans, and
        # every one of them — children included — carries the same id.
        record = client.trace()
        assert record["trace_id"] == trace_id
        assert record["job_id"] == job_id
        names = [span["name"] for span in record["spans"]]
        assert names == ["job.queued", "job.run"]
        for span in walk(record["spans"]):
            assert span["attrs"]["trace_id"] == trace_id
        (run_span,) = [
            s for s in record["spans"] if s["name"] == "job.run"
        ]
        assert run_span["children"], "engine spans missing from job.run"

        # The JSONL export + the client's span record render into one
        # valid Perfetto timeline.
        exported = read_jsonl(server.state.telemetry.path)
        assert [r["trace_id"] for r in exported] == [trace_id]
        records = exported + [
            {"kind": "spans", "spans": client_spans}
        ]
        out = export_timeline(tmp_path / "trace.json", records)
        payload = json.loads(out.read_text())
        assert payload["traceEvents"]

    def test_explicit_trace_id_is_honored(self, client):
        job_id = client.submit(
            RunRequest(small(), memento=False), trace_id="cafecafe"
        )
        client.result(job_id, timeout=60)
        assert client.last_trace_id == "cafecafe"
        assert client.trace("cafecafe")["job_id"] == job_id

    def test_unknown_trace_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.trace("deadbeefdeadbeef")
        assert err.value.status == 404

    def test_trace_without_submission_raises(self):
        with pytest.raises(ServiceError, match="no trace id"):
            ServiceClient("http://127.0.0.1:9").trace()


class TestHealth:
    def test_healthy_state_reports_depth_and_liveness(self):
        state = ServiceState(ExperimentEngine(cache_dir=None), workers=2)
        try:
            status, payload, _ = op_health(state)
        finally:
            state.close()
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["workers_alive"] == 2
        assert payload["queue_depth"] == 0

    def test_dead_workers_flip_healthz_to_503(self):
        state = ServiceState(ExperimentEngine(cache_dir=None), workers=2)
        state.queue.shutdown(wait=True)
        status, payload, _ = op_health(state)
        assert status == 503
        assert payload["status"] == "degraded"
        assert payload["workers_alive"] == 0


class FakeResponse:
    def __init__(self, payload):
        self._payload = payload
        self.headers = {"Content-Type": "application/json"}

    def read(self):
        return json.dumps(self._payload).encode("utf-8")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class TestClientRetry:
    def flaky_client(self, failures: int, retries: int = 3,
                     backoff_s: float = 0.1):
        client = ServiceClient(
            "http://127.0.0.1:9", retries=retries, backoff_s=backoff_s
        )
        state = {"calls": 0}
        sleeps = []

        def fake_urlopen(request, timeout):
            state["calls"] += 1
            if state["calls"] <= failures:
                raise urllib.error.URLError("connection refused")
            return FakeResponse({"ok": state["calls"]})

        client._urlopen = fake_urlopen
        client._sleep = sleeps.append
        return client, state, sleeps

    def test_get_retries_with_exponential_backoff(self):
        client, state, sleeps = self.flaky_client(failures=2)
        assert client._request("GET", "/healthz") == {"ok": 3}
        assert state["calls"] == 3
        assert sleeps == [pytest.approx(0.1), pytest.approx(0.2)]

    def test_backoff_is_capped(self):
        client, _, sleeps = self.flaky_client(
            failures=3, backoff_s=10.0
        )
        client._request("GET", "/healthz")
        assert sleeps == [2.0, 2.0, 2.0]

    def test_exhausted_retries_raise(self):
        client, state, _ = self.flaky_client(failures=99, retries=2)
        with pytest.raises(ServiceError, match="cannot reach"):
            client._request("GET", "/healthz")
        assert state["calls"] == 3

    def test_post_never_retries(self):
        client, state, sleeps = self.flaky_client(failures=99)
        with pytest.raises(ServiceError):
            client._request("POST", "/api/v1/runs", {"x": 1})
        assert state["calls"] == 1
        assert sleeps == []

    def test_http_errors_never_retry(self):
        client = ServiceClient("http://127.0.0.1:9", retries=3)
        state = {"calls": 0}

        def fake_urlopen(request, timeout):
            state["calls"] += 1
            raise urllib.error.HTTPError(
                "http://x", 404, "nope", {},
                io.BytesIO(b'{"error": "unknown job"}'),
            )

        client._urlopen = fake_urlopen
        client._sleep = lambda s: pytest.fail("must not sleep")
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/api/v1/jobs/x")
        assert err.value.status == 404
        assert "unknown job" in str(err.value)
        assert state["calls"] == 1


class FakeTracer:
    def to_dict(self):
        return {"spans": []}


def fake_job(job_id: str, trace_id: str, state: str = "done"):
    return SimpleNamespace(
        id=job_id, kind="run", state=state,
        submitted_pc=0.0, trace_id=trace_id,
    )


class TestServiceTelemetryUnit:
    def test_stamp_trace_id_reaches_nested_children(self):
        spans = [{
            "name": "a",
            "children": [{"name": "b", "children": [{"name": "c"}]}],
        }]
        stamp_trace_id(spans, "t1")
        assert all(
            span["attrs"]["trace_id"] == "t1" for span in walk(spans)
        )

    def test_observe_job_counts_and_histograms(self):
        telemetry = ServiceTelemetry()
        telemetry.observe_job(
            fake_job("j1", "t1"), FakeTracer(),
            started_pc=1.0, finished_pc=3.0,
        )
        snapshot = telemetry.snapshot()
        assert snapshot["service.jobs.finished.done"] == 1
        assert snapshot["service.jobs.kind.run"] == 1
        wait, run = telemetry.histogram_payloads()
        assert wait["name"] == "service.job.wait_us"
        assert wait["count"] == 1 and run["count"] == 1
        assert run["total"] == int(2.0 * 1e6)

    def test_trace_store_is_lru_bounded(self):
        telemetry = ServiceTelemetry(max_traces=2)
        for index in range(3):
            telemetry.observe_job(
                fake_job(f"j{index}", f"t{index}"), FakeTracer(),
                started_pc=0.0, finished_pc=0.0,
            )
        assert telemetry.trace("t0") is None
        assert telemetry.trace("t1")["job_id"] == "j1"
        assert telemetry.trace("t2")["job_id"] == "j2"
