"""Wire schema: RunRequest round-trips and submission parsing."""

from dataclasses import replace

import pytest

from repro.core.config import MementoConfig
from repro.harness.engine import RunRequest
from repro.service.wire import (
    WIRE_SCHEMA_VERSION,
    WireError,
    run_request_from_wire,
    run_request_to_wire,
    run_requests_from_wire,
)
from repro.sim.params import MachineParams
from repro.workloads.registry import get_workload


def small(name: str = "aes", num_allocs: int = 1_500):
    return replace(get_workload(name), num_allocs=num_allocs)


def interesting_request() -> RunRequest:
    """A request exercising every nested codec path."""
    return RunRequest(
        small("html"),
        memento=True,
        config=MementoConfig(region_bytes=1 << 15),
        machine_params=MachineParams(),
        cold_start=True,
        mmap_populate=True,
    )


class TestRoundTrip:
    def test_round_trip_equality(self):
        request = interesting_request()
        rebuilt = run_request_from_wire(run_request_to_wire(request))
        assert rebuilt == request

    def test_round_trip_preserves_content_key(self):
        """The acceptance criterion behind HTTP/direct cache sharing:
        a round-tripped request hashes to the same content key."""
        for request in (
            interesting_request(),
            RunRequest(small(), memento=False),
            RunRequest(
                small(), memento=False,
                allocator="pymalloc",
                allocator_kwargs=(("arena_bytes", 131072),),
            ),
        ):
            rebuilt = run_request_from_wire(request.to_dict())
            assert rebuilt.content_key() == request.content_key()

    def test_wire_payload_is_versioned(self):
        payload = run_request_to_wire(interesting_request())
        assert payload["schema_version"] == WIRE_SCHEMA_VERSION

    def test_version_zero_payload_upgrades(self):
        payload = run_request_to_wire(interesting_request())
        del payload["schema_version"]
        assert run_request_from_wire(payload) == interesting_request()

    def test_retired_kernel_field_is_ignored(self):
        # Pinned legacy submission: writers before the replay-loop
        # merge sent the replay kernel choice along with the run.
        legacy = {
            "schema_version": 1,
            "workload": "html",
            "memento": True,
            "kernel": "vectorized",
        }
        current = {k: v for k, v in legacy.items() if k != "kernel"}
        assert run_request_from_wire(legacy) == run_request_from_wire(
            current
        )
        for value in (None, "scalar", "auto"):
            payload = run_request_to_wire(interesting_request())
            payload["kernel"] = value
            assert run_request_from_wire(payload) == interesting_request()

    def test_retired_kernel_field_is_not_written(self):
        assert "kernel" not in run_request_to_wire(interesting_request())


class TestWorkloadByName:
    def test_workload_name_resolves_registry_spec(self):
        request = run_request_from_wire(
            {"workload": "html", "memento": True}
        )
        assert request.spec == get_workload("html")
        assert request.memento is True

    def test_spec_overrides_apply(self):
        request = run_request_from_wire({
            "workload": "html",
            "memento": False,
            "spec_overrides": {"num_allocs": 1_000},
        })
        assert request.spec.num_allocs == 1_000
        assert request.spec.name == "html"

    def test_named_workload_matches_inline_spec_key(self):
        by_name = run_request_from_wire(
            {"workload": "aes", "memento": True}
        )
        inline = RunRequest(get_workload("aes"), memento=True)
        assert by_name.content_key() == inline.content_key()


class TestRejections:
    def test_non_object_rejected(self):
        with pytest.raises(WireError, match="JSON object"):
            run_request_from_wire([1, 2, 3])

    def test_newer_schema_rejected(self):
        payload = {"workload": "html", "memento": True,
                   "schema_version": WIRE_SCHEMA_VERSION + 1}
        with pytest.raises(WireError, match="newer"):
            run_request_from_wire(payload)

    def test_unknown_workload_rejected(self):
        with pytest.raises(WireError, match="nope"):
            run_request_from_wire({"workload": "nope", "memento": True})

    def test_workload_and_spec_both_rejected(self):
        with pytest.raises(WireError, match="not both"):
            run_request_from_wire({
                "workload": "html", "spec": {}, "memento": True,
            })

    def test_bad_spec_overrides_rejected(self):
        with pytest.raises(WireError, match="spec_overrides"):
            run_request_from_wire({
                "workload": "html", "memento": True,
                "spec_overrides": {"no_such_field": 1},
            })

    def test_unknown_fields_rejected(self):
        with pytest.raises(WireError, match="unknown"):
            run_request_from_wire({
                "workload": "html", "memento": True, "surprise": 1,
            })

    def test_unknown_retired_kernel_value_rejected(self):
        with pytest.raises(WireError, match="retired RunRequest field"):
            run_request_from_wire({
                "workload": "html", "memento": True, "kernel": "gpu",
            })

    def test_missing_memento_rejected(self):
        with pytest.raises(WireError):
            run_request_from_wire({"workload": "html"})


class TestBatch:
    def test_single_run_body(self):
        requests = run_requests_from_wire(
            {"workload": "html", "memento": True}
        )
        assert len(requests) == 1

    def test_sweep_body(self):
        requests = run_requests_from_wire({"requests": [
            {"workload": "html", "memento": True},
            {"workload": "html", "memento": False},
        ]})
        assert [r.stack for r in requests] == ["memento", "baseline"]

    def test_empty_sweep_rejected(self):
        with pytest.raises(WireError, match="non-empty"):
            run_requests_from_wire({"requests": []})

    def test_non_array_sweep_rejected(self):
        with pytest.raises(WireError, match="non-empty"):
            run_requests_from_wire({"requests": "html"})
