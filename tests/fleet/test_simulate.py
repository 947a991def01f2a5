"""Seeded fleet determinism and platform-metric shape."""

from dataclasses import replace

import pytest

from repro.fleet import (
    FleetRequest,
    FleetResult,
    render_fleet_report,
    simulate_fleet,
)
from repro.fleet import arrival
from repro.fleet.simulate import fleet_run_requests
from repro.harness.engine import ExperimentEngine


def small_fleet(**overrides) -> FleetRequest:
    defaults = dict(
        workloads=("html", "aes"),
        invocations=800,
        duration_s=600.0,
        seed=11,
        profile_seeds=1,
        invocation_allocs=300,
        keep_alive_s=60.0,
    )
    defaults.update(overrides)
    return FleetRequest(**defaults)


def engine() -> ExperimentEngine:
    return ExperimentEngine(cache_dir=None)


class TestDeterminism:
    def test_same_seed_is_bit_identical(self):
        request = small_fleet()
        first = simulate_fleet(request, engine=engine())
        second = simulate_fleet(request, engine=engine())
        assert first.to_dict() == second.to_dict()

    def test_different_seed_differs(self):
        first = simulate_fleet(small_fleet(seed=1), engine=engine())
        second = simulate_fleet(small_fleet(seed=2), engine=engine())
        assert (
            first.stacks["baseline"].stranding_timeline
            != second.stacks["baseline"].stranding_timeline
        )


class TestSharedArrivals:
    STACKS = ("baseline", "snapshot", "reclaim")

    def test_arrivals_drawn_once_per_epoch_for_all_stacks(
        self, monkeypatch
    ):
        calls = []
        draw = arrival.epoch_arrivals

        def counted(*args, **kwargs):
            calls.append(args[0])
            return draw(*args, **kwargs)

        monkeypatch.setattr(arrival, "epoch_arrivals", counted)
        request = small_fleet(pattern="diurnal", stacks=self.STACKS)
        shared_engine = engine()
        raced = simulate_fleet(request, engine=shared_engine)
        epochs = request.resolved().epochs
        assert sorted(calls) == list(range(epochs))

        # Sharing the stream changes nothing: each stack reads exactly
        # what a fleet of that stack alone reads.
        for stack in self.STACKS:
            alone = simulate_fleet(
                replace(request, stacks=(stack,)), engine=shared_engine
            )
            assert (
                raced.stacks[stack].to_dict()
                == alone.stacks[stack].to_dict()
            )


class TestShards:
    def test_fan_out_size(self):
        request = small_fleet(profile_seeds=2)
        shards = fleet_run_requests(request)
        # 2 workloads x 2 stacks x {warm, cold} x 2 profile seeds.
        assert len(shards) == 16

    def test_shards_are_cache_friendly(self):
        # Re-deriving the shards yields identical content keys, so a
        # second fleet run answers from the engine cache.
        request = small_fleet()
        first = {
            key: req.content_key()
            for key, req in fleet_run_requests(request).items()
        }
        second = {
            key: req.content_key()
            for key, req in fleet_run_requests(request).items()
        }
        assert first == second


class TestMetrics:
    def test_platform_metrics_present_for_both_stacks(self):
        result = simulate_fleet(small_fleet(), engine=engine())
        for stack in ("baseline", "memento"):
            metrics = result.stacks[stack]
            assert metrics.invocations == 800
            assert set(metrics.cold_start_ms) == {"p50", "p95", "p99"}
            assert set(metrics.latency_ms) == {"p50", "p95", "p99"}
            assert metrics.dram_bytes > 0
            assert len(metrics.stranding_timeline) == result.epochs
        assert result.comparison["dram_ratio"] > 0

    def test_result_wire_round_trip(self):
        result = simulate_fleet(small_fleet(), engine=engine())
        back = FleetResult.from_dict(result.to_dict())
        assert back.to_dict() == result.to_dict()

    def test_report_renders_the_headline_metrics(self):
        result = simulate_fleet(small_fleet(), engine=engine())
        report = render_fleet_report(result)
        assert "cold p50/p95/p99" in report
        assert "stranding timeline" in report
        assert "memento / baseline" in report

    def test_single_stack_fleet_has_no_comparison(self):
        result = simulate_fleet(
            small_fleet(stacks=("baseline",)), engine=engine()
        )
        assert list(result.stacks) == ["baseline"]
        assert result.comparison == {}

    def test_zero_keep_alive_is_all_cold(self):
        result = simulate_fleet(
            small_fleet(keep_alive_s=0.0), engine=engine()
        )
        metrics = result.stacks["baseline"]
        assert metrics.cold_starts == metrics.invocations
        assert metrics.stranded_byte_seconds == 0.0

    def test_cold_start_adds_latency(self):
        result = simulate_fleet(small_fleet(), engine=engine())
        metrics = result.stacks["baseline"]
        assert metrics.cold_start_ms["p50"] >= metrics.latency_ms["p50"]
