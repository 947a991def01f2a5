"""Tests for the replay microbenchmark harness and `repro bench` CLI."""

import json

from repro.cli import main
from repro.harness import perfbench


def test_run_bench_smoke_payload_shape():
    payload = perfbench.run_bench(
        smoke=True, repeats=1, num_allocs=200, workloads=("html",)
    )
    assert payload["schema"] == perfbench.SCHEMA_VERSION
    assert payload["smoke"] is True
    keys = set(payload["replay"])
    assert keys == {"html/baseline", "html/memento"}
    for row in payload["replay"].values():
        assert row["events"] > 0
        assert row["seconds"] > 0
        assert row["events_per_sec"] > 0
        assert row["num_allocs"] == 200
    assert "engine_cache" not in payload  # smoke skips the engine timing


def test_compare_reports_speedups():
    current = {"a/x": {"events_per_sec": 300.0}, "a/y": {"events_per_sec": 1.0}}
    reference = {"a/x": {"events_per_sec": 100.0}}
    comparison = perfbench.compare(current, reference)
    assert comparison == {"a/x": 3.0}  # keys absent from the reference skip


def test_default_output_path_names(tmp_path):
    full = perfbench.default_output_path(tmp_path, smoke=False)
    smoke = perfbench.default_output_path(tmp_path, smoke=True)
    assert full.name.startswith("BENCH_") and full.suffix == ".json"
    assert smoke.name.endswith(".smoke.json")


def test_cli_bench_smoke_writes_json(tmp_path, capsys):
    out = tmp_path / "bench.json"
    rc = main(
        [
            "bench",
            "--smoke",
            "--num-allocs",
            "200",
            "--workloads",
            "html",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert "html/baseline" in payload["replay"]
    assert str(out) in capsys.readouterr().out


def test_bench_profile_overhead_shape():
    row = perfbench.bench_profile_overhead(num_allocs=600, repeats=1)
    assert row["disabled_seconds"] > 0
    assert row["enabled_seconds"] > 0
    assert row["overhead_ratio"] == (
        row["enabled_seconds"] / row["disabled_seconds"]
    )
