"""Arrival-process properties: determinism, exactness, mix shape."""

import hashlib
import json

import pytest

from repro.fleet.arrival import (
    assign_functions,
    epoch_arrivals,
    epoch_counts,
    epoch_edges,
    epoch_seed,
    intensity,
    mix_weights,
)


class TestEpochSeeds:
    def test_deterministic_and_distinct(self):
        assert epoch_seed(42, 3) == epoch_seed(42, 3)
        assert epoch_seed(42, 3) != epoch_seed(42, 4)
        assert epoch_seed(42, 3) != epoch_seed(43, 3)
        assert epoch_seed(42, 3) != epoch_seed(42, 3, salt="mix")


class TestMixWeights:
    def test_uniform_is_flat(self):
        weights = mix_weights(["a", "b", "c", "d"], "uniform", seed=1)
        assert all(w == pytest.approx(0.25) for w in weights)

    def test_azure_is_skewed_and_normalized(self):
        weights = mix_weights([f"f{i}" for i in range(16)], "azure", seed=1)
        assert sum(weights) == pytest.approx(1.0)
        # Zipf over 16 functions: the most popular takes 1/H(16) ≈ 0.30.
        assert max(weights) > 4 * min(weights)

    def test_azure_ranking_tracks_seed(self):
        names = [f"f{i}" for i in range(8)]
        assert mix_weights(names, "azure", 1) == mix_weights(
            names, "azure", 1
        )
        assert mix_weights(names, "azure", 1) != mix_weights(
            names, "azure", 2
        )

    def test_unknown_mix_rejected(self):
        with pytest.raises(ValueError, match="unknown mix"):
            mix_weights(["a"], "bursty", seed=1)


class TestEpochCounts:
    @pytest.mark.parametrize("pattern", ["poisson", "diurnal"])
    @pytest.mark.parametrize("total", [1, 7, 1000, 99_991])
    def test_counts_sum_exactly(self, pattern, total):
        counts = epoch_counts(total, 3600.0, 7, pattern, seed=42)
        assert sum(counts) == total
        assert all(c >= 0 for c in counts)

    def test_poisson_counts_are_even(self):
        counts = epoch_counts(8000, 3600.0, 8, "poisson", seed=1)
        assert counts == [1000] * 8

    def test_diurnal_counts_vary(self):
        # A day-long window sweeps the full sinusoid: epoch loads differ.
        counts = epoch_counts(100_000, 86_400.0, 8, "diurnal", seed=1)
        assert max(counts) > min(counts)

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError, match="unknown pattern"):
            epoch_counts(10, 60.0, 2, "weekly", seed=1)


class TestEpochArrivals:
    @pytest.mark.parametrize("pattern", ["poisson", "diurnal"])
    def test_sorted_within_bounds_and_deterministic(self, pattern):
        times = epoch_arrivals(2, 500, 100.0, 200.0, pattern, seed=42)
        assert times == sorted(times)
        assert len(times) == 500
        assert all(100.0 <= t < 200.0 for t in times)
        again = epoch_arrivals(2, 500, 100.0, 200.0, pattern, seed=42)
        assert times == again

    def test_epochs_are_independent(self):
        # Epoch 5's arrivals don't change when epoch 4 is never drawn.
        direct = epoch_arrivals(5, 50, 500.0, 600.0, "poisson", seed=9)
        for epoch in range(5):
            epoch_arrivals(epoch, 50, 0.0, 100.0, "poisson", seed=9)
        assert epoch_arrivals(
            5, 50, 500.0, 600.0, "poisson", seed=9
        ) == direct


class TestAssignFunctions:
    def test_deterministic_and_in_range(self):
        weights = mix_weights(["a", "b", "c"], "azure", seed=3)
        picks = assign_functions(1, 1000, weights, seed=3)
        assert assign_functions(1, 1000, weights, seed=3) == picks
        assert set(picks) <= {0, 1, 2}

    def test_weights_shape_the_draw(self):
        picks = assign_functions(0, 5000, [0.9, 0.1], seed=7)
        heavy = picks.count(0)
        assert heavy > 4000


def test_epoch_edges_cover_the_window():
    edges = epoch_edges(3600.0, 6)
    assert edges[0] == 0.0 and edges[-1] == 3600.0
    assert len(edges) == 7


def test_intensity_mean_is_one_for_poisson():
    assert intensity(123.0, "poisson", seed=1) == 1.0


def test_diurnal_arrivals_are_pinned():
    # Pins every arrival time and function pick bit for bit: a change
    # to the rejection sampler's float arithmetic, its draw order or
    # the burst windows moves the digest.
    names = [f"a{i}" for i in range(16)]
    weights = mix_weights(names, "azure", 42)
    edges = epoch_edges(86_400.0, 4)
    counts = epoch_counts(10_000, 86_400.0, 4, "diurnal", 42)
    assert counts == [3027, 3428, 1959, 1586]
    streams = [
        [
            epoch_arrivals(
                epoch, counts[epoch], edges[epoch], edges[epoch + 1],
                "diurnal", 42,
            ),
            assign_functions(epoch, counts[epoch], weights, 42),
        ]
        for epoch in range(4)
    ]
    digest = hashlib.sha256(json.dumps(streams).encode("utf-8")).hexdigest()
    assert digest[:16] == "5d7a08c09d470dad"
