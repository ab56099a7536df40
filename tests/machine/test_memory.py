"""Tests for the memory-system latency models."""

import numpy as np
import pytest

from repro.machine.memory import (
    CacheMemory,
    FixedMemory,
    MIN_LATENCY,
    MixedMemory,
    NetworkMemory,
)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestFixedMemory:
    def test_constant(self, rng):
        mem = FixedMemory(4)
        assert set(mem.sample_many(rng, 100)) == {4}
        assert mem.mean_latency == 4.0

    def test_rejects_sub_unit(self):
        with pytest.raises(ValueError):
            FixedMemory(0)


class TestCacheMemory:
    def test_only_hit_and_miss_values(self, rng):
        mem = CacheMemory(0.8, 2, 10)
        samples = mem.sample_many(rng, 2000)
        assert set(np.unique(samples)) == {2, 10}

    def test_hit_rate_respected(self, rng):
        mem = CacheMemory(0.8, 2, 10)
        samples = mem.sample_many(rng, 20_000)
        hit_fraction = (samples == 2).mean()
        assert hit_fraction == pytest.approx(0.8, abs=0.02)

    def test_effective_access_times_match_paper(self):
        assert CacheMemory(0.80, 2, 5).mean_latency == pytest.approx(2.6)
        assert CacheMemory(0.80, 2, 10).mean_latency == pytest.approx(3.6)
        assert CacheMemory(0.95, 2, 5).mean_latency == pytest.approx(2.15)
        assert CacheMemory(0.95, 2, 10).mean_latency == pytest.approx(2.4)

    def test_optimistic_latencies_hit_then_effective(self):
        mem = CacheMemory(0.80, 2, 5)
        assert mem.optimistic_latencies == (2.0, 2.6)

    def test_name(self):
        assert CacheMemory(0.8, 2, 5).name == "L80(2,5)"

    def test_degenerate_hit_rates(self, rng):
        always_hit = CacheMemory(1.0, 2, 10)
        assert set(always_hit.sample_many(rng, 50)) == {2}
        always_miss = CacheMemory(0.0, 2, 10)
        assert set(always_miss.sample_many(rng, 50)) == {10}

    def test_validation(self):
        with pytest.raises(ValueError):
            CacheMemory(1.5, 2, 5)
        with pytest.raises(ValueError):
            CacheMemory(0.8, 5, 2)


class TestNetworkMemory:
    def test_samples_clamped_at_one(self, rng):
        mem = NetworkMemory(2, 5)
        samples = mem.sample_many(rng, 5000)
        assert samples.min() >= MIN_LATENCY

    def test_sample_mean_near_parameter(self, rng):
        mem = NetworkMemory(30, 5)
        samples = mem.sample_many(rng, 20_000)
        assert samples.mean() == pytest.approx(30, abs=0.2)

    def test_integer_samples(self, rng):
        samples = NetworkMemory(5, 2).sample_many(rng, 100)
        assert samples.dtype == np.int64

    def test_zero_std_is_deterministic(self, rng):
        samples = NetworkMemory(7, 0).sample_many(rng, 50)
        assert set(samples) == {7}

    def test_optimistic_latency_is_mean(self):
        assert NetworkMemory(5, 2).optimistic_latencies == (5.0,)

    def test_name(self):
        assert NetworkMemory(30, 5).name == "N(30,5)"

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkMemory(0.5, 2)
        with pytest.raises(ValueError):
            NetworkMemory(5, -1)


class TestMixedMemory:
    def test_hits_are_hit_latency(self, rng):
        mem = MixedMemory(0.80, 2, 30, 5)
        samples = mem.sample_many(rng, 20_000)
        assert (samples == 2).mean() == pytest.approx(0.8, abs=0.02)

    def test_paper_mean_is_7_6(self):
        mem = MixedMemory(0.80, 2, 30, 5)
        assert mem.mean_latency == pytest.approx(7.6)
        assert mem.optimistic_latencies == (2.0, 7.6)

    def test_misses_follow_network(self, rng):
        mem = MixedMemory(0.80, 2, 30, 5)
        samples = mem.sample_many(rng, 20_000)
        misses = samples[samples != 2]
        assert misses.mean() == pytest.approx(30, abs=0.5)

    def test_name(self):
        assert MixedMemory(0.80, 2, 30, 5).name == "L80-N(30,5)"


class TestDeterminism:
    def test_same_seed_same_samples(self):
        mem = CacheMemory(0.8, 2, 10)
        a = mem.sample_many(np.random.default_rng(7), 100)
        b = mem.sample_many(np.random.default_rng(7), 100)
        assert (a == b).all()
