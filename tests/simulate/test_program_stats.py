"""Tests for program-level simulation and the bootstrap statistics."""

import numpy as np
import pytest

from repro.machine.memory import FixedMemory, NetworkMemory
from repro.machine.processor import UNLIMITED
from repro.simulate.program import sample_block, simulate_program
from repro.simulate.rng import spawn
from repro.simulate.stats import (
    ImprovementResult,
    bootstrap_means,
    compare_runs,
    percentage_improvement,
    program_bootstrap_runtimes,
)
from repro.workloads.perfect import load_program


@pytest.fixture
def mdg_blocks():
    from repro.core.balanced import BalancedScheduler
    from repro.core.pipeline import compile_program

    program = load_program("MDG")
    return compile_program(program, BalancedScheduler()).final_blocks


class TestSampleBlock:
    def test_runs_shape(self, mdg_blocks):
        rng = spawn("test", "sample")
        samples = sample_block(mdg_blocks[0], UNLIMITED, FixedMemory(2), rng, runs=7)
        assert samples.cycles.shape == (7,)
        assert samples.interlocks.shape == (7,)

    def test_fixed_memory_deterministic_across_runs(self, mdg_blocks):
        rng = spawn("test", "fixed")
        samples = sample_block(mdg_blocks[0], UNLIMITED, FixedMemory(3), rng, runs=5)
        assert len(set(samples.cycles.tolist())) == 1

    def test_random_memory_varies(self, mdg_blocks):
        rng = spawn("test", "vary")
        samples = sample_block(
            mdg_blocks[0], UNLIMITED, NetworkMemory(5, 5), rng, runs=20
        )
        assert len(set(samples.cycles.tolist())) > 1

    def test_cycles_at_least_instructions(self, mdg_blocks):
        rng = spawn("test", "floor")
        for block in mdg_blocks:
            samples = sample_block(block, UNLIMITED, NetworkMemory(5, 2), rng, runs=5)
            assert (samples.cycles >= len(block)).all()


class TestProgramRuns:
    def test_weighted_cycles_scale_by_frequency(self, mdg_blocks):
        rng = spawn("test", "weighted")
        runs = simulate_program(mdg_blocks, UNLIMITED, FixedMemory(2), rng, runs=3)
        manual = sum(
            s.frequency * s.cycles[0] for s in runs.blocks
        )
        assert runs.weighted_cycles()[0] == pytest.approx(manual)

    def test_interlock_percentage_bounds(self, mdg_blocks):
        rng = spawn("test", "ipct")
        runs = simulate_program(
            mdg_blocks, UNLIMITED, NetworkMemory(30, 5), rng, runs=5
        )
        assert 0 <= runs.interlock_percentage() <= 100

    def test_dynamic_instructions(self, mdg_blocks):
        rng = spawn("test", "dyn")
        runs = simulate_program(mdg_blocks, UNLIMITED, FixedMemory(2), rng, runs=2)
        expected = sum(len(b) * b.frequency for b in mdg_blocks)
        assert runs.dynamic_instructions == pytest.approx(expected)


class TestBootstrap:
    def test_shape_and_range(self):
        rng = np.random.default_rng(0)
        samples = np.array([10.0, 12.0, 14.0])
        means = bootstrap_means(samples, rng, n_boot=100)
        assert means.shape == (100,)
        assert means.min() >= 10.0
        assert means.max() <= 14.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_means(np.array([]), np.random.default_rng(0))

    def test_program_bootstrap_sums_blocks(self, mdg_blocks):
        rng = spawn("test", "boot")
        runs = simulate_program(mdg_blocks, UNLIMITED, FixedMemory(2), rng, runs=5)
        boot = program_bootstrap_runtimes(runs, spawn("test", "boot2"), n_boot=50)
        assert boot.shape == (50,)
        # Deterministic latencies: every bootstrap mean is the runtime.
        assert np.allclose(boot, runs.weighted_cycles()[0])


class TestImprovement:
    def test_positive_when_balanced_faster(self):
        trad = np.full(100, 200.0)
        bal = np.full(100, 150.0)
        result = percentage_improvement(trad, bal)
        assert result.mean == pytest.approx(25.0)
        assert result.ci_low == pytest.approx(25.0)
        assert result.significant

    def test_negative_when_balanced_slower(self):
        result = percentage_improvement(np.full(10, 100.0), np.full(10, 110.0))
        assert result.mean == pytest.approx(-10.0)

    def test_ci_brackets_mean(self):
        rng = np.random.default_rng(3)
        trad = rng.normal(100, 5, 100)
        bal = rng.normal(90, 5, 100)
        result = percentage_improvement(trad, bal)
        assert result.ci_low <= result.mean <= result.ci_high

    def test_insignificant_straddles_zero(self):
        rng = np.random.default_rng(4)
        trad = rng.normal(100, 10, 100)
        bal = trad + rng.normal(0, 10, 100)
        result = percentage_improvement(trad, bal)
        assert not result.significant

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            percentage_improvement(np.zeros(5), np.zeros(6))

    def test_str_format(self):
        result = ImprovementResult(mean=5.0, ci_low=3.0, ci_high=7.0)
        assert "5.0" in str(result)


class TestCompareRuns:
    def test_end_to_end(self, mdg_blocks):
        rng_a = spawn("cmp", "a")
        rng_b = spawn("cmp", "b")
        slow = simulate_program(mdg_blocks, UNLIMITED, FixedMemory(9), rng_a, runs=5)
        fast = simulate_program(mdg_blocks, UNLIMITED, FixedMemory(2), rng_b, runs=5)
        result = compare_runs(slow, fast, spawn("cmp", "boot"))
        assert result.mean > 0


class TestSpawn:
    def test_same_key_same_stream(self):
        a = spawn("x", 1).integers(0, 1 << 30, 5)
        b = spawn("x", 1).integers(0, 1 << 30, 5)
        assert (a == b).all()

    def test_different_keys_differ(self):
        a = spawn("x", 1).integers(0, 1 << 30, 5)
        b = spawn("x", 2).integers(0, 1 << 30, 5)
        assert not (a == b).all()

    def test_seed_changes_stream(self):
        a = spawn("x", seed=1).integers(0, 1 << 30, 5)
        b = spawn("x", seed=2).integers(0, 1 << 30, 5)
        assert not (a == b).all()
