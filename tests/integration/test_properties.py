"""Cross-cutting property-based tests (hypothesis).

These pin down invariants that span multiple packages: simulator
monotonicity, scheduling quality floors, statistics identities, and
semantic preservation through the full pipeline.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import build_dag
from repro.core import (
    BalancedScheduler,
    TraditionalScheduler,
    balanced_weights,
    compile_block,
)
from repro.machine import LEN_8, MAX_8, UNLIMITED
from repro.regalloc import RegisterFile
from repro.simulate import simulate_block
from tests.support.equivalence import assert_equivalent
from tests.support.generator import random_block


def _loads(block):
    return sum(1 for i in block if i.is_load)


class TestSimulatorMonotonicity:
    @given(st.integers(0, 5000))
    @settings(max_examples=40, deadline=None)
    def test_cycles_monotone_in_uniform_latency(self, seed):
        """Raising every load's latency never speeds a block up."""
        rng = np.random.default_rng(seed)
        block = random_block(rng, n_instructions=18)
        n = _loads(block)
        previous = None
        for latency in (1, 2, 4, 8, 16):
            cycles = simulate_block(block.instructions, [latency] * n).cycles
            if previous is not None:
                assert cycles >= previous
            previous = cycles

    @given(st.integers(0, 5000))
    @settings(max_examples=40, deadline=None)
    def test_cycles_monotone_per_load(self, seed):
        """Raising one load's latency never speeds a block up."""
        rng = np.random.default_rng(seed)
        block = random_block(rng, n_instructions=15)
        n = _loads(block)
        if n == 0:
            return
        base = [3] * n
        base_cycles = simulate_block(block.instructions, base).cycles
        victim = int(rng.integers(0, n))
        bumped = list(base)
        bumped[victim] += 10
        assert simulate_block(block.instructions, bumped).cycles >= base_cycles

    @given(st.integers(0, 5000))
    @settings(max_examples=40, deadline=None)
    def test_restricted_processors_never_faster(self, seed):
        rng = np.random.default_rng(seed)
        block = random_block(rng, n_instructions=15)
        n = _loads(block)
        latencies = rng.integers(1, 40, size=n)
        base = simulate_block(block.instructions, latencies, UNLIMITED)
        for processor in (MAX_8, LEN_8):
            restricted = simulate_block(
                block.instructions, latencies, processor
            )
            assert restricted.cycles >= base.cycles

    @given(st.integers(0, 5000))
    @settings(max_examples=40, deadline=None)
    def test_runtime_identity(self, seed):
        """cycles == instructions + interlocks, always (single issue)."""
        rng = np.random.default_rng(seed)
        block = random_block(rng, n_instructions=20)
        latencies = rng.integers(1, 30, size=_loads(block))
        for processor in (UNLIMITED, MAX_8, LEN_8):
            result = simulate_block(block.instructions, latencies, processor)
            assert result.cycles == result.instructions + result.interlock_cycles


class TestSchedulingQuality:
    @given(st.integers(0, 5000))
    @settings(max_examples=25, deadline=None)
    def test_any_schedule_at_unit_latency_is_stall_free(self, seed):
        """At latency 1 every dependence is satisfied by program order,
        so any valid schedule runs stall-free."""
        rng = np.random.default_rng(seed)
        block = random_block(rng, n_instructions=18)
        for policy in (BalancedScheduler(), TraditionalScheduler(7)):
            scheduled = policy.schedule_block(block).block
            result = simulate_block(
                scheduled.instructions, [1] * _loads(scheduled)
            )
            assert result.interlock_cycles == 0

    @given(st.integers(0, 5000))
    @settings(max_examples=25, deadline=None)
    def test_scheduling_never_beats_critical_path(self, seed):
        """Runtime is bounded below by the latency-weighted critical
        path evaluated with the actual latency."""
        rng = np.random.default_rng(seed)
        block = random_block(rng, n_instructions=16)
        latency = int(rng.integers(1, 12))
        dag = build_dag(block)
        for node in dag.load_nodes():
            dag.set_weight(node, latency)
        # Longest path with actual latencies, ending at issue of leaf.
        n = len(dag)
        depth = [Fraction(0)] * n
        for v in reversed(range(n)):
            best = Fraction(0)
            for s in dag.successors(v):
                cand = Fraction(dag.edge_latency(v, s)) + depth[s]
                if cand > best:
                    best = cand
            depth[v] = best
        bound = int(max(depth)) + 1 if n else 0

        scheduled = BalancedScheduler().schedule_block(block).block
        result = simulate_block(
            scheduled.instructions, [latency] * _loads(scheduled)
        )
        assert result.cycles >= bound

    @given(st.integers(0, 5000))
    @settings(max_examples=20, deadline=None)
    def test_weights_never_below_one_never_above_block_size(self, seed):
        rng = np.random.default_rng(seed)
        block = random_block(rng, n_instructions=int(rng.integers(2, 26)))
        weights = balanced_weights(build_dag(block))
        for weight in weights.values():
            assert 1 <= weight <= len(block)


class TestPipelineSemantics:
    @given(st.integers(0, 5000))
    @settings(max_examples=20, deadline=None)
    def test_full_pipeline_preserves_stores(self, seed):
        from tests.support.equivalence import block_effect

        rng = np.random.default_rng(seed)
        block = random_block(rng, n_instructions=18)
        compiled = compile_block(
            block,
            BalancedScheduler(),
            register_file=RegisterFile(n_int=6, n_fp=6),
        )
        before = block_effect(block).store_multiset()
        after = block_effect(compiled.final).store_multiset()
        assert before == after

    @given(st.integers(0, 5000))
    @settings(max_examples=25, deadline=None)
    def test_scheduling_is_semantics_preserving(self, seed):
        rng = np.random.default_rng(seed)
        block = random_block(rng, n_instructions=22)
        for policy in (BalancedScheduler(), TraditionalScheduler(4)):
            scheduled = policy.schedule_block(block).block
            assert_equivalent(block, scheduled)


class TestStatisticsProperties:
    @given(st.integers(0, 5000))
    @settings(max_examples=30, deadline=None)
    def test_bootstrap_means_within_sample_range(self, seed):
        from repro.simulate import bootstrap_means

        rng = np.random.default_rng(seed)
        samples = rng.uniform(10, 100, size=int(rng.integers(2, 40)))
        means = bootstrap_means(samples, rng, n_boot=64)
        assert means.min() >= samples.min() - 1e-9
        assert means.max() <= samples.max() + 1e-9

    @given(st.integers(0, 5000), st.floats(0.2, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_improvement_sign_flips_under_scaling(self, seed, scale):
        """When one series is a uniform scaling of the other, the
        improvement is exactly (1 - scale) * 100 and swapping the
        arguments flips its sign."""
        from repro.simulate import percentage_improvement

        rng = np.random.default_rng(seed)
        a = rng.uniform(50, 150, size=100)
        b = a * scale
        forward = percentage_improvement(a, b)
        assert forward.mean == pytest.approx((1 - scale) * 100)
        backward = percentage_improvement(b, a)
        if abs(1 - scale) > 1e-6:
            assert (forward.mean > 0) != (backward.mean > 0)

    @given(st.integers(0, 5000))
    @settings(max_examples=30, deadline=None)
    def test_identical_series_zero_improvement(self, seed):
        from repro.simulate import percentage_improvement

        rng = np.random.default_rng(seed)
        series = rng.uniform(50, 150, size=100)
        result = percentage_improvement(series, series.copy())
        assert result.mean == pytest.approx(0.0)
        assert not result.significant
