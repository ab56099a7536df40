"""Tests for the multi-cycle and known-latency extensions (Section 6)."""

from fractions import Fraction

import pytest

from repro.analysis.dependence import build_dag
from repro.core.balanced import BalancedScheduler
from repro.core.weights import balanced_weights
from repro.extensions import known_latency
from repro.extensions.known_latency import (
    KnownLatencyScheduler,
    second_access_same_line,
)
from repro.extensions.multicycle import (
    MultiCycleBalancedScheduler,
    uncertain_load_or_multicycle,
    with_fp_latency,
)
from repro.frontend.lowering import compile_minif

SOURCE = """
program p
  array a[64], b[64], c[64]
  kernel k freq 1 unroll 2
    t1 = a[i] * b[i]
    t2 = t1 + a[i+1]
    c[i] = t2 / b[i+1]
  end
end
"""


def fresh_block():
    return compile_minif(SOURCE).functions[0].blocks[0]


class TestMultiCycle:
    def test_predicate_excludes_unit_fp(self):
        block = fresh_block()
        dag = build_dag(block)
        fp_nodes = [v for v in dag.nodes() if dag.instructions[v].is_fp]
        assert fp_nodes
        for v in fp_nodes:
            assert not uncertain_load_or_multicycle(dag, v)

    def test_predicate_includes_multicycle_fp(self):
        block = fresh_block()
        with_fp_latency(block.instructions, 4)
        dag = build_dag(block)
        fp_nodes = [v for v in dag.nodes() if dag.instructions[v].is_fp]
        for v in fp_nodes:
            assert uncertain_load_or_multicycle(dag, v)

    def test_fp_ops_receive_balanced_weights(self):
        block = fresh_block()
        with_fp_latency(block.instructions, 4)
        base = build_dag(block)
        dag = base.with_weights(MultiCycleBalancedScheduler().load_weights(base))
        fp_nodes = [v for v in dag.nodes() if dag.instructions[v].is_fp]
        for v in fp_nodes:
            assert dag.weights[v] >= 1
            assert isinstance(dag.weights[v], Fraction)

    def test_schedules_remain_valid(self):
        block = fresh_block()
        with_fp_latency(block.instructions, 4)
        result = MultiCycleBalancedScheduler().schedule_block(block)
        assert sorted(result.order) == list(range(len(block)))

    def test_separates_fp_producers_from_consumers(self):
        """The extension's purpose: multi-cycle FP results get breathing
        room.  The mean producer->consumer distance over multi-cycle FP
        ops must not shrink relative to plain balanced scheduling."""

        def mean_fp_gap(block):
            position = {}
            for index, inst in enumerate(block.instructions):
                for reg in inst.defs:
                    position[reg] = (index, inst)
            gaps = []
            for index, inst in enumerate(block.instructions):
                for reg in inst.all_uses():
                    if reg in position:
                        def_index, producer = position[reg]
                        if producer.is_fp and producer.latency > 1:
                            gaps.append(index - def_index)
            return sum(gaps) / len(gaps) if gaps else 0.0

        base = fresh_block()
        with_fp_latency(base.instructions, 6)
        plain = BalancedScheduler().schedule_block(base).block
        extended = MultiCycleBalancedScheduler().schedule_block(base).block
        assert mean_fp_gap(extended) >= mean_fp_gap(plain)

    def test_with_fp_latency_validates(self):
        with pytest.raises(ValueError):
            with_fp_latency([], 0)


class TestKnownLatency:
    def test_oracle_detects_same_line_repeat(self):
        block = fresh_block()
        dag = build_dag(block)
        oracle = second_access_same_line(hit_latency=2, line_elements=4)
        scheduler = KnownLatencyScheduler(oracle)
        known = scheduler.known_loads(dag)
        # a[i+1] in copy 0 shares a line with a[i]; copy-1 references
        # repeat lines too.
        assert known
        for latency in known.values():
            assert latency == 2

    def test_known_loads_pinned_unknown_balanced(self):
        block = fresh_block()
        base = build_dag(block)
        oracle = second_access_same_line(hit_latency=2, line_elements=4)
        scheduler = KnownLatencyScheduler(oracle)
        reference = balanced_weights(build_dag(block))
        dag = base.with_weights(scheduler.load_weights(base))
        known = scheduler.known_loads(dag)
        for node in dag.load_nodes():
            if node in known:
                assert dag.weights[node] == 2
            else:
                assert dag.weights[node] == reference[node]

    @staticmethod
    def _old_load_weights(oracle, dag):
        """Balanced weights with every known load overwritten."""
        weights = dict(balanced_weights(dag))
        for node in dag.load_nodes():
            if oracle(dag, node) is not None:
                weights[node] = oracle(dag, node)
        return weights

    def test_pin_all_oracle_skips_balanced_weights(self, monkeypatch):
        dag = build_dag(fresh_block())
        reference = self._old_load_weights(lambda d, n: 7, dag)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return balanced_weights(*args, **kwargs)

        monkeypatch.setattr(known_latency, "balanced_weights", counting)
        weights = KnownLatencyScheduler(lambda d, n: 7).load_weights(dag)
        assert weights == reference
        assert list(weights) == list(reference)
        assert calls == []

    def test_partial_oracle_weights_unchanged(self):
        dag = build_dag(fresh_block())
        oracle = second_access_same_line(hit_latency=2, line_elements=4)
        known = KnownLatencyScheduler(oracle).known_loads(dag)
        assert 0 < len(known) < len(dag.load_nodes())
        weights = KnownLatencyScheduler(oracle).load_weights(dag)
        reference = self._old_load_weights(oracle, dag)
        assert weights == reference
        assert list(weights) == list(reference)

    def test_never_oracle_equals_balanced(self):
        block = fresh_block()
        never = KnownLatencyScheduler(lambda dag, node: None)
        plain = BalancedScheduler()
        assert never.schedule_block(block).order == plain.schedule_block(
            fresh_block()
        ).order

    def test_gather_loads_never_known(self):
        source = """
program g
  array v[64], col[64]
  kernel k freq 1
    s = s + v[col[i]]
  end
end
"""
        block = compile_minif(source).functions[0].blocks[0]
        dag = build_dag(block)
        oracle = second_access_same_line()
        known = KnownLatencyScheduler(oracle).known_loads(dag)
        gather_nodes = [
            v for v in dag.load_nodes()
            if dag.instructions[v].mem.affine_coeff is None
        ]
        assert gather_nodes
        for node in gather_nodes:
            assert node not in known
