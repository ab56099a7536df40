"""Tests for the scheduling policies (traditional / balanced / average)."""

from fractions import Fraction

from repro.analysis import build_dag
from repro.core import (
    AverageWeightScheduler,
    BalancedScheduler,
    SchedulingPolicy,
    TraditionalScheduler,
    as_fraction,
    balanced_weights,
)


class TestAsFraction:
    def test_int(self):
        assert as_fraction(5) == Fraction(5)

    def test_decimal_float_exact(self):
        assert as_fraction(2.6) == Fraction(13, 5)
        assert as_fraction(2.15) == Fraction(43, 20)
        assert as_fraction(7.6) == Fraction(38, 5)

    def test_fraction_passthrough(self):
        value = Fraction(7, 3)
        assert as_fraction(value) is value


class TestTraditional:
    def test_uniform_load_weights(self, saxpy_block):
        base = build_dag(saxpy_block)
        dag = base.with_weights(TraditionalScheduler(4).load_weights(base))
        for node in dag.load_nodes():
            assert dag.weights[node] == Fraction(4)

    def test_non_loads_untouched(self, saxpy_block):
        base = build_dag(saxpy_block)
        dag = base.with_weights(TraditionalScheduler(4).load_weights(base))
        for node in dag.nodes():
            if not dag.is_load(node):
                assert dag.weights[node] == dag.instructions[node].latency

    def test_name_mentions_latency(self):
        assert "2.6" in TraditionalScheduler(2.6).name


class TestBalanced:
    def test_assign_matches_weights_function(self, saxpy_block):
        base = build_dag(saxpy_block)
        expected = balanced_weights(base)
        dag = base.with_weights(BalancedScheduler().load_weights(base))
        for node, weight in expected.items():
            assert dag.weights[node] == weight

    def test_machine_independent(self, saxpy_block):
        """The balanced policy has no latency parameter at all."""
        policy = BalancedScheduler()
        assert not hasattr(policy, "optimistic_latency")


class TestAverageWeight:
    def test_every_load_gets_the_block_average(self, reduction_block):
        base = build_dag(reduction_block)
        per_load = balanced_weights(base)
        average = sum(per_load.values(), Fraction(0)) / len(per_load)
        dag = base.with_weights(AverageWeightScheduler().load_weights(base))
        for node in dag.load_nodes():
            assert dag.weights[node] == average

    def test_no_loads_is_a_no_op(self):
        from repro.analysis.dag import CodeDAG
        from repro.ir import Opcode, VirtualReg, alu

        dag = CodeDAG([alu(Opcode.ADD, VirtualReg(0), ())])
        assert AverageWeightScheduler().load_weights(dag) == {}
        assert dag.weights == [1]


class TestPolicyInterface:
    def test_policies_share_one_scheduler_implementation(self, saxpy_block):
        """Same tie-breaks + same weights => identical schedules."""
        fixed = BalancedScheduler()
        base = build_dag(saxpy_block)
        dag = base.with_weights(fixed.load_weights(base))

        class Precomputed(SchedulingPolicy):
            name = "precomputed"

            def load_weights(self, inner):
                return dict(enumerate(dag.weights))

        ours = fixed.schedule_block(saxpy_block)
        theirs = Precomputed().schedule_block(saxpy_block)
        assert ours.order == theirs.order

    def test_schedule_block_returns_new_block(self, saxpy_block):
        result = BalancedScheduler().schedule_block(saxpy_block)
        assert result.block is not saxpy_block
        assert len(result.block) == len(saxpy_block)
