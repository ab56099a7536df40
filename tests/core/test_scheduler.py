"""Tests for the shared list scheduler.

Covers both directions, the delayed ready-list / virtual no-op
machinery, fractional weights, and the dependence-preservation
property on random blocks.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import build_dag
from repro.analysis.dag import CodeDAG, DepKind
from repro.core import (
    BalancedScheduler,
    Direction,
    ListScheduler,
    TraditionalScheduler,
    schedule_dag,
)
from repro.ir import MemRef, Opcode, VirtualReg, alu, load
from repro.workloads import label_order
from tests.support.generator import random_block


def respects_dependences(dag: CodeDAG, order):
    position = {node: index for index, node in enumerate(order)}
    for src in dag.nodes():
        for dst in dag.successors(src):
            if position[src] >= position[dst]:
                return False
    return True


class TestBasics:
    def test_schedule_is_permutation(self, saxpy_block):
        dag = build_dag(saxpy_block)
        result = schedule_dag(dag, saxpy_block)
        assert sorted(result.order) == list(range(len(dag)))

    def test_dependences_respected(self, saxpy_block):
        dag = build_dag(saxpy_block)
        result = schedule_dag(dag, saxpy_block)
        assert respects_dependences(dag, result.order)

    def test_emitted_block_matches_order(self, saxpy_block):
        dag = build_dag(saxpy_block)
        result = schedule_dag(dag, saxpy_block)
        for position, node in enumerate(result.order):
            assert result.block[position] is saxpy_block[node]

    def test_empty_dag(self):
        result = schedule_dag(CodeDAG([]))
        assert result.order == []
        assert result.noop_span == 0

    def test_single_node(self):
        mem = MemRef(region="A", base=None, offset=0, affine_coeff=0)
        dag = CodeDAG([load(VirtualReg(0), mem)])
        assert schedule_dag(dag).order == [0]


class TestVirtualNoops:
    def test_noop_span_on_starved_chain(self):
        """A 2-node chain with weight 5 starves the ready list for 4
        reverse slots (the paper's virtual no-ops)."""
        mem = MemRef(region="A", base=None, offset=0, affine_coeff=0)
        instrs = [
            load(VirtualReg(0), mem),
            alu(Opcode.ADD, VirtualReg(1), (VirtualReg(0),)),
        ]
        dag = CodeDAG(instrs)
        dag.add_edge(0, 1, DepKind.TRUE)
        dag.set_weight(0, Fraction(5))
        result = schedule_dag(dag)
        assert result.order == [0, 1]
        assert result.noop_span == Fraction(4)

    def test_no_noops_when_saturated(self, figure1):
        block, _ = figure1
        result = BalancedScheduler().schedule_block(block)
        # Weight 3 with two 2-instruction pads leaves a single gap of
        # zero: the schedule is dense.
        assert result.noop_span == 0

    def test_fractional_weights_fractional_gaps(self):
        mem = MemRef(region="A", base=None, offset=0, affine_coeff=0)
        instrs = [
            load(VirtualReg(0), mem),
            alu(Opcode.ADD, VirtualReg(1), (VirtualReg(0),)),
        ]
        dag = CodeDAG(instrs)
        dag.add_edge(0, 1, DepKind.TRUE)
        dag.set_weight(0, Fraction(5, 2))
        result = schedule_dag(dag)
        assert result.noop_span == Fraction(3, 2)


class TestPriorities:
    def test_priority_in_result(self, figure1):
        block, labels = figure1
        result = BalancedScheduler().schedule_block(block)
        inverse = {v: k for k, v in labels.items()}
        # priority(L0) = w + priority(L1) = 3 + 4 = 7.
        assert result.priorities[inverse["L0"]] == Fraction(7)

    def test_anti_edges_carry_unit_latency(self):
        mem = MemRef(region="A", base=None, offset=0, affine_coeff=0)
        instrs = [
            load(VirtualReg(0), mem),
            load(VirtualReg(0), mem.displaced(1)),  # OUTPUT dep
        ]
        dag = CodeDAG(instrs)
        dag.add_edge(0, 1, DepKind.OUTPUT)
        dag.set_weight(0, Fraction(9))
        result = schedule_dag(dag)
        # OUTPUT edges order but do not stretch: no no-ops needed.
        assert result.noop_span == 0
        assert result.order == [0, 1]


class TestDirections:
    def test_both_directions_valid(self, saxpy_block):
        dag_bu = build_dag(saxpy_block)
        bu = ListScheduler(direction=Direction.BOTTOM_UP).schedule(dag_bu)
        dag_td = build_dag(saxpy_block)
        td = ListScheduler(direction=Direction.TOP_DOWN).schedule(dag_td)
        assert respects_dependences(dag_bu, bu.order)
        assert respects_dependences(dag_td, td.order)

    def test_figure2c_exact_in_both_directions(self, figure1):
        """The balanced schedule matches the paper in either direction."""
        block, labels = figure1
        for direction in Direction:
            result = BalancedScheduler(direction=direction).schedule_block(block)
            assert label_order(labels, result.order) == [
                "L0", "X0", "X1", "L1", "X2", "X3", "X4",
            ]

    def test_greedy_figure2a_top_down_only(self, figure1):
        block, labels = figure1
        result = TraditionalScheduler(
            5, direction=Direction.TOP_DOWN
        ).schedule_block(block)
        assert label_order(labels, result.order) == [
            "L0", "X0", "X1", "X2", "X3", "L1", "X4",
        ]


class TestProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_random_blocks_schedule_correctly(self, seed):
        rng = np.random.default_rng(seed)
        block = random_block(rng, n_instructions=int(rng.integers(2, 30)))
        for direction in Direction:
            dag = build_dag(block)
            result = ListScheduler(direction=direction).schedule(dag, block)
            assert sorted(result.order) == list(range(len(dag)))
            assert respects_dependences(dag, result.order)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_deterministic(self, seed):
        rng = np.random.default_rng(seed)
        block = random_block(rng, n_instructions=15)
        first = BalancedScheduler().schedule_block(block)
        second = BalancedScheduler().schedule_block(block)
        assert first.order == second.order
