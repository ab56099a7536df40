"""Tests for trace scheduling (Section 6)."""

import pytest

from repro.core import BalancedScheduler, TraditionalScheduler, balanced_weights
from repro.extensions.trace import (
    TraceError,
    compare_trace_vs_blocks,
    form_trace,
    schedule_trace,
    trace_dag,
)
from repro.ir import (
    BasicBlock,
    Function,
    Instruction,
    MemRef,
    Opcode,
    RegClass,
    alu,
    load,
    store,
)
from repro.ir.cfg import CFG
from repro.machine import UNLIMITED
from repro.simulate import simulate_block


def hot_path_cfg():
    """entry -> body (0.95 hot) -> tail, with a cold error exit.

    Each hot block is load-then-use with no local padding, so
    block-by-block scheduling cannot hide anything, while the trace
    can interleave the three blocks' loads.
    """
    fn = Function("trace_demo")
    cfg = CFG(name="trace_demo", entry="b0", entry_frequency=50.0)

    regions = ("A", "B", "C")
    bases = {}
    blocks = []
    cond = fn.new_vreg(RegClass.FP)
    for index, region in enumerate(regions):
        block = BasicBlock(f"b{index}")
        base = fn.new_vreg(RegClass.INT)
        bases[region] = base
        block.live_in.append(base)
        value = fn.new_vreg(RegClass.FP)
        block.append(
            load(value, MemRef(region=region, base=base, offset=0))
        )
        result = fn.new_vreg(RegClass.FP)
        block.append(alu(Opcode.FADD, result, (value, value)))
        block.append(
            store(result, MemRef(region=region, base=base, offset=1))
        )
        if index == 0:
            block.live_in.append(cond)
        if index < len(regions) - 1:
            block.append(Instruction(Opcode.BRANCH, uses=(cond,)))
        blocks.append(block)
        cfg.add_block(block)

    cold = BasicBlock("cold")
    cold.append(alu(Opcode.ADD, fn.new_vreg(RegClass.INT), ()))
    cfg.add_block(cold)

    cfg.add_edge("b0", "b1", 0.95)
    cfg.add_edge("b0", "cold", 0.05)
    cfg.add_edge("b1", "b2", 0.95)
    cfg.add_edge("b1", "cold", 0.05)
    cfg.add_edge("cold", "b2", 1.0)
    cfg.propagate_frequencies()
    return cfg


class TestFormTrace:
    def test_hottest_path_selected(self):
        cfg = hot_path_cfg()
        trace = form_trace(cfg)
        assert trace.source_blocks == ["b0", "b1", "b2"]

    def test_side_exits_recorded(self):
        trace = form_trace(hot_path_cfg())
        assert len(trace.side_exits) == 2
        for index in trace.side_exits:
            assert trace.block[index].is_terminator

    def test_live_ins_accumulated(self):
        cfg = hot_path_cfg()
        trace = form_trace(cfg)
        # Bases of all three regions plus the branch condition.
        assert len(trace.block.live_in) == 4

    def test_frequency_is_entry_frequency(self):
        cfg = hot_path_cfg()
        trace = form_trace(cfg)
        assert trace.block.frequency == cfg.block("b0").frequency

    def test_non_edge_path_rejected(self):
        cfg = hot_path_cfg()
        with pytest.raises(TraceError, match="not a CFG edge"):
            form_trace(cfg, ["b0", "b2"])

    def test_empty_path_rejected(self):
        with pytest.raises(TraceError):
            form_trace(hot_path_cfg(), [])


class TestTraceDag:
    def test_stores_pinned_across_exits(self):
        trace = form_trace(hot_path_cfg())
        dag = trace_dag(trace)
        first_exit = trace.side_exits[0]
        later_stores = [
            v for v in dag.nodes()
            if v > first_exit and dag.instructions[v].is_store
        ]
        assert later_stores
        for v in later_stores:
            assert dag.edge_kind(first_exit, v) is not None

    def test_later_loads_free_to_hoist(self):
        trace = form_trace(hot_path_cfg())
        dag = trace_dag(trace)
        first_exit = trace.side_exits[0]
        later_loads = [
            v for v in dag.nodes()
            if v > first_exit and dag.instructions[v].is_load
        ]
        assert later_loads
        for v in later_loads:
            assert dag.edge_kind(first_exit, v) is None

    def test_earlier_instructions_pinned_above_exit(self):
        trace = form_trace(hot_path_cfg())
        dag = trace_dag(trace)
        first_exit = trace.side_exits[0]
        for earlier in range(first_exit):
            assert dag.edge_kind(earlier, first_exit) is not None

    def test_trace_weights_exceed_block_weights(self):
        """The point of the extension: more visible parallelism."""
        from repro.analysis import build_dag

        cfg = hot_path_cfg()
        trace = form_trace(cfg)
        block_max = max(
            max(balanced_weights(build_dag(cfg.block(n))).values())
            for n in trace.source_blocks
        )
        trace_weights = balanced_weights(trace_dag(trace))
        assert max(trace_weights.values()) > block_max


class TestScheduleTrace:
    def test_schedule_is_permutation(self):
        trace = form_trace(hot_path_cfg())
        result = schedule_trace(trace, BalancedScheduler())
        assert sorted(result.order) == list(range(len(trace.block)))

    def test_loads_hoist_across_exits(self):
        trace = form_trace(hot_path_cfg())
        result = schedule_trace(trace, BalancedScheduler())
        first_exit_position = result.order.index(trace.side_exits[0])
        load_positions = [
            result.order.index(v)
            for v in range(len(trace.block))
            if trace.block[v].is_load
        ]
        # At least one load from a later block sits above the exit.
        hoisted = [
            p for v, p in zip(
                (v for v in range(len(trace.block)) if trace.block[v].is_load),
                load_positions,
            )
            if v > trace.side_exits[0] and p < first_exit_position
        ]
        assert hoisted

    def test_trace_scheduling_hides_more_latency(self):
        """Hot-path runtime: the trace schedule beats block-by-block
        at a latency none of the tiny blocks can hide locally."""
        cfg = hot_path_cfg()

        def simulate(block):
            n = sum(1 for i in block if i.is_load)
            return simulate_block(block.instructions, [6] * n, UNLIMITED).cycles

        per_block, traced = compare_trace_vs_blocks(
            cfg, BalancedScheduler, simulate
        )
        assert traced < per_block

    def test_traditional_also_usable_on_traces(self):
        trace = form_trace(hot_path_cfg())
        result = schedule_trace(trace, TraditionalScheduler(2))
        assert sorted(result.order) == list(range(len(trace.block)))
