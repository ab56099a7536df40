"""Tests for the execution tracer.

The tracer and ``simulate_block`` are two views of one scalar engine,
so comparing them with each other proves nothing.  Their cycle totals
and stall attribution are checked against the batch kernels instead,
which share no code with the scalar engine.
"""

import numpy as np
import pytest

from repro.core.balanced import BalancedScheduler
from repro.core.traditional import TraditionalScheduler
from repro.core.pipeline import compile_program
from repro.ir.instructions import Opcode, alu, load, nop
from repro.ir.operands import MemRef, RegClass, VirtualReg
from repro.machine.config import PROCESSORS_BY_NAME
from repro.machine.memory import NetworkMemory
from repro.machine.processor import (
    BLOCKING,
    LEN_8,
    MAX_8,
    UNLIMITED,
    superscalar,
)
from repro.simulate.batch import attribution_skip_reason, simulate_block_batch
from repro.simulate.simulator import delaytrack_issue_trace, simulate_block
from repro.simulate.rng import spawn
from repro.simulate.trace import StallReason, trace_block, trace_with_memory
from repro.verify.oracle import check_delaytrack_issue
from repro.verify.fuzz import (
    FUZZ_MEMORIES,
    FUZZ_PROCESSORS,
    attribution_entries,
)
from repro.workloads.perfect import load_suite
from tests.support.generator import random_block

A = MemRef(region="A", base=None, offset=0, affine_coeff=0)


def load_use(gap=0):
    block = [load(VirtualReg(0, RegClass.FP), A)]
    for k in range(gap):
        block.append(alu(Opcode.ADD, VirtualReg(100 + k), ()))
    block.append(
        alu(Opcode.FADD, VirtualReg(1, RegClass.FP), (VirtualReg(0, RegClass.FP),))
    )
    return block


def assert_trace_matches_batch(instructions, latencies, processor):
    """``trace_block`` on each row of ``latencies`` (shape ``(runs,
    n_loads)``) against the batch kernel: cycles, interlocks and every
    stall's attribution."""
    batch = simulate_block_batch(instructions, latencies, processor)
    kernel, traced = attribution_entries(instructions, latencies, processor)
    assert traced == kernel
    for run, row in enumerate(latencies):
        trace = trace_block(instructions, row, processor)
        assert (trace.cycles, trace.interlock_cycles) == (
            int(batch.cycles[run]), int(batch.interlocks[run])
        )


class TestTraceAccounting:
    def test_matches_simulator_on_simple_block(self):
        block = load_use(2)
        latencies = np.array([[1], [3], [7]], dtype=np.int64)
        assert_trace_matches_batch(block, latencies, UNLIMITED)

    def test_matches_simulator_on_random_blocks(self, rng):
        for _ in range(20):
            block = random_block(rng, n_instructions=25)
            n_loads = sum(1 for i in block if i.is_load)
            latencies = NetworkMemory(5, 5).sample_many(
                rng, 3 * n_loads
            ).reshape(3, n_loads)
            for processor in (UNLIMITED, MAX_8, LEN_8):
                assert_trace_matches_batch(
                    block.instructions, latencies, processor
                )

    def test_matches_simulator_on_suite_schedules(self):
        """Every final block of the suite under every fuzz processor,
        the memory family rotated: the engine's summary equals the
        batch kernel's, its stall attribution equals the kernel's
        wherever the kernel attributes, and every delay-tracking issue
        order is admissible to the independent oracle."""
        runs = 3
        checked = set()
        for name, program in load_suite().items():
            compiled = compile_program(program, BalancedScheduler())
            for block_index, block in enumerate(compiled.final_blocks):
                n_loads = len(block.loads)
                for proc_index, processor in enumerate(FUZZ_PROCESSORS):
                    memory = FUZZ_MEMORIES[
                        (block_index + proc_index) % len(FUZZ_MEMORIES)
                    ]
                    rng = spawn(
                        "trace-suite", name, block.name, processor.name,
                        memory.name,
                    )
                    latencies = memory.sample_many(
                        rng, n_loads * runs
                    ).reshape(runs, n_loads)
                    batch = simulate_block_batch(
                        block.instructions, latencies, processor
                    )
                    for run, row in enumerate(latencies):
                        row = [int(x) for x in row]
                        summary = simulate_block(
                            block.instructions, row, processor
                        )
                        assert (
                            summary.cycles,
                            summary.interlock_cycles,
                            summary.instructions,
                        ) == (
                            int(batch.cycles[run]),
                            int(batch.interlocks[run]),
                            batch.instructions,
                        ), (name, block.name, processor.name, run)
                        if processor.load_delay_tracking is not None:
                            order = delaytrack_issue_trace(
                                block.instructions, row, processor
                            )
                            assert check_delaytrack_issue(
                                block.instructions, row, processor, order
                            ) == [], (name, block.name, processor.name)
                    if attribution_skip_reason(processor) is None:
                        kernel, traced = attribution_entries(
                            block.instructions, latencies, processor
                        )
                        assert traced == kernel, (
                            name, block.name, processor.name
                        )
                    checked.add(processor.name)
        assert checked == {p.name for p in FUZZ_PROCESSORS}


class TestStallAttribution:
    def test_operand_stall_names_register(self):
        trace = trace_block(load_use(0), [6])
        consumer = trace.entries[-1]
        assert consumer.stall == 5
        assert consumer.reason is StallReason.OPERAND
        assert consumer.waited_on == VirtualReg(0, RegClass.FP)

    def test_no_stall_no_reason(self):
        trace = trace_block(load_use(4), [3])
        assert all(e.reason is StallReason.NONE for e in trace.entries)

    def test_load_slot_stall_flagged(self):
        block = [
            load(VirtualReg(k, RegClass.FP), A.displaced(k)) for k in range(9)
        ]
        trace = trace_block(block, [50] * 9, MAX_8)
        ninth = trace.entries[8]
        assert ninth.reason is StallReason.LOAD_SLOTS
        assert ninth.stall > 0

    def test_freeze_stall_flagged(self):
        block = [load(VirtualReg(0, RegClass.FP), A)]
        for k in range(10):
            block.append(alu(Opcode.ADD, VirtualReg(100 + k), ()))
        trace = trace_block(block, [12], LEN_8)
        frozen = [e for e in trace.entries if e.reason is StallReason.FREEZE]
        assert frozen
        assert sum(e.stall for e in frozen) == 4

    def test_stalls_by_reason_totals(self):
        trace = trace_block(load_use(0), [6])
        by_reason = trace.stalls_by_reason()
        assert by_reason == {StallReason.OPERAND: 5}
        assert sum(by_reason.values()) == trace.interlock_cycles

    def test_hottest_returns_biggest_stalls(self, figure1):
        block, _ = figure1
        scheduled = TraditionalScheduler(5).schedule_block(block).block
        trace = trace_block(scheduled.instructions, [8, 8])
        hottest = trace.hottest(1)
        assert hottest[0].stall == max(e.stall for e in trace.entries)


class TestRendering:
    def test_render_has_one_row_per_instruction(self):
        block = load_use(2)
        trace = trace_block(block, [4])
        rendered = trace.render()
        assert rendered.count("\n") == len(block)
        assert "I" in rendered

    def test_render_empty(self):
        assert "empty" in trace_block([], []).render()

    def test_nops_excluded(self):
        block = load_use(1)
        block.insert(1, nop())
        trace = trace_block(block, [2])
        assert len(trace.entries) == len(block) - 1


class TestGuards:
    def test_superscalar_rejected(self):
        with pytest.raises(ValueError, match="single-issue"):
            trace_block(load_use(0), [2], superscalar(2))

    def test_blocking_rejected(self):
        with pytest.raises(ValueError, match="non-blocking"):
            trace_block(load_use(0), [2], BLOCKING)

    @pytest.mark.parametrize("name", sorted(PROCESSORS_BY_NAME))
    def test_every_named_processor_raises_or_matches_simulator(self, name):
        """A trace is either refused or exact: never a silently wrong
        cycle count for a processor the CLI can name."""
        processor = PROCESSORS_BY_NAME[name]
        blocks = [b for p in load_suite().values() for b in p.all_blocks()]
        for block in blocks:
            n_loads = sum(1 for inst in block if inst.is_load)
            for latency in (1, 2, 7, 30):
                latencies = [latency] * n_loads
                try:
                    trace = trace_block(block.instructions, latencies, processor)
                except ValueError:
                    continue
                batch = simulate_block_batch(
                    block.instructions,
                    np.array([latencies], dtype=np.int64).reshape(1, n_loads),
                    processor,
                )
                assert (trace.cycles, trace.interlock_cycles) == (
                    int(batch.cycles[0]), int(batch.interlocks[0])
                ), (name, block.name, latency)

    def test_trace_with_memory(self, rng, figure1):
        block, _ = figure1
        trace = trace_with_memory(block, UNLIMITED, NetworkMemory(3, 2), rng)
        assert trace.cycles >= len(block)
