"""Tests for the two-pass compile pipeline."""

import pytest

from repro.core.balanced import BalancedScheduler
from repro.core.pipeline import compile_block, compile_program
from repro.core.traditional import TraditionalScheduler
from repro.frontend.lowering import compile_minif
from repro.ir.operands import PhysReg, VirtualReg
from repro.regalloc.target import RegisterFile
from repro.workloads.perfect import load_program
from tests.support.generator import random_block
from tests.support.verifier import verify_block

TIGHT = RegisterFile(n_int=4, n_fp=4)


class TestCompileBlock:
    def test_no_allocation_keeps_virtual_registers(self, saxpy_block):
        compiled = compile_block(saxpy_block, BalancedScheduler(), register_file=None)
        assert compiled.allocation is None
        assert compiled.pass2 is None
        assert any(
            isinstance(r, VirtualReg)
            for inst in compiled.final
            for r in inst.all_regs()
        )

    def test_allocation_yields_physical_registers(self, saxpy_block):
        compiled = compile_block(saxpy_block, BalancedScheduler())
        assert compiled.allocation is not None
        for inst in compiled.final:
            for reg in inst.all_regs():
                assert isinstance(reg, PhysReg)

    def test_second_pass_reschedules_allocated_code(self, saxpy_block):
        compiled = compile_block(saxpy_block, BalancedScheduler())
        assert compiled.pass2 is not None
        assert len(compiled.final) == len(compiled.allocation.block)

    def test_second_pass_can_be_disabled(self, saxpy_block):
        compiled = compile_block(
            saxpy_block, BalancedScheduler(), second_pass=False
        )
        assert compiled.pass2 is None
        assert compiled.final is compiled.allocation.block

    def test_spill_counts_surface(self, reduction_block):
        compiled = compile_block(
            reduction_block, TraditionalScheduler(30), register_file=TIGHT
        )
        assert compiled.spill_count > 0
        assert compiled.dynamic_spills == pytest.approx(
            compiled.spill_count * reduction_block.frequency
        )

    def test_final_block_verifies(self, rng):
        for _ in range(10):
            block = random_block(rng, n_instructions=20)
            compiled = compile_block(block, BalancedScheduler())
            verify_block(compiled.final, strict_defs=False)

    def test_instruction_multiset_preserved_without_allocation(self, saxpy_block):
        compiled = compile_block(saxpy_block, BalancedScheduler(), register_file=None)
        original = sorted(i.ident for i in saxpy_block)
        final = sorted(i.ident for i in compiled.final)
        assert original == final


class TestCompileProgram:
    def test_per_block_results(self):
        program = load_program("TRACK")
        result = compile_program(program, BalancedScheduler())
        assert len(result.blocks) == len(program.all_blocks())
        assert result.program_name == "TRACK"
        assert result.policy_name == "balanced"

    def test_dynamic_instruction_count_weighted(self):
        program = compile_minif(
            """
program tiny
  array a[8]
  kernel k freq 10 unroll 1
    s = s + a[i]
  end
end
"""
        )
        result = compile_program(program, BalancedScheduler(), register_file=None)
        block = program.functions[0].blocks[0]
        assert result.dynamic_instructions == pytest.approx(10.0 * len(block))

    def test_spill_percentage_zero_without_pressure(self):
        program = load_program("FLO52Q")
        result = compile_program(program, BalancedScheduler())
        assert result.spill_percentage == pytest.approx(0.0)

    def test_spill_percentage_positive_under_pressure(self):
        program = load_program("QCD2")
        result = compile_program(program, BalancedScheduler())
        assert result.spill_percentage > 0


class TestSchedulingQualityInvariant:
    def test_balanced_dominates_on_figure1(self, figure1):
        """On the worked example, the balanced schedule's interlocks
        are <= both traditional schedules at every latency 1..8."""
        from repro.core.scheduler import Direction
        from repro.simulate.simulator import interlock_sweep

        block, _ = figure1
        top_down = Direction.TOP_DOWN
        latencies = range(1, 9)
        balanced = interlock_sweep(
            BalancedScheduler(direction=top_down).schedule_block(block).block,
            latencies,
        )
        for weight in (1, 5):
            traditional = interlock_sweep(
                TraditionalScheduler(weight, direction=top_down)
                .schedule_block(block)
                .block,
                latencies,
            )
            for ours, theirs in zip(balanced, traditional):
                assert ours <= theirs
