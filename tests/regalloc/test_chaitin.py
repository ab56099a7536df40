"""Tests for the Chaitin/Briggs graph-coloring allocator."""

from repro.analysis.liveness import live_intervals
from repro.core.balanced import BalancedScheduler
from repro.core.pipeline import compile_block
from repro.ir.block import BasicBlock
from repro.ir.instructions import Opcode, alu, load, store
from repro.ir.operands import MemRef, PhysReg, RegClass, VirtualReg
from repro.regalloc.chaitin import ChaitinAllocator, allocate_block_chaitin
from repro.regalloc.target import RegisterFile
from tests.support.equivalence import block_effect
from tests.support.generator import random_block
from tests.support.verifier import verify_block

A = MemRef(region="A", base=None, offset=0, affine_coeff=0)


def chain_block(n):
    block = BasicBlock("chain")
    for k in range(n):
        reg = VirtualReg(2 * k, RegClass.FP)
        block.append(load(reg, A.displaced(k)))
        block.append(store(reg, A.displaced(100 + k)))
    return block


class TestColoring:
    def test_low_pressure_no_spills(self):
        result = allocate_block_chaitin(
            chain_block(8), RegisterFile(n_int=4, n_fp=4)
        )
        assert result.stats.total == 0

    def test_all_physical_after_rewrite(self):
        result = allocate_block_chaitin(chain_block(5))
        for inst in result.block:
            for reg in inst.all_regs():
                assert isinstance(reg, PhysReg)

    def test_no_conflicting_colors(self, rng):
        """Overlapping intervals never share a register."""
        for _ in range(10):
            block = random_block(rng, n_instructions=22)
            result = allocate_block_chaitin(block, RegisterFile(n_int=6, n_fp=6))
            intervals = live_intervals(
                block.instructions, block.live_in, block.live_out
            )
            assigned = [
                (reg, phys) for reg, phys in result.assigned.items()
                if reg in intervals
            ]
            for index, (reg_a, phys_a) in enumerate(assigned):
                for reg_b, phys_b in assigned[index + 1:]:
                    if phys_a == phys_b:
                        assert not intervals[reg_a].overlaps(intervals[reg_b])

    def test_spills_under_pressure(self, rng):
        block = random_block(rng, n_instructions=30, store_probability=0.05)
        result = allocate_block_chaitin(block, RegisterFile(n_int=3, n_fp=3))
        assert result.stats.total > 0

    def test_deterministic(self, rng):
        block = random_block(rng, n_instructions=20)
        first = allocate_block_chaitin(block)
        second = allocate_block_chaitin(block)
        assert first.assigned == second.assigned
        assert first.spilled == second.spilled

    def test_rewritten_block_verifies(self, rng):
        for _ in range(8):
            block = random_block(rng, n_instructions=18)
            result = allocate_block_chaitin(block, RegisterFile(n_int=5, n_fp=5))
            verify_block(result.block, strict_defs=False)


class TestSemantics:
    def test_store_effects_preserved(self, rng):
        for _ in range(10):
            block = random_block(rng, n_instructions=18)
            result = allocate_block_chaitin(block, RegisterFile(n_int=5, n_fp=5))
            assert (
                block_effect(block).store_multiset()
                == block_effect(result.block).store_multiset()
            )

    def test_pipeline_accepts_chaitin(self, reduction_block):
        compiled = compile_block(
            reduction_block, BalancedScheduler(), allocator=ChaitinAllocator()
        )
        assert compiled.allocation is not None
        verify_block(compiled.final, strict_defs=False)


class TestSpillCharacter:
    def test_spill_choice_differs_from_linear_scan(self):
        """The allocators' characters differ: Chaitin spills by
        cost/degree, linear scan by furthest end.  On the deep-tree
        suite program they pick measurably different spill sets."""
        from repro.core.pipeline import compile_program
        from repro.core.traditional import TraditionalScheduler
        from repro.workloads.perfect import load_program

        program = load_program("BDNA")
        linear = compile_program(program, TraditionalScheduler(2))
        chaitin = compile_program(
            program, TraditionalScheduler(2), allocator=ChaitinAllocator()
        )
        assert linear.spill_percentage != chaitin.spill_percentage

    def test_cost_metric_prefers_cheap_long_ranges(self):
        """A long, rarely-used range must be chosen over a short,
        hot range when the graph is stuck."""
        block = BasicBlock("b")
        cold = VirtualReg(0, RegClass.FP)
        block.append(load(cold, A))
        hot_regs = []
        for k in range(3):
            reg = VirtualReg(1 + k, RegClass.FP)
            block.append(load(reg, A.displaced(1 + k)))
            hot_regs.append(reg)
        # Hot values used repeatedly while cold stays live.
        acc = hot_regs[0]
        for k in range(4):
            fresh = VirtualReg(10 + k, RegClass.FP)
            block.append(
                alu(Opcode.FADD, fresh, (acc, hot_regs[k % 3]))
            )
            acc = fresh
        block.append(store(acc, A.displaced(50)))
        block.append(store(cold, A.displaced(99)))
        result = allocate_block_chaitin(block, RegisterFile(n_int=2, n_fp=2))
        assert cold in result.spilled
