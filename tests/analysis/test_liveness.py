"""Unit tests for live intervals and pressure."""

from repro.analysis import live_intervals, max_pressure, pressure_profile
from repro.ir import (
    BasicBlock,
    MemRef,
    Opcode,
    RegClass,
    VirtualReg,
    alu,
    load,
    store,
)

A = MemRef(region="A", base=None, offset=0, affine_coeff=0)


def block_with_chain():
    """v0 = load; v1 = add v0; store v1."""
    block = BasicBlock("b")
    block.append(load(VirtualReg(0, RegClass.FP), A))
    block.append(
        alu(Opcode.FADD, VirtualReg(1, RegClass.FP), (VirtualReg(0, RegClass.FP),))
    )
    block.append(store(VirtualReg(1, RegClass.FP), A.displaced(1)))
    return block


class TestLiveIntervals:
    def test_def_use_extents(self):
        intervals = live_intervals(block_with_chain().instructions)
        v0 = intervals[VirtualReg(0, RegClass.FP)]
        assert v0.start == 0
        assert v0.end == 2  # one past last use
        assert v0.uses == [1]

    def test_live_in_starts_before_block(self):
        reg = VirtualReg(5, RegClass.FP)
        block = BasicBlock("b", live_in=[reg])
        block.append(alu(Opcode.FADD, VirtualReg(6, RegClass.FP), (reg,)))
        intervals = live_intervals(block.instructions, live_in=[reg])
        assert intervals[reg].start == -1
        assert intervals[reg].end == 1

    def test_live_out_extends_past_block(self):
        block = block_with_chain()
        reg = VirtualReg(1, RegClass.FP)
        intervals = live_intervals(block.instructions, live_out=[reg])
        assert intervals[reg].live_out
        assert intervals[reg].end == len(block) + 1

    def test_use_without_def_treated_as_live_in(self):
        block = BasicBlock("b")
        block.append(
            alu(Opcode.FADD, VirtualReg(1, RegClass.FP), (VirtualReg(0, RegClass.FP),))
        )
        intervals = live_intervals(block.instructions)
        assert intervals[VirtualReg(0, RegClass.FP)].start == -1

    def test_overlap(self):
        intervals = live_intervals(block_with_chain().instructions)
        v0 = intervals[VirtualReg(0, RegClass.FP)]
        v1 = intervals[VirtualReg(1, RegClass.FP)]
        assert v0.overlaps(v1)

    def test_merged_interval_on_redefinition(self):
        block = BasicBlock("b")
        reg = VirtualReg(0, RegClass.FP)
        block.append(load(reg, A))
        block.append(store(reg, A.displaced(1)))
        block.append(load(reg, A.displaced(2)))
        block.append(store(reg, A.displaced(3)))
        intervals = live_intervals(block.instructions)
        assert intervals[reg].start == 0
        assert intervals[reg].end == 4


class TestPressure:
    def test_chain_pressure_is_one_ish(self):
        block = block_with_chain()
        assert max_pressure(block.instructions, RegClass.FP) <= 2

    def test_parallel_values_add_up(self):
        block = BasicBlock("b")
        regs = [VirtualReg(k, RegClass.FP) for k in range(5)]
        for k, reg in enumerate(regs):
            block.append(load(reg, A.displaced(k)))
        consumer = alu(Opcode.FADD, VirtualReg(9, RegClass.FP), tuple(regs))
        block.append(consumer)
        # Five loaded values plus the consumer's own result overlap at
        # the consuming instruction.
        assert max_pressure(block.instructions, RegClass.FP) == 6

    def test_class_filter(self):
        block = BasicBlock("b")
        block.append(load(VirtualReg(0, RegClass.INT), A))
        block.append(load(VirtualReg(1, RegClass.FP), A.displaced(1)))
        block.append(
            alu(
                Opcode.ADD,
                VirtualReg(2, RegClass.INT),
                (VirtualReg(0, RegClass.INT),),
            )
        )
        block.append(
            alu(
                Opcode.FADD,
                VirtualReg(3, RegClass.FP),
                (VirtualReg(1, RegClass.FP),),
            )
        )
        assert max_pressure(block.instructions, RegClass.INT) >= 1
        assert max_pressure(block.instructions, RegClass.FP) >= 1
        assert max_pressure(block.instructions) >= max_pressure(
            block.instructions, RegClass.FP
        )

    def test_profile_length(self):
        block = block_with_chain()
        profile = pressure_profile(block.instructions)
        assert len(profile) == len(block)

    def test_empty_block(self):
        assert max_pressure([]) == 0
