"""Tests for the linear-scan register allocator."""

from repro.ir.block import BasicBlock
from repro.ir.instructions import Opcode, alu, load, store
from repro.ir.operands import MemRef, PhysReg, RegClass, VirtualReg
from repro.regalloc.linear_scan import allocate_block
from repro.regalloc.target import RegisterFile
from tests.support.generator import random_block
from tests.support.verifier import verify_block

A = MemRef(region="A", base=None, offset=0, affine_coeff=0)


def chain_block(n):
    """n loads, each immediately consumed: pressure stays tiny."""
    block = BasicBlock("chain")
    for k in range(n):
        reg = VirtualReg(2 * k, RegClass.FP)
        block.append(load(reg, A.displaced(k)))
        block.append(store(reg, A.displaced(100 + k)))
    return block


def wide_block(n):
    """n loads all live simultaneously: consumed pairwise at the end,
    so every loaded value stays live until the combining tree."""
    block = BasicBlock("wide")
    regs = [VirtualReg(k, RegClass.FP) for k in range(n)]
    for k, reg in enumerate(regs):
        block.append(load(reg, A.displaced(k)))
    next_index = n
    while len(regs) > 1:
        paired = []
        for a, b in zip(regs[0::2], regs[1::2]):
            acc = VirtualReg(next_index, RegClass.FP)
            next_index += 1
            block.append(alu(Opcode.FADD, acc, (a, b)))
            paired.append(acc)
        if len(regs) % 2:
            paired.append(regs[-1])
        regs = paired
    block.append(store(regs[0], A.displaced(99)))
    return block


class TestAllocation:
    def test_low_pressure_no_spills(self):
        result = allocate_block(chain_block(10), RegisterFile(n_int=4, n_fp=4))
        assert result.stats.total == 0
        assert not result.spilled

    def test_all_registers_physical_after_rewrite(self):
        result = allocate_block(chain_block(6))
        for inst in result.block:
            for reg in inst.all_regs():
                assert isinstance(reg, PhysReg)

    def test_high_pressure_spills(self):
        result = allocate_block(wide_block(8), RegisterFile(n_int=4, n_fp=4))
        assert result.stats.total > 0
        assert result.spilled

    def test_spill_instructions_tagged(self):
        result = allocate_block(wide_block(8), RegisterFile(n_int=4, n_fp=4))
        tagged = [i for i in result.block if i.is_spill]
        assert len(tagged) == result.stats.total

    def test_spill_count_store_plus_reloads(self):
        """Each spilled def stores once and reloads once per use."""
        result = allocate_block(wide_block(8), RegisterFile(n_int=4, n_fp=4))
        stores = sum(1 for i in result.block if i.is_spill and i.is_store)
        loads = sum(1 for i in result.block if i.is_spill and i.is_load)
        assert stores == result.stats.stores
        assert loads == result.stats.loads
        assert stores >= len(result.spilled) - 1  # live-ins reload only

    def test_register_classes_respected(self, saxpy_block):
        result = allocate_block(saxpy_block)
        for inst in result.block:
            if inst.opcode in (Opcode.FADD, Opcode.FMUL):
                for reg in inst.defs:
                    assert reg.rclass is RegClass.FP

    def test_no_conflicting_assignments(self, rng):
        """Two simultaneously-live values never share a register."""
        from repro.analysis.liveness import live_intervals

        for _ in range(10):
            block = random_block(rng, n_instructions=24)
            result = allocate_block(block, RegisterFile(n_int=6, n_fp=6))
            intervals = live_intervals(
                block.instructions, block.live_in, block.live_out
            )
            assigned = [
                (reg, phys)
                for reg, phys in result.assigned.items()
                if reg in intervals
            ]
            for index, (reg_a, phys_a) in enumerate(assigned):
                for reg_b, phys_b in assigned[index + 1:]:
                    if phys_a == phys_b:
                        assert not intervals[reg_a].overlaps(intervals[reg_b])

    def test_semantics_preserved_modulo_spills(self, saxpy_block):
        """Non-spill instructions appear in order with same opcodes."""
        result = allocate_block(saxpy_block)
        original_ops = [i.opcode for i in saxpy_block]
        surviving_ops = [i.opcode for i in result.block if not i.is_spill]
        assert surviving_ops == original_ops

    def test_rewritten_block_verifies(self, rng):
        for _ in range(10):
            block = random_block(rng, n_instructions=18)
            result = allocate_block(block, RegisterFile(n_int=5, n_fp=5))
            verify_block(result.block, strict_defs=False)


class TestEvictionHeuristic:
    def test_furthest_end_interval_spilled(self):
        """A long-lived value loses its register to short-lived ones."""
        block = BasicBlock("evict")
        long_lived = VirtualReg(0, RegClass.FP)
        block.append(load(long_lived, A))
        for k in range(4):
            reg = VirtualReg(1 + k, RegClass.FP)
            block.append(load(reg, A.displaced(1 + k)))
            block.append(store(reg, A.displaced(50 + k)))
        block.append(store(long_lived, A.displaced(99)))
        result = allocate_block(block, RegisterFile(n_int=2, n_fp=1))
        assert long_lived in result.spilled
