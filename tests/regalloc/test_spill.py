"""Tests for spill-code insertion and the FIFO spill pool."""

import pytest

from repro.analysis.alias import SPILL_REGION_PREFIX
from repro.ir.block import BasicBlock
from repro.ir.instructions import Opcode, alu, load, store
from repro.ir.operands import MemRef, PhysReg, RegClass, VirtualReg
from repro.regalloc.linear_scan import allocate_block
from repro.regalloc.spill import SpillRewriter, _Pool
from repro.regalloc.target import RegisterFile

A = MemRef(region="A", base=None, offset=0, affine_coeff=0)


class TestPool:
    def test_fifo_rotates(self):
        regs = [PhysReg(10 + k, RegClass.FP, is_spill_pool=True) for k in range(3)]
        pool = _Pool(regs, fifo=True)
        taken = [pool.take(set()) for _ in range(6)]
        assert taken == regs + regs  # round robin

    def test_fixed_order_reuses_first(self):
        regs = [PhysReg(10 + k, RegClass.FP, is_spill_pool=True) for k in range(3)]
        pool = _Pool(regs, fifo=False)
        assert pool.take(set()) == regs[0]
        assert pool.take(set()) == regs[0]

    def test_banned_registers_skipped(self):
        regs = [PhysReg(10 + k, RegClass.FP, is_spill_pool=True) for k in range(2)]
        pool = _Pool(regs, fifo=False)
        assert pool.take({regs[0]}) == regs[1]

    def test_exhaustion_raises(self):
        regs = [PhysReg(10, RegClass.FP, is_spill_pool=True)]
        pool = _Pool(regs, fifo=True)
        with pytest.raises(RuntimeError, match="exhausted"):
            pool.take({regs[0]})

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            _Pool([], fifo=True)


class TestRewriter:
    def _spilled_block(self):
        """v0 spilled; v1 assigned."""
        block = BasicBlock("b")
        v0 = VirtualReg(0, RegClass.FP)
        v1 = VirtualReg(1, RegClass.FP)
        block.append(load(v0, A))
        block.append(alu(Opcode.FADD, v1, (v0, v0)))
        block.append(store(v1, A.displaced(1)))
        return block, v0, v1

    def test_store_after_def_and_reload_before_use(self):
        block, v0, v1 = self._spilled_block()
        rf = RegisterFile(n_int=2, n_fp=2)
        rewriter = SpillRewriter(
            rf, assigned={v1: PhysReg(0, RegClass.FP)}, spilled={v0}, live_in=set()
        )
        out = rewriter.rewrite(block)
        ops = [(i.opcode, i.tag) for i in out]
        # load A; spill store; spill reload; fadd; store
        assert ops[1] == (Opcode.STORE, "spill")
        assert ops[2] == (Opcode.LOAD, "spill")
        assert rewriter.stats.stores == 1
        assert rewriter.stats.loads == 1

    def test_spill_slots_in_private_region(self):
        block, v0, v1 = self._spilled_block()
        rf = RegisterFile(n_int=2, n_fp=2)
        rewriter = SpillRewriter(
            rf, assigned={v1: PhysReg(0, RegClass.FP)}, spilled={v0}, live_in=set()
        )
        out = rewriter.rewrite(block)
        for inst in out:
            if inst.is_spill:
                assert inst.mem.region.startswith(SPILL_REGION_PREFIX)

    def test_double_use_reloads_once(self):
        block, v0, v1 = self._spilled_block()
        rf = RegisterFile(n_int=2, n_fp=2)
        rewriter = SpillRewriter(
            rf, assigned={v1: PhysReg(0, RegClass.FP)}, spilled={v0}, live_in=set()
        )
        rewriter.rewrite(block)
        # v0 is used twice by the fadd but reloaded once for it.
        assert rewriter.stats.loads == 1

    def test_live_in_spill_reloads_without_store(self):
        reg = VirtualReg(0, RegClass.FP)
        block = BasicBlock("b", live_in=[reg])
        block.append(store(reg, A))
        rf = RegisterFile(n_int=2, n_fp=2)
        rewriter = SpillRewriter(rf, assigned={}, spilled={reg}, live_in={reg})
        out = rewriter.rewrite(block)
        assert rewriter.stats.loads == 1
        assert rewriter.stats.stores == 0
        assert out[0].is_spill and out[0].is_load
        assert "_home" in out[0].mem.region

    def test_distinct_slots_per_value(self):
        v0 = VirtualReg(0, RegClass.FP)
        v1 = VirtualReg(1, RegClass.FP)
        block = BasicBlock("b")
        block.append(load(v0, A))
        block.append(load(v1, A.displaced(1)))
        block.append(store(v0, A.displaced(2)))
        block.append(store(v1, A.displaced(3)))
        rf = RegisterFile(n_int=2, n_fp=2)
        rewriter = SpillRewriter(rf, assigned={}, spilled={v0, v1}, live_in=set())
        out = rewriter.rewrite(block)
        slots = {
            inst.mem.offset
            for inst in out
            if inst.is_spill and inst.is_store
        }
        assert len(slots) == 2


class TestPoolConfiguration:
    def test_enlarged_pool_is_base_plus_two(self):
        assert RegisterFile(base_pool=2, enlarged_pool=True).pool_size == 4
        assert RegisterFile(base_pool=2, enlarged_pool=False).pool_size == 2

    def test_pool_registers_flagged(self):
        rf = RegisterFile()
        for reg in rf.spill_pool(RegClass.FP):
            assert reg.is_spill_pool
        for reg in rf.allocatable(RegClass.FP):
            assert not reg.is_spill_pool

    def test_pool_disjoint_from_allocatable(self):
        rf = RegisterFile()
        pool = set(rf.spill_pool(RegClass.INT))
        allocatable = set(rf.allocatable(RegClass.INT))
        assert not pool & allocatable

    def test_fifo_spreads_pool_usage(self):
        """With FIFO, consecutive reloads use different pool registers."""
        block = BasicBlock("b")
        regs = [VirtualReg(k, RegClass.FP) for k in range(6)]
        for k, reg in enumerate(regs):
            block.append(load(reg, A.displaced(k)))
        acc = regs[0]
        for index, reg in enumerate(regs[1:]):
            fresh = VirtualReg(99 + index, RegClass.FP)
            block.append(alu(Opcode.FADD, fresh, (acc, reg)))
            acc = fresh
        block.append(store(acc, A.displaced(9)))

        fifo = allocate_block(block, RegisterFile(n_int=2, n_fp=2, fifo_pool=True))
        fixed = allocate_block(block, RegisterFile(n_int=2, n_fp=2, fifo_pool=False))

        def pool_sequence(result):
            return [
                inst.defs[0]
                for inst in result.block
                if inst.is_spill and inst.is_load
            ]

        fifo_seq = pool_sequence(fifo)
        fixed_seq = pool_sequence(fixed)
        assert len(set(fifo_seq)) > 1
        # Fixed-order reuses the earliest free register more often.
        assert len(set(fifo_seq)) >= len(set(fixed_seq))
