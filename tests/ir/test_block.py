"""Unit tests for BasicBlock / Function / Program."""

import pytest

from repro.ir.block import BasicBlock, Function, Program
from repro.ir.instructions import Opcode, alu, load, nop, store
from repro.ir.operands import MemRef, RegClass, VirtualReg

A = MemRef(region="A", base=None, offset=0, affine_coeff=0)


def small_block(name="b", freq=2.0):
    block = BasicBlock(name, frequency=freq)
    block.append(load(VirtualReg(0), A))
    block.append(alu(Opcode.ADD, VirtualReg(1), (VirtualReg(0),)))
    block.append(store(VirtualReg(1), A.displaced(1)))
    return block


class TestBasicBlock:
    def test_len_and_iter(self):
        block = small_block()
        assert len(block) == 3
        assert [i.opcode for i in block] == [Opcode.LOAD, Opcode.ADD, Opcode.STORE]

    def test_indexing(self):
        block = small_block()
        assert block[0].is_load
        assert block[-1].is_store

    def test_loads_and_stores(self):
        block = small_block()
        assert len(block.loads) == 1
        assert len(block.stores) == 1

    def test_count_spills(self):
        block = small_block()
        assert block.count_spills() == 0
        block.append(load(VirtualReg(2), A, tag="spill"))
        assert block.count_spills() == 1

    def test_without_nops(self):
        block = small_block()
        block.append(nop())
        cleaned = block.without_nops()
        assert len(cleaned) == 3
        assert len(block) == 4  # original untouched
        assert cleaned.frequency == block.frequency

    def test_replaced_preserves_metadata(self):
        block = small_block(freq=7.5)
        block.live_in.append(VirtualReg(9))
        block.live_out.append(VirtualReg(1))
        replaced = block.replaced(list(reversed(block.instructions)))
        assert replaced.frequency == 7.5
        assert replaced.live_in == [VirtualReg(9)]
        assert replaced.live_out == [VirtualReg(1)]
        assert replaced[0].is_store

    def test_str_contains_frequency(self):
        assert "freq=2" in str(small_block())


class TestFunction:
    def test_new_vreg_unique_and_classed(self):
        fn = Function("f")
        a = fn.new_vreg()
        b = fn.new_vreg(RegClass.FP)
        assert a != b
        assert a.rclass is RegClass.INT
        assert b.rclass is RegClass.FP

    def test_block_lookup(self):
        fn = Function("f")
        fn.add_block(BasicBlock("entry"))
        fn.add_block(BasicBlock("loop"))
        assert fn.block("loop").name == "loop"
        with pytest.raises(KeyError):
            fn.block("missing")


class TestProgram:
    def test_function_lookup(self):
        prog = Program("p")
        prog.add_function(Function("f"))
        assert prog.function("f").name == "f"
        with pytest.raises(KeyError):
            prog.function("g")

    def test_all_blocks(self):
        prog = Program("p")
        f1, f2 = Function("f1"), Function("f2")
        f1.add_block(small_block("a"))
        f2.add_block(small_block("b"))
        f2.add_block(small_block("c"))
        prog.add_function(f1)
        prog.add_function(f2)
        assert [b.name for b in prog.all_blocks()] == ["a", "b", "c"]

    def test_total_instruction_count(self):
        prog = Program("p")
        fn = Function("f")
        fn.add_block(small_block("a", freq=10.0))  # 3 instructions
        fn.add_block(small_block("b", freq=1.0))
        prog.add_function(fn)
        assert prog.total_instruction_count(weighted=True) == pytest.approx(33.0)
        assert prog.total_instruction_count(weighted=False) == 6.0
