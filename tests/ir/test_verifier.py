"""Unit tests for the IR verifier."""

import pytest

from repro.ir.block import BasicBlock
from repro.ir.instructions import Instruction, Opcode, alu, load, nop
from repro.ir.operands import MemRef, VirtualReg
from tests.support.verifier import VerificationError, verify_block

A = MemRef(region="A", base=None, offset=0, affine_coeff=0)


def test_clean_block_passes():
    block = BasicBlock("b")
    block.append(load(VirtualReg(0), A))
    block.append(alu(Opcode.ADD, VirtualReg(1), (VirtualReg(0),)))
    verify_block(block)


def test_use_before_def_rejected():
    block = BasicBlock("b")
    block.append(alu(Opcode.ADD, VirtualReg(1), (VirtualReg(0),)))
    with pytest.raises(VerificationError, match="undefined register"):
        verify_block(block)


def test_live_in_excuses_external_values():
    block = BasicBlock("b", live_in=[VirtualReg(0)])
    block.append(alu(Opcode.ADD, VirtualReg(1), (VirtualReg(0),)))
    verify_block(block)


def test_strict_defs_off_allows_it():
    block = BasicBlock("b")
    block.append(alu(Opcode.ADD, VirtualReg(1), (VirtualReg(0),)))
    verify_block(block, strict_defs=False)


def test_load_must_define():
    bad = Instruction(Opcode.LOAD, mem=A)
    block = BasicBlock("b")
    block.append(bad)
    with pytest.raises(VerificationError, match="exactly 1"):
        verify_block(block)


def test_load_needs_memory_operand():
    bad = Instruction(Opcode.LOAD, defs=(VirtualReg(0),))
    block = BasicBlock("b")
    block.append(bad)
    with pytest.raises(VerificationError, match="memory operand"):
        verify_block(block)


def test_store_must_not_define():
    bad = Instruction(
        Opcode.STORE, defs=(VirtualReg(0),), uses=(VirtualReg(1),), mem=A
    )
    block = BasicBlock("b", live_in=[VirtualReg(1)])
    block.append(bad)
    with pytest.raises(VerificationError, match="must not define"):
        verify_block(block)


def test_terminator_must_be_last():
    block = BasicBlock("b")
    block.append(Instruction(Opcode.RET))
    block.append(nop())
    with pytest.raises(VerificationError, match="terminator"):
        verify_block(block)


def test_duplicate_ident_rejected():
    block = BasicBlock("b")
    inst = load(VirtualReg(0), A)
    block.append(inst)
    block.append(inst)  # same object, same ident
    with pytest.raises(VerificationError, match="duplicate ident"):
        verify_block(block)
