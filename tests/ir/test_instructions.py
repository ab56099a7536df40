"""Unit tests for IR instructions and their constructors."""

from repro.ir import (
    Instruction,
    MemRef,
    Opcode,
    VirtualReg,
    alu,
    li,
    load,
    mov,
    nop,
    store,
)

A0 = MemRef(region="A", base=VirtualReg(0), offset=0)


class TestClassification:
    def test_load(self):
        inst = load(VirtualReg(1), A0)
        assert inst.is_load and not inst.is_store
        assert inst.is_mem

    def test_store(self):
        inst = store(VirtualReg(1), A0)
        assert inst.is_store and not inst.is_load
        assert inst.is_mem

    def test_alu_not_mem(self):
        inst = alu(Opcode.ADD, VirtualReg(2), (VirtualReg(0), VirtualReg(1)))
        assert not inst.is_mem and not inst.is_load and not inst.is_store

    def test_fp_classification(self):
        assert alu(Opcode.FADD, VirtualReg(1), ()).is_fp
        assert not alu(Opcode.ADD, VirtualReg(1), ()).is_fp

    def test_terminators(self):
        assert Instruction(Opcode.BRANCH).is_terminator
        assert Instruction(Opcode.RET).is_terminator
        assert not nop().is_terminator

    def test_spill_tag(self):
        assert load(VirtualReg(1), A0, tag="spill").is_spill
        assert not load(VirtualReg(1), A0).is_spill


class TestRegisterAccessors:
    def test_all_uses_includes_mem_base(self):
        inst = load(VirtualReg(1), A0)
        assert VirtualReg(0) in inst.all_uses()
        assert inst.uses == ()

    def test_store_uses_value_and_base(self):
        inst = store(VirtualReg(3), A0)
        assert set(inst.all_uses()) == {VirtualReg(3), VirtualReg(0)}

    def test_all_regs(self):
        inst = alu(Opcode.ADD, VirtualReg(2), (VirtualReg(0), VirtualReg(1)))
        assert set(inst.all_regs()) == {VirtualReg(0), VirtualReg(1), VirtualReg(2)}

    def test_with_registers_rewrites_mem_base(self):
        inst = load(VirtualReg(1), A0)
        rewritten = inst.with_registers(
            defs=[VirtualReg(9)], uses=[], mem_base=VirtualReg(8)
        )
        assert rewritten.defs == (VirtualReg(9),)
        assert rewritten.mem is not None
        assert rewritten.mem.base == VirtualReg(8)
        # Original untouched.
        assert inst.mem.base == VirtualReg(0)


class TestIdent:
    def test_generation_order_monotonic(self):
        first = nop()
        second = nop()
        assert second.ident > first.ident

    def test_copy_gets_fresh_ident(self):
        inst = load(VirtualReg(1), A0)
        clone = inst.copy()
        assert clone.ident != inst.ident
        assert clone.opcode is inst.opcode


class TestIssueSlots:
    def test_every_instruction_is_one_slot(self):
        for inst in (load(VirtualReg(1), A0), nop(), li(VirtualReg(0), 3)):
            assert inst.issue_slots == 1


class TestConstructors:
    def test_li_has_immediate(self):
        inst = li(VirtualReg(0), 7)
        assert inst.imm is not None and inst.imm.value == 7

    def test_mov(self):
        inst = mov(VirtualReg(1), VirtualReg(0))
        assert inst.defs == (VirtualReg(1),)
        assert inst.uses == (VirtualReg(0),)

    def test_alu_latency_override(self):
        inst = alu(Opcode.FMUL, VirtualReg(1), (), latency=4)
        assert inst.latency == 4

    def test_str_contains_opcode(self):
        assert "load" in str(load(VirtualReg(1), A0))
        assert "spill" in str(load(VirtualReg(1), A0, tag="spill"))
