"""Unit tests for IR operands."""

import pytest

from repro.ir.operands import Immediate, MemRef, PhysReg, RegClass, VirtualReg


class TestVirtualReg:
    def test_name_int(self):
        assert VirtualReg(3, RegClass.INT).name == "v3"

    def test_name_fp(self):
        assert VirtualReg(7, RegClass.FP).name == "vf7"

    def test_value_equality(self):
        assert VirtualReg(1) == VirtualReg(1)
        assert VirtualReg(1) != VirtualReg(2)
        assert VirtualReg(1, RegClass.INT) != VirtualReg(1, RegClass.FP)

    def test_hashable(self):
        regs = {VirtualReg(1), VirtualReg(1), VirtualReg(2)}
        assert len(regs) == 2

    def test_str_matches_name(self):
        reg = VirtualReg(5, RegClass.FP)
        assert str(reg) == reg.name


class TestPhysReg:
    def test_names(self):
        assert PhysReg(2, RegClass.INT).name == "r2"
        assert PhysReg(4, RegClass.FP).name == "f4"

    def test_spill_pool_flag_distinguishes(self):
        assert PhysReg(1) != PhysReg(1, is_spill_pool=True)

    def test_phys_differs_from_virtual(self):
        assert PhysReg(1) != VirtualReg(1)


class TestImmediate:
    def test_str(self):
        assert str(Immediate(42)) == "#42"

    def test_negative(self):
        assert str(Immediate(-3)) == "#-3"


class TestMemRef:
    def test_str_with_base(self):
        mem = MemRef(region="A", base=VirtualReg(0), offset=2)
        assert str(mem) == "A[v0+2]"

    def test_str_negative_offset(self):
        mem = MemRef(region="A", base=VirtualReg(0), offset=-1)
        assert str(mem) == "A[v0-1]"

    def test_str_without_base(self):
        mem = MemRef(region="S", base=None, offset=3)
        assert str(mem) == "S[0+3]"

    def test_displaced_shifts_offset_only(self):
        mem = MemRef(region="A", base=VirtualReg(0), offset=2, affine_coeff=1)
        moved = mem.displaced(5)
        assert moved.offset == 7
        assert moved.region == mem.region
        assert moved.base == mem.base
        assert moved.affine_coeff == mem.affine_coeff

    def test_frozen(self):
        mem = MemRef(region="A")
        with pytest.raises(AttributeError):
            mem.offset = 9  # type: ignore[misc]
