"""Unit tests for the alias models (Section 4.2 semantics)."""

from repro.analysis.alias import SPILL_REGION_PREFIX, AliasModel, may_alias
from repro.ir.operands import MemRef, VirtualReg

BASE = VirtualReg(0)
OTHER = VirtualReg(1)


def ref(region="A", base=BASE, offset=0, coeff=1):
    return MemRef(region=region, base=base, offset=offset, affine_coeff=coeff)


class TestSameRegion:
    def test_same_offset_aliases(self):
        assert may_alias(ref(offset=2), ref(offset=2), AliasModel.FORTRAN)
        assert may_alias(ref(offset=2), ref(offset=2), AliasModel.C_CONSERVATIVE)

    def test_distinct_constant_offsets_disambiguated(self):
        for model in AliasModel:
            assert not may_alias(ref(offset=1), ref(offset=2), model)

    def test_different_base_conservative(self):
        assert may_alias(ref(base=BASE), ref(base=OTHER))

    def test_different_coeff_conservative(self):
        assert may_alias(ref(coeff=1), ref(coeff=2))

    def test_unknown_coeff_conservative(self):
        assert may_alias(ref(coeff=None), ref(coeff=None))
        assert may_alias(ref(coeff=None, offset=0), ref(coeff=1, offset=5))


class TestCrossRegion:
    def test_fortran_regions_never_alias(self):
        assert not may_alias(ref("A"), ref("B"), AliasModel.FORTRAN)

    def test_c_regions_may_alias(self):
        assert may_alias(ref("A"), ref("B"), AliasModel.C_CONSERVATIVE)

    def test_spill_slots_never_alias_user_memory(self):
        spill = ref(SPILL_REGION_PREFIX, base=None, coeff=0)
        user = ref("A")
        assert not may_alias(spill, user, AliasModel.C_CONSERVATIVE)
        assert not may_alias(user, spill, AliasModel.C_CONSERVATIVE)

    def test_distinct_spill_slots_disambiguated(self):
        a = ref(SPILL_REGION_PREFIX, base=None, offset=0, coeff=0)
        b = ref(SPILL_REGION_PREFIX, base=None, offset=1, coeff=0)
        assert not may_alias(a, b)
        assert may_alias(a, a)


class TestMustAlias:
    def test_must_implies_may(self):
        """Identical references (provably the same location) may alias."""
        a, b = ref(offset=5), ref(offset=5)
        assert may_alias(a, b)
