"""Tests for the translation validator (symbolic block equivalence)."""

import pytest

from repro.core import BalancedScheduler, TraditionalScheduler, compile_block
from repro.ir import BasicBlock, MemRef, RegClass, VirtualReg, load, store
from repro.regalloc import RegisterFile
from tests.support.equivalence import (
    EquivalenceError,
    assert_equivalent,
    block_effect,
    equivalent,
)
from tests.support.generator import random_block

A = MemRef(region="A", base=None, offset=0, affine_coeff=0)


def swap_block():
    """Two independent load/store pairs -- safely reorderable."""
    block = BasicBlock("b")
    v0 = VirtualReg(0, RegClass.FP)
    v1 = VirtualReg(1, RegClass.FP)
    block.append(load(v0, A))
    block.append(store(v0, A.displaced(10)))
    block.append(load(v1, A.displaced(1)))
    block.append(store(v1, A.displaced(11)))
    return block


class TestBlockEffect:
    def test_store_events_capture_value_flow(self):
        effect = block_effect(swap_block())
        assert len(effect.stores) == 2
        values = {e.value for e in effect.stores}
        assert len(values) == 2  # two distinct loaded values

    def test_live_out_values(self):
        block = swap_block()
        block.live_out.append(VirtualReg(1, RegClass.FP))
        effect = block_effect(block)
        assert len(effect.live_out) == 1
        assert effect.live_out[0][0] == "load"

    def test_load_version_counts_aliasing_stores(self):
        block = BasicBlock("b", live_in=[VirtualReg(9, RegClass.FP)])
        block.append(store(VirtualReg(9, RegClass.FP), A))
        block.append(load(VirtualReg(0, RegClass.FP), A))
        effect = block_effect(block)
        # The load's value is the post-store version.
        assert block_effect(block).stores[0].version == 0

    def test_spill_traffic_invisible(self):
        from repro.analysis.alias import SPILL_REGION_PREFIX

        block = swap_block()
        spill = MemRef(region=SPILL_REGION_PREFIX, base=None, offset=0, affine_coeff=0)
        with_spill = BasicBlock("b2")
        v0 = VirtualReg(0, RegClass.FP)
        v2 = VirtualReg(2, RegClass.FP)
        with_spill.append(load(v0, A))
        with_spill.append(store(v0, spill, tag="spill"))
        with_spill.append(load(v2, spill, tag="spill"))
        with_spill.append(store(v2, A.displaced(10)))
        v1 = VirtualReg(1, RegClass.FP)
        with_spill.append(load(v1, A.displaced(1)))
        with_spill.append(store(v1, A.displaced(11)))
        assert equivalent(swap_block(), with_spill)


class TestEquivalence:
    def test_identical_blocks(self):
        assert equivalent(swap_block(), swap_block())

    def test_reordered_independent_pairs(self):
        block = swap_block()
        reordered = block.replaced(
            [block[2], block[3], block[0], block[1]]
        )
        assert equivalent(block, reordered)

    def test_changed_store_value_detected(self):
        block = swap_block()
        broken = block.replaced(list(block.instructions))
        # Store the wrong register into the second slot.
        broken.instructions[3] = store(
            VirtualReg(0, RegClass.FP), A.displaced(11)
        )
        assert not equivalent(block, broken)

    def test_dropped_store_detected(self):
        block = swap_block()
        broken = block.replaced(block.instructions[:-1])
        assert not equivalent(block, broken)

    def test_changed_address_detected(self):
        block = swap_block()
        broken = block.replaced(list(block.instructions))
        broken.instructions[1] = store(VirtualReg(0, RegClass.FP), A.displaced(12))
        assert not equivalent(block, broken)

    def test_swapped_aliasing_stores_detected(self):
        """Two stores to the same location must keep their order."""
        base = BasicBlock("b", live_in=[VirtualReg(8, RegClass.FP),
                                        VirtualReg(9, RegClass.FP)])
        base.append(store(VirtualReg(8, RegClass.FP), A))
        base.append(store(VirtualReg(9, RegClass.FP), A))
        swapped = base.replaced([base[1], base[0]])
        assert not equivalent(base, swapped)

    def test_assert_form_raises_with_diagnosis(self):
        block = swap_block()
        broken = block.replaced(block.instructions[:-1])
        with pytest.raises(EquivalenceError, match="store effects differ"):
            assert_equivalent(block, broken)


class TestSchedulingPreservesSemantics:
    @pytest.mark.parametrize("policy_factory", [
        lambda: BalancedScheduler(),
        lambda: TraditionalScheduler(2),
        lambda: TraditionalScheduler(30),
    ])
    def test_suite_blocks(self, policy_factory):
        from repro.workloads import load_program

        for name in ("MDG", "TRACK", "FLO52Q"):
            for block in load_program(name).all_blocks():
                scheduled = policy_factory().schedule_block(block).block
                assert_equivalent(block, scheduled)

    def test_random_blocks_schedule_equivalence(self, rng):
        for _ in range(25):
            block = random_block(rng, n_instructions=24)
            scheduled = BalancedScheduler().schedule_block(block).block
            assert_equivalent(block, scheduled)

    def test_random_blocks_full_pipeline_equivalence(self, rng):
        """Scheduling + register allocation + rescheduling preserves
        the block's memory effect (generous file: live-ins stay in
        registers, so live-out symbols remain comparable)."""
        roomy = RegisterFile(n_int=24, n_fp=24)
        for _ in range(15):
            block = random_block(rng, n_instructions=20)
            compiled = compile_block(
                block, BalancedScheduler(), register_file=roomy
            )
            effect_before = block_effect(block)
            effect_after = block_effect(compiled.final)
            assert (
                effect_before.store_multiset() == effect_after.store_multiset()
            )

    def test_pipeline_with_spills_preserves_stores(self, reduction_block):
        tight = RegisterFile(n_int=6, n_fp=4)
        compiled = compile_block(
            reduction_block, TraditionalScheduler(30), register_file=tight
        )
        assert compiled.spill_count > 0
        before = block_effect(reduction_block).store_multiset()
        after = block_effect(compiled.final).store_multiset()
        assert before == after
