"""Tests for the instruction-level block simulator."""

import pytest

from repro.ir import (
    BasicBlock,
    MemRef,
    Opcode,
    RegClass,
    VirtualReg,
    alu,
    load,
    nop,
    store,
)
from repro.machine import LEN_8, MAX_8, UNLIMITED, superscalar
from repro.simulate import LatencyOverrunError, interlock_sweep, simulate_block

A = MemRef(region="A", base=None, offset=0, affine_coeff=0)


def load_use_block(gap=0):
    """A load, `gap` fillers, then a consumer of the load."""
    block = [load(VirtualReg(0, RegClass.FP), A)]
    for k in range(gap):
        block.append(alu(Opcode.ADD, VirtualReg(100 + k), ()))
    block.append(
        alu(Opcode.FADD, VirtualReg(1, RegClass.FP), (VirtualReg(0, RegClass.FP),))
    )
    return block


class TestBasicAccounting:
    def test_cycles_equal_instructions_plus_interlocks(self):
        """The paper's identity: runtime = instructions + interlocks."""
        for gap in (0, 1, 3):
            for latency in (1, 2, 5, 9):
                result = simulate_block(load_use_block(gap), [latency])
                assert result.cycles == result.instructions + result.interlock_cycles

    def test_adjacent_use_stalls_latency_minus_one(self):
        result = simulate_block(load_use_block(0), [5])
        assert result.interlock_cycles == 4

    def test_padding_hides_latency(self):
        result = simulate_block(load_use_block(4), [5])
        assert result.interlock_cycles == 0

    def test_unit_latency_never_stalls(self):
        result = simulate_block(load_use_block(0), [1])
        assert result.interlock_cycles == 0

    def test_nops_are_free(self):
        block = load_use_block(0)
        block.insert(1, nop())
        with_nop = simulate_block(block, [5])
        without = simulate_block(load_use_block(0), [5])
        assert with_nop.instructions == without.instructions
        assert with_nop.cycles == without.cycles

    def test_trailing_load_costs_nothing(self):
        """Block-local simulation: an unconsumed load's latency never
        materialises (identically for both schedulers)."""
        block = [load(VirtualReg(0, RegClass.FP), A)]
        assert simulate_block(block, [50]).cycles == 1

    def test_missing_latency_raises(self):
        with pytest.raises(LatencyOverrunError):
            simulate_block(load_use_block(0), [])

    def test_store_waits_for_value(self):
        block = [
            load(VirtualReg(0, RegClass.FP), A),
            store(VirtualReg(0, RegClass.FP), A.displaced(1)),
        ]
        result = simulate_block(block, [4])
        assert result.interlock_cycles == 3

    def test_multicycle_alu_stalls_consumer(self):
        block = [
            alu(Opcode.FMUL, VirtualReg(0, RegClass.FP), (), latency=4),
            alu(Opcode.FADD, VirtualReg(1, RegClass.FP), (VirtualReg(0, RegClass.FP),)),
        ]
        result = simulate_block(block, [])
        assert result.interlock_cycles == 3


class TestMax8:
    def _many_loads(self, n):
        return [
            load(VirtualReg(k, RegClass.FP), A.displaced(k)) for k in range(n)
        ]

    def test_eight_outstanding_free(self):
        result = simulate_block(self._many_loads(8), [100] * 8, MAX_8)
        assert result.interlock_cycles == 0

    def test_ninth_load_blocks(self):
        """'If a ninth load instruction is issued, the processor blocks
        until one of the eight outstanding loads completes.'"""
        result = simulate_block(self._many_loads(9), [100] * 9, MAX_8)
        # Load 0 completes at 100; the ninth issues then.
        assert result.interlock_cycles == 100 - 8

    def test_completed_loads_free_slots(self):
        result = simulate_block(self._many_loads(9), [2] * 9, MAX_8)
        assert result.interlock_cycles == 0

    def test_unlimited_never_blocks(self):
        result = simulate_block(self._many_loads(9), [100] * 9, UNLIMITED)
        assert result.interlock_cycles == 0


class TestLen8:
    def test_short_loads_unaffected(self):
        result = simulate_block(load_use_block(4), [5], LEN_8)
        assert result.interlock_cycles == 0

    def test_long_load_freezes_processor(self):
        """A 12-cycle load blocks the core from cycle 8 after issue."""
        block = load_use_block(8)  # enough fillers to hide 9 cycles
        unlimited = simulate_block(block, [12], UNLIMITED)
        len8 = simulate_block(block, [12], LEN_8)
        assert unlimited.interlock_cycles == 3
        assert len8.interlock_cycles > unlimited.interlock_cycles

    def test_freeze_window_exact(self):
        # load @0 (latency 12) freezes the core over cycles [8, 12):
        # fillers issue at 1..7, the eighth is pushed from 8 to 12.
        block = [load(VirtualReg(0, RegClass.FP), A)]
        for k in range(10):
            block.append(alu(Opcode.ADD, VirtualReg(100 + k), ()))
        result = simulate_block(block, [12], LEN_8)
        assert result.interlock_cycles == 4


class TestSuperscalar:
    def test_width_two_halves_ideal_time(self):
        block = [alu(Opcode.ADD, VirtualReg(100 + k), ()) for k in range(8)]
        wide = simulate_block(block, [], superscalar(2))
        assert wide.cycles == 4

    def test_dependences_still_respected(self):
        result = simulate_block(load_use_block(0), [5], superscalar(4))
        assert result.cycles >= 6  # consumer cannot start before data

    def test_single_issue_width_matches_scalar(self):
        block = load_use_block(3)
        scalar = simulate_block(block, [4], UNLIMITED)
        one_wide = simulate_block(block, [4], superscalar(1))
        assert one_wide.cycles == scalar.cycles


class TestInterlockSweep:
    def test_monotone_in_latency(self, figure1):
        block, _ = figure1
        counts = interlock_sweep(block, range(1, 10))
        assert counts == sorted(counts)

    def test_empty_block(self):
        empty = BasicBlock("e")
        assert interlock_sweep(empty, [1, 2, 3]) == [0, 0, 0]
