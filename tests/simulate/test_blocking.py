"""Tests for the conventional blocking-loads processor (Section 1's
baseline hardware, which makes load scheduling pointless)."""

from repro.core import BalancedScheduler, TraditionalScheduler
from repro.ir import MemRef, Opcode, RegClass, VirtualReg, alu, load
from repro.machine import BLOCKING, UNLIMITED
from repro.simulate import simulate_block
from tests.support.generator import random_block

A = MemRef(region="A", base=None, offset=0, affine_coeff=0)


def padded_load(gap):
    block = [load(VirtualReg(0, RegClass.FP), A)]
    for k in range(gap):
        block.append(alu(Opcode.ADD, VirtualReg(100 + k), ()))
    block.append(
        alu(Opcode.FADD, VirtualReg(1, RegClass.FP), (VirtualReg(0, RegClass.FP),))
    )
    return block


class TestBlockingSemantics:
    def test_stalls_full_latency_at_every_load(self):
        result = simulate_block(padded_load(0), [6], BLOCKING)
        assert result.interlock_cycles == 5

    def test_padding_does_not_help(self):
        """The defining property: independent work cannot overlap a
        load, so schedules are irrelevant."""
        unpadded = simulate_block(padded_load(0), [6], BLOCKING)
        padded = simulate_block(padded_load(4), [6], BLOCKING)
        assert (
            padded.cycles - padded.instructions
            == unpadded.cycles - unpadded.instructions
        )

    def test_unit_latency_free(self):
        result = simulate_block(padded_load(2), [1], BLOCKING)
        assert result.interlock_cycles == 0

    def test_runtime_is_schedule_independent(self, rng):
        """Any two valid schedules of a block run in the same time on
        blocking hardware with identical latency draws."""
        for _ in range(10):
            block = random_block(rng, n_instructions=18)
            n = sum(1 for i in block if i.is_load)
            latencies = rng.integers(1, 12, size=n)
            runtimes = set()
            for policy in (BalancedScheduler(), TraditionalScheduler(2),
                           TraditionalScheduler(9)):
                scheduled = policy.schedule_block(block).block
                # Latencies follow load *identity*, not position: remap
                # by original ident order.
                order = [i for i in scheduled if i.is_load]
                original = [i for i in block if i.is_load]
                ident_latency = {
                    inst.ident: int(latencies[k])
                    for k, inst in enumerate(original)
                }
                remapped = [ident_latency[i.ident] for i in order]
                result = simulate_block(
                    scheduled.instructions, remapped, BLOCKING
                )
                runtimes.add(result.cycles)
            assert len(runtimes) == 1

    def test_blocking_never_faster_than_nonblocking(self, rng):
        for _ in range(10):
            block = random_block(rng, n_instructions=15)
            n = sum(1 for i in block if i.is_load)
            latencies = rng.integers(1, 20, size=n)
            nonblocking = simulate_block(block.instructions, latencies, UNLIMITED)
            blocking = simulate_block(block.instructions, latencies, BLOCKING)
            assert blocking.cycles >= nonblocking.cycles

    def test_identity_still_holds(self):
        result = simulate_block(padded_load(3), [9], BLOCKING)
        assert result.cycles == result.instructions + result.interlock_cycles
