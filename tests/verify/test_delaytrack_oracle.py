"""Mutation tests for the delay-tracking issue-admissibility check.

The oracle restates the adaptive front end's contract from the IR data
model alone; its teeth are tampered traces: every corruption an
unsound issue engine could plausibly produce (an instruction issued
before its operand's data returns, a reordered hardware-constrained
pair, an over-packed issue group, a dropped or duplicated issue) must
raise at least one violation, while every genuine engine trace -- at
any table size, width and memory family -- must be clean.
"""

import pytest

from repro.ir.operands import MemRef, RegClass, VirtualReg
from repro.ir.instructions import Instruction, Opcode, alu, load, nop, store
from repro.machine.processor import (
    BLOCKING,
    LEN_8,
    MAX_8,
    UNLIMITED,
    delay_tracking,
    superscalar,
)
from repro.simulate.rng import spawn
from repro.simulate.simulator import delaytrack_issue_trace, simulate_block
from repro.verify.oracle import check_delaytrack_issue, hardware_ordered_pairs
from tests.support.generator import random_block

A = MemRef(region="A", base=None, offset=0, affine_coeff=0)


def _reg(k):
    return VirtualReg(k, RegClass.FP)


def _chain_block():
    """load -> consumer, load -> consumer: the canonical reorder bait."""
    r0, r1, r2, r3 = (_reg(k) for k in range(4))
    return [
        load(r0, A, tag="x"),
        alu(Opcode.FADD, r1, (r0, r0)),
        load(r2, A.displaced(1), tag="y"),
        alu(Opcode.FADD, r3, (r2, r2)),
    ]


def _trace(instructions, latencies, processor):
    return delaytrack_issue_trace(instructions, latencies, processor)


# ----------------------------------------------------------------------
# Genuine traces are clean
# ----------------------------------------------------------------------
@pytest.mark.parametrize("table", [0, 1, 2, 8, 10**6])
@pytest.mark.parametrize(
    "base",
    [UNLIMITED, MAX_8, LEN_8, BLOCKING, superscalar(2), superscalar(4, MAX_8)],
    ids=lambda p: p.name,
)
def test_engine_traces_are_admissible(table, base):
    processor = delay_tracking(table, base)
    for seed in range(6):
        rng = spawn("dt-oracle", table, base.name, seed)
        block = random_block(rng, n_instructions=int(rng.integers(4, 30)))
        n_loads = sum(1 for i in block.instructions if i.is_load)
        latencies = [int(x) for x in rng.integers(1, 40, size=n_loads)]
        trace = _trace(block.instructions, latencies, processor)
        assert check_delaytrack_issue(
            block.instructions, latencies, processor, trace
        ) == []


def test_trace_agrees_with_simulation_accounting():
    """The trace's last issue cycle is consistent with the reported
    cycle count (every issue happens strictly inside the block)."""
    processor = delay_tracking(8)
    block = _chain_block()
    latencies = [10, 2]
    trace = _trace(block, latencies, processor)
    result = simulate_block(block, latencies, processor)
    assert max(cycle for _, cycle in trace) < result.cycles
    assert len(trace) == result.instructions


def test_nops_are_invisible_to_the_trace():
    block = _chain_block()
    padded = [block[0], nop(), block[1], nop(), block[2], block[3]]
    processor = delay_tracking(8)
    trace = _trace(padded, [10, 2], processor)
    assert sorted(pos for pos, _ in trace) == [0, 2, 4, 5]
    assert check_delaytrack_issue(padded, [10, 2], processor, trace) == []


# ----------------------------------------------------------------------
# Tampered traces must be rejected
# ----------------------------------------------------------------------
def _violation_rules(violations):
    return {v.rule for v in violations}


def _check(instructions, latencies, processor, trace):
    """The oracle's verdict on ``trace``, asserted identical when the
    caller builds the ordered pairs once (as the study does, one list
    per block shared by its table replays)."""
    violations = check_delaytrack_issue(
        instructions, latencies, processor, trace
    )
    executed = [i for i in instructions if i.opcode is not Opcode.NOP]
    assert check_delaytrack_issue(
        instructions, latencies, processor, trace,
        ordered_pairs=hardware_ordered_pairs(executed),
    ) == violations
    return violations


def test_rejects_issue_before_data_returns():
    processor = delay_tracking(8)
    block = _chain_block()
    latencies = [10, 2]
    trace = _trace(block, latencies, processor)
    early = [
        (pos, cycle if pos != 1 else 1) for pos, cycle in trace
    ]
    early.sort(key=lambda entry: entry[1])
    violations = _check(block, latencies, processor, early)
    assert "dependence" in _violation_rules(violations)


def test_rejects_reordered_hardware_pair():
    """A store and a later load of the same cell must never swap: the
    hardware has no alias knowledge."""
    r0, r1 = _reg(0), _reg(1)
    block = [
        store(r0, A),
        load(r1, A, tag="reload"),
    ]
    processor = delay_tracking(8)
    latencies = [1]
    trace = _trace(block, latencies, processor)
    assert [pos for pos, _ in trace] == [0, 1]
    swapped = [(trace[1][0], trace[0][1]), (trace[0][0], trace[1][1])]
    violations = _check(block, latencies, processor, swapped)
    assert "dependence" in _violation_rules(violations)


def test_rejects_reordered_pair_between_nops():
    """Ordered pairs index the executed instructions; the violation
    names source positions, which NOPs shift."""
    r0, r1 = _reg(0), _reg(1)
    block = [nop(), store(r0, A), nop(), load(r1, A, tag="reload")]
    processor = delay_tracking(8)
    trace = _trace(block, [1], processor)
    assert [pos for pos, _ in trace] == [1, 3]
    swapped = [(3, trace[0][1]), (1, trace[1][1])]
    violations = _check(block, [1], processor, swapped)
    assert [v.where for v in violations if v.rule == "dependence"] == [
        (1, 3)
    ]


def test_rejects_overpacked_issue_group():
    processor = delay_tracking(8, superscalar(2))
    r = [_reg(k) for k in range(6)]
    block = [alu(Opcode.FADD, r[k + 3], (r[k], r[k])) for k in range(3)]
    trace = [(0, 0), (1, 0), (2, 0)]  # three issues, two slots
    violations = _check(block, [], processor, trace)
    assert any("2-wide" in v.detail for v in violations)


def test_rejects_width_one_dual_issue():
    processor = delay_tracking(8)
    r0, r1, r2, r3 = (_reg(k) for k in range(4))
    block = [alu(Opcode.FADD, r2, (r0, r0)), alu(Opcode.FADD, r3, (r1, r1))]
    violations = _check(
        block, [], processor, [(0, 0), (1, 0)]
    )
    assert any("1-wide" in v.detail for v in violations)


def test_rejects_dropped_and_duplicated_issues():
    processor = delay_tracking(8)
    block = _chain_block()
    latencies = [4, 4]
    trace = _trace(block, latencies, processor)
    dropped = trace[:-1]
    assert _check(block, latencies, processor, dropped)
    duplicated = trace + [trace[0]]
    assert _check(block, latencies, processor, duplicated)


def test_rejects_regressing_cycles_and_negative_cycles():
    processor = delay_tracking(8)
    r0, r1, r2, r3 = (_reg(k) for k in range(4))
    block = [alu(Opcode.FADD, r2, (r0, r0)), alu(Opcode.FADD, r3, (r1, r1))]
    regressed = [(0, 5), (1, 0)]
    violations = _check(block, [], processor, regressed)
    assert any("regress" in v.detail for v in violations)
    negative = [(0, -1), (1, 0)]
    violations = _check(block, [], processor, negative)
    assert any("negative" in v.detail for v in violations)


def test_rejects_latency_underrun():
    processor = delay_tracking(8)
    block = _chain_block()
    violations = _check(
        block, [3], processor, [(0, 0), (1, 3), (2, 4), (3, 7)]
    )
    assert any("2 loads but only 1" in v.detail for v in violations)


# ----------------------------------------------------------------------
# The restated pair relation
# ----------------------------------------------------------------------
def test_hardware_pairs_are_alias_blind():
    """Distinct cells in distinct regions still order when a store is
    involved: the issue hardware cannot prove independence."""
    B = MemRef(region="B", base=None, offset=7, affine_coeff=0)
    r0, r1 = _reg(0), _reg(1)
    block = [store(r0, A), load(r1, B, tag="other")]
    assert (0, 1) in hardware_ordered_pairs(block)


def test_hardware_pairs_keep_terminator_last():
    r0, r1 = _reg(0), _reg(1)
    branch = Instruction(opcode=Opcode.BRANCH, defs=(), uses=())
    block = [alu(Opcode.FADD, r1, (r0, r0)), branch]
    assert (0, 1) in hardware_ordered_pairs(block)


def test_independent_alu_pair_is_unordered():
    r = [_reg(k) for k in range(4)]
    block = [alu(Opcode.FADD, r[2], (r[0], r[0])), alu(Opcode.FADD, r[3], (r[1], r[1]))]
    assert hardware_ordered_pairs(block) == []
