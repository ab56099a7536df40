"""The three formulations of the delay-tracking conflict rule agree.

The hardware's ordering constraints -- register true/anti/output
dependences, alias-blind memory pairs with a store, terminators -- are
stated three times, in code that shares nothing:

* :func:`repro.simulate.simulator.conflict_successors`, the scalar
  engine's per-instruction successor lists;
* ``_conflict_matrix`` in :mod:`repro.simulate.batch`, the batch
  kernel's array-built ``(n, n)`` matrix over its padded register rows;
* :func:`repro.verify.oracle.hardware_ordered_pairs`, the admissibility
  oracle's pairwise restatement.

Each is reduced to a set of ``(i, j)`` pairs, ``i < j``, and the sets
must be equal on generated blocks, on every block the delay-tracking
study simulates and on the pinned simulator fixtures.
"""

import glob
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import compile_program
from repro.experiments.delaytrack import _policies
from repro.frontend.lowering import compile_minif
from repro.ir.instructions import Instruction, Opcode, alu, load, store
from repro.ir.operands import MemRef, RegClass, VirtualReg
from repro.machine.config import N_2_5
from repro.simulate.batch import _conflict_matrix, _index_steps
from repro.simulate.rng import spawn
from repro.simulate.simulator import conflict_successors
from repro.verify.oracle import hardware_ordered_pairs
from repro.workloads.perfect import load_program, program_names
from tests.support.generator import random_block

FIXTURES = sorted(glob.glob(
    os.path.join(os.path.dirname(__file__), "fixtures", "*.mf")
))


def _scalar_pairs(instructions):
    return {
        (i, j)
        for i, successors in enumerate(conflict_successors(instructions))
        for j in successors
    }


def _kernel_pairs(instructions):
    """The batch kernel's matrix, built from padded register rows laid
    out as the kernel lays them out (uses padded with ``n_regs``, defs
    with ``n_regs + 1``)."""
    if not instructions:
        return set()
    steps, n_regs = _index_steps(instructions)
    n = len(steps)
    uses_pad = np.full(
        (n, max(1, max(len(s[1]) for s in steps))), n_regs, dtype=np.int64
    )
    defs_pad = np.full(
        (n, max(1, max(len(s[2]) for s in steps))), n_regs + 1,
        dtype=np.int64,
    )
    for k, (_, uses, defs, _) in enumerate(steps):
        uses_pad[k, : len(uses)] = uses
        defs_pad[k, : len(defs)] = defs
    conflict = _conflict_matrix(
        uses_pad,
        defs_pad,
        n_regs + 1,
        np.array([inst.is_mem for inst in instructions], dtype=bool),
        np.array([inst.is_store for inst in instructions], dtype=bool),
        np.array([inst.is_terminator for inst in instructions], dtype=bool),
    )
    later, earlier = np.nonzero(conflict)
    return set(zip(earlier.tolist(), later.tolist()))


def _assert_rules_agree(instructions):
    executed = [i for i in instructions if i.opcode is not Opcode.NOP]
    expected = set(hardware_ordered_pairs(executed))
    assert _scalar_pairs(executed) == expected
    assert _kernel_pairs(executed) == expected
    return expected


@given(st.integers(0, 10_000), st.integers(0, 64))
@settings(max_examples=80, deadline=None)
def test_rules_agree_on_random_blocks(seed, size):
    rng = spawn("conflict-rules", seed)
    _assert_rules_agree(random_block(rng, n_instructions=size).instructions)


@pytest.fixture(scope="module")
def study_blocks():
    """The final blocks of every program under the study's four
    policies: the blocks the delay-tracking study simulates."""
    memory = N_2_5
    policies = _policies(memory, float(memory.optimistic_latencies[0]))
    return [
        block
        for name in program_names()
        for policy in policies.values()
        for block in compile_program(load_program(name), policy).final_blocks
    ]


def test_rules_agree_on_study_blocks(study_blocks):
    assert len(study_blocks) == 22 * 4
    for block in study_blocks:
        _assert_rules_agree(block.instructions)


@pytest.mark.parametrize(
    "path", FIXTURES, ids=[os.path.basename(p) for p in FIXTURES]
)
def test_rules_agree_on_fixtures(path):
    with open(path, encoding="utf-8") as handle:
        program = compile_minif(handle.read())
    for block in program.all_blocks():
        _assert_rules_agree(block.instructions)
    for policy in _policies(N_2_5, 2.0).values():
        for block in compile_program(program, policy).final_blocks:
            _assert_rules_agree(block.instructions)


def _reg(k, rclass=RegClass.FP):
    return VirtualReg(k, rclass)


def test_rules_agree_on_each_conflict_kind():
    """A crafted block hitting every rule: true, anti and output
    register dependences, a based address, load/load (unordered) and
    store pairs across regions, and a terminator."""
    base = _reg(9, RegClass.INT)
    a = MemRef(region="A", base=None, offset=0, affine_coeff=0)
    b = MemRef(region="B", base=base, offset=3, affine_coeff=0)
    r = [_reg(k) for k in range(6)]
    block = [
        load(r[0], a, tag="x"),                    # 0
        load(r[1], b, tag="y"),                    # 1: load/load free
        alu(Opcode.FADD, r[2], (r[0], r[1])),      # 2: true deps
        alu(Opcode.FADD, r[0], (r[3], r[3])),      # 3: anti on r0, output
        store(r[2], b),                            # 4: store vs loads
        alu(Opcode.ADD, base, (base, base)),       # 5: base redefined
        alu(Opcode.FMUL, r[4], (r[5], r[5])),      # 6: independent
        Instruction(opcode=Opcode.BRANCH, defs=(), uses=()),
    ]
    pairs = _assert_rules_agree(block)
    assert (0, 1) not in pairs
    assert {(0, 2), (1, 2), (0, 3), (2, 3), (0, 4), (1, 4), (2, 4)} <= pairs
    assert (1, 5) in pairs and (4, 5) in pairs
    assert not any(6 in pair for pair in pairs if pair != (6, 7))
    assert all((i, 7) in pairs for i in range(7))


def test_rules_agree_on_a_terminator_before_other_work():
    """Either side of a pair may be the terminator."""
    r = [_reg(k) for k in range(3)]
    block = [
        alu(Opcode.FADD, r[0], (r[1], r[1])),
        Instruction(opcode=Opcode.BRANCH, defs=(), uses=()),
        alu(Opcode.FADD, r[2], (r[1], r[1])),
    ]
    assert _assert_rules_agree(block) == {(0, 1), (1, 2)}
