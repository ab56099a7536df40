"""Property tests pinning the vectorized superscalar batch kernel.

The broad scalar-vs-batch sweeps live in ``test_batch_equivalence.py``
and ``test_fuzz_equivalence.py``; this file pins the *edge* shapes of
the multi-issue model:

* width >= block length degenerates to the dataflow limit -- widening
  further changes nothing;
* ``superscalar(1)`` is semantically UNLIMITED (same dispatch path,
  identical results on both simulators);
* empty blocks, all-NOP blocks and ``runs = 0`` batches;
* malformed-input parity with the scalar simulator (same exception
  types and messages), asserted *before* any fast path runs -- even a
  zero-run batch must reject an underrun.
"""

import numpy as np
import pytest

from repro.ir.instructions import Opcode, alu, load, nop
from repro.ir.operands import MemRef, RegClass, VirtualReg
from repro.machine.processor import (
    MAX_8,
    ProcessorModel,
    UNLIMITED,
    superscalar,
)
from repro.simulate.simulator import LatencyOverrunError, simulate_block
from repro.simulate.batch import simulate_block_batch
from repro.simulate.rng import spawn
from tests.support.generator import random_block

A = MemRef(region="A", base=None, offset=0, affine_coeff=0)

WIDTHS = (2, 4, 8)
RUNS = 6


def _reg(k):
    return VirtualReg(k, RegClass.FP)


def _latencies(block, seed, runs=RUNS):
    n_loads = sum(1 for i in block.instructions if i.is_load)
    rng = spawn("superscalar-edge", seed)
    return rng.integers(0, 12, size=(runs, n_loads)).astype(np.int64)


def _assert_matches_scalar(instructions, latencies, processor):
    batch = simulate_block_batch(instructions, latencies, processor)
    for run in range(latencies.shape[0]):
        scalar = simulate_block(
            instructions, [int(x) for x in latencies[run]], processor
        )
        assert int(batch.cycles[run]) == scalar.cycles
        assert int(batch.interlocks[run]) == scalar.interlock_cycles
        assert batch.instructions == scalar.instructions
    return batch


# ----------------------------------------------------------------------
# Degenerate widths
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(5))
def test_width_at_least_block_length_is_dataflow_limited(seed):
    """Once every instruction fits in one issue group, only dependences
    (and memory constraints) matter: width n, n + 3 and 4n agree
    exactly, per run, and match the scalar simulator."""
    rng = spawn("superscalar-dataflow", seed)
    block = random_block(rng, n_instructions=int(rng.integers(4, 40)))
    executed = sum(
        1 for i in block.instructions if i.opcode is not Opcode.NOP
    )
    latencies = _latencies(block, seed)
    reference = _assert_matches_scalar(
        block.instructions, latencies, superscalar(max(2, executed))
    )
    for wider in (executed + 3, 4 * max(1, executed)):
        batch = _assert_matches_scalar(
            block.instructions, latencies, superscalar(max(2, wider))
        )
        assert (batch.cycles == reference.cycles).all()
        assert (batch.interlocks == reference.interlocks).all()


@pytest.mark.parametrize("seed", range(5))
def test_width_one_via_superscalar_matches_unlimited(seed):
    """``superscalar(1)`` carries a different name but identical
    semantics -- both simulators dispatch on ``issue_width`` and take
    the single-issue path."""
    rng = spawn("superscalar-w1", seed)
    block = random_block(rng, n_instructions=int(rng.integers(4, 60)))
    latencies = _latencies(block, seed)
    via_width = simulate_block_batch(
        block.instructions, latencies, superscalar(1)
    )
    direct = simulate_block_batch(block.instructions, latencies, UNLIMITED)
    assert (via_width.cycles == direct.cycles).all()
    assert (via_width.interlocks == direct.interlocks).all()
    assert via_width.instructions == direct.instructions
    for run in range(RUNS):
        scalar = simulate_block(
            block.instructions, [int(x) for x in latencies[run]],
            superscalar(1),
        )
        assert scalar.cycles == int(direct.cycles[run])


# ----------------------------------------------------------------------
# Empty / all-NOP / zero-run blocks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("width", WIDTHS)
def test_empty_block(width):
    batch = simulate_block_batch(
        [], np.zeros((RUNS, 0), dtype=np.int64), superscalar(width)
    )
    assert (batch.cycles == 0).all()
    assert (batch.interlocks == 0).all()
    assert batch.instructions == 0
    scalar = simulate_block([], [], superscalar(width))
    assert scalar.cycles == 0 and scalar.instructions == 0


@pytest.mark.parametrize("width", WIDTHS)
def test_all_nop_block(width):
    block = [nop(), nop(), nop()]
    batch = simulate_block_batch(
        block, np.zeros((RUNS, 0), dtype=np.int64), superscalar(width)
    )
    assert (batch.cycles == 0).all()
    assert (batch.interlocks == 0).all()
    assert batch.instructions == 0
    scalar = simulate_block(block, [], superscalar(width))
    assert scalar.cycles == 0 and scalar.interlock_cycles == 0


@pytest.mark.parametrize("width", (1,) + WIDTHS)
def test_zero_runs_shapes_and_instruction_count(width):
    """A zero-run batch returns empty per-run vectors but still counts
    the executed (non-NOP) instructions -- identically for every
    width, single-issue included."""
    block = [
        load(_reg(0), A),
        nop(),
        alu(Opcode.FADD, _reg(1), (_reg(0),)),
    ]
    batch = simulate_block_batch(
        block, np.zeros((0, 1), dtype=np.int64), superscalar(width)
    )
    assert batch.cycles.shape == (0,)
    assert batch.interlocks.shape == (0,)
    assert batch.instructions == 2


# ----------------------------------------------------------------------
# Malformed-input parity (before any fast path)
# ----------------------------------------------------------------------
MALFORMED_PROCESSORS = [
    superscalar(4),
    superscalar(8),
    superscalar(4, MAX_8),
    ProcessorModel("LEN-3x8", max_load_cycles=3, issue_width=8),
]


def _two_load_block():
    return [
        load(_reg(0), A),
        load(_reg(1), A.displaced(1)),
        alu(Opcode.FADD, _reg(2), (_reg(0), _reg(1))),
    ]


@pytest.mark.parametrize(
    "processor", MALFORMED_PROCESSORS, ids=lambda p: p.name
)
class TestMalformedParity:
    def test_underrun_same_type_and_message(self, processor):
        block = _two_load_block()
        with pytest.raises(LatencyOverrunError) as scalar_exc:
            simulate_block(block, [3], processor)
        with pytest.raises(LatencyOverrunError) as batch_exc:
            simulate_block_batch(
                block, np.full((RUNS, 1), 3, dtype=np.int64), processor
            )
        assert str(scalar_exc.value) == str(batch_exc.value)
        assert str(batch_exc.value) == "2 loads but only 1 latencies"

    def test_underrun_fires_before_fast_path_even_with_zero_runs(
        self, processor
    ):
        block = _two_load_block()
        with pytest.raises(LatencyOverrunError):
            simulate_block_batch(
                block, np.zeros((0, 1), dtype=np.int64), processor
            )

    def test_negative_latency_same_type_and_message(self, processor):
        block = _two_load_block()
        batch = np.full((RUNS, 2), 3, dtype=np.int64)
        batch[0, 1] = -4
        with pytest.raises(ValueError) as scalar_exc:
            simulate_block(block, [3, -4], processor)
        with pytest.raises(ValueError) as batch_exc:
            simulate_block_batch(block, batch, processor)
        assert str(scalar_exc.value) == str(batch_exc.value)
        assert str(batch_exc.value) == "negative load latency -4 at load 1"
