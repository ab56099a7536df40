"""Scalar and batch simulators reject malformed input identically.

The batch simulator advertises itself as a drop-in replacement for the
per-run scalar loop, and callers (the experiment engine, the trace
simulator) catch errors by type and surface messages to users -- so
the two paths must agree on *which* exception each malformed input
raises and on the exact message, for every processor model including
the vectorized superscalar kernel.  Extra trailing latencies are explicitly
allowed in both paths (callers may share one oversized sample buffer
across blocks) and must not change results.
"""

import numpy as np
import pytest

from repro.ir.instructions import Opcode, alu, load, nop
from repro.ir.operands import MemRef, RegClass, VirtualReg
from repro.machine.processor import (
    BLOCKING,
    LEN_8,
    MAX_8,
    UNLIMITED,
    superscalar,
)
from repro.simulate.simulator import LatencyOverrunError, simulate_block
from repro.simulate.batch import simulate_block_batch

A = MemRef(region="A", base=None, offset=0, affine_coeff=0)

PROCESSORS = [
    UNLIMITED,
    MAX_8,
    LEN_8,
    BLOCKING,
    superscalar(2),
    superscalar(4),
    superscalar(8, MAX_8),
]

RUNS = 3


def three_load_block():
    """Three loads (one behind a NOP) with consumers between them."""
    r = lambda k: VirtualReg(k, RegClass.FP)
    return [
        load(r(0), A),
        alu(Opcode.FADD, r(10), (r(0),)),
        load(r(1), A.displaced(1)),
        nop(),
        load(r(2), A.displaced(2)),
        alu(Opcode.FADD, r(11), (r(1), r(2))),
    ]


def raises_identically(scalar_fn, batch_fn, expected_type):
    """Both paths raise ``expected_type`` with the same ``str()``."""
    with pytest.raises(expected_type) as scalar_exc:
        scalar_fn()
    with pytest.raises(expected_type) as batch_exc:
        batch_fn()
    assert str(scalar_exc.value) == str(batch_exc.value)
    return str(scalar_exc.value)


@pytest.mark.parametrize("processor", PROCESSORS, ids=lambda p: p.name)
class TestUnderrun:
    def test_too_few_latencies_same_error_and_message(self, processor):
        block = three_load_block()
        message = raises_identically(
            lambda: simulate_block(block, [4], processor),
            lambda: simulate_block_batch(
                block, np.full((RUNS, 1), 4, dtype=np.int64), processor
            ),
            LatencyOverrunError,
        )
        # Totals-based: names the block's load count, not how far the
        # simulation got before running out.
        assert message == "3 loads but only 1 latencies"

    def test_empty_latencies(self, processor):
        block = three_load_block()
        message = raises_identically(
            lambda: simulate_block(block, [], processor),
            lambda: simulate_block_batch(
                block, np.zeros((RUNS, 0), dtype=np.int64), processor
            ),
            LatencyOverrunError,
        )
        assert message == "3 loads but only 0 latencies"

    def test_underrun_raised_before_simulation(self, processor):
        """The error fires eagerly, even when no run would reach the
        missing latency (zero runs in the batch)."""
        block = three_load_block()
        with pytest.raises(LatencyOverrunError):
            simulate_block_batch(
                block, np.zeros((0, 2), dtype=np.int64), processor
            )


@pytest.mark.parametrize("processor", PROCESSORS, ids=lambda p: p.name)
class TestNegativeLatency:
    def test_negative_latency_same_error_and_message(self, processor):
        block = three_load_block()
        batch = np.full((RUNS, 3), 4, dtype=np.int64)
        batch[1, 2] = -7
        message = raises_identically(
            lambda: simulate_block(block, [4, 4, -7], processor),
            lambda: simulate_block_batch(block, batch, processor),
            ValueError,
        )
        assert message == "negative load latency -7 at load 2"

    def test_batch_reports_first_bad_run_first_bad_load(self, processor):
        """With several negatives the batch names the one the scalar
        path would hit first: earliest run, then earliest load."""
        block = three_load_block()
        batch = np.full((RUNS, 3), 4, dtype=np.int64)
        batch[2, 0] = -1
        batch[1, 2] = -9
        batch[1, 1] = -5
        with pytest.raises(ValueError) as exc:
            simulate_block_batch(block, batch, processor)
        assert str(exc.value) == "negative load latency -5 at load 1"

    def test_negative_in_ignored_extra_column_is_allowed(self, processor):
        """Validation covers only the latencies loads will consume."""
        block = three_load_block()
        scalar = simulate_block(block, [4, 4, 4, -1], processor)
        assert scalar.cycles > 0
        batch = np.full((RUNS, 4), 4, dtype=np.int64)
        batch[:, 3] = -1
        result = simulate_block_batch(block, batch, processor)
        assert (result.cycles == scalar.cycles).all()


@pytest.mark.parametrize("processor", PROCESSORS, ids=lambda p: p.name)
class TestExtraLatencies:
    def test_extra_latencies_ignored_identically(self, processor):
        block = three_load_block()
        exact = simulate_block(block, [4, 2, 9], processor)
        extra = simulate_block(block, [4, 2, 9, 30, 30], processor)
        assert extra == exact

        exact_batch = simulate_block_batch(
            block, np.array([[4, 2, 9]] * RUNS, dtype=np.int64), processor
        )
        extra_batch = simulate_block_batch(
            block,
            np.array([[4, 2, 9, 30, 30]] * RUNS, dtype=np.int64),
            processor,
        )
        assert (extra_batch.cycles == exact_batch.cycles).all()
        assert (extra_batch.interlocks == exact_batch.interlocks).all()
        assert extra_batch.instructions == exact_batch.instructions
        assert (exact_batch.cycles == exact.cycles).all()


def test_one_dimensional_latencies_still_rejected():
    """The batch-only shape check (no scalar analogue) is unchanged."""
    with pytest.raises(ValueError, match="runs, n_loads"):
        simulate_block_batch(
            three_load_block(), np.zeros(3, dtype=np.int64), UNLIMITED
        )
