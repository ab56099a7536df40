"""Property test: the batch simulator IS the scalar simulator.

``simulate_block_batch`` replaces the per-run Python loop of
``sample_block`` (see docs/performance.md), so its per-run cycle and
interlock counts must match ``simulate_block`` *exactly* -- not
statistically -- for every processor model and memory family.  Random
generated blocks give the cross-product real coverage: deep dependence
chains, wide independent sections, spills, NOPs, and load densities
the hand-written simulator tests never reach.
"""

import numpy as np
import pytest

from repro.machine.processor import (
    BLOCKING,
    LEN_8,
    MAX_8,
    ProcessorModel,
    UNLIMITED,
    superscalar,
)
from repro.machine.config import SYSTEMS_BY_NAME
from repro.machine.memory import FixedMemory
from repro.simulate.simulator import simulate_block
from repro.simulate.batch import BatchSimResult, simulate_block_batch
from repro.simulate.program import sample_block
from repro.simulate.rng import spawn
from tests.support.generator import random_block

#: All processor models the paper uses, plus tighter MAX/LEN variants
#: (small limits bind far more often than the paper's 8) and the
#: Section 6 superscalar extension at widths 2/4/8 -- including
#: width-crossed MAX/LEN limits -- which exercises the vectorized
#: multi-issue kernel (there is no scalar fallback in the batch path).
PROCESSORS = [
    UNLIMITED,
    MAX_8,
    LEN_8,
    BLOCKING,
    ProcessorModel("MAX-2", max_outstanding_loads=2),
    ProcessorModel("LEN-3", max_load_cycles=3),
    ProcessorModel("LEN-3+MAX-2", max_load_cycles=3, max_outstanding_loads=2),
    superscalar(2),
    superscalar(4),
    superscalar(8),
    superscalar(4, MAX_8),
    superscalar(4, LEN_8),
    ProcessorModel("MAX-2x4", max_outstanding_loads=2, issue_width=4),
    ProcessorModel(
        "LEN-3+MAX-2x8",
        max_load_cycles=3,
        max_outstanding_loads=2,
        issue_width=8,
    ),
]

#: One memory system per family: cache (bimodal), network (normal),
#: mixed (bimodal-with-normal-tail), fixed (degenerate).
MEMORIES = [
    SYSTEMS_BY_NAME["L80(2,5)"],
    SYSTEMS_BY_NAME["N(2,5)"],
    SYSTEMS_BY_NAME["N(30,5)"],
    SYSTEMS_BY_NAME["L80-N(30,5)"],
    FixedMemory(4),
]

RUNS = 7


def _random_case(seed: int):
    rng = spawn("batch-equivalence", seed)
    block = random_block(rng, n_instructions=int(rng.integers(4, 110)))
    n_loads = sum(1 for i in block.instructions if i.is_load)
    return rng, block, n_loads


@pytest.mark.parametrize("processor", PROCESSORS, ids=lambda p: p.name)
@pytest.mark.parametrize("memory", MEMORIES, ids=lambda m: m.name)
@pytest.mark.parametrize("seed", range(4))
def test_batch_matches_scalar_exactly(processor, memory, seed):
    rng, block, n_loads = _random_case(seed)
    latencies = memory.sample_many(rng, n_loads * RUNS).reshape(RUNS, n_loads)

    batch = simulate_block_batch(block.instructions, latencies, processor)
    assert isinstance(batch, BatchSimResult)
    assert batch.cycles.shape == (RUNS,)
    assert batch.interlocks.shape == (RUNS,)

    for run in range(RUNS):
        scalar = simulate_block(block.instructions, latencies[run], processor)
        assert batch.cycles[run] == scalar.cycles, (
            f"cycles diverge on run {run}: "
            f"batch {batch.cycles[run]} vs scalar {scalar.cycles}"
        )
        assert batch.interlocks[run] == scalar.interlock_cycles, (
            f"interlocks diverge on run {run}: "
            f"batch {batch.interlocks[run]} vs scalar {scalar.interlock_cycles}"
        )
        assert batch.instructions == scalar.instructions


@pytest.mark.parametrize("processor", PROCESSORS, ids=lambda p: p.name)
def test_sample_block_draw_order_unchanged(processor):
    """``sample_block`` must consume the RNG exactly as the scalar loop
    did (one ``sample_many(n_loads * runs)`` draw), or every seeded
    artifact shifts."""
    memory = SYSTEMS_BY_NAME["N(2,5)"]
    _, block, n_loads = _random_case(11)

    samples = sample_block(block, processor, memory, spawn("draws", 1), runs=5)

    reference = spawn("draws", 1)
    latencies = memory.sample_many(reference, n_loads * 5).reshape(5, n_loads)
    for run in range(5):
        scalar = simulate_block(block.instructions, latencies[run], processor)
        assert samples.cycles[run] == scalar.cycles
        assert samples.interlocks[run] == scalar.interlock_cycles


def test_zero_runs():
    _, block, n_loads = _random_case(3)
    empty = np.zeros((0, n_loads), dtype=np.int64)
    batch = simulate_block_batch(block.instructions, empty, UNLIMITED)
    assert batch.cycles.shape == (0,)
    assert batch.interlocks.shape == (0,)


def test_rejects_one_dimensional_latencies():
    _, block, n_loads = _random_case(5)
    with pytest.raises(ValueError, match="runs, n_loads"):
        simulate_block_batch(
            block.instructions, np.zeros(n_loads, dtype=np.int64), UNLIMITED
        )
