"""Row-stacking kernel calls: one call on stacked latencies IS the
per-part calls.

``simulate_programs`` (and so every table cell) stacks the latency
rows of every job that runs the same block on the same processor into
one ``simulate_block_batch`` call and splits the result columns back
per job.  That is only sound if a run's column never depends on the
other columns in the call -- including the cross-run shortcuts of the
MAX-n top-k array and the LEN-n freeze-window buffer, which these
tests exercise with parts where the constraint binds in some parts and
not in others.
"""

import numpy as np
import pytest

from repro import obs
from repro.machine import ProcessorModel
from repro.machine.memory import FixedMemory
from repro.simulate.batch import attribution_skip_reason, simulate_block_batch
from repro.simulate.program import (
    SimulationJob,
    simulate_program,
    simulate_programs,
)
from repro.simulate.rng import spawn
from repro.verify.fuzz import FUZZ_MEMORIES, FUZZ_PROCESSORS
from repro.workloads.generator import random_block


def _parts(n_loads, seed):
    """Latency parts of different sizes and regimes: all short (no
    window or slot constraint binds), all long (they bind in every
    run), and mixed."""
    rng = spawn("stacking-parts", seed)
    return [
        rng.integers(1, 3, size=(5, n_loads)),
        rng.integers(12, 40, size=(3, n_loads)),
        rng.integers(1, 40, size=(7, n_loads)),
        rng.integers(1, 3, size=(1, n_loads)),
    ]


def _check_stacked(block, processor, parts):
    attribute = attribution_skip_reason(processor) is None
    stacked = simulate_block_batch(
        block.instructions, np.concatenate(parts), processor,
        attribute=attribute,
    )
    lo = 0
    for rows in parts:
        hi = lo + rows.shape[0]
        alone = simulate_block_batch(
            block.instructions, rows, processor, attribute=attribute
        )
        np.testing.assert_array_equal(stacked.cycles[lo:hi], alone.cycles)
        np.testing.assert_array_equal(
            stacked.interlocks[lo:hi], alone.interlocks
        )
        assert stacked.instructions == alone.instructions
        if attribute:
            np.testing.assert_array_equal(
                stacked.stalls[:, lo:hi], alone.stalls
            )
            np.testing.assert_array_equal(
                stacked.causes[:, lo:hi], alone.causes
            )
        lo = hi


@pytest.mark.parametrize("processor", FUZZ_PROCESSORS, ids=lambda p: p.name)
@pytest.mark.parametrize("seed", range(3))
def test_stacked_call_equals_per_part_calls(processor, seed):
    block = random_block(spawn("stacking-block", seed), n_instructions=40)
    n_loads = sum(1 for i in block.instructions if i.is_load)
    assert n_loads
    _check_stacked(block, processor, _parts(n_loads, seed))


@pytest.mark.parametrize(
    "name", ["LEN-3", "MAX-2", "LEN-3+MAX-2"],
)
def test_constraint_binding_in_one_part_only(name):
    """A window (LEN-n) or a full slot array (MAX-n) that binds in
    one part must not push the other part's runs."""
    processor = next(p for p in FUZZ_PROCESSORS if p.name == name)
    block = random_block(spawn("stacking-bind"), n_instructions=60)
    n_loads = sum(1 for i in block.instructions if i.is_load)
    short = np.ones((4, n_loads), dtype=np.int64)
    long = np.full((4, n_loads), 30, dtype=np.int64)
    alone = simulate_block_batch(block.instructions, long, processor)
    free = simulate_block_batch(
        block.instructions, long,
        ProcessorModel("free", issue_width=processor.issue_width),
    )
    # The constraint really binds in the long part ...
    assert (alone.cycles > free.cycles).all()
    _check_stacked(block, processor, [short, long])
    _check_stacked(block, processor, [long, short, long])


def _jobs(blocks, processor, memory, tag):
    return [
        SimulationJob(
            blocks, processor, memory, spawn("stacking-job", tag, k),
            runs=runs, name=f"job{k}",
        )
        for k, runs in enumerate((4, 1, 6))
    ]


@pytest.mark.parametrize("memory", FUZZ_MEMORIES, ids=lambda m: m.name)
def test_simulate_programs_equals_one_program_at_a_time(memory):
    """Jobs sharing block objects are stacked; each still gets exactly
    the samples of its own stream."""
    blocks = [
        random_block(
            spawn("stacking-prog", k), n_instructions=25, name=f"b{k}"
        )
        for k in range(3)
    ]
    processor = FUZZ_PROCESSORS[1]
    together = simulate_programs(_jobs(blocks, processor, memory, "a"))
    for job, got in zip(_jobs(blocks, processor, memory, "a"), together):
        alone = simulate_program(
            job.blocks, job.processor, job.memory, job.rng, job.runs,
        )
        assert len(got.blocks) == len(alone.blocks) == len(blocks)
        for mine, ref in zip(got.blocks, alone.blocks):
            assert mine.block is ref.block
            np.testing.assert_array_equal(mine.cycles, ref.cycles)
            np.testing.assert_array_equal(mine.interlocks, ref.interlocks)
        assert got.shared_s > 0


def test_each_job_records_its_own_columns():
    """Under a recorder, every job's ``sim.*`` series -- the kernel
    run count included -- equal what it records alone."""
    blocks = [random_block(spawn("stacking-obs"), n_instructions=30)]
    memory = FixedMemory(7)
    processor = FUZZ_PROCESSORS[0]

    def jobs():
        return [
            SimulationJob(
                blocks, processor, memory, spawn("stacking-obs", k), runs=3,
                labels={"program": "P", "policy": f"p{k}", "system": "S"},
            )
            for k in range(2)
        ]

    with obs.recording() as together:
        simulate_programs(jobs())
    with obs.recording() as alone:
        for job in jobs():
            simulate_programs([job])
    assert together.metrics.counters == alone.metrics.counters
    assert together.metrics.histograms == alone.metrics.histograms
    kernel = "sim.batch_kernel{kernel=single-issue}"
    assert together.metrics.counters[kernel] == 6
    # Two jobs, one block object: one kernel call.
    assert len([s for s in together.spans if s.name == "simulate"]) == 1
    assert len([s for s in alone.spans if s.name == "simulate"]) == 2
