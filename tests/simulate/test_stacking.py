"""Row-stacking kernel calls: one call on stacked latencies IS the
per-part calls.

``simulate_programs`` (and so every table cell) stacks the latency
rows of every job that runs the same block on the same processor into
one ``simulate_block_batch`` call and splits the result columns back
per job.  That is only sound if a run's column never depends on the
other columns in the call -- including the cross-run shortcuts of the
MAX-n top-k array and the LEN-n freeze-window buffer, which these
tests exercise with parts where the constraint binds in some parts and
not in others.  Delay-tracking rows at different table sizes share a
call as well, each with its own table, so a run's column must not
depend on the other rows' tables either.  A delay-tracking call is
ragged besides: its columns may run different blocks, so a run's
column must not depend on the other columns' blocks.
"""

from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from repro.obs.recorder import recording
from repro.ir.instructions import Instruction, Opcode, alu, nop
from repro.ir.operands import RegClass, VirtualReg
from repro.machine.processor import ProcessorModel
from repro.machine.memory import FixedMemory
from repro.simulate.simulator import LatencyOverrunError
from repro.simulate.batch import attribution_skip_reason, simulate_block_batch
from repro.simulate.program import (
    SimulationJob,
    simulate_program,
    simulate_programs,
)
from repro.simulate.rng import spawn
from repro.verify.fuzz import FUZZ_MEMORIES, FUZZ_PROCESSORS, delaytrack_bases
from tests.support.generator import random_block


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

    with recording() as together:
        simulate_programs(jobs())
    with recording() as alone:
        for job in jobs():
            simulate_programs([job])
    assert together.metrics.counters == alone.metrics.counters
    assert together.metrics.histograms == alone.metrics.histograms
    kernel = ("sim.batch_kernel", (("kernel", "single-issue"),))
    assert together.metrics.counters[kernel] == 6
    # Two jobs, one block object: one kernel call.
    assert len([s for s in together.spans if s.name == "simulate"]) == 1
    assert len([s for s in alone.spans if s.name == "simulate"]) == 2


def _at_table(processor, table):
    return replace(
        processor, name=f"{processor.name}@{table}",
        load_delay_tracking=table,
    )


@pytest.mark.parametrize(
    "processor", delaytrack_bases(FUZZ_PROCESSORS), ids=lambda p: p.name
)
@pytest.mark.parametrize("seed", range(2))
def test_stacked_tables_equal_per_table_calls(processor, seed):
    """Rows at different table sizes in one call -- a table of 1, 2,
    exactly ``n_loads`` and wider (which never fills) -- are the
    per-table calls."""
    block = random_block(spawn("stacking-tables", seed), n_instructions=40)
    n_loads = sum(1 for i in block.instructions if i.is_load)
    tables = (1, 2, n_loads, n_loads + 1, 64)
    # One part per table: ``_parts``' four regimes plus a mixed one.
    parts = _parts(n_loads, seed) + [
        spawn("stacking-tables", seed).integers(1, 40, size=(2, n_loads))
    ]
    stacked = simulate_block_batch(
        block.instructions, np.concatenate(parts), processor,
        tables=np.repeat(tables, [rows.shape[0] for rows in parts]),
    )
    lo = 0
    for table, rows in zip(tables, parts):
        hi = lo + rows.shape[0]
        alone = simulate_block_batch(
            block.instructions, rows, _at_table(processor, table)
        )
        np.testing.assert_array_equal(stacked.cycles[lo:hi], alone.cycles)
        np.testing.assert_array_equal(
            stacked.interlocks[lo:hi], alone.interlocks
        )
        lo = hi


def test_simulate_programs_stacks_tables_one_call_per_block(monkeypatch):
    """Jobs on one base machine at different tables share a kernel call
    per block, and each still gets the samples it gets alone."""
    calls = []
    real = simulate_block_batch

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(
        "repro.simulate.program.simulate_block_batch", counting
    )
    blocks = [
        random_block(
            spawn("stacking-dt-prog", k), n_instructions=25, name=f"b{k}"
        )
        for k in range(3)
    ]
    memory = FUZZ_MEMORIES[2]
    base = delaytrack_bases(FUZZ_PROCESSORS)[0]

    def jobs():
        return [
            SimulationJob(
                blocks, _at_table(base, table), memory,
                spawn("stacking-dt-job", table), runs=runs,
            )
            for table, runs in ((1, 4), (4, 2), (64, 5), (2, 1))
        ]

    together = simulate_programs(jobs())
    assert len(calls) == len(blocks)
    for job, got in zip(jobs(), together):
        (alone,) = simulate_programs([job])
        for mine, ref in zip(got.blocks, alone.blocks):
            np.testing.assert_array_equal(mine.cycles, ref.cycles)
            np.testing.assert_array_equal(mine.interlocks, ref.interlocks)


class TestTableVectorGuards:
    @pytest.fixture
    def block(self):
        return random_block(spawn("stacking-guard"), n_instructions=20)

    def _latencies(self, block, runs=3):
        n_loads = sum(1 for i in block.instructions if i.is_load)
        return np.full((runs, n_loads), 4, dtype=np.int64)

    def test_a_table_zero_row_is_rejected(self, block):
        with pytest.raises(ValueError, match="at least one entry"):
            simulate_block_batch(
                block.instructions, self._latencies(block),
                delaytrack_bases(FUZZ_PROCESSORS)[0], tables=[2, 0, 2],
            )

    @pytest.mark.parametrize("tables", ([2, 2], [2, 2, 2, 2], [[2, 2, 2]]))
    def test_a_table_vector_of_the_wrong_shape_is_rejected(
        self, block, tables
    ):
        with pytest.raises(ValueError, match="tables must have shape"):
            simulate_block_batch(
                block.instructions, self._latencies(block),
                delaytrack_bases(FUZZ_PROCESSORS)[0], tables=tables,
            )

    def test_tables_need_a_delay_tracking_processor(self, block):
        with pytest.raises(ValueError, match="delay-tracking processor"):
            simulate_block_batch(
                block.instructions, self._latencies(block),
                FUZZ_PROCESSORS[0], tables=[2, 2, 2],
            )


# ----------------------------------------------------------------------
# Ragged delay-tracking calls: one column per (block, run) pair.
# ----------------------------------------------------------------------
DT_PROCESSORS = [p for p in FUZZ_PROCESSORS if p.load_delay_tracking]


def _ragged_blocks(seed):
    """Random blocks of different lengths, the shortest ending in a
    branch on its last load; a block without loads (with a multi-cycle
    operation); and an all-NOP block."""
    r = lambda k: VirtualReg(k, RegClass.FP)
    no_loads = [
        alu(Opcode.FADD, r(1), (r(0),)),
        alu(Opcode.FMUL, r(2), (r(1), r(0)), latency=4),
        alu(Opcode.FADD, r(3), (r(2), r(1))),
    ]
    blocks = [
        random_block(spawn("ragged", seed, k), n_instructions=size).instructions
        for k, size in enumerate((40, 9, 23))
    ]
    last_load = [i for i in blocks[1] if i.is_load][-1]
    blocks[1] = blocks[1] + [Instruction(Opcode.BRANCH, uses=last_load.defs)]
    return blocks + [no_loads, [nop(), nop()]]


def _ragged_rows(blocks, seed, runs=5):
    """``(block_index, latencies, tables)`` with the blocks' rows
    interleaved, each row padded past its own block's loads with
    values the kernel must ignore."""
    rng = spawn("ragged-rows", seed)
    block_index = rng.permutation(np.repeat(np.arange(len(blocks)), runs))
    width = max(sum(1 for i in b if i.is_load) for b in blocks) + 2
    latencies = rng.integers(1, 40, size=(block_index.size, width))
    tables = rng.choice((1, 2, 4, 64), size=block_index.size)
    return block_index, latencies, tables


@pytest.mark.parametrize("processor", DT_PROCESSORS, ids=lambda p: p.name)
@pytest.mark.parametrize("seed", range(2))
def test_ragged_call_equals_per_block_calls(processor, seed):
    """Columns on different blocks, at different tables, in one call
    are the per-block calls, column by column."""
    blocks = _ragged_blocks(seed)
    block_index, latencies, tables = _ragged_rows(blocks, seed)
    for row_tables in (None, tables):
        ragged = simulate_block_batch(
            blocks, latencies, processor, tables=row_tables,
            block_index=block_index,
        )
        for b, instructions in enumerate(blocks):
            mine = block_index == b
            alone = simulate_block_batch(
                instructions, latencies[mine], processor,
                tables=None if row_tables is None else row_tables[mine],
            )
            np.testing.assert_array_equal(ragged.cycles[mine], alone.cycles)
            np.testing.assert_array_equal(
                ragged.interlocks[mine], alone.interlocks
            )
            assert (ragged.instructions[mine] == alone.instructions).all()
        # The all-NOP block takes no cycles at all.
        assert (ragged.cycles[block_index == len(blocks) - 1] == 0).all()


def test_one_block_is_the_plain_call():
    """A ragged call naming one block is the plain call."""
    block = _ragged_blocks(0)[0]
    n_loads = sum(1 for i in block if i.is_load)
    latencies = spawn("ragged-one").integers(1, 40, size=(6, n_loads))
    for processor in DT_PROCESSORS:
        plain = simulate_block_batch(block, latencies, processor)
        ragged = simulate_block_batch(
            [block], latencies, processor, block_index=np.zeros(6, int)
        )
        np.testing.assert_array_equal(ragged.cycles, plain.cycles)
        np.testing.assert_array_equal(ragged.interlocks, plain.interlocks)


def _raised(fn):
    with pytest.raises(Exception) as exc:
        fn()
    return type(exc.value), str(exc.value)


class TestRaggedMalformedInputs:
    """A ragged call rejects a run's latencies as the run's own block
    would, with the same exception type and message."""

    processor = DT_PROCESSORS[0]

    def _stack(self):
        blocks = _ragged_blocks(1)
        block_index = np.array([1, 0, 3, 2, 0])
        loads = [sum(1 for i in b if i.is_load) for b in blocks]
        width = max(loads)
        return blocks, block_index, loads, np.full((5, width), 3)

    def test_too_few_latencies_for_one_block(self):
        blocks, block_index, loads, latencies = self._stack()
        # Room for every block but the first (the longest, in rows 1, 4).
        short = latencies[:, : loads[0] - 1]
        assert short.shape[1] >= loads[1]
        got = _raised(lambda: simulate_block_batch(
            blocks, short, self.processor, block_index=block_index
        ))
        want = _raised(lambda: simulate_block_batch(
            blocks[0], short[[1]], self.processor
        ))
        assert got == want
        assert got[0] is LatencyOverrunError

    def test_negative_latency_in_a_used_column(self):
        blocks, block_index, loads, latencies = self._stack()
        latencies[3, loads[2] - 1] = -4
        got = _raised(lambda: simulate_block_batch(
            blocks, latencies, self.processor, block_index=block_index
        ))
        want = _raised(lambda: simulate_block_batch(
            blocks[2], latencies[[3]], self.processor
        ))
        assert got == want == (
            ValueError, f"negative load latency -4 at load {loads[2] - 1}"
        )

    def test_negative_latency_past_a_block_is_ignored(self):
        blocks, block_index, loads, latencies = self._stack()
        # Row 0 runs block 1, whose loads end before the last column.
        latencies[0, -1] = -4
        assert loads[1] < latencies.shape[1]
        result = simulate_block_batch(
            blocks, latencies, self.processor, block_index=block_index
        )
        alone = simulate_block_batch(
            blocks[1], latencies[[0]], self.processor
        )
        assert result.cycles[0] == alone.cycles[0]

    @pytest.mark.parametrize("block_index", ([0, 1], [0, 1, 2, 3, 9]))
    def test_a_bad_block_index_is_rejected(self, block_index):
        blocks, _, _, latencies = self._stack()
        with pytest.raises(ValueError, match="block_index"):
            simulate_block_batch(
                blocks, latencies, self.processor, block_index=block_index
            )

    def test_a_ragged_call_needs_a_delay_tracking_processor(self):
        blocks, block_index, _, latencies = self._stack()
        with pytest.raises(ValueError, match="delay-tracking processor"):
            simulate_block_batch(
                blocks, latencies, FUZZ_PROCESSORS[0],
                block_index=block_index,
            )


def test_simulate_programs_stacks_blocks_one_call_per_position(monkeypatch):
    """Delay-tracking jobs on different blocks, at different tables,
    share one kernel call per block position, and each still gets the
    samples it gets alone."""
    calls = []
    real = simulate_block_batch

    def counting(*args, **kwargs):
        calls.append(kwargs.get("block_index") is not None)
        return real(*args, **kwargs)

    monkeypatch.setattr(
        "repro.simulate.program.simulate_block_batch", counting
    )
    programs = [
        [
            random_block(
                spawn("ragged-prog", p, k), n_instructions=size,
                name=f"b{k}",
            )
            for k, size in enumerate(sizes)
        ]
        for p, sizes in enumerate(((25, 12, 30), (18, 12, 7), (33, 5, 16)))
    ]
    memory = FUZZ_MEMORIES[2]
    base = delaytrack_bases(FUZZ_PROCESSORS)[0]

    def jobs():
        return [
            SimulationJob(
                blocks, _at_table(base, table), memory,
                spawn("ragged-job", p, table), runs=runs,
            )
            for p, blocks in enumerate(programs)
            for table, runs in ((1, 3), (64, 2))
        ]

    together = simulate_programs(jobs())
    assert calls == [True] * 3
    for job, got in zip(jobs(), together):
        (alone,) = simulate_programs([job])
        assert [s.block for s in got.blocks] == list(job.blocks)
        for mine, ref in zip(got.blocks, alone.blocks):
            np.testing.assert_array_equal(mine.cycles, ref.cycles)
            np.testing.assert_array_equal(mine.interlocks, ref.interlocks)


def test_ragged_stack_records_each_job_on_its_own_block():
    """Under a recorder, jobs on different blocks in one ragged call
    record the ``sim.*`` series they record alone, each under its own
    block, and the call's span names every block."""
    memory = FixedMemory(7)
    base = delaytrack_bases(FUZZ_PROCESSORS)[0]

    def jobs():
        return [
            SimulationJob(
                [random_block(spawn("ragged-obs", k), n_instructions=n,
                              name=f"b{k}")],
                _at_table(base, 2), memory, spawn("ragged-obs-rng", k),
                runs=3,
                labels={"program": "P", "policy": f"p{k}", "system": "S"},
            )
            for k, n in enumerate((14, 27))
        ]

    with recording() as together:
        simulate_programs(jobs())
    with recording() as alone:
        for job in jobs():
            simulate_programs([job])
    assert together.metrics.counters == alone.metrics.counters
    assert together.metrics.histograms == alone.metrics.histograms
    (span,) = [s for s in together.spans if s.name == "simulate"]
    assert span.args_dict["block"] == "b0,b1"


class _NegativeMemory:
    """A memory system whose every latency draw is malformed."""

    name = "negative"

    def sample_many(self, rng, n):
        return np.full(n, -3, dtype=np.int64)


def test_a_failing_job_in_a_ragged_stack_fails_in_its_own_scope():
    """When a ragged call fails, the job whose rows are malformed is
    named: its own block's re-run raises inside its own scope."""
    failed = []

    def scope_of(k):
        @contextmanager
        def scope():
            try:
                yield
            except ValueError:
                failed.append(k)
                raise
        return scope

    base = delaytrack_bases(FUZZ_PROCESSORS)[0]
    jobs = [
        SimulationJob(
            [random_block(spawn("ragged-fail", k), n_instructions=n)],
            _at_table(base, 2), memory, spawn("ragged-fail-rng", k),
            runs=2, scope=scope_of(k),
        )
        for k, (n, memory) in enumerate(
            ((12, FixedMemory(5)), (20, _NegativeMemory()))
        )
    ]
    assert all(job.blocks[0].loads for job in jobs)
    with pytest.raises(ValueError, match="negative load latency -3 at load 0"):
        simulate_programs(jobs)
    assert failed == [1]
