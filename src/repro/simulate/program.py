"""Profile-weighted whole-program simulation.

The paper runs "the full instruction-by-instruction simulation 30
times with new random numbers on each iteration" per basic block, then
scales block results by profiled execution frequency and sums.  This
module produces those per-block sample matrices and the derived
program-level series; the bootstrap machinery lives in
:mod:`repro.simulate.stats`.

:func:`simulate_programs` samples many programs at once, one block
position at a time.  At each position it makes one kernel call per
(block, processor) the jobs share: the table cells of one program
share its balanced binary across every row, and its traditional
binary across rows with the same optimistic latency.  A delay-tracking
family -- processors that differ only in a nonzero table size -- makes
one call per position whatever the blocks, because that kernel reads
the table and the block per row: the four policies' binaries of one
source block share it.  :func:`simulate_program` is its one-program
case.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import (
    Callable, ContextManager, Dict, List, Mapping, Optional, Sequence, Tuple,
)

import numpy as np

from ..ir.block import BasicBlock
from ..machine.memory import MemorySystem
from ..machine.processor import ProcessorModel
from ..obs import recorder as _obs
from ..obs.metrics import Labels, series_labels
from .batch import (
    CAUSE_FREEZE,
    CAUSE_SLOT,
    BatchSimResult,
    attribution_skip_reason,
    batch_kernel,
    simulate_block_batch,
    use_writers,
)

#: The paper's run count: "Our method executes the full instruction-by-
#: instruction simulation 30 times" (Section 4.3).
DEFAULT_RUNS = 30


@dataclass
class BlockSamples:
    """30 (by default) simulated executions of one block."""

    block: BasicBlock
    cycles: np.ndarray      # shape (runs,)
    interlocks: np.ndarray  # shape (runs,)

    @property
    def frequency(self) -> float:
        return self.block.frequency

    @property
    def instructions(self) -> int:
        return len(self.block)


@dataclass
class ProgramRuns:
    """Per-block sample matrices for one (program, machine, scheduler)."""

    name: str
    blocks: List[BlockSamples] = field(default_factory=list)
    #: Seconds of sampling work attributed to this program (see
    #: :func:`simulate_programs`).
    shared_s: float = 0.0

    @property
    def runs(self) -> int:
        return len(self.blocks[0].cycles) if self.blocks else 0

    def weighted_cycles(self) -> np.ndarray:
        """Program runtime per run: sum of freq-scaled block cycles."""
        total = np.zeros(self.runs)
        for sample in self.blocks:
            total += sample.frequency * sample.cycles
        return total

    def weighted_interlocks(self) -> np.ndarray:
        total = np.zeros(self.runs)
        for sample in self.blocks:
            total += sample.frequency * sample.interlocks
        return total

    @property
    def dynamic_instructions(self) -> float:
        """Profile-weighted instructions executed (``TIns`` / ``BIns``)."""
        return sum(s.frequency * s.instructions for s in self.blocks)

    def interlock_percentage(self) -> float:
        """Percent of total cycles that are interlocks (``TI%``/``BI%``)."""
        cycles = self.weighted_cycles()
        interlocks = self.weighted_interlocks()
        total = cycles.sum()
        if total == 0:
            return 0.0
        return 100.0 * interlocks.sum() / total

    def mean_runtime(self) -> float:
        return float(self.weighted_cycles().mean())


@dataclass(frozen=True)
class SimulationJob:
    """One program to sample: every block of ``blocks``, ``runs`` times,
    on ``processor``, with latencies drawn from ``memory`` through
    ``rng`` (block by block, in order -- the deterministic draw order).

    ``labels`` are the ``program``/``policy``/``system`` labels of the
    job's ``sim.*`` metrics; ``None`` takes them from the recorder's
    ambient span context.  ``scope`` is entered around everything done
    for this job alone while other jobs' rows share a kernel call: its
    metric recording, and the re-run that names a failing job.  A table
    cell uses it to record into its own child registry.
    """

    blocks: Sequence[BasicBlock]
    processor: ProcessorModel
    memory: MemorySystem
    rng: np.random.Generator
    runs: int = DEFAULT_RUNS
    name: str = "program"
    labels: Optional[Mapping[str, object]] = None
    scope: Callable[[], ContextManager] = nullcontext


def sample_block(
    block: BasicBlock,
    processor: ProcessorModel,
    memory: MemorySystem,
    rng: np.random.Generator,
    runs: int = DEFAULT_RUNS,
) -> BlockSamples:
    """Simulate ``block`` ``runs`` times with fresh latency draws."""
    return simulate_program([block], processor, memory, rng, runs).blocks[0]


def simulate_program(
    blocks: Sequence[BasicBlock],
    processor: ProcessorModel,
    memory: MemorySystem,
    rng: np.random.Generator,
    runs: int = DEFAULT_RUNS,
    name: str = "program",
) -> ProgramRuns:
    """Sample every block of a compiled program (the one-job case of
    :func:`simulate_programs`)."""
    job = SimulationJob(blocks, processor, memory, rng, runs, name)
    return simulate_programs([job])[0]


def simulate_programs(jobs: Sequence[SimulationJob]) -> List[ProgramRuns]:
    """Sample many programs, one kernel call per (block, processor) at
    each block position -- per delay-tracking family, whatever the
    block.

    Block position by block position, each job draws its latency rows
    from its own stream, exactly as if it ran alone; the rows of every
    job that runs the same block object on the same processor are
    stacked into one :func:`simulate_block_batch` call, and the result
    columns are split back per job.  Jobs on delay-tracking processors
    that differ only in their (nonzero) table size stack too, each row
    with its own job's table and its own block: the call is ragged when
    their blocks differ.  Kernel columns are independent runs, so the
    samples are bit-identical to one call per job -- only the kernel's
    fixed per-call cost is shared.  Only one block position's latency
    rows are alive at a time.

    Each job's :attr:`ProgramRuns.shared_s` is its share of that work:
    its own draws plus, of each kernel call it took part in, the
    fraction of the call's runs that were its own.  Under an active
    recorder each job's ``sim.*`` metrics (``sim.batch_kernel``
    included) are recorded for its own columns, inside its ``scope``.
    """
    rec = _obs.get()
    out = [ProgramRuns(name=job.name) for job in jobs]
    labels: List[Labels] = []
    if rec is not None:
        ctx = rec.context()
        ambient = series_labels({
            k: ctx[k] for k in ("program", "policy", "system") if k in ctx
        })
        labels = [
            ambient if job.labels is None else series_labels(job.labels)
            for job in jobs
        ]
    clock = time.perf_counter
    depth = max((len(job.blocks) for job in jobs), default=0)
    for position in range(depth):
        # stack key -> [(job index, block, latency rows)], first seen first.
        stacks: Dict[tuple, List[Tuple[int, BasicBlock, np.ndarray]]] = {}
        for j, job in enumerate(jobs):
            if position >= len(job.blocks):
                continue
            start = clock()
            block = job.blocks[position]
            n_loads = sum(1 for i in block.instructions if i.is_load)
            # One vectorised draw covers every run (the draw order is
            # part of the deterministic artefact contract -- do not
            # reorder it).
            rows = job.memory.sample_many(
                job.rng, n_loads * job.runs
            ).reshape(job.runs, n_loads)
            key = _stack_key(block, job.processor)
            stacks.setdefault(key, []).append((j, block, rows))
            out[j].shared_s += clock() - start
        for parts in stacks.values():
            _simulate_stack(rec, jobs, out, labels, parts)
    return out


def _stack_key(block: BasicBlock, processor: ProcessorModel) -> tuple:
    """What a kernel call is shared by: the block and the processor, or,
    for a nonzero delay-tracking table, every processor field but the
    table size (and the name, which spells the table) -- whatever the
    block, since that kernel is ragged."""
    if not processor.load_delay_tracking:
        return (id(block), processor)
    return (None, replace(processor, name="", load_delay_tracking=1))


def _simulate_stack(rec, jobs, out, labels, parts) -> None:
    """One kernel call on the row-stacked ``parts``, split back per
    (job, block)."""
    clock = time.perf_counter
    start = clock()
    processors = [jobs[j].processor for j, _, _ in parts]
    processor = processors[0]
    sizes = [rows.shape[0] for _, _, rows in parts]
    if len(parts) == 1:
        latencies = parts[0][2]
    else:
        # A ragged stack's blocks may differ in load count: pad each
        # part's rows with ignored trailing columns.
        width = max(rows.shape[1] for _, _, rows in parts)
        latencies = np.concatenate([
            rows if rows.shape[1] == width
            else np.pad(rows, ((0, 0), (0, width - rows.shape[1])))
            for _, _, rows in parts
        ])
    tables = None
    if processor.load_delay_tracking:
        tables = np.repeat(
            [p.load_delay_tracking for p in processors], sizes
        )
    # The distinct blocks, first seen first: a ragged call when several.
    stack: Dict[int, BasicBlock] = {}
    for _, block, _ in parts:
        stack.setdefault(id(block), block)
    first = parts[0][1]
    block_index = None
    if len(stack) == 1:
        instructions = first.instructions
    else:
        order = {key: k for k, key in enumerate(stack)}
        instructions = [block.instructions for block in stack.values()]
        block_index = np.repeat(
            [order[id(block)] for _, block, _ in parts], sizes
        )
    attribute = rec is not None and attribution_skip_reason(processor) is None
    span = _obs.span(
        "simulate",
        block=",".join(dict.fromkeys(b.name for b in stack.values())),
        processor=",".join(dict.fromkeys(p.name for p in processors)),
        runs=int(latencies.shape[0]),
    )
    with span:
        try:
            result = simulate_block_batch(
                instructions, latencies, processor,
                attribute=attribute, count_runs=False, tables=tables,
                block_index=block_index,
            )
        except Exception:
            # Name the failing job: its rows fail on their own too,
            # inside its scope, on its own block and processor.
            for j, block, rows in parts:
                with jobs[j].scope():
                    simulate_block_batch(
                        block.instructions, rows, jobs[j].processor,
                        attribute=attribute, count_runs=False,
                    )
            raise
        elapsed = clock() - start
        total = max(int(latencies.shape[0]), 1)
        lo = 0
        for j, block, rows in parts:
            hi = lo + rows.shape[0]
            cycles = result.cycles[lo:hi]
            interlocks = result.interlocks[lo:hi]
            out[j].blocks.append(
                BlockSamples(block=block, cycles=cycles, interlocks=interlocks)
            )
            out[j].shared_s += elapsed * rows.shape[0] / total
            if rec is not None:
                part = BatchSimResult(
                    cycles,
                    result.instructions if block_index is None
                    else result.instructions[lo:hi],
                    interlocks,
                    None if result.stalls is None else result.stalls[:, lo:hi],
                    None if result.causes is None else result.causes[:, lo:hi],
                )
                with jobs[j].scope():
                    _record_simulation_metrics(
                        rec.metrics, labels[j], block, jobs[j].processor,
                        rows, part,
                    )
            lo = hi


def _record_simulation_metrics(
    metrics, labels, block, processor, all_latencies, result
) -> None:
    """Metrics + per-load stall attribution for one sampled block.

    The official cycle/interlock numbers come from the batch simulator,
    and so does the attribution: on the in-order, single-issue,
    non-blocking models the kernel records every step's stall and what
    bound it (``BatchSimResult.stalls`` / ``causes``).  Each operand
    cause is mapped to the writer of the waited-on register, resolved
    statically (:func:`~repro.simulate.batch.use_writers`), exactly as
    the scalar :func:`~repro.simulate.trace.trace_block` names it.
    Per run, the attributed stalls must sum to the batch interlocks,
    so an attribution that disagrees with the reported numbers is an
    error, never a silent skew.  On other models the skip is counted,
    not hidden.  ``labels`` are the job's program/policy/system labels
    (:func:`~repro.obs.metrics.series_labels`).
    """
    labels = _with_label(labels, "block", block.name)
    runs = int(all_latencies.shape[0])
    if runs:
        metrics.inc("sim.batch_kernel", runs, kernel=batch_kernel(processor))
    executed = sum(
        1 for inst in block.instructions if inst.opcode.name != "NOP"
    )
    metrics.inc_series(("sim.runs", labels), runs)
    metrics.inc_series(("sim.instructions_issued", labels), executed * runs)
    metrics.inc_series(("sim.cycles", labels), int(result.cycles.sum()))
    metrics.inc_series(
        ("sim.interlock_cycles", labels), int(result.interlocks.sum())
    )
    metrics.set_gauge(
        "sim.issue_width", processor.issue_width,
        processor=processor.name,
    )
    draws, draw_counts = np.unique(
        all_latencies.astype(np.int64, copy=False), return_counts=True
    )
    metrics.observe_counts_series(
        ("sim.latency_draw", labels), draws.tolist(), draw_counts.tolist()
    )

    reason = attribution_skip_reason(processor)
    if reason is not None:
        # The official numbers above still come from the batch
        # simulator; only the per-load breakdown is skipped, and the
        # reason is recorded rather than silently folded in.
        metrics.inc(
            "sim.attribution_skipped", runs,
            processor=processor.name, reason=reason, **dict(labels),
        )
        return
    _record_stall_attribution(metrics, block, result, labels)


def _with_label(labels: Labels, label: str, value: str) -> Labels:
    """``labels`` with one more label, in sorted position."""
    return tuple(sorted(labels + ((label, value),)))


def _stall_table(block) -> Tuple[List[tuple], np.ndarray]:
    """``(series, table)`` mapping a step's stall cause to a histogram.

    ``series[i]`` is one histogram's (name, extra label); ``table[k, c
    + 2]`` the series of step k's stalls with cause code c
    (CAUSE_FREEZE is -2, CAUSE_SLOT -1, an operand position c >= 0).
    -1 marks no series, which a correct kernel never reports.

    The table depends on the instruction list alone, so it is built
    once and kept on the block itself: it lives exactly as long as the
    compiled block does.
    """
    instructions = block.instructions
    memo = getattr(block, "_stall_memo", None)
    if memo is not None and memo[0] is instructions:
        return memo[1]
    series = [
        ("sim.other_stall_cycles", ("source", "freeze")),
        ("sim.other_stall_cycles", ("source", "load-slots")),
        ("sim.other_stall_cycles", ("source", "livein")),
        ("sim.other_stall_cycles", ("source", "operand")),
    ]
    livein, operand = 2, 3
    load_series: Dict[int, int] = {}
    writers = use_writers(instructions)
    width = max((len(w) for w in writers), default=0)
    table = np.full((len(writers), 2 + width), -1, dtype=np.intp)
    table[:, CAUSE_FREEZE + 2] = 0
    table[:, CAUSE_SLOT + 2] = 1
    for k, step_writers in enumerate(writers):
        for position, writer in enumerate(step_writers):
            if writer is None:
                sid = livein
            elif instructions[writer].is_load:
                sid = load_series.get(writer)
                if sid is None:
                    sid = load_series[writer] = len(series)
                    series.append(
                        ("sim.load_stall_cycles", ("load", str(writer)))
                    )
            else:
                sid = operand
            table[k, position + 2] = sid
    block._stall_memo = (instructions, (series, table))
    return series, table


def _record_stall_attribution(metrics, block, result, labels) -> None:
    """Count the kernel's per-step stall causes into the
    ``sim.load_stall_cycles{load=...}`` and
    ``sim.other_stall_cycles{source=...}`` histograms (``labels``:
    the block's series labels, which each histogram extends)."""
    series, table = _stall_table(block)
    stalls = result.stalls
    stalled = stalls > 0
    steps, runs = np.nonzero(stalled)
    values = stalls[stalled]
    sids = table[steps, result.causes[stalled] + 2]
    # The guard: per run, the stalls that reached a series must sum to
    # the interlocks the batch simulator reports.
    attributed = np.bincount(
        runs[sids >= 0], values[sids >= 0], minlength=stalls.shape[1]
    )
    diverged = np.flatnonzero(attributed != result.interlocks)
    if diverged.size:
        run = int(diverged[0])
        raise RuntimeError(
            f"stall attribution diverged from the batch simulator on "
            f"block {block.name!r} run {run}: attributed "
            f"{int(attributed[run])} vs interlocks "
            f"{int(result.interlocks[run])}"
        )
    if not values.size:
        return
    span = int(values.max()) + 1
    keys, counts = np.unique(sids * span + values, return_counts=True)
    key_sids = keys // span
    key_values = keys - key_sids * span
    bounds = np.flatnonzero(np.diff(key_sids)) + 1
    for lo, hi in zip([0, *bounds], [*bounds, keys.size]):
        name, (label, value) = series[int(key_sids[lo])]
        metrics.observe_counts_series(
            (name, _with_label(labels, label, value)),
            key_values[lo:hi].tolist(),
            counts[lo:hi].tolist(),
        )
