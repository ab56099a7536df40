"""Profile-weighted whole-program simulation.

The paper runs "the full instruction-by-instruction simulation 30
times with new random numbers on each iteration" per basic block, then
scales block results by profiled execution frequency and sums.  This
module produces those per-block sample matrices and the derived
program-level series; the bootstrap machinery lives in
:mod:`repro.simulate.stats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from ..ir.block import BasicBlock
from ..machine.memory import MemorySystem
from ..machine.processor import ProcessorModel
from ..obs import recorder as _obs
from .batch import (
    CAUSE_FREEZE,
    CAUSE_SLOT,
    attribution_skip_reason,
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


def sample_block(
    block: BasicBlock,
    processor: ProcessorModel,
    memory: MemorySystem,
    rng: np.random.Generator,
    runs: int = DEFAULT_RUNS,
) -> BlockSamples:
    """Simulate ``block`` ``runs`` times with fresh latency draws.

    Under an active recorder the same batch simulation also returns
    each run's per-step stall attribution (on the models it covers),
    which :func:`_record_simulation_metrics` turns into metrics; with
    observation off the kernel is asked for cycles and interlocks only.
    """
    n_loads = sum(1 for i in block.instructions if i.is_load)
    rec = _obs.get()
    if rec is None:
        # One vectorised draw covers every run (the draw order is part
        # of the deterministic artefact contract -- do not reorder it).
        all_latencies = memory.sample_many(
            rng, n_loads * runs
        ).reshape(runs, n_loads)
        result = simulate_block_batch(
            block.instructions, all_latencies, processor
        )
        return BlockSamples(
            block=block, cycles=result.cycles, interlocks=result.interlocks
        )

    with rec.span("simulate", block=block.name):
        all_latencies = memory.sample_many(
            rng, n_loads * runs
        ).reshape(runs, n_loads)
        result = simulate_block_batch(
            block.instructions,
            all_latencies,
            processor,
            attribute=attribution_skip_reason(processor) is None,
        )
        _record_simulation_metrics(
            rec, block, processor, all_latencies, result
        )
    return BlockSamples(
        block=block, cycles=result.cycles, interlocks=result.interlocks
    )


def _record_simulation_metrics(
    rec, block, processor, all_latencies, result
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
    not hidden.
    """
    metrics = rec.metrics
    ctx = rec.context()
    labels = {"block": block.name}
    for key in ("program", "policy", "system"):
        if key in ctx:
            labels[key] = ctx[key]

    runs = int(all_latencies.shape[0])
    executed = sum(
        1 for inst in block.instructions if inst.opcode.name != "NOP"
    )
    metrics.inc("sim.runs", runs, **labels)
    metrics.inc("sim.instructions_issued", executed * runs, **labels)
    metrics.inc("sim.cycles", int(result.cycles.sum()), **labels)
    metrics.inc(
        "sim.interlock_cycles", int(result.interlocks.sum()), **labels
    )
    metrics.set_gauge(
        "sim.issue_width", processor.issue_width,
        processor=processor.name,
    )
    draws, draw_counts = np.unique(
        all_latencies.astype(np.int64, copy=False), return_counts=True
    )
    metrics.observe_counts(
        "sim.latency_draw", draws.tolist(), draw_counts.tolist(), **labels
    )

    reason = attribution_skip_reason(processor)
    if reason is not None:
        # The official numbers above still come from the batch
        # simulator; only the per-load breakdown is skipped, and the
        # reason is recorded rather than silently folded in.
        metrics.inc(
            "sim.attribution_skipped", runs,
            processor=processor.name, reason=reason, **labels,
        )
        return
    _record_stall_attribution(metrics, block, result, labels)


def _record_stall_attribution(metrics, block, result, labels) -> None:
    """Count the kernel's per-step stall causes into the
    ``sim.load_stall_cycles{load=...}`` and
    ``sim.other_stall_cycles{source=...}`` histograms."""
    # series[i] is one histogram's (name, extra label); table[k, c + 2]
    # the series of step k's stalls with cause code c (CAUSE_FREEZE is
    # -2, CAUSE_SLOT -1, an operand position c >= 0).  -1 marks no
    # series, which a correct kernel never reports.
    instructions = block.instructions
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
                    series.append(("sim.load_stall_cycles", ("load", writer)))
            else:
                sid = operand
            table[k, position + 2] = sid

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
        metrics.observe_counts(
            name,
            key_values[lo:hi].tolist(),
            counts[lo:hi].tolist(),
            **{label: value},
            **labels,
        )


def simulate_program(
    blocks: Sequence[BasicBlock],
    processor: ProcessorModel,
    memory: MemorySystem,
    rng: np.random.Generator,
    runs: int = DEFAULT_RUNS,
    name: str = "program",
) -> ProgramRuns:
    """Sample every block of a compiled program."""
    out = ProgramRuns(name=name)
    for block in blocks:
        out.blocks.append(sample_block(block, processor, memory, rng, runs))
    return out
