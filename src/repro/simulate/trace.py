"""Cycle-by-cycle execution traces and pipeline diagrams.

:func:`trace_block` records one execution of a block as the simulator's
engine times it (:func:`repro.simulate.simulator.simulate_block` is a
summary of the same trace): per instruction, the issue cycle,
completion cycle, stall length and the *reason* for the stall -- which
register it waited on, or which processor constraint (MAX-n slot, LEN-n
freeze) bit.  This is the tool for answering "where did the interlocks
in this schedule come from?", and the ASCII renderer draws the classic
pipeline occupancy diagram.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..ir.block import BasicBlock
from ..ir.instructions import Instruction
from ..ir.operands import Register
from ..machine.memory import MemorySystem
from ..machine.processor import ProcessorModel, UNLIMITED
from .simulator import StallReason, _simulate_delaytrack


@dataclass(frozen=True)
class TraceEntry:
    """One instruction's timing."""

    index: int
    instruction: Instruction
    issue: int
    completion: int
    stall: int
    reason: StallReason
    waited_on: Optional[Register] = None
    #: For OPERAND stalls: index of the instruction that wrote the
    #: waited-on register (None for live-in registers).  This is what
    #: lets stall cycles be attributed back to individual loads.
    waited_on_writer: Optional[int] = None

    @property
    def latency(self) -> int:
        return self.completion - self.issue


@dataclass
class BlockTrace:
    """A full single-run trace."""

    entries: List[TraceEntry]

    @property
    def cycles(self) -> int:
        return self.entries[-1].issue + 1 if self.entries else 0

    @property
    def interlock_cycles(self) -> int:
        return sum(e.stall for e in self.entries)

    def stalls_by_reason(self) -> Dict[StallReason, int]:
        out: Dict[StallReason, int] = {}
        for entry in self.entries:
            if entry.stall:
                out[entry.reason] = out.get(entry.reason, 0) + entry.stall
        return out

    def hottest(self, n: int = 3) -> List[TraceEntry]:
        """The n longest individual stalls."""
        return sorted(self.entries, key=lambda e: -e.stall)[:n]

    def stalls_by_writer(self) -> Dict[Optional[int], int]:
        """Operand-stall cycles attributed to the writing instruction.

        Keys are instruction indices (``None`` for live-in operands);
        the values sum to the OPERAND bucket of
        :meth:`stalls_by_reason`.
        """
        out: Dict[Optional[int], int] = {}
        for entry in self.entries:
            if entry.stall and entry.reason is StallReason.OPERAND:
                key = entry.waited_on_writer
                out[key] = out.get(key, 0) + entry.stall
        return out

    def load_latencies(self) -> List[int]:
        """Observed latency of each executed load, in program order.

        Feeding these back into :func:`trace_block` (same instructions,
        same processor) replays this exact execution -- the round-trip
        the serialisation tests exercise.
        """
        return [
            entry.completion - entry.issue
            for entry in self.entries
            if entry.instruction.is_load
        ]

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe form (instructions referenced by block index)."""
        return {
            "cycles": self.cycles,
            "interlock_cycles": self.interlock_cycles,
            "entries": [
                {
                    "index": e.index,
                    "text": str(e.instruction),
                    "issue": e.issue,
                    "completion": e.completion,
                    "stall": e.stall,
                    "reason": e.reason.value,
                    "waited_on": (
                        str(e.waited_on) if e.waited_on is not None else None
                    ),
                    "waited_on_writer": e.waited_on_writer,
                }
                for e in self.entries
            ],
        }

    @classmethod
    def from_dict(
        cls, data: dict, instructions: Sequence[Instruction]
    ) -> "BlockTrace":
        """Rebuild a trace against the block it was recorded from.

        ``instructions`` must be the same sequence (same order) that
        produced the trace; registers are resolved by name against each
        entry's instruction operands.
        """
        entries: List[TraceEntry] = []
        for raw in data["entries"]:
            inst = instructions[raw["index"]]
            waited_on: Optional[Register] = None
            if raw["waited_on"] is not None:
                for reg in inst.all_uses():
                    if str(reg) == raw["waited_on"]:
                        waited_on = reg
                        break
            entries.append(
                TraceEntry(
                    index=raw["index"],
                    instruction=inst,
                    issue=raw["issue"],
                    completion=raw["completion"],
                    stall=raw["stall"],
                    reason=StallReason(raw["reason"]),
                    waited_on=waited_on,
                    waited_on_writer=raw.get("waited_on_writer"),
                )
            )
        return cls(entries=entries)

    # ------------------------------------------------------------------
    def render(self, width: Optional[int] = None) -> str:
        """ASCII pipeline diagram: one row per instruction.

        ``.`` = waiting, ``I`` = issue cycle, ``=`` = in flight
        (loads / multi-cycle ops), columns are cycles.
        """
        if not self.entries:
            return "(empty trace)"
        span = max(e.completion for e in self.entries)
        if width is None:
            width = span
        lines = []
        for entry in self.entries:
            row = []
            for cycle in range(min(span, width)):
                if cycle < entry.issue - entry.stall:
                    row.append(" ")
                elif cycle < entry.issue:
                    row.append(".")
                elif cycle == entry.issue:
                    row.append("I")
                elif cycle < entry.completion:
                    row.append("=")
                else:
                    row.append(" ")
            text = str(entry.instruction)
            if len(text) > 28:
                text = text[:25] + "..."
            lines.append(f"{entry.index:3d} {text:28s} |{''.join(row)}|")
        header = (
            f"    {'cycles: ' + str(self.cycles):28s} "
            f"(interlocks {self.interlock_cycles})"
        )
        return "\n".join([header] + lines)


def check_traceable(processor: ProcessorModel) -> None:
    """Raise ``ValueError`` unless :func:`trace_block` can attribute
    every stall of ``processor``.

    Stall attribution models the paper's in-order, single-issue,
    non-blocking processors.  Anything else has stalls that no single
    earlier issue slot explains.
    """
    if processor.issue_width != 1:
        raise ValueError(
            f"traces support single-issue processors only; "
            f"{processor.name} issues {processor.issue_width} per cycle"
        )
    if processor.load_delay_tracking:
        # The issue-order evidence for a reordering front end lives in
        # simulator.delaytrack_issue_trace.
        raise ValueError(
            "traces model in-order issue only; delay-tracking processors "
            "reorder (use delaytrack_issue_trace for their issue order)"
        )
    if processor.blocking_loads:
        raise ValueError(
            f"traces model non-blocking loads only; {processor.name} "
            f"stalls at every load until its data returns (simulate_block "
            f"times it)"
        )


def trace_block(
    instructions: Sequence[Instruction],
    latencies: Sequence[int],
    processor: ProcessorModel = UNLIMITED,
) -> BlockTrace:
    """Record one execution, with per-instruction timing and stalls.

    Only for processors :func:`check_traceable` accepts (the paper's
    models); latencies are supplied per load in program order, as for
    ``simulate_block``.
    """
    check_traceable(processor)
    trace, _ = _simulate_delaytrack(
        instructions, latencies, processor, attribute=True
    )
    return BlockTrace(entries=[
        TraceEntry(index, instructions[index], *timing)
        for index, *timing in trace
    ])


def trace_with_memory(
    block: BasicBlock,
    processor: ProcessorModel,
    memory: MemorySystem,
    rng,
) -> BlockTrace:
    """Sample latencies from ``memory`` and trace one execution."""
    n_loads = sum(1 for i in block.instructions if i.is_load)
    latencies = memory.sample_many(rng, n_loads)
    return trace_block(block.instructions, latencies, processor)
