"""Cycle-by-cycle execution traces and pipeline diagrams.

:func:`trace_block` replays one execution of a block (same semantics
as :func:`repro.simulate.simulator.simulate_block`) but records, per
instruction, the issue cycle, completion cycle, stall length and the
*reason* for the stall -- which register it waited on, or which
processor constraint (MAX-n slot, LEN-n freeze) bit.  This is the tool
for answering "where did the interlocks in this schedule come from?",
and the ASCII renderer draws the classic pipeline occupancy diagram.

The trace is validated against the simulator in the test suite: total
cycles and interlocks always agree.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.block import BasicBlock
from ..ir.instructions import Instruction, Opcode
from ..ir.operands import Register
from ..machine.memory import MemorySystem
from ..machine.processor import ProcessorModel, UNLIMITED


class StallReason(enum.Enum):
    """Why an instruction issued later than the previous one + 1."""

    NONE = "none"
    OPERAND = "operand"        # waiting for a source register
    LOAD_SLOTS = "load-slots"  # MAX-n: too many outstanding loads
    FREEZE = "freeze"          # LEN-n: processor frozen by a long load


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
    """Raise ``ValueError`` unless :func:`trace_block` times
    ``processor`` exactly as ``simulate_block`` does.

    The replay models the paper's in-order, single-issue, non-blocking
    processors.  Anything else would come out silently mis-timed.
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
    """Replay one execution, recording per-instruction timing.

    Only for processors :func:`check_traceable` accepts (the paper's
    models); latencies are supplied per load in program order, as for
    ``simulate_block``.
    """
    check_traceable(processor)

    reg_ready: Dict[Register, int] = {}
    reg_writer: Dict[Register, int] = {}
    outstanding: List[int] = []
    windows: List[Tuple[int, int]] = []
    load_index = 0
    next_free = 0
    entries: List[TraceEntry] = []

    for index, inst in enumerate(instructions):
        if inst.opcode is Opcode.NOP:
            continue

        t = next_free
        reason = StallReason.NONE
        waited_on: Optional[Register] = None
        for reg in inst.all_uses():
            ready = reg_ready.get(reg, 0)
            if ready > t:
                t = ready
                reason = StallReason.OPERAND
                waited_on = reg

        if inst.is_load:
            latency = int(latencies[load_index])
            load_index += 1
            if processor.max_outstanding_loads is not None:
                slot_time = _slot_time(
                    outstanding, t, processor.max_outstanding_loads
                )
                if slot_time > t:
                    t = slot_time
                    reason = StallReason.LOAD_SLOTS
                    waited_on = None
        else:
            latency = inst.latency

        if processor.max_load_cycles is not None:
            frozen = _frozen_until(windows, t)
            if frozen > t:
                t = frozen
                reason = StallReason.FREEZE
                waited_on = None

        stall = t - next_free
        completion = t + latency
        # Resolve the writer before this instruction's own defs clobber
        # the writer map (e.g. ``r1 = r1 + 1``).
        writer = (
            reg_writer.get(waited_on)
            if stall and waited_on is not None
            else None
        )
        if inst.is_load:
            if processor.max_outstanding_loads is not None:
                heapq.heappush(outstanding, completion)
            if (
                processor.max_load_cycles is not None
                and latency > processor.max_load_cycles
            ):
                windows.append((t + processor.max_load_cycles, completion))
        for reg in inst.defs:
            reg_ready[reg] = completion
            reg_writer[reg] = index

        entries.append(
            TraceEntry(
                index=index,
                instruction=inst,
                issue=t,
                completion=completion,
                stall=stall,
                reason=reason if stall else StallReason.NONE,
                waited_on=waited_on if stall else None,
                waited_on_writer=writer,
            )
        )
        next_free = t + 1

    return BlockTrace(entries=entries)


def _slot_time(outstanding: List[int], t: int, limit: int) -> int:
    while True:
        while outstanding and outstanding[0] <= t:
            heapq.heappop(outstanding)
        if len(outstanding) < limit:
            return t
        t = outstanding[0]


def _frozen_until(windows: List[Tuple[int, int]], t: int) -> int:
    moved = True
    while moved:
        moved = False
        for start, end in windows:
            if start <= t < end:
                t = end
                moved = True
    windows[:] = [(s, e) for s, e in windows if e > t]
    return t


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
