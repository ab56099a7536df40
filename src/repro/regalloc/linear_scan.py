"""Linear-scan register allocation over the scheduled instruction order.

The paper's pipeline (Section 4.1) is: schedule, register-allocate
(which "may add spill code and/or copy instructions"), then schedule
again to "integrate these additional instructions into the final
schedule".  This module implements the middle stage for straight-line
blocks: a classic linear-scan over the live intervals of the scheduled
order, with furthest-end spilling, followed by spill-code insertion
through :class:`repro.regalloc.spill.SpillRewriter`.

The mechanism the paper's results hinge on falls out naturally: the
further a scheduler separates loads from their uses, the longer the
load live ranges, the higher the pressure on the register file, and
the more spill code appears (Tables 3-5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from ..analysis.liveness import LiveInterval, live_intervals
from ..ir.block import BasicBlock
from ..ir.operands import PhysReg, RegClass, VirtualReg
from ..obs import recorder as _obs
from .spill import SpillRewriter, SpillStats
from .target import DEFAULT_REGISTER_FILE, RegisterFile


@dataclass
class AllocationResult:
    """Outcome of allocating one block."""

    block: BasicBlock
    assigned: Dict[VirtualReg, PhysReg]
    spilled: Set[VirtualReg]
    stats: SpillStats

    @property
    def spill_instruction_count(self) -> int:
        return self.stats.total


class LinearScanAllocator:
    """Block-local linear scan with furthest-end spill choice."""

    def __init__(self, register_file: RegisterFile = DEFAULT_REGISTER_FILE):
        self.register_file = register_file

    @property
    def memo_key(self) -> RegisterFile:
        """What :meth:`allocate` reads besides the block (the staged
        compile memo keys allocations on it)."""
        return self.register_file

    # ------------------------------------------------------------------
    def allocate(self, block: BasicBlock) -> AllocationResult:
        """Allocate ``block``; returns the rewritten physical-register
        block plus the assignment and spill statistics."""
        intervals = {
            reg: interval
            for reg, interval in live_intervals(
                block.instructions, block.live_in, block.live_out
            ).items()
            if isinstance(reg, VirtualReg)
        }

        assigned: Dict[VirtualReg, PhysReg] = {}
        spilled: Set[VirtualReg] = set()
        for rclass in RegClass:
            class_intervals = [
                iv for iv in intervals.values() if iv.reg.rclass is rclass
            ]
            self._scan_class(rclass, class_intervals, assigned, spilled)

        rewriter = SpillRewriter(
            self.register_file, assigned, spilled,
            list(block.live_in), list(block.live_out),
        )
        rewritten = rewriter.rewrite(block)

        rec = _obs.get()
        if rec is not None:
            label = str(rec.context().get("block", block.name))
            rec.metrics.inc("regalloc.blocks", 1)
            rec.metrics.inc(
                "regalloc.assigned_registers", len(assigned), block=label
            )
            rec.metrics.inc(
                "regalloc.spilled_registers", len(spilled), block=label
            )
            rec.metrics.inc(
                "regalloc.spill_instructions",
                rewriter.stats.total,
                block=label,
            )

        return AllocationResult(
            block=rewritten,
            assigned=assigned,
            spilled=spilled,
            stats=rewriter.stats,
        )

    # ------------------------------------------------------------------
    def _scan_class(
        self,
        rclass: RegClass,
        class_intervals: List[LiveInterval],
        assigned: Dict[VirtualReg, PhysReg],
        spilled: Set[VirtualReg],
    ) -> None:
        free: List[PhysReg] = list(reversed(self.register_file.allocatable(rclass)))
        #: (end, reg) pairs currently holding a physical register.
        active: List[LiveInterval] = []

        for interval in sorted(class_intervals, key=lambda iv: (iv.start, iv.end)):
            self._expire(active, interval.start, free, assigned)
            if free:
                assigned[interval.reg] = free.pop()
                active.append(interval)
                active.sort(key=lambda iv: iv.end)
                continue
            # No free register: evict the active interval that ends
            # last if it outlives the new one, else spill the new one.
            victim = active[-1] if active else None
            if victim is not None and victim.end > interval.end:
                reg = assigned.pop(victim.reg)  # type: ignore[arg-type]
                spilled.add(victim.reg)  # type: ignore[arg-type]
                active.pop()
                assigned[interval.reg] = reg
                active.append(interval)
                active.sort(key=lambda iv: iv.end)
            else:
                spilled.add(interval.reg)

    @staticmethod
    def _expire(
        active: List[LiveInterval],
        position: int,
        free: List[PhysReg],
        assigned: Dict[VirtualReg, PhysReg],
    ) -> None:
        while active and active[0].end <= position:
            expired = active.pop(0)
            free.append(assigned[expired.reg])  # type: ignore[index]


def allocate_block(
    block: BasicBlock, register_file: RegisterFile = DEFAULT_REGISTER_FILE
) -> AllocationResult:
    """One-shot convenience wrapper."""
    return LinearScanAllocator(register_file).allocate(block)
