"""Chaitin/Briggs-style graph-coloring register allocation.

The paper's numbers came from GCC's allocator, whose spill decisions
differ in character from a pressure-optimal linear scan: it colors an
interference graph and, when stuck, spills the node with the lowest
*spill cost per interference degree* -- which on compact schedules can
evict short, frequently-used ranges that linear scan would never
touch.  This allocator provides that second data point, and the
allocator ablation measures how much of Table 4's shape is an
allocator artefact (see EXPERIMENTS.md).

For straight-line code live ranges are intervals, so the interference
graph is an interval graph; we still run the general Chaitin/Briggs
machinery (simplify below K, optimistic spill candidates, coloring on
unwind) because its *spill choices* -- not its coloring power -- are
what we are modelling.  Spill code insertion reuses
:class:`repro.regalloc.spill.SpillRewriter`, so spill accounting is
identical across allocators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..analysis.liveness import LiveInterval, live_intervals
from ..ir.block import BasicBlock
from ..ir.operands import PhysReg, RegClass, VirtualReg
from .linear_scan import AllocationResult
from .spill import SpillRewriter
from .target import DEFAULT_REGISTER_FILE, RegisterFile


@dataclass
class _Node:
    """One virtual register in the interference graph."""

    reg: VirtualReg
    interval: LiveInterval
    neighbors: Set[VirtualReg]

    @property
    def degree(self) -> int:
        return len(self.neighbors)

    def spill_cost(self) -> float:
        """Chaitin's classic metric: uses per unit of live range.

        A short range with many uses is expensive to spill (every use
        becomes a reload); a long, sparsely used range is cheap.
        """
        accesses = len(self.interval.uses) + 1  # +1 for the def/store
        length = max(self.interval.length, 1)
        return accesses / length


class ChaitinAllocator:
    """Graph-coloring allocation with lowest-cost/degree spilling."""

    def __init__(self, register_file: RegisterFile = DEFAULT_REGISTER_FILE):
        self.register_file = register_file

    @property
    def memo_key(self) -> RegisterFile:
        """What :meth:`allocate` reads besides the block (the staged
        compile memo keys allocations on it)."""
        return self.register_file

    # ------------------------------------------------------------------
    def allocate(self, block: BasicBlock) -> AllocationResult:
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
            class_nodes = self._build_graph(
                [iv for iv in intervals.values() if iv.reg.rclass is rclass]
            )
            colors = self.register_file.allocatable(rclass)
            self._color_class(class_nodes, colors, assigned, spilled)

        rewriter = SpillRewriter(
            self.register_file, assigned, spilled,
            list(block.live_in), list(block.live_out),
        )
        rewritten = rewriter.rewrite(block)
        return AllocationResult(
            block=rewritten,
            assigned=assigned,
            spilled=spilled,
            stats=rewriter.stats,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _build_graph(class_intervals: List[LiveInterval]) -> Dict[VirtualReg, _Node]:
        nodes: Dict[VirtualReg, _Node] = {
            iv.reg: _Node(reg=iv.reg, interval=iv, neighbors=set())  # type: ignore[arg-type]
            for iv in class_intervals
        }
        items = list(nodes.values())
        for index, a in enumerate(items):
            for b in items[index + 1:]:
                if a.interval.overlaps(b.interval):
                    a.neighbors.add(b.reg)
                    b.neighbors.add(a.reg)
        return nodes

    def _color_class(
        self,
        nodes: Dict[VirtualReg, _Node],
        colors: List[PhysReg],
        assigned: Dict[VirtualReg, PhysReg],
        spilled: Set[VirtualReg],
    ) -> None:
        k = len(colors)
        remaining: Dict[VirtualReg, Set[VirtualReg]] = {
            reg: set(node.neighbors) for reg, node in nodes.items()
        }
        stack: List[Tuple[VirtualReg, bool]] = []  # (reg, is_spill_candidate)

        while remaining:
            trivial = [
                reg for reg, neighbors in remaining.items()
                if len(neighbors) < k
            ]
            if trivial:
                # Deterministic order: lowest degree, then reg identity.
                reg = min(
                    trivial,
                    key=lambda r: (len(remaining[r]), r.rclass.value, r.index),
                )
                stack.append((reg, False))
            else:
                # Blocked: pick Chaitin's lowest cost/degree candidate
                # and push it optimistically (Briggs).
                reg = min(
                    remaining,
                    key=lambda r: (
                        nodes[r].spill_cost() / max(len(remaining[r]), 1),
                        r.rclass.value,
                        r.index,
                    ),
                )
                stack.append((reg, True))
            for neighbors in remaining.values():
                neighbors.discard(reg)
            del remaining[reg]

        # Unwind: color if possible; a stuck spill candidate spills.
        while stack:
            reg, _candidate = stack.pop()
            taken = {
                assigned[n]
                for n in nodes[reg].neighbors
                if n in assigned
            }
            available = [c for c in colors if c not in taken]
            if available:
                assigned[reg] = available[0]
            else:
                spilled.add(reg)


def allocate_block_chaitin(
    block: BasicBlock, register_file: RegisterFile = DEFAULT_REGISTER_FILE
) -> AllocationResult:
    """One-shot convenience wrapper."""
    return ChaitinAllocator(register_file).allocate(block)
