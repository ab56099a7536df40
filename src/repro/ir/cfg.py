"""A control-flow graph over basic blocks.

The paper schedules basic blocks; its Section 6 points at "techniques
that enlarge basic blocks (trace scheduling and software pipelining)"
as the way to give balanced scheduling more room.  This module
provides the control-flow substrate those techniques need: blocks
connected by probability-weighted edges, entry-relative execution
frequencies propagated through the graph, and structural validation.

The CFG is acyclic by construction (loops appear as already-unrolled
loop bodies, the same convention the block-level experiments use); a
back edge raises at validation time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .block import BasicBlock


class CFGError(ValueError):
    """Raised for malformed control-flow graphs."""


@dataclass(frozen=True)
class CFGEdge:
    """A control-flow edge with its taken probability."""

    src: str
    dst: str
    probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise CFGError(
                f"edge {self.src}->{self.dst}: probability "
                f"{self.probability} outside [0, 1]"
            )


@dataclass
class CFG:
    """Blocks plus probability-weighted control-flow edges.

    ``entry_frequency`` is the profiled execution count of the entry
    block; :meth:`propagate_frequencies` pushes it through the edge
    probabilities so every block's ``frequency`` reflects the profile
    (Section 4.3's per-block scaling).
    """

    name: str
    entry: str
    blocks: Dict[str, BasicBlock] = field(default_factory=dict)
    edges: List[CFGEdge] = field(default_factory=list)
    entry_frequency: float = 1.0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_block(self, block: BasicBlock) -> BasicBlock:
        if block.name in self.blocks:
            raise CFGError(f"duplicate block name {block.name!r}")
        self.blocks[block.name] = block
        return block

    def add_edge(self, src: str, dst: str, probability: float = 1.0) -> CFGEdge:
        for name in (src, dst):
            if name not in self.blocks:
                raise CFGError(f"edge references unknown block {name!r}")
        edge = CFGEdge(src, dst, probability)
        self.edges.append(edge)
        return edge

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def successors(self, name: str) -> List[CFGEdge]:
        return [e for e in self.edges if e.src == name]

    def predecessors(self, name: str) -> List[CFGEdge]:
        return [e for e in self.edges if e.dst == name]

    def block(self, name: str) -> BasicBlock:
        try:
            return self.blocks[name]
        except KeyError:
            raise CFGError(f"no block named {name!r}") from None

    def topological_order(self) -> List[str]:
        """Block names in topological order; raises on cycles."""
        indegree = {name: 0 for name in self.blocks}
        for edge in self.edges:
            indegree[edge.dst] += 1
        frontier = [n for n, d in sorted(indegree.items()) if d == 0]
        order: List[str] = []
        while frontier:
            name = frontier.pop(0)
            order.append(name)
            for edge in self.successors(name):
                indegree[edge.dst] -= 1
                if indegree[edge.dst] == 0:
                    frontier.append(edge.dst)
        if len(order) != len(self.blocks):
            raise CFGError("control-flow graph contains a cycle")
        return order

    # ------------------------------------------------------------------
    # Validation and profile propagation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Structural checks: known entry, acyclicity, sane branch
        probabilities, terminators consistent with out-degree."""
        if self.entry not in self.blocks:
            raise CFGError(f"entry block {self.entry!r} missing")
        self.topological_order()  # raises on cycles
        for name, block in self.blocks.items():
            out_edges = self.successors(name)
            if out_edges:
                total = sum(e.probability for e in out_edges)
                if abs(total - 1.0) > 1e-6:
                    raise CFGError(
                        f"block {name!r}: outgoing probabilities sum to "
                        f"{total:g}, expected 1"
                    )
            if len(out_edges) > 1:
                if not block.instructions or not block.instructions[-1].is_terminator:
                    raise CFGError(
                        f"block {name!r} has {len(out_edges)} successors "
                        "but no terminating branch"
                    )

    def propagate_frequencies(self) -> None:
        """Set every block's ``frequency`` from the entry profile.

        ``frequency(block) = sum over incoming edges of
        frequency(pred) * probability`` with the entry pinned to
        ``entry_frequency``.  Acyclic, so one topological sweep.
        """
        frequency = {name: 0.0 for name in self.blocks}
        frequency[self.entry] = self.entry_frequency
        for name in self.topological_order():
            for edge in self.successors(name):
                frequency[edge.dst] += frequency[name] * edge.probability
        for name, block in self.blocks.items():
            block.frequency = frequency[name]

    # ------------------------------------------------------------------
    def hottest_path(self) -> List[str]:
        """The trace-selection path: from the entry, repeatedly follow
        the most probable outgoing edge (ties broken toward the
        earlier-added edge) until a block with no successors."""
        path = [self.entry]
        current = self.entry
        visited = {self.entry}
        while True:
            out_edges = self.successors(current)
            if not out_edges:
                return path
            best = max(out_edges, key=lambda e: e.probability)
            if best.dst in visited:  # pragma: no cover - acyclic guard
                return path
            path.append(best.dst)
            visited.add(best.dst)
            current = best.dst
