"""The code DAG: the primary data structure of list scheduling.

Nodes are instructions (identified by their index in the source block,
which is always a valid topological order because dependences point
forward in program order); edges are dependences labelled with their
kind.  Per the paper (Section 2), "nodes represent instructions and
edges represent dependences between them.  Each node is labeled with a
weight reflecting the latency of the instruction."
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..ir.instructions import Instruction

Weight = Union[int, Fraction]


class DepKind(enum.Enum):
    """Dependence kinds.

    Only TRUE register dependences carry the producer's full latency;
    every other kind merely orders issue slots (latency 1), because the
    machine maintains store/load consistency in hardware (Section 4.4).
    """

    TRUE = "true"          # register def -> use
    ANTI = "anti"          # register use -> redefinition
    OUTPUT = "output"      # register def -> redefinition
    MEM_TRUE = "mem-true"      # store -> aliasing load
    MEM_ANTI = "mem-anti"      # load -> aliasing store
    MEM_OUTPUT = "mem-output"  # store -> aliasing store
    CONTROL = "control"    # anything -> block terminator

    @property
    def carries_latency(self) -> bool:
        return self is DepKind.TRUE


@dataclass(frozen=True, slots=True)
class Edge:
    """A dependence edge ``src -> dst`` of a given kind."""

    src: int
    dst: int
    kind: DepKind


class CodeDAG:
    """Dependence DAG over the instructions of one basic block.

    The node order (0..n-1) is the original program order and is
    guaranteed topological.  Node weights default to each instruction's
    static latency.  A scheduling policy never writes into a built DAG:
    it returns its weights as a map (fixed optimistic latency for the
    traditional scheduler, computed load-level-parallelism weights for
    the balanced scheduler) that the list scheduler reads next to the
    DAG; :meth:`with_weights` makes a weighted view for code that wants
    one object.  One DAG can therefore be shared by every policy that
    schedules its block.
    """

    def __init__(self, instructions: Sequence[Instruction]):
        self.instructions: List[Instruction] = list(instructions)
        n = len(self.instructions)
        self._succ: List[Dict[int, DepKind]] = [dict() for _ in range(n)]
        self._pred: List[Dict[int, DepKind]] = [dict() for _ in range(n)]
        self.weights: List[Weight] = [inst.latency for inst in self.instructions]
        #: Per-edge latency overrides ("Edges can also be labeled,
        #: allowing latencies to differ among successor nodes of a
        #: given node, as on the Intel i860" -- paper footnote 1).
        self._edge_latency: Dict[Tuple[int, int], Weight] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_edge(self, src: int, dst: int, kind: DepKind) -> None:
        """Add ``src -> dst``; a TRUE edge dominates other kinds."""
        if src == dst:
            raise ValueError(f"self edge on node {src}")
        if not (0 <= src < len(self) and 0 <= dst < len(self)):
            raise IndexError(f"edge ({src}, {dst}) outside DAG of size {len(self)}")
        if src > dst:
            raise ValueError(
                f"edge ({src}, {dst}) points backwards in program order"
            )
        existing = self._succ[src].get(dst)
        if existing is not None and existing.carries_latency:
            return
        self._succ[src][dst] = kind
        self._pred[dst][src] = kind

    # ------------------------------------------------------------------
    # Shape queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.instructions)

    def nodes(self) -> range:
        return range(len(self))

    def successors(self, node: int) -> List[int]:
        return sorted(self._succ[node])

    def predecessors(self, node: int) -> List[int]:
        return sorted(self._pred[node])

    def successor_items(self, node: int) -> List[Tuple[int, DepKind]]:
        return sorted(self._succ[node].items())

    def predecessor_items(self, node: int) -> List[Tuple[int, DepKind]]:
        return sorted(self._pred[node].items())

    def edge_kind(self, src: int, dst: int) -> Optional[DepKind]:
        return self._succ[src].get(dst)

    def edges(self) -> List[Edge]:
        return [
            Edge(src, dst, kind)
            for src in self.nodes()
            for dst, kind in sorted(self._succ[src].items())
        ]

    def edge_count(self) -> int:
        return sum(len(s) for s in self._succ)

    def roots(self) -> List[int]:
        """Nodes with no predecessors."""
        return [v for v in self.nodes() if not self._pred[v]]

    def leaves(self) -> List[int]:
        """Nodes with no successors."""
        return [v for v in self.nodes() if not self._succ[v]]

    # ------------------------------------------------------------------
    # Instruction-level queries
    # ------------------------------------------------------------------
    def is_load(self, node: int) -> bool:
        return self.instructions[node].is_load

    def load_nodes(self) -> List[int]:
        return [v for v in self.nodes() if self.is_load(v)]

    def issue_slots(self, node: int) -> int:
        return self.instructions[node].issue_slots

    # ------------------------------------------------------------------
    # Weights
    # ------------------------------------------------------------------
    def set_weight(self, node: int, weight: Weight) -> None:
        """Set one node's weight while the DAG is being built."""
        self.weights[node] = weight

    def with_weights(self, weights: Dict[int, Weight]) -> "CodeDAG":
        """This DAG with ``weights`` (node -> weight) over its own.

        The result shares the instructions, the edges and the edge
        labels with ``self`` and owns only its weight list, so ``self``
        is left unchanged and costs nothing to reuse.
        """
        view = CodeDAG.__new__(CodeDAG)
        view.instructions = self.instructions
        view._succ = self._succ
        view._pred = self._pred
        view._edge_latency = self._edge_latency
        view.weights = list(self.weights)
        for node, weight in weights.items():
            view.weights[node] = weight
        return view

    def set_edge_latency(self, src: int, dst: int, latency: Weight) -> None:
        """Label one edge with its own latency (i860-style machines,
        paper footnote 1).  Overrides the node-weight rule below."""
        if self._succ[src].get(dst) is None:
            raise KeyError(f"no edge ({src}, {dst})")
        self._edge_latency[(src, dst)] = latency

    def edge_latency(self, src: int, dst: int) -> Weight:
        """Scheduling latency of an edge: an explicit per-edge label if
        present, else the producer weight on TRUE edges, else one issue
        slot (ordering only)."""
        kind = self._succ[src].get(dst)
        if kind is None:
            raise KeyError(f"no edge ({src}, {dst})")
        override = self._edge_latency.get((src, dst))
        if override is not None:
            return override
        return self.weights[src] if kind.carries_latency else 1

    # ------------------------------------------------------------------
    # Structure helpers used by the weight computation
    # ------------------------------------------------------------------
    def undirected_neighbor_masks(self) -> List[int]:
        """Per-node bitmask of DAG neighbours, ignoring direction."""
        masks = [0] * len(self)
        for src in self.nodes():
            for dst in self._succ[src]:
                masks[src] |= 1 << dst
                masks[dst] |= 1 << src
        return masks

    def check_acyclic(self) -> None:
        """Edges always point forward, so acyclicity holds by construction;
        assert it anyway (cheap, used by tests)."""
        for src in self.nodes():
            for dst in self._succ[src]:
                if dst <= src:
                    raise AssertionError("backward edge in CodeDAG")

    def to_dot(self, name: str = "dag") -> str:
        """Graphviz rendering (debugging / documentation aid)."""
        lines = [f"digraph {name} {{"]
        for v in self.nodes():
            inst = self.instructions[v]
            shape = "box" if inst.is_load else "ellipse"
            lines.append(
                f'  n{v} [label="{v}: {inst.opcode.value}\\nw={self.weights[v]}",'
                f" shape={shape}];"
            )
        for edge in self.edges():
            style = "solid" if edge.kind.carries_latency else "dashed"
            lines.append(
                f"  n{edge.src} -> n{edge.dst}"
                f' [style={style}, label="{edge.kind.value}"];'
            )
        lines.append("}")
        return "\n".join(lines)
