"""Section 6 extension: software pipelining by iterative modulo
scheduling.

"...techniques that enlarge basic blocks (trace scheduling and
software pipelining)..."

Where :mod:`repro.extensions.unrolling` enlarges the block and lets
the ordinary schedulers work on it, modulo scheduling overlaps
iterations *explicitly*: every instruction gets a slot in a kernel of
``II`` cycles (the initiation interval), one iteration starting every
``II`` cycles.  This module implements the classic iterative scheme
(Rau's formulation, simplified to the single-issue machine of the
paper):

1. ``MII = max(resource bound, recurrence bound)`` where the resource
   bound is ``ceil(instructions / issue width)`` and the recurrence
   bound is the longest weighted latency cycle through the
   loop-carried edges.
2. For ``II = MII, MII+1, ...``: place instructions in priority order
   (critical path first) at the earliest start satisfying their
   scheduled predecessors, searching ``II`` consecutive slots for a
   free modulo issue slot; evict-and-retry with a bounded budget; on
   budget exhaustion, increase ``II``.

Latency uncertainty enters exactly as in the rest of the repository:
the scheduler is handed per-load weights, so a *balanced-weighted*
modulo schedule budgets each load by its measured parallelism while a
fixed-weight one uses the optimistic constant.  The achieved ``II`` is
the steady-state cycles/iteration when latencies match the weights;
:meth:`ModuloSchedule.validate` checks the modulo dependence
constraint ``slot(dst) + II*distance >= slot(src) + latency`` for
every edge, including the loop-carried back edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

from ..analysis.critical_path import priorities as compute_priorities
from ..analysis.dag import CodeDAG
from ..analysis.dependence import build_dag
from ..core.policy import SchedulingPolicy
from ..extensions.unrolling import infer_carried
from ..ir.block import BasicBlock
from ..ir.operands import Register


class ModuloSchedulingError(ValueError):
    """Raised when no schedule is found within the II search window."""


@dataclass(frozen=True)
class CarriedEdge:
    """A distance-1 dependence from an iteration into the next."""

    src: int
    dst: int
    latency: Fraction


@dataclass
class ModuloSchedule:
    """A kernel schedule: one start slot per instruction."""

    block: BasicBlock
    ii: int
    slots: Dict[int, int]
    carried_edges: List[CarriedEdge] = field(default_factory=list)
    #: The weighted DAG the schedule was built from.
    dag: Optional[CodeDAG] = None
    #: Modulo issue slots available per cycle.
    issue_width: int = 1

    @property
    def stage_count(self) -> int:
        """Pipeline depth: how many iterations overlap in steady state."""
        if not self.slots:
            return 0
        return max(self.slots.values()) // self.ii + 1

    def validate(self) -> None:
        """Check every dependence (intra- and inter-iteration).

        Intra-iteration edge ``src -> dst``: ``slot(dst) >= slot(src) +
        latency``.  Carried edge (distance 1): ``slot(dst) + II >=
        slot(src) + latency``.  Also checks the modulo issue-slot
        resource: at most one instruction per slot mod II.
        """
        assert self.dag is not None
        problems: List[str] = []
        for src in self.dag.nodes():
            for dst, _kind in self.dag.successor_items(src):
                latency = Fraction(self.dag.edge_latency(src, dst))
                if self.slots[dst] < self.slots[src] + latency:
                    problems.append(
                        f"edge {src}->{dst}: slot {self.slots[dst]} < "
                        f"{self.slots[src]} + {latency}"
                    )
        for edge in self.carried_edges:
            if self.slots[edge.dst] + self.ii < self.slots[edge.src] + edge.latency:
                problems.append(
                    f"carried edge {edge.src}->{edge.dst}: "
                    f"{self.slots[edge.dst]} + II {self.ii} < "
                    f"{self.slots[edge.src]} + {edge.latency}"
                )
        occupancy: Dict[int, int] = {}
        for node, slot in self.slots.items():
            key = slot % self.ii
            occupancy[key] = occupancy.get(key, 0) + 1
        overfull = {
            k: v for k, v in occupancy.items() if v > self.issue_width
        }
        if overfull:
            problems.append(f"modulo issue slots oversubscribed: {overfull}")
        if problems:
            raise ModuloSchedulingError(
                "invalid modulo schedule:\n  " + "\n  ".join(problems)
            )

    def format(self) -> str:
        lines = [
            f"modulo schedule: II = {self.ii}, "
            f"{self.stage_count} overlapped stages"
        ]
        for node, slot in sorted(self.slots.items(), key=lambda kv: kv[1]):
            stage, offset = divmod(slot, self.ii)
            lines.append(
                f"  slot {slot:3d} (stage {stage}, cycle {offset}): "
                f"{self.block[node]}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
def _carried_edges(
    block: BasicBlock,
    dag: CodeDAG,
    carried: Dict[Register, Register],
) -> List[CarriedEdge]:
    """Distance-1 edges: def of a carried value -> next-iteration uses."""
    edges: List[CarriedEdge] = []
    for source, sink in carried.items():
        producers = [
            v for v in dag.nodes() if source in dag.instructions[v].defs
        ]
        consumers = [
            v for v in dag.nodes() if sink in dag.instructions[v].all_uses()
        ]
        for producer in producers:
            latency = Fraction(dag.weights[producer])
            for consumer in consumers:
                edges.append(CarriedEdge(producer, consumer, latency))
    return edges


def modulo_schedule(
    block: BasicBlock,
    policy: SchedulingPolicy,
    carried: Optional[Dict[Register, Register]] = None,
    issue_width: int = 1,
    max_ii: Optional[int] = None,
    budget_per_ii: int = 200,
) -> ModuloSchedule:
    """Iteratively modulo-schedule the loop body under ``policy``.

    ``policy`` supplies the load weights (balanced or fixed) exactly as
    for straight-line scheduling; the achieved II is returned in the
    schedule.  ``issue_width`` > 1 models the superscalar extension
    (that many modulo issue slots per cycle).
    """
    if len(block) == 0:
        raise ModuloSchedulingError("cannot pipeline an empty block")
    if carried is None:
        carried = infer_carried(block)

    unweighted = build_dag(block)
    dag = unweighted.with_weights(policy.load_weights(unweighted))
    carried_edges = _carried_edges(block, dag, carried)
    node_priorities = compute_priorities(dag)

    mii = max(
        math.ceil(len(block) / issue_width),
        _carried_mii(dag, carried_edges),
        1,
    )
    if max_ii is None:
        max_ii = mii + len(block) + 8

    order = sorted(dag.nodes(), key=lambda v: (-node_priorities[v], v))
    for ii in range(mii, max_ii + 1):
        slots = _try_schedule(
            dag, carried_edges, order, ii, issue_width, budget_per_ii
        )
        if slots is not None:
            schedule = ModuloSchedule(
                block=block,
                ii=ii,
                slots=slots,
                carried_edges=carried_edges,
                dag=dag,
                issue_width=issue_width,
            )
            schedule.validate()
            return schedule
    raise ModuloSchedulingError(
        f"no schedule found for II in [{mii}, {max_ii}]"
    )


def _carried_mii(dag: CodeDAG, carried_edges: List[CarriedEdge]) -> int:
    """Recurrence MII from the weighted carried edges.

    For a cycle that is one carried edge plus an intra-iteration path
    back, II >= (path latency + carried latency) is conservative; we
    use the longest intra-iteration latency path from each carried
    destination to its source plus the carried edge's own latency.
    """
    n = len(dag)
    best = 1
    for edge in carried_edges:
        # Longest latency path dst ->* src within the iteration.
        distance: Dict[int, Fraction] = {edge.dst: Fraction(0)}
        for v in range(n):
            if v not in distance:
                continue
            for succ, _k in dag.successor_items(v):
                candidate = distance[v] + Fraction(dag.edge_latency(v, succ))
                if candidate > distance.get(succ, Fraction(-1)):
                    distance[succ] = candidate
        if edge.src in distance:
            cycle_latency = distance[edge.src] + edge.latency
            best = max(best, math.ceil(cycle_latency))
    return best


def _try_schedule(
    dag: CodeDAG,
    carried_edges: List[CarriedEdge],
    order: List[int],
    ii: int,
    issue_width: int,
    budget: int,
) -> Optional[Dict[int, int]]:
    """One II attempt: list placement with evict-and-retry."""
    slots: Dict[int, int] = {}
    occupancy: Dict[int, List[int]] = {}
    worklist = list(order)
    attempts = 0

    def earliest_start(node: int) -> int:
        start = 0
        for pred, _k in dag.predecessor_items(node):
            if pred in slots:
                need = slots[pred] + Fraction(dag.edge_latency(pred, node))
                start = max(start, math.ceil(need))
        for edge in carried_edges:
            if edge.dst == node and edge.src in slots:
                need = slots[edge.src] + edge.latency - ii
                start = max(start, math.ceil(need))
        return start

    while worklist:
        attempts += 1
        if attempts > budget:
            return None
        node = worklist.pop(0)
        start = earliest_start(node)
        placed = False
        for offset in range(ii):
            candidate = start + offset
            key = candidate % ii
            users = occupancy.setdefault(key, [])
            if len(users) < issue_width:
                users.append(node)
                slots[node] = candidate
                placed = True
                break
        if not placed:
            # Evict the occupant of the preferred slot and retry it.
            key = start % ii
            victim = occupancy[key].pop(0)
            del slots[victim]
            occupancy[key].append(node)
            slots[node] = start
            worklist.append(victim)

    # Fixup: eviction may have left successors earlier than producers;
    # verify and fail this II if so (the caller will retry higher II).
    for src in dag.nodes():
        for dst, _k in dag.successor_items(src):
            if slots[dst] < slots[src] + Fraction(dag.edge_latency(src, dst)):
                return None
    for edge in carried_edges:
        if slots[edge.dst] + ii < slots[edge.src] + edge.latency:
            return None
    return slots
