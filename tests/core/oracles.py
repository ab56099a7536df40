"""Naive test oracles for the scheduler and the balanced weights.

* :func:`schedule_reference` -- the list scheduler of Section 4.1
  re-derived over an exact :class:`fractions.Fraction` clock: a ready
  list kept in discovery order, priorities compared through dense
  ranks, and the tie-break chain evaluated as plain functions of the
  scheduling state.  It shares no selection code with
  :mod:`repro.core.scheduler` (packed int64 keys over a scaled-integer
  clock), so the parity tests pin the engine's schedules, slots, no-op
  spans, priorities, decision logs and selection metrics to it.
* :func:`balanced_weights_reference` -- Figure 6 re-derived with
  per-``i`` BFS closures, BFS components and a path DP over an explicit
  node list, for any weighted-node predicate (Section 6).
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from heapq import heappop, heappush
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.critical_path import priorities as compute_priorities
from repro.analysis.dag import CodeDAG
from repro.core.scheduler import Direction, ScheduleResult
from repro.ir.block import BasicBlock
from repro.obs import recorder as _obs
from repro.obs.decisions import Candidate, Decision


# ----------------------------------------------------------------------
# The Fraction list scheduler
# ----------------------------------------------------------------------
class SchedulerState:
    """Mutable bookkeeping for one scheduling run (read by tie-breaks)."""

    def __init__(self, dag: CodeDAG, direction: Direction):
        self.dag = dag
        self.direction = direction
        if direction is Direction.BOTTOM_UP:
            self.unscheduled_neighbors = [len(s) for s in dag._succ]
        else:
            self.unscheduled_neighbors = [len(p) for p in dag._pred]
        self.slot: Dict[int, Fraction] = {}

    def compute_ready_time(self, node: int) -> Fraction:
        """Earliest slot ``node`` may occupy given scheduled neighbours.

        Top-down: ``forward(node) >= forward(p) + latency(p -> node)``.
        Bottom-up: the constraint mirrors to
        ``reverse(node) >= reverse(s) + latency(node -> s)``.
        """
        ready = Fraction(0)
        if self.direction is Direction.BOTTOM_UP:
            for succ, _kind in self.dag.successor_items(node):
                latency = self.dag.edge_latency(node, succ)
                ready = max(ready, self.slot[succ] + Fraction(latency))
        else:
            for pred, _kind in self.dag.predecessor_items(node):
                latency = self.dag.edge_latency(pred, node)
                ready = max(ready, self.slot[pred] + Fraction(latency))
        return ready


def consumed_minus_defined(state: SchedulerState, node: int) -> int:
    """Tie-break 1: consumed minus defined registers, taken literally."""
    inst = state.dag.instructions[node]
    return len(inst.all_uses()) - len(inst.defs)


def exposed_count(state: SchedulerState, node: int) -> int:
    """Tie-break 2: how many DAG nodes scheduling ``node`` exposes
    (predecessors in the bottom-up direction)."""
    if state.direction is Direction.TOP_DOWN:
        neighbors = state.dag.successors(node)
    else:
        neighbors = state.dag.predecessors(node)
    return sum(1 for v in neighbors if state.unscheduled_neighbors[v] == 1)


def original_order(state: SchedulerState, node: int) -> int:
    """Tie-break 3: earliest generated first, in forward order."""
    ident = state.dag.instructions[node].ident
    return -ident if state.direction is Direction.TOP_DOWN else ident


TIE_BREAKS = (consumed_minus_defined, exposed_count, original_order)


def tie_break_columns(state: SchedulerState) -> List[Optional[List[int]]]:
    """Per-node values of the tie-breaks that never change mid-run;
    ``None`` for ``exposed_count``, which is re-evaluated per slot."""
    return [
        None
        if tb is exposed_count
        else [tb(state, v) for v in range(len(state.dag))]
        for tb in TIE_BREAKS
    ]


def _tie_break_values(
    state: SchedulerState, columns, node: int
) -> Tuple[int, ...]:
    return tuple(
        column[node] if column is not None else tb(state, node)
        for tb, column in zip(TIE_BREAKS, columns)
    )


def select_index(
    state: SchedulerState,
    ready: List[Tuple[int, int]],
    prio_rank: List[int],
    columns: List[Optional[List[int]]],
) -> int:
    """Index into ``ready`` of the winner: max priority, then the
    tie-breaks, earliest discovery on exact ties."""
    best_i = 0
    best_r = prio_rank[ready[0][1]]
    tied: Optional[List[int]] = None
    for i in range(1, len(ready)):
        r = prio_rank[ready[i][1]]
        if r > best_r:
            best_i, best_r = i, r
            tied = None
        elif r == best_r:
            if tied is None:
                tied = [best_i]
            tied.append(i)
    if tied is None:
        return best_i
    best_key = _tie_break_values(state, columns, ready[best_i][1])
    for i in tied[1:]:
        key = _tie_break_values(state, columns, ready[i][1])
        if key > best_key:
            best_i, best_key = i, key
    return best_i


def explain_selection(
    state: SchedulerState,
    ready: List[Tuple[int, int]],
    prio_rank: List[int],
    columns: List[Optional[List[int]]],
) -> Tuple[int, str]:
    """:func:`select_index` with its working shown: the winning index
    and the level that decided (``only-candidate``, ``priority``,
    ``tie-break:<fn>`` or ``discovery-order``)."""
    if len(ready) == 1:
        return 0, "only-candidate"
    best_r = max(prio_rank[node] for _s, node in ready)
    tied = [
        (i, node)
        for i, (_s, node) in enumerate(ready)
        if prio_rank[node] == best_r
    ]
    if len(tied) == 1:
        return tied[0][0], "priority"
    for tb, column in zip(TIE_BREAKS, columns):
        values = [
            column[node] if column is not None else tb(state, node)
            for _i, node in tied
        ]
        best = max(values)
        tied = [pair for pair, v in zip(tied, values) if v == best]
        if len(tied) == 1:
            return tied[0][0], f"tie-break:{tb.__name__}"
    return tied[0][0], "discovery-order"


def _record_selection(
    rec, state, ready, idx, reason, node_priorities, block_label, time, step
) -> None:
    metrics = rec.metrics
    metrics.observe("sched.ready_size", len(ready), block=block_label)
    metrics.inc("sched.select_reason", 1, block=block_label, reason=reason)
    if rec.decisions is not None:
        instructions = state.dag.instructions
        rec.decisions.record(
            Decision(
                block=block_label,
                step=step,
                time=str(time),
                chosen=ready[idx][1],
                reason=reason,
                candidates=tuple(
                    Candidate(
                        node=node,
                        priority=str(node_priorities[node]),
                        text=str(instructions[node]),
                    )
                    for _s, node in ready
                ),
            )
        )


def schedule_reference(
    dag: CodeDAG,
    block: Optional[BasicBlock] = None,
    direction: Direction = Direction.BOTTOM_UP,
) -> ScheduleResult:
    """Schedule ``dag`` on the exact ``Fraction`` clock.

    Exposed-but-not-yet-ready nodes wait in a heap keyed by ready time;
    ready nodes live in a list kept in discovery order.  With
    observability on, every selection is narrated into the recorder's
    metrics (and decision log) exactly as the engine does.
    """
    n = len(dag)
    node_priorities = compute_priorities(dag)
    state = SchedulerState(dag, direction)
    distinct = sorted(set(node_priorities))
    rank_of = {p: i for i, p in enumerate(distinct)}
    prio_rank = [rank_of[p] for p in node_priorities]
    columns = tie_break_columns(state)
    bottom_up = direction is Direction.BOTTOM_UP

    rec = _obs.get()
    block_label = None
    if rec is not None:
        block_label = (block.name if block is not None else None) or str(
            rec.context().get("block", "?")
        )

    zero = Fraction(0)
    # ``pending``: (ready_time, seq, node); ``ready``: (seq, node).
    pending: List[Tuple[Fraction, int, int]] = []
    ready: List[Tuple[int, int]] = []
    seq = 0
    for v in dag.nodes():
        if state.unscheduled_neighbors[v] == 0:
            ready.append((seq, v))
            seq += 1

    time = zero
    noop_span = zero
    placement: List[int] = []
    while len(placement) < n:
        while pending and pending[0][0] <= time:
            _, s, v = heappop(pending)
            insort(ready, (s, v))
        if not ready:
            next_time = pending[0][0]
            noop_span += next_time - time
            time = next_time
            continue

        if rec is None:
            idx = select_index(state, ready, prio_rank, columns)
        else:
            idx, reason = explain_selection(state, ready, prio_rank, columns)
            _record_selection(
                rec, state, ready, idx, reason, node_priorities,
                block_label, time, len(placement),
            )
        chosen = ready.pop(idx)[1]
        state.slot[chosen] = time
        placement.append(chosen)
        time += 1

        neighbors = (
            dag.predecessors(chosen) if bottom_up else dag.successors(chosen)
        )
        unscheduled = state.unscheduled_neighbors
        for neighbor in neighbors:
            unscheduled[neighbor] -= 1
            if unscheduled[neighbor] == 0:
                rt = state.compute_ready_time(neighbor)
                if rt <= time:
                    insort(ready, (seq, neighbor))
                else:
                    heappush(pending, (rt, seq, neighbor))
                seq += 1

    order = list(reversed(placement)) if bottom_up else placement
    instructions = [dag.instructions[v] for v in order]
    if block is not None:
        emitted = block.replaced(instructions)
    else:
        emitted = BasicBlock("scheduled")
        emitted.instructions = instructions
    return ScheduleResult(
        order=order,
        block=emitted,
        noop_span=noop_span,
        priorities=node_priorities,
        slots=dict(state.slot),
    )


# ----------------------------------------------------------------------
# The naive balanced weights
# ----------------------------------------------------------------------
def _is_load(dag: CodeDAG, node: int) -> bool:
    return dag.is_load(node)


def _closure_bfs(dag: CodeDAG, start: int, forward: bool) -> Set[int]:
    """Transitive closure by explicit BFS."""
    seen: Set[int] = set()
    frontier = [start]
    while frontier:
        node = frontier.pop()
        neighbors = dag.successors(node) if forward else dag.predecessors(node)
        for nxt in neighbors:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def _components_bfs(dag: CodeDAG, nodes: Set[int]) -> List[Set[int]]:
    """Weakly connected components by explicit BFS."""
    remaining = set(nodes)
    out: List[Set[int]] = []
    while remaining:
        seed = remaining.pop()
        component = {seed}
        frontier = [seed]
        while frontier:
            v = frontier.pop()
            for u in dag.successors(v) + dag.predecessors(v):
                if u in remaining:
                    remaining.discard(u)
                    component.add(u)
                    frontier.append(u)
        out.append(component)
    return out


def _chances_dp(dag: CodeDAG, component: Set[int], is_weighted) -> int:
    """Max weighted nodes on any path (DP over sorted node order)."""
    best: Dict[int, int] = {}
    answer = 0
    for v in sorted(component):
        through = max(
            (best[p] for p in dag.predecessors(v) if p in component), default=0
        )
        best[v] = through + (1 if is_weighted(dag, v) else 0)
        answer = max(answer, best[v])
    return answer


def balanced_weights_reference(
    dag: CodeDAG, is_weighted=_is_load
) -> Dict[int, Fraction]:
    """Naive re-derivation of :func:`repro.core.weights.balanced_weights`;
    ``Chances`` counts the nodes ``is_weighted`` selects."""
    weights: Dict[int, Fraction] = {
        v: Fraction(1) for v in dag.nodes() if is_weighted(dag, v)
    }
    if not weights:
        return weights
    all_nodes = set(dag.nodes())
    for i in dag.nodes():
        excluded = _closure_bfs(dag, i, forward=True)
        excluded |= _closure_bfs(dag, i, forward=False)
        excluded.add(i)
        for component in _components_bfs(dag, all_nodes - excluded):
            weighted = [v for v in component if is_weighted(dag, v)]
            if not weighted:
                continue
            chances = _chances_dp(dag, component, is_weighted)
            for v in weighted:
                weights[v] += Fraction(dag.issue_slots(i), chances)
    return weights
