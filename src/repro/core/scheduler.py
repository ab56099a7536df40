"""The list scheduler shared by both weighting policies.

Faithful to Section 4.1 of the paper:

* **Bottom-up by default**: "Our list scheduler is a bottom-up
  scheduler, therefore we generate schedules in reverse order by
  scheduling from the leaves of the code DAG toward the roots."  The
  bottom-up direction is what the table experiments use, and it is
  what gives the evaluation its character: a bottom-up scheduler with
  fixed load weights systematically misallocates the scarce
  independent instructions (they cluster at the leaf end of the
  block), which is precisely the pathology the paper's Section 5
  describes for the traditional scheduler and which balanced
  weighting corrects.  A ``top-down`` direction is also provided: the
  *illustrated* schedules (Figures 2 and 5) are what a forward
  scheduler emits, so the figure-reproduction experiments use it.
  EXPERIMENTS.md discusses the distinction; the direction ablation
  benchmark quantifies it.
* **Delayed ready-list insertion**: "our scheduler defers adding these
  instructions to the ready list until each predecessor has exhausted
  its expected latency.  In the case of starvation the scheduler
  inserts virtual no-op's into the instruction stream."  (In the
  bottom-up direction the roles of predecessor/successor mirror: a
  node becomes ready once its own latency has elapsed past every
  scheduled consumer.)
* **Priority**: "the priority of an instruction is equal to its weight
  plus the maximum priority among its successors."
* **Tie-breaks**, in order: (1) "the largest difference between
  consumed and defined registers", taken literally (see
  :func:`consumed_minus_defined` for why the literal form matters);
  (2) most DAG nodes exposed for scheduling; (3) original program
  order ("the instruction that was generated the earliest"),
  direction-mirrored so both directions prefer to preserve source
  order among equals.

Because balanced weights are fractions, scheduling time is exact
:class:`fractions.Fraction`; on starvation, time advances directly to
the earliest pending ready time (the gap is the virtual no-op span).
Virtual no-ops never reach the emitted block -- the simulated
processors use hardware interlocks (Section 4.1).
"""

from __future__ import annotations

import enum
from bisect import insort
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.critical_path import priorities as compute_priorities
from ..analysis.dag import CodeDAG
from ..ir.block import BasicBlock
from ..obs import recorder as _obs
from ..obs.decisions import Candidate, Decision
from . import schedfast

Weight = Union[int, Fraction]


class Direction(enum.Enum):
    """Which end of the DAG the scheduler fills first."""

    BOTTOM_UP = "bottom-up"
    TOP_DOWN = "top-down"


#: A tie-break key function: maps (scheduler state, node) -> sortable
#: value; larger wins.  A tie-break whose value never changes while a
#: block is being scheduled (it reads only the DAG and the direction,
#: not the mutable state) may set ``state_invariant = True`` on the
#: function; the scheduler then computes it once per node instead of
#: once per (slot, candidate).  Unmarked tie-breaks are re-evaluated
#: every time, which is always correct.
TieBreak = Callable[["_SchedulerState", int], Union[int, float, Fraction]]


def consumed_minus_defined(state: "_SchedulerState", node: int) -> int:
    """Tie-break 1, the paper's wording taken literally: "the largest
    difference between consumed and defined registers".

    In a forward scheduler this retires values quickly (consuming
    instructions go first).  In the paper's bottom-up scheduler the
    same preference defers value-*producing* instructions among ties,
    pushing loads up and away from their consumers -- which is what
    gives the fixed-weight traditional baseline the register-pressure
    profile Section 5 describes (and GCC exhibited).
    """
    inst = state.dag.instructions[node]
    return len(inst.all_uses()) - len(inst.defs)


consumed_minus_defined.state_invariant = True


def register_pressure(state: "_SchedulerState", node: int) -> int:
    """Direction-mirrored pressure tie-break (ablation variant).

    Prefers whichever candidate shrinks the live set in the direction
    actually being scheduled; in the bottom-up direction this
    serialises independent chains and produces markedly lower register
    pressure than the paper's scheduler -- the ablation benchmark
    quantifies the difference.
    """
    inst = state.dag.instructions[node]
    delta = len(inst.all_uses()) - len(inst.defs)
    return delta if state.direction is Direction.TOP_DOWN else -delta


register_pressure.state_invariant = True


def exposed_count(state: "_SchedulerState", node: int) -> int:
    """Tie-break 2: how many DAG nodes scheduling ``node`` exposes.

    "the number of successors in the code DAG that would be exposed
    for scheduling if that instruction were to be selected" -- in the
    bottom-up direction the exposed nodes are predecessors.
    """
    if state.direction is Direction.TOP_DOWN:
        return sum(
            1
            for s in state.dag.successors(node)
            if state.unscheduled_neighbors[s] == 1
        )
    return sum(
        1
        for p in state.dag.predecessors(node)
        if state.unscheduled_neighbors[p] == 1
    )


def original_order(state: "_SchedulerState", node: int) -> int:
    """Tie-break 3: "the instruction that was generated the earliest".

    Mirrored per direction so that equals keep their source order in
    the *forward* schedule either way.
    """
    ident = state.dag.instructions[node].ident
    return -ident if state.direction is Direction.TOP_DOWN else ident


original_order.state_invariant = True


DEFAULT_TIE_BREAKS: Tuple[TieBreak, ...] = (
    consumed_minus_defined,
    exposed_count,
    original_order,
)


@dataclass
class ScheduleResult:
    """Outcome of scheduling one basic block.

    ``order`` lists node indices in forward (issue) order; ``block``
    is the input block with instructions reordered accordingly;
    ``noop_span`` is the total time gap covered by virtual no-ops (a
    diagnostic: how often the ready list starved); ``priorities`` are
    the computed node priorities; ``slots`` maps each node to the time
    slot the scheduler placed it in (reverse time for bottom-up).
    """

    order: List[int]
    block: BasicBlock
    noop_span: Fraction
    priorities: List[Weight]
    slots: Dict[int, Fraction] = field(default_factory=dict)


class _SchedulerState:
    """Mutable bookkeeping for one scheduling run (visible to tie-breaks)."""

    def __init__(self, dag: CodeDAG, direction: Direction):
        self.dag = dag
        self.direction = direction
        if direction is Direction.BOTTOM_UP:
            self.unscheduled_neighbors = [len(s) for s in dag._succ]
        else:
            self.unscheduled_neighbors = [len(p) for p in dag._pred]
        self.slot: Dict[int, Fraction] = {}
        self.ready_time: Dict[int, Fraction] = {}

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
                candidate = self.slot[succ] + Fraction(latency)
                if candidate > ready:
                    ready = candidate
        else:
            for pred, _kind in self.dag.predecessor_items(node):
                latency = self.dag.edge_latency(pred, node)
                candidate = self.slot[pred] + Fraction(latency)
                if candidate > ready:
                    ready = candidate
        return ready


class ListScheduler:
    """The list scheduler; construct once, reuse across blocks."""

    def __init__(
        self,
        tie_breaks: Sequence[TieBreak] = DEFAULT_TIE_BREAKS,
        direction: Direction = Direction.BOTTOM_UP,
    ):
        self.tie_breaks: Tuple[TieBreak, ...] = tuple(tie_breaks)
        self.direction = direction

    # ------------------------------------------------------------------
    def schedule(
        self, dag: CodeDAG, block: Optional[BasicBlock] = None
    ) -> ScheduleResult:
        """Schedule ``dag``; if ``block`` given, also emit the reordered block.

        Dispatches to the array-native engine (:mod:`repro.core.
        schedfast`: packed int64 selection keys over a scaled-integer
        clock) whenever the tie-break chain is expressible there --
        every tie-break ``state_invariant`` or the known
        ``exposed_count`` -- and falls back to the reference
        ``Fraction`` path otherwise.  Both engines produce byte-
        identical results; the property tests and the differential
        fuzz sweep hold them together.
        """
        plan = None
        static_vals: List[Optional[List]] = []
        if len(dag) > 0:
            state = _SchedulerState(dag, self.direction)
            static_vals = [
                [tb(state, v) for v in range(len(dag))]
                if getattr(tb, "state_invariant", False)
                else None
                for tb in self.tie_breaks
            ]
            plan = schedfast.build_plan(
                dag,
                self.tie_breaks,
                static_vals,
                self.direction is Direction.BOTTOM_UP,
                exposed_count,
            )
        rec = _obs.get()
        if plan is None:
            if rec is not None:
                rec.metrics.inc("sched.fast_path", 1, engine="reference")
            return self._schedule_reference(dag, block, rec)
        if rec is not None:
            rec.metrics.inc("sched.fast_path", 1, engine="fast")
        return self._schedule_fast(dag, block, plan, rec)

    def _schedule_fast(
        self,
        dag: CodeDAG,
        block: Optional[BasicBlock],
        plan: "schedfast.FastPlan",
        rec,
    ) -> ScheduleResult:
        """Run the array-native engine and reconstruct the exact
        ``Fraction`` result surface (slots, no-op span, priorities)."""
        scale = plan.scale
        observe = None
        if rec is not None:
            block_label = (
                block.name if block is not None else None
            ) or str(rec.context().get("block", "?"))
            metrics = rec.metrics
            log = rec.decisions
            instructions = dag.instructions
            priority_text = [str(Fraction(u, scale)) for u in plan.prio_units]
            step_box = [0]

            def observe(ready_pairs, chosen, reason, time_units):
                metrics.observe(
                    "sched.ready_size", len(ready_pairs), block=block_label
                )
                metrics.inc(
                    "sched.select_reason", 1, block=block_label, reason=reason
                )
                if log is not None:
                    log.record(
                        Decision(
                            block=block_label,
                            step=step_box[0],
                            time=str(Fraction(time_units, scale)),
                            chosen=chosen,
                            reason=reason,
                            candidates=tuple(
                                Candidate(
                                    node=node,
                                    priority=priority_text[node],
                                    text=str(instructions[node]),
                                )
                                for _s, node in ready_pairs
                            ),
                        )
                    )
                step_box[0] += 1

        placement, slot_units, noop_units = schedfast.run_plan(
            plan, observe, self.tie_breaks
        )
        bottom_up = self.direction is Direction.BOTTOM_UP
        order = list(reversed(placement)) if bottom_up else placement
        return ScheduleResult(
            order=order,
            block=self._emit(dag, order, block),
            noop_span=Fraction(noop_units, scale),
            priorities=[Fraction(u, scale) for u in plan.prio_units],
            slots={v: Fraction(slot_units[v], scale) for v in placement},
        )

    def _schedule_reference(
        self, dag: CodeDAG, block: Optional[BasicBlock], rec
    ) -> ScheduleResult:
        """The reference engine (exact ``Fraction`` clock; the oracle
        the fast path is tested against).

        Hot-path layout: exposed-but-not-yet-ready nodes wait in a heap
        keyed by ready time; ready nodes live in a list kept in global
        discovery order (the order the old linear scan of ``available``
        produced), so selection still walks candidates earliest-first
        and all tie-break semantics -- including insertion-order wins on
        exact key ties -- are preserved byte-for-byte.  Priorities are
        compared through dense integer ranks instead of ``Fraction``
        arithmetic, and ``state_invariant`` tie-break values are cached
        per node, so a slot costs one integer scan of the ready list
        plus tie-break evaluation only among the priority co-leaders.
        """
        n = len(dag)
        node_priorities = compute_priorities(dag)
        state = _SchedulerState(dag, self.direction)

        # Priorities never change mid-run: map each distinct Fraction
        # to its dense sort rank once, then select on int comparisons.
        distinct = sorted(set(node_priorities))
        rank_of = {p: i for i, p in enumerate(distinct)}
        prio_rank = [rank_of[p] for p in node_priorities]

        tie_breaks = self.tie_breaks
        static_vals: List[Optional[List]] = [
            [tb(state, v) for v in range(n)]
            if getattr(tb, "state_invariant", False)
            else None
            for tb in tie_breaks
        ]

        zero = Fraction(0)
        # ``pending`` holds exposed nodes whose ready time is still in
        # the future: (ready_time, seq, node).  ``ready`` holds nodes
        # eligible now, as (seq, node) sorted by seq -- the global
        # discovery order, identical to the old ``available`` scan.
        pending: List[Tuple[Fraction, int, int]] = []
        ready: List[Tuple[int, int]] = []
        seq = 0
        for v in dag.nodes():
            if state.unscheduled_neighbors[v] == 0:
                state.ready_time[v] = zero
                ready.append((seq, v))
                seq += 1

        time = zero
        noop_span = zero
        placement: List[int] = []
        bottom_up = self.direction is Direction.BOTTOM_UP

        # Observability: the recorder is read once per schedule() call
        # by the dispatcher; the ``rec is None`` branch below is the
        # only per-slot cost when disabled.
        block_label = None
        if rec is not None:
            block_label = (block.name if block is not None else None) or str(
                rec.context().get("block", "?")
            )

        while len(placement) < n:
            while pending and pending[0][0] <= time:
                _, s, v = heappop(pending)
                insort(ready, (s, v))
            if not ready:
                # Starvation: virtual no-ops fill the gap to the next
                # pending ready time.
                next_time = pending[0][0]
                noop_span += next_time - time
                time = next_time
                continue

            if rec is None:
                idx = self._select_index(
                    state, ready, prio_rank, static_vals, tie_breaks
                )
            else:
                idx = self._select_observed(
                    rec, state, ready, prio_rank, static_vals, tie_breaks,
                    node_priorities, block_label, time, len(placement),
                )
            chosen = ready.pop(idx)[1]
            state.slot[chosen] = time
            placement.append(chosen)
            time += 1

            neighbors = (
                dag.predecessors(chosen)
                if bottom_up
                else dag.successors(chosen)
            )
            unscheduled = state.unscheduled_neighbors
            for neighbor in neighbors:
                unscheduled[neighbor] -= 1
                if unscheduled[neighbor] == 0:
                    rt = state.compute_ready_time(neighbor)
                    state.ready_time[neighbor] = rt
                    if rt <= time:
                        insort(ready, (seq, neighbor))
                    else:
                        heappush(pending, (rt, seq, neighbor))
                    seq += 1

        order = (
            list(reversed(placement))
            if bottom_up
            else placement
        )
        scheduled_block = self._emit(dag, order, block)
        return ScheduleResult(
            order=order,
            block=scheduled_block,
            noop_span=noop_span,
            priorities=node_priorities,
            slots=dict(state.slot),
        )

    # ------------------------------------------------------------------
    def _select_index(
        self,
        state: _SchedulerState,
        ready: List[Tuple[int, int]],
        prio_rank: List[int],
        static_vals: List[Optional[List]],
        tie_breaks: Tuple[TieBreak, ...],
    ) -> int:
        """Index into ``ready`` of the winner: max priority, then the
        tie-breaks, earliest discovery on exact ties."""
        best_i = 0
        best_r = prio_rank[ready[0][1]]
        tied: Optional[List[Tuple[int, int]]] = None
        for i in range(1, len(ready)):
            node = ready[i][1]
            r = prio_rank[node]
            if r > best_r:
                best_i, best_r = i, r
                tied = None
            elif r == best_r:
                if tied is None:
                    tied = [(best_i, ready[best_i][1])]
                tied.append((i, node))
        # With no co-leaders there is nothing to break; with an empty
        # tie-break chain the earliest co-leader wins -- and that is
        # ``best_i`` in both cases (``tied[0]`` is always
        # ``(best_i, ...)``: co-leaders are collected in scan order).
        if tied is None or not tie_breaks:
            return best_i

        def key(node: int) -> Tuple:
            return tuple(
                vals[node] if vals is not None else tb(state, node)
                for tb, vals in zip(tie_breaks, static_vals)
            )

        best_i, best_node = tied[0]
        best_key = key(best_node)
        for i, node in tied[1:]:
            k = key(node)
            if k > best_key:
                best_i, best_key = i, k
        return best_i

    def _explain_selection(
        self,
        state: _SchedulerState,
        ready: List[Tuple[int, int]],
        prio_rank: List[int],
        static_vals: List[Optional[List]],
        tie_breaks: Tuple[TieBreak, ...],
    ) -> Tuple[int, str]:
        """:meth:`_select_index` with its working shown.

        Returns the winning index *and why it won*: ``only-candidate``,
        ``priority`` (unique max), ``tie-break:<fn>`` (first tie-break
        level that singles out one co-leader), or ``discovery-order``
        (all keys tied exactly; earliest-exposed wins).  Narrowing the
        co-leader set level by level is the lexicographic key
        comparison of :meth:`_select_index` unrolled, so both always
        agree -- the equivalence test holds them together.
        """
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
        for tb, vals in zip(tie_breaks, static_vals):
            values = [
                vals[node] if vals is not None else tb(state, node)
                for _i, node in tied
            ]
            best = max(values)
            tied = [pair for pair, v in zip(tied, values) if v == best]
            if len(tied) == 1:
                return tied[0][0], f"tie-break:{tb.__name__}"
        return tied[0][0], "discovery-order"

    def _select_observed(
        self,
        rec,
        state: _SchedulerState,
        ready: List[Tuple[int, int]],
        prio_rank: List[int],
        static_vals: List[Optional[List]],
        tie_breaks: Tuple[TieBreak, ...],
        node_priorities: List[Weight],
        block_label: str,
        time: Fraction,
        step: int,
    ) -> int:
        """Selection with metrics (and, if on, the decision log)."""
        idx, reason = self._explain_selection(
            state, ready, prio_rank, static_vals, tie_breaks
        )
        metrics = rec.metrics
        metrics.observe("sched.ready_size", len(ready), block=block_label)
        metrics.inc(
            "sched.select_reason", 1, block=block_label, reason=reason
        )
        log = rec.decisions
        if log is not None:
            instructions = state.dag.instructions
            log.record(
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
        return idx

    # ------------------------------------------------------------------
    @staticmethod
    def _emit(
        dag: CodeDAG, order: List[int], block: Optional[BasicBlock]
    ) -> BasicBlock:
        instructions = [dag.instructions[v] for v in order]
        if block is not None:
            return block.replaced(instructions)
        out = BasicBlock("scheduled")
        out.instructions = instructions
        return out


def schedule_dag(
    dag: CodeDAG,
    block: Optional[BasicBlock] = None,
    tie_breaks: Sequence[TieBreak] = DEFAULT_TIE_BREAKS,
    direction: Direction = Direction.BOTTOM_UP,
) -> ScheduleResult:
    """One-shot convenience wrapper around :class:`ListScheduler`."""
    return ListScheduler(tie_breaks, direction).schedule(dag, block)
