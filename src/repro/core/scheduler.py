"""The list scheduler shared by every weighting policy.

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
* **Tie-breaks**, in this fixed order (:data:`TIE_BREAKS`):

  1. ``consumed_minus_defined`` -- "the largest difference between
     consumed and defined registers", taken literally.  In a forward
     scheduler this retires values quickly (consuming instructions go
     first).  In the paper's bottom-up scheduler the same preference
     defers value-*producing* instructions among ties, pushing loads
     up and away from their consumers -- which is what gives the
     fixed-weight traditional baseline the register-pressure profile
     Section 5 describes (and GCC exhibited).
  2. ``exposed_count`` -- "the number of successors in the code DAG
     that would be exposed for scheduling if that instruction were to
     be selected"; in the bottom-up direction the exposed nodes are
     predecessors.
  3. ``original_order`` -- "the instruction that was generated the
     earliest", mirrored per direction so that equals keep their
     source order in the *forward* schedule either way.

  Candidates still tied after all three go in discovery order (the
  order they became ready).

The engine runs one scheduling pass over plain integers:

* **Scaled-integer clock.**  Node weights and per-edge latency labels
  are exact fractions (balanced weights produce twelfths); multiplying
  every latency by ``L`` -- the LCM of their denominators, computed
  per block -- makes every ready time, time advance and virtual-no-op
  span an exact integer.  Dividing by ``L`` on the way out gives the
  exact :class:`fractions.Fraction` slots, priorities and no-op span
  of :class:`ScheduleResult`.  On starvation the clock jumps straight
  to the earliest pending ready time; the gap is the virtual no-op
  span.  Virtual no-ops never reach the emitted block -- the simulated
  processors use hardware interlocks (Section 4.1).
* **Packed selection keys.**  Selection is lexicographic over
  priority, the three tie-breaks and discovery order.  Priority and
  the two static tie-breaks are rank-compressed per block;
  ``exposed_count`` is maintained incrementally (a neighbour's
  unscheduled count crossing 1 adjusts the exposure of every node it
  would expose); discovery order is mirrored into a larger-is-earlier
  field.  Each field gets a bit range inside one non-negative
  ``int64``, so the comparison is a single integer comparison and the
  winner is an ``argmax`` over the ready keys.

The exact-``Fraction`` oracle this engine is tested against lives in
``tests/core/oracles.py``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.dag import CodeDAG, DepKind
from ..ir.block import BasicBlock
from ..obs import recorder as _obs
from ..obs.decisions import Candidate, Decision
from ..obs.metrics import SeriesKey, series_labels

Weight = Union[int, Fraction]


class Direction(enum.Enum):
    """Which end of the DAG the scheduler fills first."""

    BOTTOM_UP = "bottom-up"
    TOP_DOWN = "top-down"


#: The Section 4.1 tie-break chain, in order.  A selection decided by
#: one of them is reported as ``tie-break:<name>``.
TIE_BREAKS = ("consumed_minus_defined", "exposed_count", "original_order")

#: Hard cap on the packed-key width.  int64 is signed; staying at 62
#: bits keeps every key non-negative with headroom for the in-place
#: exposure increments.
_MAX_KEY_BITS = 62


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


# ----------------------------------------------------------------------
# Plan: everything one run needs, precomputed per block
# ----------------------------------------------------------------------
@lru_cache(maxsize=4096)
def _exact(units: int, scale: int) -> Fraction:
    """``units / scale`` as a shared :class:`Fraction`.

    Schedule results keep one exact slot and priority per node, and the
    staged compile memo keeps the results; across the paper suite they
    take ~1.4k distinct values, so sharing the immutable objects saves
    both the memory and the normalising constructor calls.
    """
    return Fraction(units, scale)


def _denominator(value, what: str) -> int:
    if isinstance(value, Fraction):
        return value.denominator
    if isinstance(value, int):
        return 1
    raise TypeError(
        f"{what} is {value!r} ({type(value).__name__}); the scheduler "
        f"needs int or Fraction latencies"
    )


def _to_units(value, scale: int) -> int:
    """``value * scale`` as an exact int (``value`` an int/Fraction)."""
    if isinstance(value, Fraction):
        return value.numerator * (scale // value.denominator)
    return value * scale


def _rank_compress(values: Sequence) -> Tuple[List[int], int]:
    """Dense sort ranks of ``values`` (larger value -> larger rank) and
    the maximum rank."""
    distinct = sorted(set(values))
    rank_of = {v: i for i, v in enumerate(distinct)}
    return [rank_of[v] for v in values], len(distinct) - 1


@dataclass
class SchedulePlan:
    """Everything one scheduling run needs, precomputed."""

    n: int
    scale: int                      # L: the per-block clock multiplier
    prio_units: List[int]           # critical-path priority * L
    consumed: List[int]             # tie-break 1 per node
    order_vals: List[int]           # tie-break 3 per node
    base_keys: List[int]            # static key part per node
    exposed0: List[int]             # initial exposed_count per node
    unscheduled0: List[int]         # initial unscheduled-neighbor counts
    sched_targets: List[List[int]]  # counts to decrement on schedule
    expose_targets: List[List[int]]  # exposure targets per neighbor
    lat_edges: List[List[Tuple[int, int]]]  # ready-time edges (units)
    exposed_shift: int              # bit offset of the dynamic field
    seq_shift: int
    seq_top: int                    # seq field value = seq_top - seq


def build_plan(
    dag: CodeDAG,
    bottom_up: bool,
    weights: Optional[Dict[int, Weight]] = None,
) -> SchedulePlan:
    """Precompute the clock scale, adjacency and static key parts.

    ``weights`` (node -> weight, typically a policy's load weights)
    overrides the DAG's own node weights; the DAG is only read.
    Raises :class:`TypeError` for a node weight or edge latency label
    that is neither an ``int`` nor a ``Fraction`` (floats would break
    exactness), and :class:`ValueError` when the packed selection key
    of a block this large would not fit in 62 bits.
    """
    n = len(dag)

    # ---- the scaled-integer clock -----------------------------------
    node_weights = dag.weights
    if weights:
        node_weights = list(node_weights)
        for v, w in weights.items():
            node_weights[v] = w
    scale = 1
    for v, w in enumerate(node_weights):
        d = _denominator(w, f"the weight of node {v}")
        scale = scale * d // gcd(scale, d)
    overrides = dag._edge_latency
    for (src, dst), value in overrides.items():
        d = _denominator(value, f"the latency label of edge {src}->{dst}")
        scale = scale * d // gcd(scale, d)
    weight_units = [_to_units(w, scale) for w in node_weights]

    # ---- adjacency --------------------------------------------------
    # Only ``sched_targets`` needs sorted neighbour order (it fixes the
    # discovery ``seq`` of newly exposed nodes); latency edges and
    # exposure targets are consumed by max/sum reductions, so the raw
    # dict order is fine and cheaper.
    succ_dicts = dag._succ
    pred_dicts = dag._pred
    true_kind = DepKind.TRUE

    def edge_units(src: int, dst: int, kind, src_units: int) -> int:
        override = overrides.get((src, dst))
        if override is not None:
            return _to_units(override, scale)
        return src_units if kind is true_kind else scale

    if bottom_up:
        sched_targets = [sorted(pred_dicts[v]) for v in range(n)]
        expose_targets = [list(succ_dicts[v]) for v in range(n)]
        unscheduled0 = [len(succ_dicts[v]) for v in range(n)]
        if overrides:
            lat_edges = [
                [
                    (s, edge_units(v, s, kind, weight_units[v]))
                    for s, kind in succ_dicts[v].items()
                ]
                for v in range(n)
            ]
        else:
            lat_edges = [
                [
                    (s, weight_units[v] if kind is true_kind else scale)
                    for s, kind in succ_dicts[v].items()
                ]
                for v in range(n)
            ]
    else:
        sched_targets = [sorted(succ_dicts[v]) for v in range(n)]
        expose_targets = [list(pred_dicts[v]) for v in range(n)]
        unscheduled0 = [len(pred_dicts[v]) for v in range(n)]
        if overrides:
            lat_edges = [
                [
                    (p, edge_units(p, v, kind, weight_units[p]))
                    for p, kind in pred_dicts[v].items()
                ]
                for v in range(n)
            ]
        else:
            lat_edges = [
                [
                    (p, weight_units[p] if kind is true_kind else scale)
                    for p, kind in pred_dicts[v].items()
                ]
                for v in range(n)
            ]
    exposed0 = [0] * n
    for p in range(n):
        if unscheduled0[p] == 1:
            for t in expose_targets[p]:
                exposed0[t] += 1

    # ---- rank-compressed priority (critical path in clock units) ----
    prio_units = [0] * n
    for v in reversed(range(n)):
        best = 0
        for s in succ_dicts[v]:
            u = prio_units[s]
            if u > best:
                best = u
        prio_units[v] = weight_units[v] + best
    prio_rank, prio_max = _rank_compress(prio_units)

    # ---- the two static tie-breaks ----------------------------------
    instructions = dag.instructions
    consumed = [len(inst.all_uses()) - len(inst.defs) for inst in instructions]
    if bottom_up:
        order_vals = [inst.ident for inst in instructions]
    else:
        order_vals = [-inst.ident for inst in instructions]
    consumed_rank, consumed_max = _rank_compress(consumed)
    order_rank, order_max = _rank_compress(order_vals)

    # ---- key packing: prio | consumed | exposed | order | seq -------
    max_exposed = max((len(t) for t in sched_targets), default=0)
    seq_top = n - 1
    widths = [
        prio_max.bit_length(),
        consumed_max.bit_length(),
        max_exposed.bit_length(),
        order_max.bit_length(),
        seq_top.bit_length(),
    ]
    if sum(widths) > _MAX_KEY_BITS:
        raise ValueError(
            f"a block of {n} instructions needs a {sum(widths)}-bit "
            f"selection key; the scheduler packs keys into "
            f"{_MAX_KEY_BITS} bits"
        )
    seq_shift = 0
    order_shift = seq_shift + widths[4]
    exposed_shift = order_shift + widths[3]
    consumed_shift = exposed_shift + widths[2]
    prio_shift = consumed_shift + widths[1]
    base_keys = [
        (prio_rank[v] << prio_shift)
        | (consumed_rank[v] << consumed_shift)
        | (order_rank[v] << order_shift)
        for v in range(n)
    ]

    return SchedulePlan(
        n=n,
        scale=scale,
        prio_units=prio_units,
        consumed=consumed,
        order_vals=order_vals,
        base_keys=base_keys,
        exposed0=exposed0,
        unscheduled0=unscheduled0,
        sched_targets=sched_targets,
        expose_targets=expose_targets,
        lat_edges=lat_edges,
        exposed_shift=exposed_shift,
        seq_shift=seq_shift,
        seq_top=seq_top,
    )


#: ``observe(ready_pairs, chosen, reason, time_units)``, called once
#: per slot when observability is on.
Observer = Callable[[List[Tuple[int, int]], int, str, int], None]


def run_plan(
    plan: SchedulePlan, observe: Optional[Observer]
) -> Tuple[List[int], List[int], int]:
    """Execute one scheduling run over a :class:`SchedulePlan`.

    Returns ``(placement, slot_units, noop_units)``: node indices in
    placement order, each node's slot in clock units, and the virtual
    no-op span in clock units.  ``observe``, when given, is called per
    slot with the ready list in discovery order, the chosen node, the
    selection reason and the integer time -- the observed path derives
    decision-log records from it.
    """
    n = plan.n
    scale = plan.scale
    unscheduled = list(plan.unscheduled0)
    exposed = list(plan.exposed0)
    base_keys = plan.base_keys
    exposed_shift = plan.exposed_shift
    seq_shift = plan.seq_shift
    seq_top = plan.seq_top
    exposed_one = 1 << exposed_shift

    keys = np.zeros(n, dtype=np.int64)
    rnodes: List[int] = [0] * n            # ready prefix [0:rsize]
    pos = [-1] * n                         # node -> index into rnodes
    seq_of = [0] * n
    rsize = 0

    def add_ready(v: int, seq: int) -> None:
        nonlocal rsize
        keys[rsize] = (
            base_keys[v]
            | (exposed[v] << exposed_shift)
            | ((seq_top - seq) << seq_shift)
        )
        rnodes[rsize] = v
        pos[v] = rsize
        rsize += 1

    pending: List[Tuple[int, int, int]] = []
    seq = 0
    for v in range(n):
        if unscheduled[v] == 0:
            seq_of[v] = seq
            add_ready(v, seq)
            seq += 1

    slot_units = [0] * n
    placement: List[int] = []
    time = 0
    noop_units = 0
    sched_targets = plan.sched_targets
    expose_targets = plan.expose_targets
    lat_edges = plan.lat_edges

    while len(placement) < n:
        while pending and pending[0][0] <= time:
            _, s, v = heappop(pending)
            add_ready(v, s)
        if rsize == 0:
            next_time = pending[0][0]
            noop_units += next_time - time
            time = next_time
            continue

        if observe is not None:
            ready_pairs = sorted((seq_of[v], v) for v in rnodes[:rsize])
            chosen, reason = _explain(plan, exposed, ready_pairs)
            observe(ready_pairs, chosen, reason, time)
        elif rsize == 1:
            chosen = rnodes[0]
        else:
            chosen = rnodes[keys[:rsize].argmax()]

        # Swap-remove the winner from the ready prefix.
        i = pos[chosen]
        last = rsize - 1
        moved = rnodes[last]
        rnodes[i] = moved
        keys[i] = keys[last]
        pos[moved] = i
        pos[chosen] = -1
        rsize = last

        slot_units[chosen] = time
        placement.append(chosen)
        time += scale

        for neighbor in sched_targets[chosen]:
            count = unscheduled[neighbor] - 1
            unscheduled[neighbor] = count
            if count == 1:
                for t in expose_targets[neighbor]:
                    exposed[t] += 1
                    p = pos[t]
                    if p >= 0:
                        keys[p] += exposed_one
            elif count == 0:
                for t in expose_targets[neighbor]:
                    exposed[t] -= 1
                    p = pos[t]
                    if p >= 0:
                        keys[p] -= exposed_one
                ready_at = 0
                for u, lat in lat_edges[neighbor]:
                    candidate = slot_units[u] + lat
                    if candidate > ready_at:
                        ready_at = candidate
                seq_of[neighbor] = seq
                if ready_at <= time:
                    add_ready(neighbor, seq)
                else:
                    heappush(pending, (ready_at, seq, neighbor))
                seq += 1

    return placement, slot_units, noop_units


def _explain(
    plan: SchedulePlan,
    exposed: List[int],
    ready_pairs: List[Tuple[int, int]],
) -> Tuple[int, str]:
    """The packed-key selection with its working shown.

    Narrows the co-leader set level by level -- priority, then each
    tie-break of :data:`TIE_BREAKS` -- and names the level that singled
    out the winner: ``only-candidate``, ``priority``,
    ``tie-break:<name>``, or ``discovery-order`` (all keys tied; the
    earliest-exposed wins).  Only runs under observability.
    """
    if len(ready_pairs) == 1:
        return ready_pairs[0][1], "only-candidate"
    prio = plan.prio_units
    best = max(prio[node] for _s, node in ready_pairs)
    tied = [pair for pair in ready_pairs if prio[pair[1]] == best]
    if len(tied) == 1:
        return tied[0][1], "priority"
    for name, column in zip(
        TIE_BREAKS, (plan.consumed, exposed, plan.order_vals)
    ):
        values = [column[node] for _s, node in tied]
        best_v = max(values)
        tied = [pair for pair, v in zip(tied, values) if v == best_v]
        if len(tied) == 1:
            return tied[0][1], f"tie-break:{name}"
    return tied[0][1], "discovery-order"


def _observer(
    rec, dag: CodeDAG, block: Optional[BasicBlock], plan: SchedulePlan
) -> Observer:
    """Per-slot selection metrics (and, if on, the decision log)."""
    block_label = (block.name if block is not None else None) or str(
        rec.context().get("block", "?")
    )
    scale = plan.scale
    metrics = rec.metrics
    log = rec.decisions
    instructions = dag.instructions
    priority_text = (
        None if log is None
        else [str(Fraction(u, scale)) for u in plan.prio_units]
    )
    step_box = [0]
    # Series keys are built once per block, not once per step.
    ready_key = ("sched.ready_size", series_labels({"block": block_label}))
    reason_keys: Dict[str, SeriesKey] = {}

    def observe(ready_pairs, chosen, reason, time_units):
        metrics.observe_series(ready_key, len(ready_pairs))
        reason_key = reason_keys.get(reason)
        if reason_key is None:
            reason_key = reason_keys[reason] = (
                "sched.select_reason",
                series_labels({"block": block_label, "reason": reason}),
            )
        metrics.inc_series(reason_key, 1)
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

    return observe


# ----------------------------------------------------------------------
class ListScheduler:
    """The list scheduler; construct once, reuse across blocks."""

    def __init__(self, direction: Direction = Direction.BOTTOM_UP):
        self.direction = direction

    def schedule(
        self,
        dag: CodeDAG,
        block: Optional[BasicBlock] = None,
        weights: Optional[Dict[int, Weight]] = None,
    ) -> ScheduleResult:
        """Schedule ``dag`` with ``weights`` (node -> weight) over its
        node weights; if ``block`` given, also emit the reordered block."""
        bottom_up = self.direction is Direction.BOTTOM_UP
        plan = build_plan(dag, bottom_up, weights)
        rec = _obs.get()
        observe = None if rec is None else _observer(rec, dag, block, plan)
        placement, slot_units, noop_units = run_plan(plan, observe)
        scale = plan.scale
        order = placement[::-1] if bottom_up else placement
        return ScheduleResult(
            order=order,
            block=self._emit(dag, order, block),
            noop_span=_exact(noop_units, scale),
            priorities=[_exact(u, scale) for u in plan.prio_units],
            slots={v: _exact(slot_units[v], scale) for v in placement},
        )

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
    direction: Direction = Direction.BOTTOM_UP,
) -> ScheduleResult:
    """One-shot convenience wrapper around :class:`ListScheduler`."""
    return ListScheduler(direction).schedule(dag, block)
