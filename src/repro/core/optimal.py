"""Exact basic-block scheduling: the combinatorial baseline.

The paper's evaluation compares two *heuristic* list schedulers; this
module supplies the missing ground truth.  Following the combinatorial
survey of Castañeda Lozano & Schulte (arXiv 1409.7628) we pose single
basic-block scheduling as a complete search over topological orderings
of the dependence DAG and solve it with branch-and-bound:

* **Objective.**  Completion cycles of the block on the paper's
  single-issue machine under a *fixed-latency* memory model: every
  load takes exactly ``load_latency`` cycles (the optimistic model is
  the cache hit time, the pessimistic model the miss time).  For any
  topological order the objective equals
  ``simulate_block(order, [load_latency] * loads, UNLIMITED).cycles``
  -- the property tests pin this equality -- so the exact scheduler
  optimises precisely what the simulator measures.
* **Search.**  Forward (issue-order) enumeration.  A search state is
  the set of already-issued instructions (a bitset), the next issue
  slot ``t`` and the earliest-start times induced by issued TRUE
  predecessors.  States are memoised per bitset with *dominance*
  pruning: a state is cut when a recorded state over the same set had
  no-later ``t`` and componentwise no-later normalised earliest
  starts (completion cost is monotone in both).
* **Bounds.**  Lower bound = max of the slot count (single issue: one
  instruction per cycle) and, per unscheduled node, earliest start
  (static longest path from the roots, dynamic starts from issued
  predecessors, and the current slot) plus its longest latency path to
  a leaf.  The incumbent is seeded with the balanced schedule (and the
  fixed-weight schedule at the model latency), so the search proves
  optimality of the list schedules instead of rediscovering them.
* **Symmetry.**  Interchangeable ready siblings -- same issue time,
  same latency, identical successor structure -- are expanded once.
* **Budget.**  The search counts *expansions* (a deterministic,
  machine-independent unit); past ``node_budget`` it returns the
  incumbent as a *best-effort* schedule together with the root lower
  bound, flagged ``certified=False``.  An optional wall-clock budget
  (``time_budget_s``) exists for interactive use but is off by
  default, keeping reports byte-stable across machines.

A register-pressure cap (``max_live``) turns the same search into the
ε-constraint solver behind the latency-vs-pressure Pareto front: only
orders whose live-register count never exceeds the cap are enumerated.

Everything here is stdlib-only and independent of the list scheduler's
selection machinery; every schedule it emits is a topological order of
the same ``CodeDAG`` and is checked by the ``repro.verify`` oracle in
the pipeline, the fuzz harness and CI.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.critical_path import priorities as compute_priorities
from ..analysis.dag import CodeDAG
from ..ir.block import BasicBlock
from ..obs.recorder import span as _span
from .policy import SchedulingPolicy, observe_load_weights
from .scheduler import Direction, ListScheduler, ScheduleResult
from .weights import balanced_weights

#: Default branch-and-bound expansion budget per block.  Expansions are
#: deterministic (no wall clock involved), so certified/best-effort
#: status is identical on every machine.  The default certifies every
#: block of the paper suite (<= 64 instructions) with a wide margin.
DEFAULT_NODE_BUDGET = 250_000

#: Dominance entries kept per bitset; a bounded frontier keeps memory
#: linear in visited states while still catching almost all revisits.
_MEMO_WIDTH = 12

_INF = float("inf")


class InfeasiblePressureError(ValueError):
    """No topological order satisfies the requested ``max_live`` cap."""


def _require_int_latency(load_latency) -> int:
    """Normalise the model latency like the traditional scheduler does
    (2 and 2.0 are the same model) but insist on an integer: the cost
    model is the integer-cycle simulator."""
    as_fraction = Fraction(load_latency)
    if as_fraction.denominator != 1 or as_fraction < 0:
        raise ValueError(
            f"optimal scheduling needs a non-negative integer load "
            f"latency, got {load_latency!r}"
        )
    return int(as_fraction)


def _model_latencies(dag: CodeDAG, load_latency: int) -> List[int]:
    """Per-node completion latency under the fixed-latency model."""
    return [
        load_latency if inst.is_load else inst.latency
        for inst in dag.instructions
    ]


def issue_times(
    dag: CodeDAG, order: Sequence[int], load_latency: int
) -> Dict[int, int]:
    """Issue slot of every node when ``order`` runs on the single-issue
    interlocked machine with every load at ``load_latency`` cycles.

    The recurrence mirrors :func:`repro.simulate.simulator.
    simulate_block` exactly: an instruction issues at the first free
    slot once every TRUE (register) predecessor's result is ready;
    anti/output/memory edges constrain only the order, which a
    topological enumeration satisfies by construction.
    """
    lat = _model_latencies(dag, load_latency)
    pred_items = [dag.predecessor_items(v) for v in range(len(dag))]
    issue: Dict[int, int] = {}
    t = 0
    for v in order:
        start = t
        for p, kind in pred_items[v]:
            if kind.carries_latency:
                ready = issue[p] + lat[p]
                if ready > start:
                    start = ready
        issue[v] = start
        t = start + 1
    return issue


def schedule_cost(dag: CodeDAG, order: Sequence[int], load_latency: int) -> int:
    """Completion cycles of ``order`` under the fixed-latency model
    (equal to the scalar simulator's ``cycles`` on UNLIMITED)."""
    if not order:
        return 0
    times = issue_times(dag, order, load_latency)
    return times[order[-1]] + 1


# ----------------------------------------------------------------------
# Register pressure (the ε-constraint axis)
# ----------------------------------------------------------------------
def max_live_registers(
    dag: CodeDAG,
    order: Sequence[int],
    live_in: Sequence = (),
    live_out: Sequence = (),
) -> int:
    """Peak live-register count of ``order``.

    A register is live at a program point when it holds a value
    (defined by an already-issued instruction or live into the block)
    that a not-yet-issued instruction still reads, or that is live out
    of the block.  The count is measured after every issue slot; the
    same definition drives the incremental bookkeeping inside the
    ε-constrained search, so the brute-force tests can hold the two
    together.
    """
    state = _PressureState(dag, live_in, live_out)
    peak = state.live_count
    for v in order:
        state.apply(v)
        if state.live_count > peak:
            peak = state.live_count
    return peak


class _PressureState:
    """Incremental live-set bookkeeping with O(changes) undo."""

    __slots__ = ("_uses_left", "_live_out", "_live", "_node_uses", "_node_defs")

    def __init__(self, dag: CodeDAG, live_in: Sequence, live_out: Sequence):
        uses_left: Dict[object, int] = {}
        node_uses: List[Tuple] = []
        node_defs: List[Tuple] = []
        for inst in dag.instructions:
            uses = tuple(set(inst.all_uses()))
            node_uses.append(uses)
            node_defs.append(tuple(inst.defs))
            for reg in uses:
                uses_left[reg] = uses_left.get(reg, 0) + 1
        self._uses_left = uses_left
        self._live_out = frozenset(live_out)
        self._node_uses = node_uses
        self._node_defs = node_defs
        live = set()
        for reg in live_in:
            if uses_left.get(reg, 0) > 0 or reg in self._live_out:
                live.add(reg)
        self._live = live

    @property
    def live_count(self) -> int:
        return len(self._live)

    def apply(self, node: int) -> List[Tuple]:
        """Issue ``node``; returns an undo log for :meth:`undo`."""
        log: List[Tuple] = []
        uses_left = self._uses_left
        live = self._live
        live_out = self._live_out
        for reg in self._node_uses[node]:
            uses_left[reg] -= 1
            log.append(("use", reg))
            if uses_left[reg] == 0 and reg in live and reg not in live_out:
                live.discard(reg)
                log.append(("unlive", reg))
        for reg in self._node_defs[node]:
            was_live = reg in live
            needed = uses_left.get(reg, 0) > 0 or reg in live_out
            if needed and not was_live:
                live.add(reg)
                log.append(("live", reg))
            elif not needed and was_live:
                live.discard(reg)
                log.append(("unlive", reg))
        return log

    def undo(self, log: List[Tuple]) -> None:
        uses_left = self._uses_left
        live = self._live
        for op, reg in reversed(log):
            if op == "use":
                uses_left[reg] += 1
            elif op == "live":
                live.discard(reg)
            else:  # "unlive"
                live.add(reg)


# ----------------------------------------------------------------------
# The branch-and-bound search
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OptimalSearch:
    """Outcome of one branch-and-bound run.

    ``certified`` means the search ran to completion within budget, so
    ``cost == lower_bound`` is the exact optimum; otherwise ``cost`` is
    the best schedule found (never worse than the seeds) and
    ``lower_bound`` is a sound root bound on the true optimum.
    """

    order: Tuple[int, ...]
    cost: int
    lower_bound: int
    certified: bool
    expanded: int
    memo_hits: int
    feasible: bool = True


def optimize_order(
    dag: CodeDAG,
    load_latency: int,
    seed_orders: Sequence[Sequence[int]] = (),
    max_live: Optional[int] = None,
    live_in: Sequence = (),
    live_out: Sequence = (),
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget_s: Optional[float] = None,
) -> OptimalSearch:
    """Minimise completion cycles over topological orders of ``dag``.

    ``seed_orders`` feed the incumbent (infeasible seeds -- under a
    ``max_live`` cap -- are skipped).  With ``max_live`` set, only
    orders whose peak live-register count stays within the cap are
    admitted; ``feasible=False`` reports an unsatisfiable cap.
    """
    load_latency = _require_int_latency(load_latency)
    n = len(dag)
    if n == 0:
        return OptimalSearch((), 0, 0, True, 0, 0)
    if node_budget < 1:
        raise ValueError(f"node_budget must be >= 1, got {node_budget}")

    lat = _model_latencies(dag, load_latency)
    true_succs: List[Tuple[int, ...]] = []
    all_succs: List[Tuple[int, ...]] = []
    succ_sig: List[Tuple] = []
    for v in range(n):
        items = dag.successor_items(v)
        true_succs.append(
            tuple(s for s, kind in items if kind.carries_latency)
        )
        all_succs.append(tuple(s for s, _k in items))
        succ_sig.append(tuple((s, kind.carries_latency) for s, kind in items))

    # Longest latency path *from* each node to a leaf (inclusive)...
    down = [1] * n
    for v in reversed(range(n)):
        best = 1
        for s, kind in dag.successor_items(v):
            d = (lat[v] if kind.carries_latency else 1) + down[s]
            if d > best:
                best = d
        down[v] = best
    # ... and the earliest possible issue slot of each node.
    head = [0] * n
    for v in range(n):
        base = head[v]
        for s, kind in dag.successor_items(v):
            d = base + (lat[v] if kind.carries_latency else 1)
            if d > head[s]:
                head[s] = d
    root_lb = max(n, max(head[v] + down[v] for v in range(n)))

    pressure = (
        _PressureState(dag, live_in, live_out) if max_live is not None else None
    )
    if pressure is not None and pressure.live_count > max_live:
        return OptimalSearch((), 0, root_lb, True, 0, 0, feasible=False)

    best_cost: float = _INF
    best_order: Optional[List[int]] = None
    for seed in seed_orders:
        if len(seed) != n:
            continue
        if (
            max_live is not None
            and max_live_registers(dag, seed, live_in, live_out) > max_live
        ):
            continue
        cost = schedule_cost(dag, seed, load_latency)
        if cost < best_cost:
            best_cost = cost
            best_order = list(seed)

    if best_order is not None and best_cost <= root_lb:
        return OptimalSearch(
            tuple(best_order), int(best_cost), root_lb, True, 0, 0
        )

    ready_preds = [len(dag.predecessors(v)) for v in range(n)]
    est = [0] * n
    scheduled = bytearray(n)
    order_stack: List[int] = []
    memo: Dict[int, List[Tuple[int, Tuple[int, ...]]]] = {}
    full_mask = (1 << n) - 1
    deadline = (
        _time.monotonic() + time_budget_s if time_budget_s is not None else None
    )

    stats = {"expanded": 0, "memo_hits": 0}
    aborted = [False]

    def visit(mask: int, t: int) -> None:
        if mask == full_mask:
            nonlocal best_cost, best_order
            if t < best_cost:
                best_cost = t
                best_order = order_stack.copy()
            return
        stats["expanded"] += 1
        if stats["expanded"] > node_budget:
            aborted[0] = True
            return
        if (
            deadline is not None
            and (stats["expanded"] & 255) == 0
            and _time.monotonic() > deadline
        ):
            aborted[0] = True
            return

        # One pass over the unscheduled set: lower bound + memo key.
        remaining = n - len(order_stack)
        lb = t + remaining
        rel: List[int] = []
        for v in range(n):
            if scheduled[v]:
                continue
            e = est[v]
            start = e if e > t else t
            h = head[v]
            if h > start:
                start = h
            b = start + down[v]
            if b > lb:
                lb = b
            rel.append(e - t if e > t else 0)
        if lb >= best_cost:
            return
        key = tuple(rel)
        entries = memo.get(mask)
        if entries is None:
            memo[mask] = [(t, key)]
        else:
            for t0, rel0 in entries:
                if t0 <= t and all(a <= b for a, b in zip(rel0, key)):
                    stats["memo_hits"] += 1
                    return
            entries.append((t, key))
            if len(entries) > _MEMO_WIDTH:
                entries.pop(0)

        candidates = [
            v for v in range(n) if not scheduled[v] and ready_preds[v] == 0
        ]
        candidates.sort(
            key=lambda v: ((est[v] if est[v] > t else t), -down[v], v)
        )
        seen_sigs = set() if pressure is None else None
        for v in candidates:
            start = est[v] if est[v] > t else t
            if seen_sigs is not None:
                sig = (start, lat[v], succ_sig[v])
                if sig in seen_sigs:
                    continue  # interchangeable with an expanded sibling
                seen_sigs.add(sig)
            if pressure is not None:
                log = pressure.apply(v)
                if pressure.live_count > max_live:
                    pressure.undo(log)
                    continue
            scheduled[v] = 1
            order_stack.append(v)
            completion = start + lat[v]
            est_undo: List[Tuple[int, int]] = []
            for s in true_succs[v]:
                if completion > est[s]:
                    est_undo.append((s, est[s]))
                    est[s] = completion
            for s in all_succs[v]:
                ready_preds[s] -= 1
            visit(mask | (1 << v), start + 1)
            for s in all_succs[v]:
                ready_preds[s] += 1
            for s, old in est_undo:
                est[s] = old
            order_stack.pop()
            scheduled[v] = 0
            if pressure is not None:
                pressure.undo(log)
            if aborted[0]:
                return

    visit(0, 0)

    if best_order is None:
        # No completion found: with a cap that means infeasible (when
        # the search finished) or budget exhaustion before any seed-free
        # solution; without a cap the seeds always supply an incumbent.
        return OptimalSearch(
            (), 0, root_lb, not aborted[0], stats["expanded"],
            stats["memo_hits"], feasible=False,
        )
    certified = not aborted[0]
    return OptimalSearch(
        tuple(best_order),
        int(best_cost),
        int(best_cost) if certified else root_lb,
        certified,
        stats["expanded"],
        stats["memo_hits"],
    )


# ----------------------------------------------------------------------
# The policy wrapper (the third `--policy` choice)
# ----------------------------------------------------------------------
@dataclass
class OptimalScheduleResult(ScheduleResult):
    """A :class:`ScheduleResult` plus the search's certificate.

    ``noop_span`` reports the model interlock (completion cycles minus
    instructions), the diagnostic analogous to the list scheduler's
    starvation span; ``slots`` hold the exact issue cycle of every
    node under the fixed-latency model.
    """

    cost: int = 0
    lower_bound: int = 0
    certified: bool = False
    expanded: int = 0
    load_latency: int = 0


class OptimalScheduler(SchedulingPolicy):
    """Exact scheduling as a drop-in :class:`SchedulingPolicy`.

    Weights every load with the model latency (so priorities and
    diagnostics read like the traditional scheduler's) but replaces
    list selection with the branch-and-bound search, seeded by both
    list schedules.  Flows through :func:`repro.core.compile_block`
    unchanged -- register allocation, the second scheduling pass and
    the verify hook all see a richer :class:`ScheduleResult`.
    """

    name = "optimal"

    def __init__(
        self,
        load_latency: float = 2,
        node_budget: int = DEFAULT_NODE_BUDGET,
        time_budget_s: Optional[float] = None,
        max_live: Optional[int] = None,
        direction: Direction = Direction.BOTTOM_UP,
    ):
        super().__init__(direction)
        self.load_latency = _require_int_latency(load_latency)
        self.node_budget = node_budget
        self.time_budget_s = time_budget_s
        self.max_live = max_live
        self.name = f"optimal(W={self.load_latency})"
        self.weight_key = ("optimal", self.load_latency)

    @property
    def schedule_key(self):
        """The search reads its budget and pressure cap too; a
        wall-clock budget makes the result depend on the host, so such
        schedules are not shared."""
        if self.time_budget_s is not None:
            return None
        return (self.weight_key, self.direction, self.node_budget,
                self.max_live)

    def load_weights(self, dag: CodeDAG) -> Dict[int, int]:
        weights = {node: self.load_latency for node in dag.load_nodes()}
        observe_load_weights(self.name, weights)
        return weights

    def schedule_dag(
        self,
        dag: CodeDAG,
        block: Optional[BasicBlock] = None,
        weights: Optional[Dict[int, int]] = None,
    ) -> OptimalScheduleResult:
        live_in = block.live_in if block is not None else ()
        live_out = block.live_out if block is not None else ()
        seeds: List[Sequence[int]] = []
        with _span("weights", policy=self.name):
            if len(dag) > 0:
                # Seed 1: the balanced schedule (the upper bound the
                # issue calls for); seed 2: the fixed-weight schedule
                # at the model latency.
                balanced = balanced_weights(dag)
                seeds.append(self._scheduler.schedule(dag, None, balanced).order)
            if weights is None:
                weights = self.load_weights(dag)
            if len(dag) > 0:
                seeds.append(self._scheduler.schedule(dag, None, weights).order)
        with _span("schedule", policy=self.name):
            search = optimize_order(
                dag,
                self.load_latency,
                seed_orders=seeds,
                max_live=self.max_live,
                live_in=live_in,
                live_out=live_out,
                node_budget=self.node_budget,
                time_budget_s=self.time_budget_s,
            )
        if not search.feasible:
            raise InfeasiblePressureError(
                f"no schedule of {block.name if block else 'block'} fits "
                f"max_live={self.max_live}"
            )
        order = list(search.order)
        times = issue_times(dag, order, self.load_latency)
        return OptimalScheduleResult(
            order=order,
            block=ListScheduler._emit(dag, order, block),
            noop_span=Fraction(max(search.cost - len(order), 0)),
            priorities=compute_priorities(dag.with_weights(weights)),
            slots={v: Fraction(t) for v, t in times.items()},
            cost=search.cost,
            lower_bound=search.lower_bound,
            certified=search.certified,
            expanded=search.expanded,
            load_latency=self.load_latency,
        )
