"""Optimality-gap report: how far from optimal are the list schedulers?

For every block of the paper suite, the branch-and-bound backend
(:mod:`repro.core.optimal`) computes the exact minimum completion time
under the paper's two fixed-latency memory models -- *optimistic* (all
loads hit, W=2) and *pessimistic* (all loads miss, W=5), the endpoints
of the canonical L80(2,5) cache -- and the report compares the
balanced and traditional list schedules against that ground truth.
A second section sweeps an ε-constraint on the peak live-register
count (pessimistic model) and prints each block's latency-vs-pressure
Pareto front, quantifying what the schedulers' extra parallelism costs
in registers.

Every optimal schedule is re-validated by the independent legality
oracle (:mod:`repro.verify.oracle`); the report counts violations (the
CI smoke gate requires zero).  All numbers are deterministic: the
search budget is an expansion count, not wall-clock, so the rendered
report is byte-stable across machines and committed under
``results/optimal_gap.txt``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..analysis.dependence import build_dag
from ..core.balanced import BalancedScheduler
from ..core.optimal import (
    DEFAULT_NODE_BUDGET,
    OptimalScheduler,
    max_live_registers,
    optimize_order,
    schedule_cost,
)
from ..core.traditional import TraditionalScheduler
from ..verify.oracle import check_schedule
from ..workloads.perfect import load_program, program_names

#: The two fixed-latency models: the endpoints of the paper's L80(2,5)
#: cache (hit time and miss time).
MODELS: Tuple[Tuple[str, int], ...] = (
    ("optimistic", 2),
    ("pessimistic", 5),
)

#: Blocks at or below this size count toward the certified-coverage
#: target (the suite has no larger blocks today; the guard matters for
#: future workloads).
CERTIFIED_SIZE_LIMIT = 64


@dataclass(frozen=True)
class GapRow:
    """One (block, model) comparison against the exact optimum."""

    program: str
    block: str
    instructions: int
    model: str
    load_latency: int
    optimal_cost: int
    lower_bound: int
    certified: bool
    expanded: int
    balanced_cost: int
    traditional_cost: int
    oracle_violations: int

    @staticmethod
    def _gap_pct(cost: int, optimal: int) -> float:
        if optimal <= 0:
            return 0.0
        return (cost / optimal - 1.0) * 100.0

    @property
    def balanced_gap_pct(self) -> float:
        return self._gap_pct(self.balanced_cost, self.optimal_cost)

    @property
    def traditional_gap_pct(self) -> float:
        return self._gap_pct(self.traditional_cost, self.optimal_cost)


@dataclass(frozen=True)
class ParetoPoint:
    """One non-dominated (peak live registers, completion cycles) pair."""

    max_live: int
    cost: int
    certified: bool


@dataclass(frozen=True)
class ParetoFront:
    """ε-constraint sweep for one block (pessimistic model)."""

    program: str
    block: str
    instructions: int
    load_latency: int
    points: Tuple[ParetoPoint, ...]


@dataclass
class OptimalGapReport:
    """All gap rows plus (optionally) the per-block Pareto fronts."""

    rows: List[GapRow]
    fronts: List[ParetoFront] = field(default_factory=list)
    node_budget: int = DEFAULT_NODE_BUDGET

    # ------------------------------------------------------------------
    def certified_fraction(self, size_limit: int = CERTIFIED_SIZE_LIMIT) -> float:
        eligible = [r for r in self.rows if r.instructions <= size_limit]
        if not eligible:
            return 1.0
        return sum(r.certified for r in eligible) / len(eligible)

    @property
    def oracle_violations(self) -> int:
        return sum(r.oracle_violations for r in self.rows)

    # ------------------------------------------------------------------
    def format(self) -> str:
        lines = [
            "Optimal-schedule report: per-block optimality gap "
            "(single-issue, UNLIMITED)",
            f"  branch-and-bound budget: {self.node_budget} expansions/block",
            "",
        ]
        for model, latency in MODELS:
            model_rows = [r for r in self.rows if r.model == model]
            if not model_rows:
                continue
            lines.append(
                f"  model {model} (every load takes W={latency} cycles):"
            )
            header = (
                f"  {'program':8s}{'block':>10s}{'n':>5s}{'optimal':>9s}"
                f"{'status':>11s}{'balanced':>10s}{'gap%':>7s}"
                f"{'trad':>7s}{'gap%':>7s}"
            )
            lines.append(header)
            lines.append("  " + "-" * (len(header) - 2))
            for r in model_rows:
                status = (
                    "certified" if r.certified else f"lb={r.lower_bound}"
                )
                lines.append(
                    f"  {r.program:8s}{r.block:>10s}{r.instructions:>5d}"
                    f"{r.optimal_cost:>9d}{status:>11s}"
                    f"{r.balanced_cost:>10d}{r.balanced_gap_pct:>7.1f}"
                    f"{r.traditional_cost:>7d}{r.traditional_gap_pct:>7.1f}"
                )
            n = len(model_rows)
            certified = sum(r.certified for r in model_rows)
            mean_bal = sum(r.balanced_gap_pct for r in model_rows) / n
            mean_trad = sum(r.traditional_gap_pct for r in model_rows) / n
            lines.append(
                f"  certified {certified}/{n} blocks"
                f"  mean gap: balanced {mean_bal:.1f}%"
                f"  traditional {mean_trad:.1f}%"
            )
            lines.append("")
        lines.append(
            f"  oracle violations across all optimal schedules: "
            f"{self.oracle_violations}"
        )
        if self.fronts:
            lines.append("")
            lines.append(
                "  Pareto fronts, pessimistic model: "
                "(peak live registers -> optimal cycles)"
            )
            for front in self.fronts:
                points = "  ".join(
                    f"({p.max_live} -> {p.cost}{'' if p.certified else '*'})"
                    for p in front.points
                )
                label = f"{front.program}/{front.block}"
                lines.append(f"    {label:18s} {points}")
            if any(not p.certified for f in self.fronts for p in f.points):
                lines.append("    (* = best-effort, budget exhausted)")
        return "\n".join(lines)


# ----------------------------------------------------------------------
def _pareto_front(
    dag, block, load_latency: int, node_budget: int
) -> Tuple[ParetoPoint, ...]:
    """ε-constraint sweep: solve unconstrained, then repeatedly demand
    one register less than the last schedule actually used, until no
    schedule fits.  Each solve minimises cycles under the cap, so the
    collected (pressure, cycles) pairs trace the exact trade-off."""
    points: List[ParetoPoint] = []
    cap: Optional[int] = None
    while True:
        search = optimize_order(
            dag,
            load_latency,
            max_live=cap,
            live_in=block.live_in,
            live_out=block.live_out,
            node_budget=node_budget,
        )
        if not search.feasible or not search.order:
            break
        achieved = max_live_registers(
            dag, search.order, block.live_in, block.live_out
        )
        points.append(ParetoPoint(achieved, search.cost, search.certified))
        cap = achieved - 1
        if cap < 0:
            break
    # Drop dominated entries (a budget-limited solve can return a
    # schedule no better than a lower-pressure neighbour).
    front: List[ParetoPoint] = []
    for p in points:
        if front and p.cost <= front[-1].cost:
            front.pop()
        front.append(p)
    return tuple(front)


def run_optimal_gap(
    programs: Optional[Sequence[str]] = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
    pareto: bool = True,
) -> OptimalGapReport:
    """Compute the optimality-gap report over the paper suite.

    ``programs`` restricts to a subset (CI smoke uses one program);
    ``node_budget`` is the per-solve expansion budget; ``pareto=False``
    skips the ε-constraint sweeps (they dominate the runtime).
    """
    names = list(programs) if programs is not None else program_names()
    rows: List[GapRow] = []
    fronts: List[ParetoFront] = []
    for name in names:
        program = load_program(name)
        for block in program.all_blocks():
            if not block.instructions:
                continue
            dag = build_dag(block)
            balanced_order = BalancedScheduler().schedule_dag(dag, block).order
            for model, latency in MODELS:
                traditional_order = TraditionalScheduler(latency).schedule_dag(
                    dag, block
                ).order
                policy = OptimalScheduler(latency, node_budget=node_budget)
                result = policy.schedule_dag(dag, block)
                violations = check_schedule(block, result.block)
                rows.append(
                    GapRow(
                        program=name,
                        block=block.name,
                        instructions=len(block.instructions),
                        model=model,
                        load_latency=latency,
                        optimal_cost=result.cost,
                        lower_bound=result.lower_bound,
                        certified=result.certified,
                        expanded=result.expanded,
                        balanced_cost=schedule_cost(
                            dag, balanced_order, latency
                        ),
                        traditional_cost=schedule_cost(
                            dag, traditional_order, latency
                        ),
                        oracle_violations=len(violations),
                    )
                )
            if pareto:
                _, pess_latency = MODELS[-1]
                fronts.append(
                    ParetoFront(
                        program=name,
                        block=block.name,
                        instructions=len(block.instructions),
                        load_latency=pess_latency,
                        points=_pareto_front(
                            dag, block, pess_latency, node_budget
                        ),
                    )
                )
    # Model-major presentation: all optimistic rows, then pessimistic.
    rows.sort(key=lambda r: ([m for m, _w in MODELS].index(r.model),))
    return OptimalGapReport(rows=rows, fronts=fronts, node_budget=node_budget)
