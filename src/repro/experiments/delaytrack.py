"""Delay-tracking study: does compile-time scheduling still matter when
the hardware adapts at run time?

Balanced scheduling's premise is that the *compiler* must spread
uncertain load latencies because the hardware cannot.  A delay-tracking
issue unit (:mod:`repro.machine.processor`,
``load_delay_tracking``) weakens that premise: loads that win a
tracking-table entry announce their return time, and the front end
parks stalled instructions and issues younger ready work meanwhile.
This study sweeps the tracking-table size from 0 (the paper's in-order
interlocked machine) to effectively infinite (perfect per-load
knowledge) and measures, per Perfect Club program on the canonical
N(2,5) network memory, the runtime improvement of three
compile-time-knowledge policies over the traditional scheduler:

* **balanced** -- the paper's policy (no latency knowledge assumed);
* **known-latency** -- balanced weights with every load pinned to the
  memory system's mean (:func:`repro.extensions.known_latency.
  expected_latency`), the compile-time counterpart of delay tracking;
* **optimal** -- the branch-and-bound backend's exact schedule under
  the fixed mean-latency model (best-effort at the study budget).

The scalar engine's issue order is additionally verified: one seeded
latency draw per (program, policy, block, table) replays through
:func:`repro.simulate.simulator.delaytrack_issue_trace` and must pass
the independent admissibility oracle
(:func:`repro.verify.check_delaytrack_issue`); the report prints the
trace and violation counts and the CI smoke gate requires zero
violations.  The replay is organised by compiled block: the block's
conflict successors (engine) and hardware-ordered pairs (oracle) do
not depend on the table, so each is built once and shared by the
block's table replays.

Each program is sampled in one :func:`~repro.simulate.program.
simulate_programs` call over all its (table, policy) pairs, each with
its own latency stream.  At each block position, the rows of the four
policies' binaries at every nonzero table size share one ragged kernel
call (480 columns at 30 runs); table 0 is the in-order machine and
keeps one call per binary.

All numbers are deterministic for a fixed seed, so the rendered report
is byte-stable and committed under ``results/delay_tracking.txt``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.balanced import BalancedScheduler
from ..core.traditional import TraditionalScheduler
from ..extensions.known_latency import KnownLatencyScheduler, expected_latency
from ..ir.instructions import Opcode
from ..machine.config import N_2_5
from ..machine.memory import MemorySystem
from ..machine.processor import delay_tracking
from ..simulate.program import SimulationJob, simulate_programs
from ..simulate.rng import DEFAULT_SEED, spawn
from ..simulate.simulator import conflict_successors, delaytrack_issue_trace
from ..simulate.stats import (
    percentage_improvement,
    program_bootstrap_runtimes,
)
from ..verify.oracle import check_delaytrack_issue, hardware_ordered_pairs
from ..workloads.perfect import load_program, program_names
from .common import COMPILATION_CACHE

#: Tracking-table sizes swept by the study.  0 is the paper's in-order
#: interlocked machine; 64 exceeds every suite block's load count, so
#: it is the perfect-knowledge limit.
DEFAULT_TABLES: Tuple[int, ...] = (0, 1, 2, 4, 64)

#: Branch-and-bound expansion budget per block for the optimal policy
#: (deterministic; large enough to certify every suite block).
STUDY_NODE_BUDGET = 50_000

#: The comparison policies, in presentation order.
POLICY_ORDER: Tuple[str, ...] = ("balanced", "known-latency", "optimal")


@dataclass(frozen=True)
class DelayTrackCell:
    """Improvement of one policy over traditional at one table size."""

    program: str
    table: int
    policy: str
    improvement_pct: float
    ci_low: float
    ci_high: float


@dataclass
class DelayTrackReport:
    """The full sweep plus the issue-trace verification tally."""

    memory_name: str
    optimistic_latency: float
    tables: Tuple[int, ...]
    cells: List[DelayTrackCell] = field(default_factory=list)
    traces_checked: int = 0
    oracle_violations: int = 0
    runs: int = 0
    seed: int = DEFAULT_SEED

    def cell(self, program: str, table: int, policy: str) -> DelayTrackCell:
        for c in self.cells:
            if (
                c.program == program
                and c.table == table
                and c.policy == policy
            ):
                return c
        raise KeyError((program, table, policy))

    def mean_improvement(self, table: int, policy: str) -> float:
        rows = [
            c for c in self.cells if c.table == table and c.policy == policy
        ]
        if not rows:
            return 0.0
        return sum(c.improvement_pct for c in rows) / len(rows)

    # ------------------------------------------------------------------
    def format(self) -> str:
        programs = sorted({c.program for c in self.cells})
        lines = [
            "Delay-tracking study: scheduling vs. hardware that adapts",
            f"  memory {self.memory_name}, traditional W="
            f"{self.optimistic_latency:g}, {self.runs} runs, "
            f"seed {self.seed}",
            "  cells: % runtime improvement over the traditional schedule",
            "  on the same processor (positive = policy is faster)",
            "",
        ]
        for policy in POLICY_ORDER:
            lines.append(f"  policy {policy}:")
            header = f"  {'program':10s}" + "".join(
                f"{self._table_label(t):>10s}" for t in self.tables
            )
            lines.append(header)
            lines.append("  " + "-" * (len(header) - 2))
            for program in programs:
                row = f"  {program:10s}"
                for table in self.tables:
                    c = self.cell(program, table, policy)
                    row += f"{c.improvement_pct:>+10.1f}"
                lines.append(row)
            mean_row = f"  {'mean':10s}"
            for table in self.tables:
                mean_row += f"{self.mean_improvement(table, policy):>+10.1f}"
            lines.append(mean_row)
            lines.append("")
        lines.append(
            f"  issue traces oracle-checked: {self.traces_checked}, "
            f"violations: {self.oracle_violations}"
        )
        return "\n".join(lines)

    @staticmethod
    def _table_label(table: int) -> str:
        if table == 0:
            return "in-order"
        if table >= 64:
            return "DT-inf"
        return f"DT-{table}"


# ----------------------------------------------------------------------
def _policies(memory: MemorySystem, optimistic_latency: float):
    """The four compiled policies of the study (traditional is the
    baseline the others are measured against)."""
    from ..core.optimal import OptimalScheduler

    return {
        "traditional": TraditionalScheduler(optimistic_latency),
        "balanced": BalancedScheduler(),
        "known-latency": KnownLatencyScheduler(expected_latency(memory)),
        "optimal": OptimalScheduler(
            int(optimistic_latency), node_budget=STUDY_NODE_BUDGET
        ),
    }


def _verify_traces(
    name: str,
    compiled: Dict[str, "object"],
    tables: Sequence[int],
    memory: MemorySystem,
    seed: int,
) -> Tuple[int, int]:
    """One seeded latency draw per (block, policy, table), replayed
    through the scalar engine's issue log and checked by the
    independent oracle.

    What does not depend on the table -- the executed instructions,
    the engine's conflict successors and the oracle's own ordered
    pairs -- is built once per compiled block and shared by its
    table replays; the successors only when some table can park.
    """
    processors = [(table, delay_tracking(int(table))) for table in tables]
    parks = any(tables)
    checked = 0
    violations = 0
    for tag, artefacts in compiled.items():
        for block in artefacts.final_blocks:
            if not block.instructions:
                continue
            executed = [
                inst
                for inst in block.instructions
                if inst.opcode is not Opcode.NOP
            ]
            n_loads = sum(1 for i in executed if i.is_load)
            successors = conflict_successors(executed) if parks else None
            pairs = hardware_ordered_pairs(executed)
            for table, processor in processors:
                rng = spawn(
                    "delaytrack-verify", name, memory.name, f"t{table}",
                    tag, block.name, seed=seed,
                )
                latencies = [int(x) for x in memory.sample_many(rng, n_loads)]
                trace = delaytrack_issue_trace(
                    block.instructions, latencies, processor,
                    successors=successors,
                )
                checked += 1
                violations += len(check_delaytrack_issue(
                    block.instructions, latencies, processor, trace,
                    ordered_pairs=pairs,
                ))
    return checked, violations


def run_delay_tracking(
    programs: Optional[Sequence[str]] = None,
    tables: Sequence[int] = DEFAULT_TABLES,
    memory: MemorySystem = N_2_5,
    seed: int = DEFAULT_SEED,
    runs: int = 30,
) -> DelayTrackReport:
    """Run the sweep over the paper suite (or a subset)."""
    names = list(programs) if programs is not None else program_names()
    optimistic = float(memory.optimistic_latencies[0])
    report = DelayTrackReport(
        memory_name=memory.name,
        optimistic_latency=optimistic,
        tables=tuple(tables),
        runs=runs,
        seed=seed,
    )
    policies = _policies(memory, optimistic)
    for name in names:
        program = load_program(name)
        compiled = {
            tag: COMPILATION_CACHE.compile(program, policy)
            for tag, policy in policies.items()
        }
        jobs = {}
        for table in tables:
            for tag, artefacts in compiled.items():
                key = (name, memory.name, f"t{table}", tag)
                jobs[key] = SimulationJob(
                    artefacts.final_blocks,
                    delay_tracking(int(table)),
                    memory,
                    spawn("delaytrack", *key, seed=seed),
                    runs=runs,
                )
        samples = dict(zip(jobs, simulate_programs(list(jobs.values()))))
        checked, violations = _verify_traces(
            name, compiled, tables, memory, seed
        )
        report.traces_checked += checked
        report.oracle_violations += violations
        for table in tables:
            boots: Dict[str, "object"] = {}
            for tag in compiled:
                key = (name, memory.name, f"t{table}", tag)
                boots[tag] = program_bootstrap_runtimes(
                    samples[key], spawn("delaytrackb", *key, seed=seed)
                )
            for policy in POLICY_ORDER:
                result = percentage_improvement(
                    boots["traditional"], boots[policy]
                )
                report.cells.append(DelayTrackCell(
                    program=name,
                    table=int(table),
                    policy=policy,
                    improvement_pct=result.mean,
                    ci_low=result.ci_low,
                    ci_high=result.ci_high,
                ))
    return report
