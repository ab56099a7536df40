"""Table 4: spill instructions executed.

For each program: the balanced scheduler's spill percentage, and the
traditional scheduler's at each of the paper's nine optimistic
latencies (2, 2.15, 2.4, 2.6, 3, 3.6, 5, 7.6, 30).  A spill
instruction is "any instruction that is inserted by the register
allocator"; percentages are of dynamic (profile-weighted) instructions
executed.

This table is fully deterministic -- no simulation is involved, only
compilation -- so it regenerates bit-identically.

Reproduction note (documented in EXPERIMENTS.md): our linear-scan
allocator is pressure-optimal for compact schedules, so the fixed-
weight baseline at *small* optimistic latencies spills less here than
GCC's allocator did in the paper; the balanced-vs-traditional ordering
the paper reports is reproduced against the larger optimistic
latencies, and on the deep-tree programs (e.g. BDNA) at every latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..simulate.rng import DEFAULT_SEED
from ..workloads.perfect import load_program, program_names
from .cache import object_key
from .common import PerItem, ProgramEvaluator, WorkItem, checkpointed_map

#: The paper's Table 4 column set.
OPTIMISTIC_LATENCIES = (2, 2.15, 2.4, 2.6, 3, 3.6, 5, 7.6, 30)


@dataclass
class Table4Row:
    """Spill percentages for one program."""

    program: str
    dynamic_instructions: float
    balanced: float
    traditional: Dict[float, float]

    def balanced_not_worse_count(self, tolerance: float = 1e-9) -> int:
        """How many latency columns have balanced <= traditional."""
        return sum(
            1
            for value in self.traditional.values()
            if self.balanced <= value + tolerance
        )


@dataclass
class Table4Result:
    rows: List[Table4Row]

    def row(self, program: str) -> Table4Row:
        for candidate in self.rows:
            if candidate.program == program:
                return candidate
        raise KeyError(program)

    def format(self) -> str:
        header = f"  {'program':8s}{'BIns':>10s}{'balanced':>10s}"
        header += "".join(f"{lat:>8g}" for lat in OPTIMISTIC_LATENCIES)
        lines = [
            "Table 4: spill instructions as % of instructions executed",
            "",
            header,
            "  " + "-" * (len(header) - 2),
        ]
        for row in self.rows:
            cells = "".join(
                f"{row.traditional[lat]:8.2f}" for lat in OPTIMISTIC_LATENCIES
            )
            lines.append(
                f"  {row.program:8s}{row.dynamic_instructions:10,.0f}"
                f"{row.balanced:10.2f}{cells}"
            )
        lines.append("")
        lines.append(
            "  (balanced <= traditional count per program, of "
            f"{len(OPTIMISTIC_LATENCIES)} columns: "
            + ", ".join(
                f"{r.program}={r.balanced_not_worse_count()}" for r in self.rows
            )
            + ")"
        )
        return "\n".join(lines)


def _spill_row(task) -> Table4Row:
    """One program's Table 4 row: every compilation's spill percentage
    (one work item of :func:`run_table4`)."""
    name, seed = task
    evaluator = ProgramEvaluator(load_program(name), seed=seed)
    balanced = evaluator.balanced()
    traditional = {
        float(lat): evaluator.traditional(lat).spill_percentage
        for lat in OPTIMISTIC_LATENCIES
    }
    return Table4Row(
        program=name,
        dynamic_instructions=balanced.dynamic_instructions,
        balanced=balanced.spill_percentage,
        traditional=traditional,
    )


def run_table4(seed: int = DEFAULT_SEED) -> Table4Result:
    """Compile every program under every policy and count spills.

    The unit of checkpointing is one program's whole row (this table
    is compile-only and deterministic, so a cached row replays
    exactly); the ambient engine session supplies the cache and the
    manifest.
    """
    items = [
        WorkItem(
            PerItem(_spill_row), (name, seed),
            object_key("table4-row", name, seed, list(OPTIMISTIC_LATENCIES)),
            name, "table4-row", "-",
        )
        for name in program_names()
    ]
    return Table4Result(rows=checkpointed_map(items))
