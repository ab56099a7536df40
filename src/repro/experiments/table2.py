"""Table 2: percent improvement of balanced scheduling, UNLIMITED model.

17 system rows (cache configurations at both hit-time and effective
optimistic latencies, seven network configurations at their means, the
mixed model at both) x the eight Perfect Club stand-ins, plus the row
mean -- exactly the layout of the paper's Table 2.

Shape targets (checked by :meth:`Table2Result.shape_report` and the
test suite):

* positive mean improvement on every row except N(30,5);
* improvement grows with latency *uncertainty*: lower hit rate, larger
  miss penalty, larger sigma;
* the mixed model at optimistic latency 2 shows the largest gains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..machine.config import SystemRow, paper_system_rows
from ..machine.processor import ProcessorModel, UNLIMITED
from ..simulate.rng import DEFAULT_SEED
from ..workloads.perfect import program_names
from .common import CellResult, CellSpec, evaluate_cells

#: Row means of the paper's Table 2 (for side-by-side reporting).
PAPER_TABLE2_MEANS: Dict[str, float] = {
    "L80(2,5) @ 2": 8.3,
    "L80(2,5) @ 2.6": 6.9,
    "L80(2,10) @ 2": 12.9,
    "L80(2,10) @ 3.6": 10.5,
    "L95(2,5) @ 2": 6.0,
    "L95(2,5) @ 2.15": 5.1,
    "L95(2,10) @ 2": 7.3,
    "L95(2,10) @ 2.4": 6.6,
    "N(2,2) @ 2": 10.4,
    "N(3,2) @ 3": 8.9,
    "N(5,2) @ 5": 7.7,
    "N(2,5) @ 2": 18.1,
    "N(3,5) @ 3": 15.8,
    "N(5,5) @ 5": 12.4,
    "N(30,5) @ 30": 3.0,
    "L80-N(30,5) @ 2": 18.2,
    "L80-N(30,5) @ 7.6": 9.6,
}


@dataclass
class Table2Row:
    """One system row: per-program improvements plus the mean."""

    system: SystemRow
    cells: Dict[str, CellResult]

    @property
    def improvements(self) -> Dict[str, float]:
        return {name: cell.imp_pct for name, cell in self.cells.items()}

    @property
    def mean(self) -> float:
        values = [cell.imp_pct for cell in self.cells.values()]
        return sum(values) / len(values)


@dataclass
class Table2Result:
    """The full table."""

    rows: List[Table2Row]
    processor: ProcessorModel

    def row(self, label: str) -> Table2Row:
        for candidate in self.rows:
            if candidate.system.label == label:
                return candidate
        raise KeyError(label)

    def mean_of_means(self) -> float:
        return sum(r.mean for r in self.rows) / len(self.rows)

    # ------------------------------------------------------------------
    def shape_report(self) -> Dict[str, bool]:
        """The paper's qualitative claims, evaluated on this run."""
        means = {r.system.label: r.mean for r in self.rows}
        return {
            "all rows positive except N(30,5)": all(
                m > 0 for label, m in means.items() if "N(30,5) @ 30" not in label
            ),
            "lower hit rate helps (L80 > L95 at 2,5)": means["L80(2,5) @ 2"]
            > means["L95(2,5) @ 2"],
            "bigger miss penalty helps (ml=10 > ml=5)": means["L80(2,10) @ 2"]
            > means["L80(2,5) @ 2"],
            "bigger sigma helps (N(2,5) > N(2,2))": means["N(2,5) @ 2"]
            > means["N(2,2) @ 2"],
            "N(30,5) is among the two weakest rows": means["N(30,5) @ 30"]
            <= sorted(means.values())[1],
            "mixed @ 2 is in the top half of rows": means["L80-N(30,5) @ 2"]
            >= sorted(means.values())[len(means) // 2],
        }

    def format(self) -> str:
        # Use the programs actually evaluated (run_table2 may have been
        # given a subset), in suite order.
        present = set(self.rows[0].cells) if self.rows else set()
        names = [n for n in program_names() if n in present]
        header = f"  {'system':22s}" + "".join(f"{n:>8s}" for n in names)
        header += f"{'mean':>8s}{'paper':>8s}"
        lines = [
            f"Table 2: % improvement, processor model {self.processor.name}",
            "",
            header,
            "  " + "-" * (len(header) - 2),
        ]
        group = None
        for row in self.rows:
            if row.system.group != group:
                group = row.system.group
                lines.append(f"  -- {group}")
            cells = "".join(f"{row.cells[n].imp_pct:8.1f}" for n in names)
            paper = PAPER_TABLE2_MEANS.get(row.system.label)
            paper_text = f"{paper:8.1f}" if paper is not None else " " * 8
            lines.append(
                f"  {row.system.label:22s}{cells}{row.mean:8.1f}{paper_text}"
            )
        lines.append("")
        lines.append("  shape checks:")
        for claim, holds in self.shape_report().items():
            lines.append(f"    [{'ok' if holds else 'FAIL'}] {claim}")
        return "\n".join(lines)


def run_table2(
    processor: ProcessorModel = UNLIMITED,
    seed: int = DEFAULT_SEED,
    runs: int = 30,
    programs: Optional[List[str]] = None,
) -> Table2Result:
    """Evaluate the full Table 2 grid (or a subset of programs).

    The ambient engine session checkpoints and logs the run; a resumed
    run replays finished cells from the store and is byte-identical to
    an uninterrupted one.
    """
    names = programs if programs is not None else program_names()
    systems = paper_system_rows()
    # Program-major order: each program's cells form one group, which
    # compiles its binaries once and stacks its kernel calls.
    specs = [
        CellSpec(
            program=name, system=system, processor=processor,
            seed=seed, runs=runs,
        )
        for name in names
        for system in systems
    ]
    results = evaluate_cells(specs)
    by_key = {
        (spec.program, spec.system.label): cell
        for spec, cell in zip(specs, results)
    }
    rows = [
        Table2Row(
            system=system,
            cells={name: by_key[(name, system.label)] for name in names},
        )
        for system in systems
    ]
    return Table2Result(rows=rows, processor=processor)
