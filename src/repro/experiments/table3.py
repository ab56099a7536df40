"""Table 3: detailed component analysis of MDG.

For every system row and all three processor models (UNLIMITED, MAX-8,
LEN-8) the table reports:

* ``Imp%`` -- percentage improvement of balanced over traditional,
* ``TI%`` / ``BI%`` -- the share of execution cycles that are
  interlock cycles under each scheduler,
* ``TIns`` / ``BIns`` -- dynamic instruction counts (spill code makes
  them differ).

The paper's headline observation -- improvements come from *both*
fewer interlocks (BI% < TI%) and fewer executed instructions -- is
checked by :meth:`Table3Result.shape_report`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..machine.config import paper_system_rows
from ..machine.processor import PAPER_PROCESSORS, ProcessorModel
from ..simulate.rng import DEFAULT_SEED
from .common import CellResult, CellSpec, evaluate_cells

DETAIL_PROGRAM = "MDG"


@dataclass
class Table3Result:
    """Cells keyed by (system label, processor name)."""

    program: str
    cells: Dict[Tuple[str, str], CellResult]
    balanced_instructions: float

    def cell(self, system_label: str, processor: ProcessorModel) -> CellResult:
        return self.cells[(system_label, processor.name)]

    # ------------------------------------------------------------------
    def shape_report(self) -> Dict[str, bool]:
        unlimited = [
            c for (label, proc), c in self.cells.items() if proc == "UNLIMITED"
        ]
        interlock_wins = sum(
            1
            for c in unlimited
            if c.balanced_interlock_pct <= c.traditional_interlock_pct
        )
        return {
            "balanced interlocks less on most UNLIMITED rows": interlock_wins
            >= 0.7 * len(unlimited),
            "interlock share grows with mean latency (N rows)": (
                self.cells[("N(30,5) @ 30", "UNLIMITED")].traditional_interlock_pct
                > self.cells[("N(5,2) @ 5", "UNLIMITED")].traditional_interlock_pct
                > self.cells[("N(2,2) @ 2", "UNLIMITED")].traditional_interlock_pct
            ),
            # LEN-8's freeze windows bind hard when the mean latency is
            # far beyond the 8-cycle limit.
            "LEN-8 stalls more than UNLIMITED at N(30,5)": (
                self.cells[("N(30,5) @ 30", "LEN-8")].traditional_interlock_pct
                >= self.cells[("N(30,5) @ 30", "UNLIMITED")].traditional_interlock_pct
            ),
        }

    def format(self) -> str:
        processors = [p.name for p in PAPER_PROCESSORS]
        header = f"  {'system':22s}{'TIns':>8s}"
        for proc in processors:
            header += f"{proc + ' Imp%':>16s}{'TI%':>7s}{'BI%':>7s}"
        lines = [
            f"Table 3: detailed analysis of {self.program} "
            f"(BIns = {self.balanced_instructions:,.0f})",
            "",
            header,
            "  " + "-" * (len(header) - 2),
        ]
        seen = []
        for (label, _proc) in self.cells:
            if label not in seen:
                seen.append(label)
        for label in seen:
            any_cell = self.cells[(label, processors[0])]
            row = f"  {label:22s}{any_cell.traditional_instructions:8,.0f}"
            for proc in processors:
                cell = self.cells[(label, proc)]
                row += (
                    f"{cell.imp_pct:16.1f}"
                    f"{cell.traditional_interlock_pct:7.1f}"
                    f"{cell.balanced_interlock_pct:7.1f}"
                )
            lines.append(row)
        lines.append("")
        lines.append("  shape checks:")
        for claim, holds in self.shape_report().items():
            lines.append(f"    [{'ok' if holds else 'FAIL'}] {claim}")
        return "\n".join(lines)


def run_table3(
    program: str = DETAIL_PROGRAM,
    seed: int = DEFAULT_SEED,
    runs: int = 30,
) -> Table3Result:
    """Evaluate the detail table for one program (MDG by default).

    The ambient engine session checkpoints and logs the run (see
    ``evaluate_cells``).
    """
    specs = [
        CellSpec(
            program=program, system=system, processor=processor,
            seed=seed, runs=runs,
        )
        for system in paper_system_rows()
        for processor in PAPER_PROCESSORS
    ]
    results = evaluate_cells(specs)
    cells: Dict[Tuple[str, str], CellResult] = {
        (spec.system.label, spec.processor.name): cell
        for spec, cell in zip(specs, results)
    }
    return Table3Result(
        program=program,
        cells=cells,
        balanced_instructions=results[0].balanced_instructions,
    )
