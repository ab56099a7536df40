"""Table 5: the N(30,5) analysis -- when latencies exceed the ILP.

"When load latencies are much larger than the amount of load level
parallelism and therefore cannot be hidden via instruction scheduling,
there is no guarantee the balanced scheduler will do better."

For every program and all three processor models at N(30,5) @ 30:
TIns, BIns, Imp%, TI%, BI%.  The shape targets: both schedulers are
interlock-dominated (high TI%/BI%), improvements are small and of
mixed sign, and spill-heavy programs can lose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..machine.config import system_row
from ..machine.processor import PAPER_PROCESSORS, ProcessorModel
from ..simulate.rng import DEFAULT_SEED
from ..workloads.perfect import program_names
from .common import CellResult, CellSpec, evaluate_cells

N30_LABEL = "N(30,5)"
N30_LATENCY = 30


@dataclass
class Table5Result:
    cells: Dict[Tuple[str, str], CellResult]  # (program, processor name)

    def cell(self, program: str, processor: ProcessorModel) -> CellResult:
        return self.cells[(program, processor.name)]

    def shape_report(self) -> Dict[str, bool]:
        unlimited = [
            c for (_, proc), c in self.cells.items() if proc == "UNLIMITED"
        ]
        return {
            "interlock-dominated (TI% > 45 everywhere)": all(
                c.traditional_interlock_pct > 45 for c in unlimited
            ),
            "improvements small (|imp| < 20)": all(
                abs(c.imp_pct) < 20 for c in unlimited
            ),
            "balanced loses on at least one program": any(
                c.imp_pct < 0 for c in unlimited
            ),
        }

    def format(self) -> str:
        processors = [p.name for p in PAPER_PROCESSORS]
        header = f"  {'program':8s}{'TIns':>10s}{'BIns':>10s}"
        for proc in processors:
            header += f"{proc + ' Imp%':>16s}{'TI%':>7s}{'BI%':>7s}"
        lines = [
            "Table 5: analysis of N(30,5) results -- the effect of spill code",
            "",
            header,
            "  " + "-" * (len(header) - 2),
        ]
        for program in program_names():
            first = self.cells[(program, processors[0])]
            row = (
                f"  {program:8s}"
                f"{first.traditional_instructions:10,.0f}"
                f"{first.balanced_instructions:10,.0f}"
            )
            for proc in processors:
                cell = self.cells[(program, proc)]
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


def run_table5(
    seed: int = DEFAULT_SEED,
    runs: int = 30,
) -> Table5Result:
    """Evaluate N(30,5) for every program and processor model.

    The ambient engine session checkpoints and logs the run (see
    ``evaluate_cells``).
    """
    row = system_row(N30_LABEL, N30_LATENCY)
    specs = [
        CellSpec(
            program=name, system=row, processor=processor,
            seed=seed, runs=runs,
        )
        for name in program_names()
        for processor in PAPER_PROCESSORS
    ]
    results = evaluate_cells(specs)
    cells: Dict[Tuple[str, str], CellResult] = {
        (spec.program, spec.processor.name): cell
        for spec, cell in zip(specs, results)
    }
    return Table5Result(cells=cells)
