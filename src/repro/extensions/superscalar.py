"""Section 6 extension: superscalar architectures.

The simulator supports in-order multi-issue directly
(:class:`repro.machine.processor.ProcessorModel` with
``issue_width > 1``); this module packages a comparison sweep showing
how balanced scheduling's advantage evolves with issue width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from ..core.balanced import BalancedScheduler
from ..core.pipeline import compile_program
from ..core.traditional import TraditionalScheduler
from ..ir.block import Program
from ..machine.config import SystemRow
from ..machine.processor import superscalar
from ..simulate.program import simulate_program
from ..simulate.rng import DEFAULT_SEED, spawn
from ..simulate.stats import percentage_improvement, program_bootstrap_runtimes


@dataclass
class WidthSweepResult:
    """Improvement of balanced over traditional per issue width."""

    program: str
    system: SystemRow
    improvements: Dict[int, float]

    def format(self) -> str:
        lines = [
            f"Superscalar sweep: {self.program} on {self.system.label}",
        ]
        for width, improvement in sorted(self.improvements.items()):
            lines.append(f"  issue width {width}: {improvement:+6.1f}%")
        return "\n".join(lines)


def run_width_sweep(
    program: Program,
    system: SystemRow,
    widths: Sequence[int] = (1, 2, 4),
    seed: int = DEFAULT_SEED,
    runs: int = 30,
) -> WidthSweepResult:
    """Measure balanced-over-traditional improvement per issue width."""
    traditional = compile_program(
        program, TraditionalScheduler(system.optimistic_latency)
    )
    balanced = compile_program(program, BalancedScheduler())

    improvements: Dict[int, float] = {}
    for width in widths:
        # ``superscalar(1)`` degenerates to UNLIMITED; every width runs
        # on the batch simulator's native vector path.
        processor = superscalar(width)
        key = (program.name, system.memory.name, f"w{width}")
        trad_runs = simulate_program(
            traditional.final_blocks,
            processor,
            system.memory,
            spawn("width", *key, "t", seed=seed),
            runs=runs,
        )
        bal_runs = simulate_program(
            balanced.final_blocks,
            processor,
            system.memory,
            spawn("width", *key, "b", seed=seed),
            runs=runs,
        )
        t_boot = program_bootstrap_runtimes(
            trad_runs, spawn("widthb", *key, "t", seed=seed)
        )
        b_boot = program_bootstrap_runtimes(
            bal_runs, spawn("widthb", *key, "b", seed=seed)
        )
        improvements[width] = percentage_improvement(t_boot, b_boot).mean
    return WidthSweepResult(
        program=program.name, system=system, improvements=improvements
    )
