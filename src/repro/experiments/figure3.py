"""Figure 3: interlocks of the three schedules across memory latencies.

"The chart shows that, for latencies in the range of 2-4, the balanced
schedules are faster than both the greedy and lazy traditional
schedules illustrated in Figure 2.  Outside this range the balanced
and traditional schedules perform equivalently."

We sweep fixed latencies 1..6 over the three schedules of Figure 2 and
report interlock counts; the claim above is checked structurally by
:meth:`Figure3Result.matches_paper_claim`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..core.balanced import BalancedScheduler
from ..core.scheduler import Direction
from ..core.traditional import TraditionalScheduler
from ..machine.processor import UNLIMITED, ProcessorModel
from ..simulate.simulator import interlock_sweep
from ..workloads.paper_dags import figure1_block

DEFAULT_LATENCIES = tuple(range(1, 7))


@dataclass
class Figure3Result:
    """Interlock counts per schedule per latency."""

    latencies: List[int]
    interlocks: Dict[str, List[int]]  # schedule name -> counts

    def matches_paper_claim(self) -> bool:
        """Balanced strictly better in 2..4, never worse elsewhere."""
        greedy = self.interlocks["greedy_w5"]
        lazy = self.interlocks["lazy_w1"]
        balanced = self.interlocks["balanced"]
        for index, latency in enumerate(self.latencies):
            if 2 <= latency <= 4:
                if not (
                    balanced[index] < greedy[index]
                    and balanced[index] < lazy[index]
                ):
                    return False
            else:
                if balanced[index] > greedy[index] or balanced[index] > lazy[index]:
                    return False
        return True

    def format(self) -> str:
        lines = [
            "Figure 3: interlocks vs. actual memory latency (Figure 1 DAG)",
            "",
            "  latency : " + " ".join(f"{l:4d}" for l in self.latencies),
        ]
        for name, counts in self.interlocks.items():
            lines.append(
                f"  {name:9s}: " + " ".join(f"{c:4d}" for c in counts)
            )
        claim = "holds" if self.matches_paper_claim() else "VIOLATED"
        lines.append("")
        lines.append(
            f"  paper claim (balanced wins at 2-4, ties elsewhere): {claim}"
        )
        return "\n".join(lines)


def run_figure3(
    latencies: Sequence[int] = DEFAULT_LATENCIES,
    processor: ProcessorModel = UNLIMITED,
) -> Figure3Result:
    """Build the three Figure 2 schedules and sweep latencies."""
    block, _ = figure1_block()
    top_down = Direction.TOP_DOWN
    schedules = {
        "greedy_w5": TraditionalScheduler(5, direction=top_down)
        .schedule_block(block)
        .block,
        "lazy_w1": TraditionalScheduler(1, direction=top_down)
        .schedule_block(block)
        .block,
        "balanced": BalancedScheduler(direction=top_down)
        .schedule_block(block)
        .block,
    }
    interlocks = {
        name: interlock_sweep(scheduled, latencies, processor)
        for name, scheduled in schedules.items()
    }
    return Figure3Result(latencies=list(latencies), interlocks=interlocks)
