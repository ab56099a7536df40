"""Section 6 extension: balanced weights for other multi-cycle units.

"The technique should be applicable to a wider set of problems, such
as other multi-cycle instructions (e.g., floating point operations
coupled with asynchronous floating point units)."

:class:`MultiCycleBalancedScheduler` treats every instruction matched
by its predicate -- loads plus, by default, multi-cycle FP operations
-- as an uncertain-latency instruction: it receives a balanced weight
computed from the parallelism available to it, and ``Chances`` counts
all weighted instructions in series, not just loads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Sequence

from ..analysis.dag import CodeDAG
from ..core.policy import SchedulingPolicy
from ..core.scheduler import Direction
from ..core.weights import balanced_weights
from ..ir.instructions import FP_OPCODES, Instruction


def uncertain_load_or_multicycle(dag: CodeDAG, node: int) -> bool:
    """Default predicate: loads, plus FP ops with latency > 1."""
    instruction = dag.instructions[node]
    if instruction.is_load:
        return True
    return instruction.opcode in FP_OPCODES and instruction.latency > 1


class MultiCycleBalancedScheduler(SchedulingPolicy):
    """Balanced weighting extended beyond loads (Section 6)."""

    name = "balanced-multicycle"

    def __init__(
        self,
        is_weighted: Callable[[CodeDAG, int], bool] = uncertain_load_or_multicycle,
        direction: Direction = Direction.BOTTOM_UP,
    ):
        super().__init__(direction)
        self.is_weighted = is_weighted

    def load_weights(self, dag: CodeDAG) -> Dict[int, Fraction]:
        return balanced_weights(dag, self.is_weighted)


def with_fp_latency(
    instructions: Sequence[Instruction], latency: int
) -> None:
    """Mark FP arithmetic as multi-cycle, in place (test/demo helper).

    Models an asynchronous FP unit whose operations take ``latency``
    cycles; the simulator already honours per-instruction latencies.
    """
    if latency < 1:
        raise ValueError("latency must be >= 1")
    for instruction in instructions:
        if instruction.opcode in FP_OPCODES:
            instruction.latency = latency
