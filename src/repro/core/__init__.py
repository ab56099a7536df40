"""The paper's primary contribution: balanced scheduling.

* :func:`balanced_weights` -- Figure 6's weight computation.
* :class:`BalancedScheduler` / :class:`TraditionalScheduler` -- the two
  policies over the shared bottom-up :class:`ListScheduler`.
* :func:`compile_block` / :func:`compile_program` -- the two-pass
  schedule / register-allocate / re-schedule pipeline.
"""

from .balanced import AverageWeightScheduler, BalancedScheduler
from .optimal import (
    DEFAULT_NODE_BUDGET,
    InfeasiblePressureError,
    OptimalScheduler,
    OptimalScheduleResult,
    OptimalSearch,
    max_live_registers,
    optimize_order,
    schedule_cost,
)
from .pipeline import (
    CompilationResult,
    CompiledBlock,
    compile_block,
    compile_program,
)
from .policy import SchedulingPolicy
from .scheduler import Direction, ListScheduler, ScheduleResult, schedule_dag
from .traditional import TraditionalScheduler, as_fraction
from .weights import (
    average_block_weight,
    balanced_weights,
    contribution_matrix,
)

__all__ = [
    "AverageWeightScheduler",
    "BalancedScheduler",
    "CompilationResult",
    "CompiledBlock",
    "compile_block",
    "compile_program",
    "DEFAULT_NODE_BUDGET",
    "InfeasiblePressureError",
    "OptimalScheduler",
    "OptimalScheduleResult",
    "OptimalSearch",
    "max_live_registers",
    "optimize_order",
    "schedule_cost",
    "SchedulingPolicy",
    "ListScheduler",
    "ScheduleResult",
    "Direction",
    "schedule_dag",
    "TraditionalScheduler",
    "as_fraction",
    "average_block_weight",
    "balanced_weights",
    "contribution_matrix",
]
