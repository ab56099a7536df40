"""The balanced scheduling policy (the paper's contribution).

Each load's weight is computed from the load level parallelism
available to it (Figure 6), so schedules are optimised for the
*program* rather than for any particular machine.  The policy is
deliberately machine-independent: it is never told the optimistic
latency, the outstanding-load limit, or anything else about the
implementation (Section 4.4: "The balanced scheduler has not been
specifically configured for any of the processor models").
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict

from ..analysis.dag import CodeDAG
from .policy import SchedulingPolicy, observe_load_weights
from .weights import average_block_weight, balanced_weights


class BalancedScheduler(SchedulingPolicy):
    """Load weights = 1 + distributed load-level parallelism."""

    name = "balanced"
    weight_key = ("balanced",)

    def load_weights(self, dag: CodeDAG) -> Dict[int, Fraction]:
        weights = balanced_weights(dag)
        observe_load_weights(self.name, weights)
        return weights


class AverageWeightScheduler(SchedulingPolicy):
    """The Section 3 rejected alternative (ablation baseline).

    Assigns every load in a block the *average* balanced weight of the
    block's loads.  The paper reports this "produced schedules that
    executed no faster than schedules from the traditional scheduler";
    the ablation benchmark reproduces that comparison.
    """

    name = "average-weight"
    weight_key = ("average-weight",)

    def load_weights(self, dag: CodeDAG) -> Dict[int, Fraction]:
        average = average_block_weight(dag)
        if average is None:
            return {}
        weights = {node: average for node in dag.load_nodes()}
        observe_load_weights(self.name, weights)
        return weights
