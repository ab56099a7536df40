"""The scheduling-policy interface.

Both schedulers in the paper share one list scheduler and differ only
in how load-instruction weights are assigned (Section 2: "The balanced
scheduler simply incorporates the new method of computing weights for
each load instruction into a traditional list scheduler").  A
:class:`SchedulingPolicy` therefore owns exactly one decision --
``assign_weights`` -- and inherits everything else.
"""

from __future__ import annotations

import abc
from typing import Optional

from ..analysis.alias import AliasModel
from ..analysis.dag import CodeDAG
from ..analysis.dependence import build_dag
from ..ir.block import BasicBlock
from ..obs import recorder as _obs
from ..obs.recorder import span as _span
from .scheduler import Direction, ListScheduler, ScheduleResult


def observe_load_weights(policy_name: str, weights) -> None:
    """Record a policy's per-load weight assignments when obs is on.

    For the balanced policy this is the Figure 6 output -- the one
    number per load the whole paper turns on -- labelled by policy and
    by the block of the enclosing span, as an exact histogram.
    """
    rec = _obs.get()
    if rec is None or not weights:
        return
    block = str(rec.context().get("block", "?"))
    rec.metrics.observe_many(
        "sched.load_weight",
        (float(w) for w in weights.values()),
        policy=policy_name,
        block=block,
    )


class SchedulingPolicy(abc.ABC):
    """A load-weighting policy on top of the shared list scheduler."""

    #: Short human-readable policy name (appears in reports).
    name: str = "abstract"

    def __init__(self, direction: Direction = Direction.BOTTOM_UP):
        self._scheduler = ListScheduler(direction)

    @property
    def direction(self) -> Direction:
        return self._scheduler.direction

    @abc.abstractmethod
    def assign_weights(self, dag: CodeDAG) -> None:
        """Install load weights into ``dag`` (in place)."""

    # ------------------------------------------------------------------
    def schedule_dag(self, dag: CodeDAG, block: Optional[BasicBlock] = None) -> ScheduleResult:
        """Weight the DAG, then run the shared list scheduler."""
        with _span("weights", policy=self.name):
            self.assign_weights(dag)
        with _span("schedule", policy=self.name):
            return self._scheduler.schedule(dag, block)

    def schedule_block(
        self,
        block: BasicBlock,
        alias_model: AliasModel = AliasModel.FORTRAN,
    ) -> ScheduleResult:
        """Build the block's DAG and schedule it under this policy."""
        with _span("dependence", block=block.name):
            dag = build_dag(block, alias_model=alias_model)
        return self.schedule_dag(dag, block)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
