"""The scheduling-policy interface.

Both schedulers in the paper share one list scheduler and differ only
in how load-instruction weights are assigned (Section 2: "The balanced
scheduler simply incorporates the new method of computing weights for
each load instruction into a traditional list scheduler").  A
:class:`SchedulingPolicy` therefore owns exactly one decision --
``load_weights``, which returns the weights as a map and leaves the
DAG untouched -- and inherits everything else.
"""

from __future__ import annotations

import abc
from typing import Dict, Hashable, Optional

from ..analysis.alias import AliasModel
from ..analysis.dag import CodeDAG
from ..analysis.dependence import build_dag
from ..ir.block import BasicBlock
from ..obs import recorder as _obs
from ..obs.recorder import span as _span
from .scheduler import Direction, ListScheduler, ScheduleResult, Weight


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

    #: Everything :meth:`load_weights` reads besides the DAG, as a
    #: hashable value: two policies of one class with equal keys weight
    #: every DAG identically, so the staged compile memo
    #: (:class:`repro.core.pipeline.StageMemo`) may share their weights
    #: and schedules.  ``None`` (the default, and what a subclass with
    #: parameters of its own must keep unless it sets a key covering
    #: them) opts out of sharing.
    weight_key: Optional[Hashable] = None

    def __init__(self, direction: Direction = Direction.BOTTOM_UP):
        self._scheduler = ListScheduler(direction)

    @property
    def direction(self) -> Direction:
        return self._scheduler.direction

    @property
    def schedule_key(self) -> Optional[Hashable]:
        """Everything :meth:`schedule_dag` reads besides the DAG and the
        block, or ``None`` when its schedules must not be shared."""
        if self.weight_key is None:
            return None
        return (self.weight_key, self.direction)

    @abc.abstractmethod
    def load_weights(self, dag: CodeDAG) -> Dict[int, Weight]:
        """This policy's weight for every node it weights (the loads,
        for the paper's policies), as a ``node -> weight`` map; other
        nodes keep their static latency.  ``dag`` is only read."""

    # ------------------------------------------------------------------
    def schedule_dag(
        self,
        dag: CodeDAG,
        block: Optional[BasicBlock] = None,
        weights: Optional[Dict[int, Weight]] = None,
    ) -> ScheduleResult:
        """Run the shared list scheduler under this policy's weights
        (computed here unless the caller already has them)."""
        if weights is None:
            with _span("weights", policy=self.name):
                weights = self.load_weights(dag)
        with _span("schedule", policy=self.name):
            return self._scheduler.schedule(dag, block, weights)

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
