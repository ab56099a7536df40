"""Section 6 extension: pin loads whose latency is actually known.

"...disabling balanced scheduling when the latency is known (e.g.,
for the second access to a cache line)."

:class:`KnownLatencyScheduler` takes an oracle mapping a load to its
known latency (or ``None`` when unknown).  Known loads get that fixed
weight; unknown loads get balanced weights.  Because weights enter
``Chances`` only through load counting, the balanced computation is
unchanged -- we simply overwrite the known nodes afterwards, and skip
it when the oracle pins every load.

:func:`second_access_same_line` is the paper's worked example of an
oracle: the second access to a cache line is a hit, so any load whose
region/offset falls in the same line as an earlier load in the block
is pinned to the hit latency.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..analysis.dag import CodeDAG
from ..core.policy import SchedulingPolicy
from ..core.scheduler import Direction, Weight
from ..core.weights import balanced_weights

#: Oracle: (dag, node) -> known latency in cycles, or None.
LatencyOracle = Callable[[CodeDAG, int], Optional[int]]


def second_access_same_line(
    hit_latency: int = 2, line_elements: int = 4
) -> LatencyOracle:
    """Oracle pinning same-cache-line repeat accesses to the hit time.

    Two affine references to the same region whose offsets fall in the
    same ``line_elements``-sized line touch the same cache line; the
    later one is known to hit.
    """

    def oracle(dag: CodeDAG, node: int) -> Optional[int]:
        instruction = dag.instructions[node]
        if instruction.mem is None or instruction.mem.affine_coeff is None:
            return None
        line = (instruction.mem.region, instruction.mem.offset // line_elements)
        for earlier in range(node):
            other = dag.instructions[earlier]
            if not other.is_load or other.mem is None:
                continue
            if other.mem.affine_coeff is None:
                continue
            other_line = (other.mem.region, other.mem.offset // line_elements)
            if other_line == line:
                return hit_latency
        return None

    return oracle


def expected_latency(memory) -> LatencyOracle:
    """Oracle pinning *every* load to the memory system's mean latency.

    The compile-time counterpart of a delay-tracking issue unit: where
    the hardware learns each load's actual return time after issue, a
    compiler armed with the memory system's distribution can at best
    schedule for its expectation.  ``memory`` is anything with a
    ``mean_latency`` property (a :class:`repro.machine.MemorySystem`);
    the mean is rounded to whole cycles, floored at 1.
    """
    pinned = max(1, round(float(memory.mean_latency)))

    def oracle(dag: CodeDAG, node: int) -> Optional[int]:
        return pinned

    return oracle


class KnownLatencyScheduler(SchedulingPolicy):
    """Balanced weights, except where the latency oracle knows better."""

    name = "balanced-known-latency"

    def __init__(
        self,
        oracle: LatencyOracle,
        direction: Direction = Direction.BOTTOM_UP,
    ):
        super().__init__(direction)
        self.oracle = oracle

    def load_weights(self, dag: CodeDAG) -> Dict[int, Weight]:
        known = self.known_loads(dag)
        if len(known) == len(dag.load_nodes()):
            # Every load is pinned: no balanced weight would survive.
            return dict(known)
        weights: Dict[int, Weight] = dict(balanced_weights(dag))
        weights.update(known)
        return weights

    def known_loads(self, dag: CodeDAG) -> Dict[int, int]:
        """The loads the oracle pins, with their latencies (diagnostics)."""
        out: Dict[int, int] = {}
        for node in dag.load_nodes():
            known = self.oracle(dag, node)
            if known is not None:
                out[node] = known
        return out
