"""The traditional (baseline) scheduling policy.

"Traditional list schedulers use a single constant for the weight of
all load instructions, usually an implementation-defined latency
(e.g., cache hit time)" (Section 2).  The constant is the *optimistic
latency* of the machine being compiled for: the cache hit time or
effective access time on cache machines, the mean of the latency
distribution on network machines (Section 5).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Union

from ..analysis.dag import CodeDAG
from .policy import SchedulingPolicy, observe_load_weights
from .scheduler import Direction

Latency = Union[int, float, Fraction]


def as_fraction(latency: Latency) -> Fraction:
    """Convert a latency to an exact fraction.

    Floats are converted through their decimal string so 2.6 becomes
    13/5, not the nearest binary float.
    """
    if isinstance(latency, Fraction):
        return latency
    if isinstance(latency, int):
        return Fraction(latency)
    return Fraction(str(latency))


class TraditionalScheduler(SchedulingPolicy):
    """Fixed-optimistic-latency weighting (the paper's baseline)."""

    def __init__(
        self,
        optimistic_latency: Latency = 2,
        direction: Direction = Direction.BOTTOM_UP,
    ):
        super().__init__(direction)
        self.optimistic_latency = as_fraction(optimistic_latency)
        self.name = f"traditional(W={optimistic_latency})"
        self.weight_key = ("traditional", self.optimistic_latency)

    def load_weights(self, dag: CodeDAG) -> Dict[int, Fraction]:
        """Every load gets the same implementation-defined weight."""
        weights = {node: self.optimistic_latency for node in dag.load_nodes()}
        observe_load_weights(self.name, weights)
        return weights
