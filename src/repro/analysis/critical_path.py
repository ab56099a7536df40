"""Critical-path metrics over a weighted code DAG.

Used by the scheduler's priority function (priority = weight + max
successor priority, Section 4.1).
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Union

from .dag import CodeDAG

Weight = Union[int, Fraction]


def priorities(dag: CodeDAG) -> List[Weight]:
    """Scheduling priority per node.

    "The priority of an instruction is equal to its weight plus the
    maximum priority among its successors" (Section 4.1).  A leaf's
    priority is its own weight.  This equals the weighted longest path
    from the node to any leaf, the classic critical-path heuristic.
    """
    n = len(dag)
    out: List[Weight] = [0] * n
    for v in reversed(range(n)):
        best: Weight = 0
        for s in dag.successors(v):
            if out[s] > best:
                best = out[s]
        out[v] = dag.weights[v] + best
    return out
