"""Critical-path metrics over a weighted code DAG.

Used by the scheduler's priority function (priority = weight + max
successor priority, Section 4.1), by diagnostics and by the workload
generator (to target specific instruction-level-parallelism regimes).
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


def priorities_edge_labelled(dag: CodeDAG) -> List[Weight]:
    """Priorities under per-edge latency labels (paper footnote 1).

    Weighted longest path to a leaf where each hop costs that edge's
    own latency (``CodeDAG.set_edge_latency``) instead of the node
    weight; equals :func:`priorities` when no labels are installed and
    every non-TRUE edge costs one slot.
    """
    n = len(dag)
    out: List[Weight] = [0] * n
    for v in reversed(range(n)):
        best: Weight = dag.weights[v]
        for s in dag.successors(v):
            candidate = dag.edge_latency(v, s) + out[s]
            if candidate > best:
                best = candidate
        out[v] = best
    return out


def critical_path_length(dag: CodeDAG) -> Weight:
    """Weighted length of the longest root-to-leaf path."""
    if len(dag) == 0:
        return 0
    return max(priorities(dag))


def height_in_nodes(dag: CodeDAG) -> int:
    """Longest path length counted in nodes (unweighted)."""
    n = len(dag)
    if n == 0:
        return 0
    depth = [1] * n
    for v in reversed(range(n)):
        for s in dag.successors(v):
            depth[v] = max(depth[v], depth[s] + 1)
    return max(depth)


def parallelism_estimate(dag: CodeDAG) -> float:
    """Average instruction-level parallelism: n / height.

    A bushy DAG (high ILP) scores high; a dependence chain scores 1.
    The workload generator uses this to label kernels by regime.
    """
    n = len(dag)
    if n == 0:
        return 0.0
    return n / height_in_nodes(dag)
