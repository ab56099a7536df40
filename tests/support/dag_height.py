"""Unweighted DAG height, a measuring helper for tests.

The scheduler ranks nodes by weighted critical path
(:func:`repro.analysis.critical_path.priorities`); tests that only need
to know how deep a DAG is (unrolling lengthens the chain, lowering
keeps a dependence spine) count nodes instead.
"""

from __future__ import annotations

from repro.analysis.dag import CodeDAG


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
