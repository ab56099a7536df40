"""Connected components and load-path analysis of induced subgraphs.

These are steps 4-5 of the paper's Figure 6: within the independent
subgraph ``G_ind`` computed for an instruction ``i``, find the
(weakly) connected components, and within each component the path
carrying the largest number of load instructions (``Chances``).

:func:`longest_load_path` computes ``Chances`` as defined: a dynamic
program over topological order counting loads per path.  The
O(n*alpha(n)) union-find scheme the paper sketches counts *nodes*
instead; it lives next to the tests that pin down where the two differ
(``tests/support/unionfind.py``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from .dag import CodeDAG
from .reachability import bits


def connected_components(dag: CodeDAG, mask: int, neighbor_masks: Sequence[int]) -> List[int]:
    """Weakly connected components of the subgraph induced by ``mask``.

    Returns one bitmask per component.  ``neighbor_masks`` is the
    undirected adjacency from
    :meth:`CodeDAG.undirected_neighbor_masks`, passed in so callers can
    compute it once per DAG.
    """
    components: List[int] = []
    remaining = mask
    while remaining:
        seed = remaining & -remaining
        component = 0
        frontier = seed
        while frontier:
            component |= frontier
            next_frontier = 0
            # Inline bit extraction: this loop runs once per node per
            # subgraph and generator overhead dominates it otherwise.
            while frontier:
                low = frontier & -frontier
                next_frontier |= neighbor_masks[low.bit_length() - 1]
                frontier ^= low
            frontier = next_frontier & mask & ~component
        components.append(component)
        remaining &= ~component
    return components


def longest_load_path(dag: CodeDAG, component: int) -> int:
    """Maximum number of loads on any directed path within ``component``.

    This is ``Chances`` (Figure 6, line 5).  Node indices are a
    topological order, so a single forward sweep suffices:
    ``best[v] = is_load(v) + max(best[p] for p in preds(v) in C)``.
    """
    best: Dict[int, int] = {}
    chances = 0
    for v in bits(component):
        through = 0
        for p in dag.predecessors(v):
            if component >> p & 1:
                value = best.get(p, 0)
                if value > through:
                    through = value
        best[v] = through + (1 if dag.is_load(v) else 0)
        if best[v] > chances:
            chances = best[v]
    return chances


def batched_weighted_paths(
    pred_lists: Sequence[Sequence[int]],
    in_mask: np.ndarray,
    weighted: Sequence[int],
) -> np.ndarray:
    """The ``Chances`` DP vectorised across many induced subgraphs.

    ``in_mask`` is an ``(n, D)`` boolean matrix: column ``d`` is the
    membership array of subgraph ``d``.  Returns ``B`` of the same
    shape where ``B[v, d]`` is the maximum number of weighted nodes on
    any path *ending at* ``v`` inside subgraph ``d`` (0 when ``v`` is
    not a member).  One topological sweep over the nodes; each step is
    a gather + max over all ``D`` subgraphs at once, so the Python
    overhead is O(n) rather than O(n * D).

    Masking is what makes a single shared sweep correct: a node outside
    subgraph ``d`` has ``B[v, d] = 0`` and contributes nothing through
    the ``max``, exactly as if the per-subgraph DP had skipped it --
    except that a zero from an excluded predecessor is
    indistinguishable from a zero-weight path, which is fine because
    the DP only ever takes maxima of non-negative counts.
    """
    n, count = in_mask.shape
    paths = np.zeros((n, count), dtype=np.int32)
    for v in range(n):
        preds = pred_lists[v]
        weight = weighted[v]
        if preds:
            if len(preds) == 1:
                through = paths[preds[0]]
            else:
                through = paths[preds].max(axis=0)
            if weight:
                through = through + weight
            np.multiply(through, in_mask[v], out=paths[v])
        elif weight:
            np.multiply(weight, in_mask[v], out=paths[v], casting="unsafe")
    return paths


def component_loads(dag: CodeDAG, component: int) -> List[int]:
    """The load nodes inside a component bitmask."""
    return [v for v in bits(component) if dag.is_load(v)]
