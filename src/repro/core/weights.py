"""Balanced load-instruction weights (the paper's Figure 6).

The algorithm, verbatim from the paper::

    1. Initialize the latency of each load instruction to 1.
    2. for each instruction i in G
    3.     G_ind = G - (Pred(i) U Succ(i))
    4.     for each connected component C in G_ind
    5.         Find the path with the maximum number of load instructions.
    6.         for each load instruction l in C
    7.             add IssueSlots(i)/Chances to the weight of l

``Pred``/``Succ`` are transitive closures, so ``G_ind`` holds exactly
the instructions that may execute in parallel with ``i``.  ``Chances``
is the maximum number of loads on any path of the component: those
loads execute in series, so they must share the issue slot ``i``
provides, each receiving ``IssueSlots(i)/Chances`` of it.  Loads in
*parallel* (different components, or parallel paths in one component)
each receive the full contribution, because a single padding
instruction hides latency for all of them simultaneously.

Weights are exact :class:`fractions.Fraction` values -- the worked
example in the paper's Table 1 produces twelfths.

:func:`balanced_weights` is batched over all contributors at once:
uint64 bitset *matrices* for the closures and independent sets,
structurally identical ``(G_ind, IssueSlots)`` pairs deduplicated and
computed once (unrolled blocks repeat them heavily), and a single
topological ``Chances`` DP sweep vectorised across every distinct
subgraph.  Contributions accumulate as an integer ``(load, chances) ->
slots * count`` table; at the end each load's entries are summed over
the common denominator of the ``chances`` present, in integers, and
one exact rational is built per load -- equal to per-``i`` Fraction
accumulation because rational arithmetic is exact, commutative and
associative.  The test suite cross-checks it against a deliberately
naive re-derivation (per-``i`` BFS closures, BFS components, path DP
over an explicit node list) in ``tests/core/oracles.py``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..analysis.components import (
    batched_weighted_paths,
    component_loads,
    connected_components,
    longest_load_path,
)
from ..analysis.dag import CodeDAG
from ..analysis.reachability import (
    closure_matrix,
    closures,
    independent_mask,
    independent_matrix,
    mask_from_words,
    mask_member_array,
)
from ..obs import recorder as _obs


#: Predicate selecting which nodes receive balanced weights.  The
#: default is the paper's (loads); the Section 6 extension passes a
#: broader predicate covering other uncertain-latency instructions.
WeightedPredicate = Callable[[CodeDAG, int], bool]


def _is_load(dag: CodeDAG, node: int) -> bool:
    return dag.is_load(node)


def balanced_weights(
    dag: CodeDAG, is_weighted: WeightedPredicate = _is_load
) -> Dict[int, Fraction]:
    """Compute the balanced weight of every weighted node in ``dag``.

    By default the weighted nodes are the loads, exactly as in the
    paper's Figure 6; ``is_weighted`` generalises the computation to
    other uncertain-latency instruction classes (Section 6).  Returns
    a map ``node -> weight``; unweighted nodes keep their static
    latency and do not appear.  The weight is ``1`` (the node's own
    issue slot) plus the accumulated contributions of every
    instruction that may execute in parallel with it.
    """
    load_nodes = [v for v in dag.nodes() if is_weighted(dag, v)]
    if not load_nodes:
        return {}

    n = len(dag)
    pred_m, succ_m = closure_matrix(dag)
    ind_matrix = independent_matrix(dag, pred_m, succ_m)
    neighbor_masks = dag.undirected_neighbor_masks()
    load_mask = 0
    weighted_arr = [0] * n
    for l in load_nodes:
        load_mask |= 1 << l
        weighted_arr[l] = 1

    # Group the contributors: two instructions with the same G_ind and
    # the same issue width make byte-identical contributions, so the
    # component/Chances work runs once per distinct (G_ind, slots) pair
    # and the result is multiplied by the group size.  Exact, because
    # Fraction addition is commutative and associative.  Rows with no
    # independent load are dropped up front (Figure 6 contributes
    # nothing for them).
    load_words = np.frombuffer(
        load_mask.to_bytes(ind_matrix.shape[1] * 8, "little"), dtype=np.uint64
    )
    has_load = (ind_matrix & load_words).any(axis=1)
    groups: Dict[Tuple[bytes, int], int] = {}
    considered = 0
    for i in dag.nodes():
        if not has_load[i]:
            continue
        considered += 1
        key = (ind_matrix[i].tobytes(), dag.issue_slots(i))
        groups[key] = groups.get(key, 0) + 1
    rec = _obs.get()
    if rec is not None:
        rec.metrics.inc("sched.gind_memo_hits", considered - len(groups))

    # Contributions accumulate in integer space -- a (load, chances)
    # -> slots * count matrix -- instead of one exact rational addition
    # per (i, component, load) triple.
    load_idx = np.array(load_nodes, dtype=np.intp)
    scaled = np.zeros((len(load_nodes), n + 1), dtype=np.int64)
    group_items = list(groups.items())
    pred_lists = [list(dag._pred[v]) for v in range(n)]
    # Chunk the mask axis so the DP matrix stays modest for huge DAGs.
    chunk = max(1, 8_000_000 // max(n, 1))
    for start in range(0, len(group_items), chunk):
        batch = group_items[start : start + chunk]
        member = np.ascontiguousarray(
            np.unpackbits(
                np.frombuffer(
                    b"".join(key for (key, _slots) in (g[0] for g in batch)),
                    dtype=np.uint8,
                ).reshape(len(batch), -1),
                axis=1,
                bitorder="little",
            )[:, :n].T
        ).astype(bool)
        paths = batched_weighted_paths(pred_lists, member, weighted_arr)
        for column, ((key, slots), multiplicity) in enumerate(batch):
            ind = mask_from_words(key)
            per_mask = np.ascontiguousarray(paths[:, column])
            share = slots * multiplicity
            for component in connected_components(dag, ind, neighbor_masks):
                if not component & load_mask:
                    continue
                comp_member = mask_member_array(component, n)
                comp_load_rows = np.flatnonzero(comp_member[load_idx])
                chances = int(per_mask[comp_member].max())
                scaled[comp_load_rows, chances] += share

    # Weight = 1 + sum(scaled[chances] / chances): summed over the
    # common denominator of the chances present, in Python ints (the
    # LCM can outgrow int64), with one Fraction per load.
    weights: Dict[int, Fraction] = {}
    for row, l in enumerate(load_nodes):
        entries = scaled[row]
        present = np.flatnonzero(entries).tolist()
        denominator = lcm(*present)
        numerator = denominator + sum(
            share * (denominator // chances)
            for chances, share in zip(present, entries[present].tolist())
        )
        weights[l] = Fraction(numerator, denominator)
    return weights


def contribution_matrix(dag: CodeDAG) -> Dict[int, Dict[int, Fraction]]:
    """Per-(load, contributor) contribution table (the paper's Table 1).

    ``matrix[l][i]`` is the amount instruction ``i`` adds to load
    ``l``'s weight; every pair of nodes appears (zero when ``i``
    contributes nothing to ``l``).  The load's total weight is
    ``1 + sum(matrix[l].values())``.
    """
    load_nodes = dag.load_nodes()
    matrix: Dict[int, Dict[int, Fraction]] = {
        l: {i: Fraction(0) for i in dag.nodes() if i != l} for l in load_nodes
    }
    if not load_nodes:
        return matrix

    pred_masks, succ_masks = closures(dag)
    neighbor_masks = dag.undirected_neighbor_masks()

    for i in dag.nodes():
        ind = independent_mask(dag, i, pred_masks, succ_masks)
        slots = dag.issue_slots(i)
        for component in connected_components(dag, ind, neighbor_masks):
            loads = component_loads(dag, component)
            if not loads:
                continue
            chances = longest_load_path(dag, component)
            for l in loads:
                matrix[l][i] += Fraction(slots, chances)
    return matrix


def average_block_weight(dag: CodeDAG) -> Optional[Fraction]:
    """The rejected Section 3 alternative: one average weight per block.

    "An alternate technique ... might compute a weight based on the
    average load level parallelism over all load instructions in a
    basic block."  The paper reports this variant was no faster than
    the traditional scheduler; the ablation benchmark demonstrates the
    same.  Returns ``None`` for blocks without loads.
    """
    per_load = balanced_weights(dag)
    if not per_load:
        return None
    return sum(per_load.values(), Fraction(0)) / len(per_load)
