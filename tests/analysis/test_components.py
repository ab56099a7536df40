"""Unit tests for connected components and Chances computation."""

import numpy as np

from repro.analysis import (
    build_dag,
    component_loads,
    connected_components,
    longest_load_path,
    longest_path_unionfind,
)
from repro.analysis.dag import CodeDAG, DepKind
from repro.ir import MemRef, Opcode, VirtualReg, alu, load
from repro.workloads import figure7_block
from tests.support.generator import random_dag


def mixed_dag():
    """load -> op -> load chain plus an isolated op."""
    A = MemRef(region="A", base=None, offset=0, affine_coeff=0)
    instrs = [
        load(VirtualReg(0), A),
        alu(Opcode.ADD, VirtualReg(1), (VirtualReg(0),)),
        load(VirtualReg(2), A.displaced(1)),
        alu(Opcode.ADD, VirtualReg(3), ()),
    ]
    dag = CodeDAG(instrs)
    dag.add_edge(0, 1, DepKind.TRUE)
    dag.add_edge(1, 2, DepKind.TRUE)
    return dag


class TestConnectedComponents:
    def test_full_mask_single_component(self):
        dag = mixed_dag()
        masks = dag.undirected_neighbor_masks()
        comps = connected_components(dag, 0b1111, masks)
        assert sorted(comps) == [0b0111, 0b1000]

    def test_subset_mask_splits_chain(self):
        dag = mixed_dag()
        masks = dag.undirected_neighbor_masks()
        # Removing the middle op disconnects the two loads.
        comps = connected_components(dag, 0b0101, masks)
        assert sorted(comps) == [0b0001, 0b0100]

    def test_empty_mask(self):
        dag = mixed_dag()
        assert connected_components(dag, 0, dag.undirected_neighbor_masks()) == []


class TestLongestLoadPath:
    def test_chain_counts_loads_not_nodes(self):
        dag = mixed_dag()
        # Component {load, op, load}: path has 3 nodes but 2 loads.
        assert longest_load_path(dag, 0b0111) == 2

    def test_no_loads(self):
        dag = mixed_dag()
        assert longest_load_path(dag, 0b1000) == 0

    def test_single_load(self):
        dag = mixed_dag()
        assert longest_load_path(dag, 0b0001) == 1

    def test_figure7_second_component(self):
        """The paper: for i = X1 the loaded component has Chances = 3."""
        block, labels = figure7_block()
        dag = build_dag(block)
        inverse = {v: k for k, v in labels.items()}
        component = sum(
            1 << inverse[name] for name in ("L3", "L4", "L5", "L6")
        )
        assert longest_load_path(dag, component) == 3


class TestComponentLoads:
    def test_lists_only_loads(self):
        dag = mixed_dag()
        assert component_loads(dag, 0b0111) == [0, 2]
        assert component_loads(dag, 0b1000) == []


class TestUnionFindVariant:
    def test_matches_node_path_length(self):
        dag = mixed_dag()
        lengths = longest_path_unionfind(dag, 0b0111)
        # Longest path in *nodes* is 3 for every member of the chain.
        assert lengths == {0: 3, 1: 3, 2: 3}

    def test_diverges_from_load_count_on_mixed_paths(self):
        """The paper's O(n alpha n) scheme counts nodes; the definition
        counts loads.  They agree on all-load paths and diverge here."""
        dag = mixed_dag()
        assert longest_load_path(dag, 0b0111) == 2
        assert longest_path_unionfind(dag, 0b0111)[0] == 3

    def test_agrees_on_pure_load_components(self):
        block, labels = figure7_block()
        dag = build_dag(block)
        inverse = {v: k for k, v in labels.items()}
        component = sum(1 << inverse[n] for n in ("L3", "L4", "L5", "L6"))
        uf_lengths = longest_path_unionfind(dag, component)
        assert set(uf_lengths.values()) == {3}
        assert longest_load_path(dag, component) == 3

    def test_empty_mask(self):
        dag = mixed_dag()
        assert longest_path_unionfind(dag, 0) == {}


def test_random_components_partition_mask(rng):
    for _ in range(20):
        dag = random_dag(rng, n_nodes=14, edge_probability=0.25)
        masks = dag.undirected_neighbor_masks()
        full = (1 << len(dag)) - 1
        comps = connected_components(dag, full, masks)
        union = 0
        for comp in comps:
            assert union & comp == 0  # disjoint
            union |= comp
        assert union == full  # covering


class TestBatchedWeightedPaths:
    """The vectorised Chances DP agrees with the per-mask DP."""

    def _oracle_paths(self, dag, mask):
        """Per-node longest weighted path ending at the node (the
        scalar DP from longest_load_path, kept per node)."""
        from repro.analysis.reachability import bits

        best = {}
        for v in bits(mask):
            through = 0
            for p in dag.predecessors(v):
                if mask >> p & 1 and best.get(p, 0) > through:
                    through = best[p]
            best[v] = through + (1 if dag.is_load(v) else 0)
        return best

    def _assert_matches(self, dag, masks):
        from repro.analysis.components import batched_weighted_paths
        from repro.analysis.reachability import mask_member_array

        n = len(dag)
        member = np.stack(
            [mask_member_array(m, n) for m in masks], axis=1
        )
        weighted = [1 if dag.is_load(v) else 0 for v in range(n)]
        pred_lists = [list(dag._pred[v]) for v in range(n)]
        paths = batched_weighted_paths(pred_lists, member, weighted)
        for column, mask in enumerate(masks):
            oracle = self._oracle_paths(dag, mask)
            for v in range(n):
                assert paths[v, column] == oracle.get(v, 0)
            if mask:
                assert paths[:, column].max() == longest_load_path(dag, mask)

    def test_mixed_dag_submasks(self):
        dag = mixed_dag()
        self._assert_matches(dag, [0b1111, 0b0111, 0b0101, 0b1000, 0])

    def test_random_dags_random_masks(self, rng):
        for _ in range(10):
            dag = random_dag(rng, n_nodes=24, edge_probability=0.2)
            full = (1 << len(dag)) - 1
            masks = [full] + [
                int(rng.integers(0, full, endpoint=True)) for _ in range(6)
            ]
            self._assert_matches(dag, masks)

    def test_max_over_members_matches_chances(self, rng):
        """Column maxima are exactly Figure 6's Chances values."""
        dag = random_dag(rng, n_nodes=40, edge_probability=0.12)
        full = (1 << len(dag)) - 1
        masks = [int(rng.integers(1, full)) | 1 for _ in range(8)]
        self._assert_matches(dag, masks)
