"""Tests for the reconstructed Figure 1/4/7 DAGs.

These verify every structural claim the paper's prose makes about the
example graphs; the weight/schedule claims themselves are covered in
``tests/core`` and ``tests/experiments``.
"""

from repro.analysis.dependence import build_dag
from repro.analysis.reachability import reachable
from repro.workloads.paper_dags import label_order
from tests.support.verifier import verify_block


def inverse(labels):
    return {v: k for k, v in labels.items()}


class TestFigure1:
    def test_seven_nodes_two_loads(self, figure1):
        block, labels = figure1
        assert len(block) == 7
        assert len(block.loads) == 2
        verify_block(block)

    def test_loads_in_series(self, figure1):
        """L1 is dependent on L0 (the serial-loads example)."""
        block, labels = figure1
        dag = build_dag(block)
        inv = inverse(labels)
        assert inv["L1"] in dag.successors(inv["L0"])

    def test_x0_to_x3_independent_of_loads(self, figure1):
        block, labels = figure1
        dag = build_dag(block)
        inv = inverse(labels)
        for name in ("X0", "X1", "X2", "X3"):
            node = inv[name]
            for load_name in ("L0", "L1"):
                assert not reachable(dag, inv[load_name], node)
                assert not reachable(dag, node, inv[load_name])

    def test_x4_is_the_sink(self, figure1):
        block, labels = figure1
        dag = build_dag(block)
        inv = inverse(labels)
        assert dag.successors(inv["X4"]) == []
        assert len(dag.predecessors(inv["X4"])) == 5  # L1 + X0..X3


class TestFigure4:
    def test_loads_parallel(self, figure4):
        """'L0 and L1 are independent.'"""
        block, labels = figure4
        dag = build_dag(block)
        inv = inverse(labels)
        assert not reachable(dag, inv["L0"], inv["L1"])
        assert not reachable(dag, inv["L1"], inv["L0"])

    def test_each_load_parallel_with_five_instructions(self, figure4):
        """'each load instruction may execute in parallel with five
        other instructions' -> weight 1 + 5/1 = 6."""
        from repro.analysis.reachability import bits, closures, independent_mask

        block, labels = figure4
        dag = build_dag(block)
        inv = inverse(labels)
        preds, succs = closures(dag)
        for load_name in ("L0", "L1"):
            mask = independent_mask(dag, inv[load_name], preds, succs)
            assert len(list(bits(mask))) == 5


class TestFigure7:
    def test_ten_nodes_six_loads(self, figure7):
        block, labels = figure7
        assert len(block) == 10
        assert len(block.loads) == 6
        verify_block(block)

    def test_l1_isolated(self, figure7):
        block, labels = figure7
        dag = build_dag(block)
        inv = inverse(labels)
        assert dag.successors(inv["L1"]) == []
        assert dag.predecessors(inv["L1"]) == []

    def test_l2_is_predecessor_of_x1(self, figure7):
        """'L2 does not appear in a connected component because it is
        a predecessor of X1.'"""
        block, labels = figure7
        dag = build_dag(block)
        inv = inverse(labels)
        assert reachable(dag, inv["L2"], inv["X1"])

    def test_three_components_for_x1(self, figure7):
        """'step 4 generates the three connected components.'"""
        from repro.analysis.components import connected_components
        from repro.analysis.reachability import closures, independent_mask

        block, labels = figure7
        dag = build_dag(block)
        inv = inverse(labels)
        preds, succs = closures(dag)
        mask = independent_mask(dag, inv["X1"], preds, succs)
        comps = connected_components(dag, mask, dag.undirected_neighbor_masks())
        assert len(comps) == 3

    def test_four_load_path_for_l1(self, figure7):
        """For i = L1 the component holds the 4-load series that gives
        the 1/4 contributions of Table 1's L1 column."""
        from repro.analysis.components import (
            connected_components,
            longest_load_path,
        )
        from repro.analysis.reachability import closures, independent_mask

        block, labels = figure7
        dag = build_dag(block)
        inv = inverse(labels)
        preds, succs = closures(dag)
        mask = independent_mask(dag, inv["L1"], preds, succs)
        comps = connected_components(dag, mask, dag.undirected_neighbor_masks())
        assert len(comps) == 1
        assert longest_load_path(dag, comps[0]) == 4


def test_label_order_helper(figure1):
    block, labels = figure1
    assert label_order(labels, [0, 1]) == ["L0", "L1"]
