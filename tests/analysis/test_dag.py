"""Unit tests for the CodeDAG structure."""

from fractions import Fraction

import pytest

from repro.analysis import CodeDAG, DepKind
from repro.ir import MemRef, Opcode, VirtualReg, alu, load

A = MemRef(region="A", base=None, offset=0, affine_coeff=0)


def three_node_dag():
    instrs = [
        load(VirtualReg(0), A),
        alu(Opcode.ADD, VirtualReg(1), (VirtualReg(0),)),
        alu(Opcode.ADD, VirtualReg(2), (VirtualReg(1),)),
    ]
    dag = CodeDAG(instrs)
    dag.add_edge(0, 1, DepKind.TRUE)
    dag.add_edge(1, 2, DepKind.TRUE)
    return dag


class TestStructure:
    def test_roots_and_leaves(self):
        dag = three_node_dag()
        assert dag.roots() == [0]
        assert dag.leaves() == [2]

    def test_successors_predecessors(self):
        dag = three_node_dag()
        assert dag.successors(0) == [1]
        assert dag.predecessors(2) == [1]
        assert dag.predecessors(0) == []

    def test_edge_count(self):
        assert three_node_dag().edge_count() == 2

    def test_backward_edge_rejected(self):
        dag = three_node_dag()
        with pytest.raises(ValueError, match="backwards"):
            dag.add_edge(2, 1, DepKind.TRUE)

    def test_self_edge_rejected(self):
        dag = three_node_dag()
        with pytest.raises(ValueError, match="self edge"):
            dag.add_edge(1, 1, DepKind.TRUE)

    def test_out_of_range_rejected(self):
        dag = three_node_dag()
        with pytest.raises(IndexError):
            dag.add_edge(0, 9, DepKind.TRUE)

    def test_true_edge_dominates(self):
        dag = three_node_dag()
        dag.add_edge(0, 2, DepKind.ANTI)
        dag.add_edge(0, 2, DepKind.TRUE)
        assert dag.edge_kind(0, 2) is DepKind.TRUE
        # A later weaker edge must not displace a TRUE edge.
        dag.add_edge(0, 2, DepKind.OUTPUT)
        assert dag.edge_kind(0, 2) is DepKind.TRUE

    def test_check_acyclic(self):
        three_node_dag().check_acyclic()


class TestLoadsAndWeights:
    def test_load_nodes(self):
        dag = three_node_dag()
        assert dag.load_nodes() == [0]
        assert dag.is_load(0) and not dag.is_load(1)

    def test_default_weights_are_latencies(self):
        dag = three_node_dag()
        assert dag.weights == [1, 1, 1]

    def test_with_weights(self):
        dag = three_node_dag()
        weighted = dag.with_weights({0: Fraction(7, 2)})
        assert weighted.weights == [Fraction(7, 2), 1, 1]
        assert weighted.edges() == dag.edges()
        assert weighted.instructions is dag.instructions

    def test_with_weights_leaves_the_dag_unchanged(self):
        dag = three_node_dag()
        dag.with_weights({0: Fraction(2), 1: Fraction(3)})
        assert dag.weights == [1, 1, 1]

    def test_edge_latency_true_vs_order(self):
        dag = three_node_dag()
        dag.add_edge(0, 2, DepKind.ANTI)
        dag.set_weight(0, Fraction(5))
        assert dag.edge_latency(0, 1) == Fraction(5)
        assert dag.edge_latency(0, 2) == 1  # ANTI orders only
        with pytest.raises(KeyError):
            dag.edge_latency(2, 0)


class TestDot:
    def test_to_dot_mentions_every_node(self):
        dag = three_node_dag()
        dot = dag.to_dot()
        for v in range(3):
            assert f"n{v}" in dot
        assert "digraph" in dot
