"""Tests for per-edge latency labels (paper footnote 1: i860-style
machines where latency differs among a node's successors)."""

from fractions import Fraction

import pytest

from repro.analysis.critical_path import priorities
from repro.analysis.dag import CodeDAG, DepKind
from repro.core import schedule_dag
from repro.ir import MemRef, Opcode, VirtualReg, alu, load

A = MemRef(region="A", base=None, offset=0, affine_coeff=0)


def fan_out_dag():
    """One load feeding two consumers (the i860 case: different
    latencies to different successors)."""
    producer_dst = VirtualReg(0)
    instrs = [
        load(producer_dst, A),
        alu(Opcode.ADD, VirtualReg(1), (producer_dst,)),
        alu(Opcode.ADD, VirtualReg(2), (producer_dst,)),
    ]
    dag = CodeDAG(instrs)
    dag.add_edge(0, 1, DepKind.TRUE)
    dag.add_edge(0, 2, DepKind.TRUE)
    return dag


class TestEdgeLabels:
    def test_default_latency_is_node_weight(self):
        dag = fan_out_dag()
        dag.set_weight(0, Fraction(4))
        assert dag.edge_latency(0, 1) == Fraction(4)
        assert dag.edge_latency(0, 2) == Fraction(4)

    def test_label_overrides_one_successor(self):
        dag = fan_out_dag()
        dag.set_weight(0, Fraction(4))
        dag.set_edge_latency(0, 2, 7)
        assert dag.edge_latency(0, 1) == Fraction(4)
        assert dag.edge_latency(0, 2) == 7

    def test_label_requires_existing_edge(self):
        dag = fan_out_dag()
        with pytest.raises(KeyError):
            dag.set_edge_latency(1, 2, 3)

    def test_scheduler_honours_labels(self):
        """A labelled 6-cycle edge stretches the schedule even though
        the producer's node weight is 1."""
        dag = fan_out_dag()
        dag.set_edge_latency(0, 2, 6)
        result = schedule_dag(dag)
        assert result.noop_span >= 4  # starved while edge latency elapses

    def test_labels_affect_edge_labelled_priorities_only(self):
        dag = fan_out_dag()
        dag.set_edge_latency(0, 2, 9)
        plain = priorities(dag)
        assert plain[0] == 2          # node-weight view unchanged
