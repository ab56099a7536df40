"""Unit tests for critical-path metrics and scheduler priorities."""

from fractions import Fraction

from repro.analysis import build_dag, priorities
from repro.analysis.dag import CodeDAG, DepKind
from repro.ir import Opcode, VirtualReg, alu
from tests.support.dag_height import height_in_nodes


def chain(n, weights=None):
    instrs = [alu(Opcode.ADD, VirtualReg(100 + k), ()) for k in range(n)]
    dag = CodeDAG(instrs)
    for k in range(n - 1):
        dag.add_edge(k, k + 1, DepKind.TRUE)
    if weights:
        for k, w in enumerate(weights):
            dag.set_weight(k, w)
    return dag


class TestPriorities:
    def test_leaf_priority_is_weight(self):
        dag = chain(3)
        assert priorities(dag)[2] == 1

    def test_priority_accumulates_along_chain(self):
        dag = chain(3)
        assert priorities(dag) == [3, 2, 1]

    def test_weights_enter_priorities(self):
        dag = chain(3, weights=[Fraction(5), 1, 1])
        assert priorities(dag) == [Fraction(7), 2, 1]

    def test_figure1_priorities(self, figure1):
        """With balanced weight 3 on the loads, L0's priority is 7."""
        block, labels = figure1
        dag = build_dag(block)
        inverse = {v: k for k, v in labels.items()}
        dag.set_weight(inverse["L0"], Fraction(3))
        dag.set_weight(inverse["L1"], Fraction(3))
        prios = priorities(dag)
        assert prios[inverse["L0"]] == 7
        assert prios[inverse["L1"]] == 4
        assert prios[inverse["X4"]] == 1

    def test_max_over_successors_not_sum(self):
        dag = chain(2)
        # Add a second, shorter successor of node 0.
        from repro.ir import alu as mk

        instrs = list(dag.instructions) + [mk(Opcode.ADD, VirtualReg(200), ())]
        wide = CodeDAG(instrs)
        wide.add_edge(0, 1, DepKind.TRUE)
        wide.add_edge(0, 2, DepKind.TRUE)
        assert priorities(wide)[0] == 2  # 1 + max(1, 1), not 1 + 2


class TestCriticalPath:
    def test_height_in_nodes(self):
        assert height_in_nodes(chain(4)) == 4
        assert height_in_nodes(CodeDAG([])) == 0
