"""Unit and property tests for transitive closures."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.reachability import (
    bits,
    closures,
    independent_mask,
    predecessor_closure,
    reachable,
    successor_closure,
)
from repro.analysis.dag import CodeDAG, DepKind
from repro.ir.instructions import Opcode, alu
from repro.ir.operands import VirtualReg
from tests.support.generator import random_dag


def chain_dag(n=4):
    instrs = [alu(Opcode.ADD, VirtualReg(100 + k), ()) for k in range(n)]
    dag = CodeDAG(instrs)
    for k in range(n - 1):
        dag.add_edge(k, k + 1, DepKind.TRUE)
    return dag


class TestClosures:
    def test_chain_successor_closure(self):
        masks = successor_closure(chain_dag(4))
        assert masks[0] == 0b1110
        assert masks[3] == 0

    def test_chain_predecessor_closure(self):
        masks = predecessor_closure(chain_dag(4))
        assert masks[0] == 0
        assert masks[3] == 0b0111

    def test_closures_pair(self):
        dag = chain_dag(3)
        preds, succs = closures(dag)
        assert preds == predecessor_closure(dag)
        assert succs == successor_closure(dag)

    def test_reachable(self):
        dag = chain_dag(3)
        assert reachable(dag, 0, 2)
        assert reachable(dag, 1, 1)
        assert not reachable(dag, 2, 0)

    @given(st.integers(0, 4000))
    @settings(max_examples=60)
    def test_closures_agree_with_bfs(self, seed):
        rng = np.random.default_rng(seed)
        dag = random_dag(rng, n_nodes=10, edge_probability=0.3)
        succ_masks = successor_closure(dag)
        pred_masks = predecessor_closure(dag)
        for start in dag.nodes():
            seen = set()
            frontier = [start]
            while frontier:
                node = frontier.pop()
                for nxt in dag.successors(node):
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            assert succ_masks[start] == sum(1 << s for s in seen)
            for s in seen:
                assert pred_masks[s] >> start & 1


class TestIndependentMask:
    def test_excludes_self_and_relatives(self):
        dag = chain_dag(4)
        preds, succs = closures(dag)
        # Node 1's relatives are 0 (pred) and 2, 3 (succs): nothing left.
        assert independent_mask(dag, 1, preds, succs) == 0

    def test_independent_nodes_survive(self):
        dag = chain_dag(2)
        # Add two disconnected nodes.
        instrs = list(dag.instructions) + [
            alu(Opcode.ADD, VirtualReg(200), ()),
            alu(Opcode.ADD, VirtualReg(201), ()),
        ]
        bigger = CodeDAG(instrs)
        bigger.add_edge(0, 1, DepKind.TRUE)
        preds, succs = closures(bigger)
        assert independent_mask(bigger, 0, preds, succs) == 0b1100


def test_bits_enumerates_ascending():
    assert list(bits(0b101001)) == [0, 3, 5]
    assert list(bits(0)) == []


class TestClosureMatrix:
    """The uint64 matrices agree row-for-row with the bigint closures."""

    def _assert_matches(self, dag):
        from repro.analysis.reachability import (
            closure_matrix,
            independent_matrix,
            mask_from_words,
            mask_member_array,
        )

        preds, succs = closures(dag)
        pred_m, succ_m = closure_matrix(dag)
        ind_m = independent_matrix(dag, pred_m, succ_m)
        for v in dag.nodes():
            assert mask_from_words(pred_m[v].tobytes()) == preds[v]
            assert mask_from_words(succ_m[v].tobytes()) == succs[v]
            expected = independent_mask(dag, v, preds, succs)
            assert mask_from_words(ind_m[v].tobytes()) == expected
            member = mask_member_array(expected, len(dag))
            assert sum(1 << int(i) for i in np.flatnonzero(member)) == expected

    def test_chain(self):
        self._assert_matches(chain_dag(5))

    def test_random_dags(self, rng):
        for _ in range(15):
            dag = random_dag(rng, n_nodes=30, edge_probability=0.15)
            self._assert_matches(dag)

    def test_wide_dag_crosses_word_boundary(self, rng):
        """More than 64 nodes forces multi-word rows and a clean tail."""
        dag = random_dag(rng, n_nodes=70, edge_probability=0.08)
        self._assert_matches(dag)

    def test_tail_bits_cleared_so_rows_compare_equal(self, rng):
        """Structurally equal G_ind sets must be byte-equal rows --
        the weights memoisation keys on ``row.tobytes()``."""
        from repro.analysis.reachability import (
            closure_matrix,
            independent_matrix,
        )

        dag = chain_dag(3)
        pred_m, succ_m = closure_matrix(dag)
        ind_m = independent_matrix(dag, pred_m, succ_m)
        # Every row of a pure chain is empty -- all three byte-equal.
        assert ind_m[0].tobytes() == ind_m[1].tobytes() == ind_m[2].tobytes()
