"""Tests for the balanced weight computation (paper Figure 6).

Includes the paper's three worked examples as exact oracles, plus
hypothesis property tests cross-checking the fast implementation
against the naive reference on random DAGs.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import build_dag
from repro.analysis.dag import CodeDAG
from repro.core import (
    average_block_weight,
    balanced_weights,
    contribution_matrix,
)
from repro.extensions.multicycle import (
    uncertain_load_or_multicycle,
    with_fp_latency,
)
from repro.ir import MemRef, Opcode, VirtualReg, alu, load
from tests.support.generator import random_block, random_dag

from .oracles import balanced_weights_reference


class TestWorkedExamples:
    def test_figure1_weights_are_three(self, figure1):
        """Serial loads: weight = 1 + 4/2 = 3 for both."""
        block, labels = figure1
        weights = balanced_weights(build_dag(block))
        named = {labels[k]: v for k, v in weights.items()}
        assert named == {"L0": Fraction(3), "L1": Fraction(3)}

    def test_figure4_weights_are_six(self, figure4):
        """Parallel loads: weight = 1 + 5/1 = 6 for both."""
        block, labels = figure4
        weights = balanced_weights(build_dag(block))
        named = {labels[k]: v for k, v in weights.items()}
        assert named == {"L0": Fraction(6), "L1": Fraction(6)}

    def test_figure7_weights(self, figure7):
        """Totals from Table 1's cells (see DESIGN.md erratum note)."""
        block, labels = figure7
        weights = balanced_weights(build_dag(block))
        named = {labels[k]: v for k, v in weights.items()}
        assert named == {
            "L1": Fraction(10),
            "L2": Fraction(5, 4),
            "L3": Fraction(31, 12),
            "L4": Fraction(55, 12),
            "L5": Fraction(37, 12),
            "L6": Fraction(37, 12),
        }

    def test_figure7_prose_contributions(self, figure7):
        """'X1 contributes 1/1 to L1's weight ... and 1/3 to the
        weights of each load instruction, L3, L4, L5 and L6.'"""
        block, labels = figure7
        matrix = contribution_matrix(build_dag(block))
        inverse = {v: k for k, v in labels.items()}
        x1 = inverse["X1"]
        assert matrix[inverse["L1"]][x1] == Fraction(1)
        for name in ("L3", "L4", "L5", "L6"):
            assert matrix[inverse[name]][x1] == Fraction(1, 3)
        # 'L2 does not appear in a connected component because it is a
        # predecessor of X1': X1 contributes nothing to L2.
        assert matrix[inverse["L2"]][x1] == 0


class TestEdgeCases:
    def test_no_loads(self):
        dag = CodeDAG([alu(Opcode.ADD, VirtualReg(100), ()) for _ in range(3)])
        assert balanced_weights(dag) == {}

    def test_single_isolated_load(self):
        mem = MemRef(region="A", base=None, offset=0, affine_coeff=0)
        dag = CodeDAG([load(VirtualReg(0), mem)])
        assert balanced_weights(dag) == {0: Fraction(1)}

    def test_lone_load_with_independents(self):
        mem = MemRef(region="A", base=None, offset=0, affine_coeff=0)
        instrs = [load(VirtualReg(0), mem)] + [
            alu(Opcode.ADD, VirtualReg(100 + k), ()) for k in range(4)
        ]
        dag = CodeDAG(instrs)
        # Four independents, Chances = 1 each -> weight 5.
        assert balanced_weights(dag)[0] == Fraction(5)

    def test_weights_are_at_least_one(self, rng):
        for _ in range(10):
            dag = random_dag(rng, n_nodes=15)
            for weight in balanced_weights(dag).values():
                assert weight >= 1

    def test_empty_dag(self):
        assert balanced_weights(CodeDAG([])) == {}


class TestOracle:
    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_fast_matches_reference_on_random_dags(self, seed):
        rng = np.random.default_rng(seed)
        dag = random_dag(
            rng,
            n_nodes=int(rng.integers(1, 16)),
            edge_probability=float(rng.uniform(0.05, 0.5)),
            load_fraction=float(rng.uniform(0.1, 0.9)),
        )
        assert balanced_weights(dag) == balanced_weights_reference(dag)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_fast_matches_reference_on_real_blocks(self, seed):
        rng = np.random.default_rng(seed)
        block = random_block(rng, n_instructions=int(rng.integers(4, 28)))
        dag = build_dag(block)
        assert balanced_weights(dag) == balanced_weights_reference(dag)

    @given(st.integers(0, 10_000), st.integers(2, 8))
    @settings(max_examples=30, deadline=None)
    def test_fast_matches_reference_with_multicycle_predicate(
        self, seed, fp_latency
    ):
        """Section 6: multi-cycle FP nodes are weighted too, and
        ``Chances`` counts every weighted node on a path."""
        rng = np.random.default_rng(seed)
        block = random_block(rng, n_instructions=int(rng.integers(4, 28)))
        with_fp_latency(block.instructions, fp_latency)
        dag = build_dag(block)
        predicate = uncertain_load_or_multicycle
        assert balanced_weights(dag, predicate) == balanced_weights_reference(
            dag, predicate
        )


class TestContributionMatrix:
    def test_total_is_one_plus_cells(self, figure7):
        block, _ = figure7
        dag = build_dag(block)
        matrix = contribution_matrix(dag)
        weights = balanced_weights(dag)
        for node, row in matrix.items():
            assert weights[node] == 1 + sum(row.values())

    def test_self_not_in_row(self, figure7):
        block, _ = figure7
        matrix = contribution_matrix(build_dag(block))
        for node, row in matrix.items():
            assert node not in row


class TestAverageWeight:
    def test_mean_of_per_load_weights(self, figure7):
        block, _ = figure7
        dag = build_dag(block)
        weights = balanced_weights(dag)
        expected = sum(weights.values(), Fraction(0)) / len(weights)
        assert average_block_weight(dag) == expected

    def test_none_without_loads(self):
        dag = CodeDAG([alu(Opcode.ADD, VirtualReg(100), ())])
        assert average_block_weight(dag) is None


class TestGeneralisedPredicate:
    def test_all_nodes_weighted_matches_loads_on_load_only_dag(self, rng):
        dag = random_dag(rng, n_nodes=10, load_fraction=1.0)
        default = balanced_weights(dag)
        explicit = balanced_weights(dag, lambda d, v: d.is_load(v))
        assert default == explicit

    def test_fp_predicate_weighs_fp_nodes(self, saxpy_block):
        dag = build_dag(saxpy_block)
        weighted = balanced_weights(
            dag, lambda d, v: d.is_load(v) or d.instructions[v].is_fp
        )
        fp_nodes = [
            v for v in dag.nodes() if dag.instructions[v].is_fp
        ]
        assert fp_nodes
        for v in fp_nodes:
            assert v in weighted


class TestMemoisationCounter:
    def test_gind_memo_hits_recorded(self, saxpy_block):
        """Unrolled blocks repeat (G_ind, slots) pairs; the batched
        implementation counts every dedup as a memo hit."""
        from repro import obs

        dag = build_dag(saxpy_block)
        with obs.recording() as rec:
            balanced_weights(dag)
        counters = rec.metrics.counters
        assert counters.get(("sched.gind_memo_hits", ()), 0) > 0

    def test_counter_silent_without_recorder(self, saxpy_block):
        dag = build_dag(saxpy_block)
        assert balanced_weights(dag) == balanced_weights_reference(dag)
