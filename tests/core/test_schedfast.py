"""Differential tests pinning the packed-key scheduling engine to the
``Fraction`` oracle in :mod:`tests.core.oracles`.

:meth:`ListScheduler.schedule` runs one engine: packed int64 selection
keys over a scaled-integer clock.  These tests hold it to the naive
oracle byte-for-byte -- schedules, no-op spans, slot maps, priorities,
emitted blocks, decision logs and selection metrics -- on every
scheduling call the paper suite makes, in both directions, and on
random DAGs.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.recorder import recording
from repro.analysis.dependence import build_dag
from repro.analysis.dag import CodeDAG, DepKind
from repro.core import scheduler as scheduler_module
from repro.core.balanced import BalancedScheduler
from repro.core.pipeline import compile_program
from repro.core.scheduler import Direction, ListScheduler
from repro.core.traditional import TraditionalScheduler
from repro.experiments.table4 import OPTIMISTIC_LATENCIES
from repro.ir.instructions import Opcode, alu, load
from repro.ir.operands import MemRef, VirtualReg
from repro.obs.decisions import DecisionLog
from repro.simulate.rng import spawn
from repro.workloads.perfect import load_program, program_names
from tests.support.generator import random_block

from .oracles import (
    SchedulerState,
    schedule_reference,
    select_index,
    tie_break_columns,
)

SELECTION_SERIES = ("sched.select_reason", "sched.ready_size")


def weighted_dag(seed: int, size: int = 40):
    """A random balanced-weighted (block, dag) pair."""
    block = random_block(
        spawn("schedfast-prop", seed), n_instructions=size
    )
    dag = build_dag(block)
    return block, dag.with_weights(BalancedScheduler().load_weights(dag))


def result_surface(result):
    return (
        result.order,
        result.noop_span,
        result.priorities,
        result.slots,
        list(result.block.instructions),
    )


def selection_series(rec):
    """The recorder's per-slot selection metrics, every label series."""
    return {
        section: {
            key: value
            for key, value in getattr(rec.metrics, section).items()
            if key[0] in SELECTION_SERIES
        }
        for section in ("counters", "gauges", "histograms")
    }


def assert_matches_oracle(schedule, dag, block, direction):
    """``schedule(dag, block)`` (the engine) and the oracle agree with
    observability off and on (decision log, selection metrics)."""
    engine = schedule(dag, block)
    assert result_surface(engine) == result_surface(
        schedule_reference(dag, block, direction)
    )
    with recording(decisions=True) as rec_engine:
        observed = schedule(dag, block)
    with recording(decisions=True) as rec_oracle:
        schedule_reference(dag, block, direction)
    assert result_surface(observed) == result_surface(engine)
    assert rec_engine.decisions.render() == rec_oracle.decisions.render()
    assert selection_series(rec_engine) == selection_series(rec_oracle)
    return engine


class TestSuiteParity:
    """Every scheduling call of the paper suite -- both passes of the
    pipeline, the balanced policy and the traditional one at every
    optimistic latency the tables use -- checked against the oracle."""

    @pytest.mark.parametrize("program", program_names())
    @pytest.mark.parametrize("direction", list(Direction))
    def test_every_suite_schedule_matches_oracle(
        self, program, direction, monkeypatch
    ):
        engine_schedule = ListScheduler.schedule
        calls = []

        def checked(self, dag, block=None, weights=None):
            # The engine reads the policy's weight map; the oracle reads
            # the same weights installed on a view of the DAG.
            calls.append(len(dag))
            return assert_matches_oracle(
                lambda _d, b: engine_schedule(self, dag, b, weights),
                dag.with_weights(weights or {}), block, self.direction,
            )

        monkeypatch.setattr(ListScheduler, "schedule", checked)
        policies = [BalancedScheduler(direction=direction)] + [
            TraditionalScheduler(latency, direction=direction)
            for latency in OPTIMISTIC_LATENCIES
        ]
        program_blocks = sum(1 for f in load_program(program) for _b in f)
        for policy in policies:
            compile_program(load_program(program), policy)
        # Two passes (schedule, allocate, reschedule) per block.
        assert len(calls) == 2 * program_blocks * len(policies)


class TestFastReferenceParity:
    @pytest.mark.parametrize(
        "direction", [Direction.BOTTOM_UP, Direction.TOP_DOWN]
    )
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_identical_schedules(self, direction, seed):
        block, dag = weighted_dag(seed)
        fast = ListScheduler(direction).schedule(dag, block)
        reference = schedule_reference(dag, block, direction)
        assert result_surface(fast) == result_surface(reference)

    @given(seed=st.integers(0, 10_000), size=st.integers(1, 80))
    @settings(max_examples=30, deadline=None)
    def test_identical_schedules_varied_sizes(self, seed, size):
        block, dag = weighted_dag(seed, size)
        fast = ListScheduler().schedule(dag, block)
        reference = schedule_reference(dag, block)
        assert result_surface(fast) == result_surface(reference)

    def test_noop_span_is_exact_fraction(self):
        block, dag = weighted_dag(11)
        result = ListScheduler().schedule(dag, block)
        assert isinstance(result.noop_span, Fraction)
        for slot in result.slots.values():
            assert isinstance(slot, Fraction)


class TestObservedParity:
    """Engine observability mirrors the oracle byte-for-byte."""

    @pytest.mark.parametrize(
        "direction", [Direction.BOTTOM_UP, Direction.TOP_DOWN]
    )
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_decision_log_parity(self, direction, seed):
        block, dag = weighted_dag(seed, 30)
        with recording(decisions=True) as rec_fast:
            ListScheduler(direction).schedule(dag, block)
        with recording(decisions=True) as rec_ref:
            schedule_reference(dag, block, direction)
        assert rec_fast.decisions.render() == rec_ref.decisions.render()
        assert DecisionLog.diff(rec_fast.decisions, rec_ref.decisions) == []

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_selection_metrics_parity(self, seed):
        block, dag = weighted_dag(seed, 30)
        with recording() as rec_fast:
            ListScheduler().schedule(dag, block)
        with recording() as rec_ref:
            schedule_reference(dag, block)
        for section in ("counters", "gauges", "histograms"):
            assert getattr(rec_fast.metrics, section) == getattr(
                rec_ref.metrics, section
            )


class TestSelectIndexEmptyTieBreaks:
    """The collapsed branch: with no co-leaders there is nothing to break."""

    def test_unique_maximum_needs_no_tie_breaks(self):
        block, dag = weighted_dag(3, 6)
        state = SchedulerState(dag, Direction.BOTTOM_UP)
        ready = [(0, 0), (1, 1), (2, 2)]
        prio_rank = [1, 5, 3]
        idx = select_index(state, ready, prio_rank, tie_break_columns(state))
        assert idx == 1


def _chain(weight=1, edge_latency=None):
    """A load feeding an add; optional per-edge latency label."""
    mem = MemRef(region="A", base=None, offset=0, affine_coeff=0)
    dag = CodeDAG(
        [
            load(VirtualReg(0), mem),
            alu(Opcode.ADD, VirtualReg(1), (VirtualReg(0),)),
        ]
    )
    dag.add_edge(0, 1, DepKind.TRUE)
    dag.set_weight(0, weight)
    if edge_latency is not None:
        dag.set_edge_latency(0, 1, edge_latency)
    return dag


class TestRejectedInputs:
    """Inputs the exact integer clock cannot represent raise instead of
    being scheduled approximately."""

    def test_float_weight_names_the_node(self):
        with pytest.raises(TypeError, match="node 0"):
            ListScheduler().schedule(_chain(weight=2.5))

    def test_float_edge_label_names_the_edge(self):
        with pytest.raises(TypeError, match="edge 0->1"):
            ListScheduler().schedule(_chain(edge_latency=1.5))

    def test_fraction_and_int_labels_are_exact(self):
        result = ListScheduler().schedule(
            _chain(weight=Fraction(5, 2), edge_latency=3)
        )
        assert result.noop_span == Fraction(2)

    def test_oversized_key_names_the_block_size(self, monkeypatch):
        monkeypatch.setattr(scheduler_module, "_MAX_KEY_BITS", 8)
        _block, dag = weighted_dag(5, 40)
        with pytest.raises(ValueError, match="40 instructions"):
            ListScheduler().schedule(dag)
