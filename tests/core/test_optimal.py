"""Property tests for the exact branch-and-bound scheduler.

The load-bearing checks:

* on random small DAGs (<= 10 instructions) the search returns exactly
  the brute-force permutation minimum, certified, under both memory
  models and under every register-pressure cap;
* the cost model agrees instruction-for-instruction with the scalar
  simulator (the search optimises what the tables measure);
* best-effort results (budget exhausted) stay inside the certificate:
  lower bound <= cost <= the balanced seed's cost;
* the policy wrapper behaves like any other :class:`SchedulingPolicy`
  (legal orders, permutation-clean blocks, integer-latency guard).
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.analysis import build_dag
from repro.core import (
    BalancedScheduler,
    InfeasiblePressureError,
    OptimalScheduler,
    OptimalScheduleResult,
    max_live_registers,
    optimize_order,
    schedule_cost,
)
from repro.simulate.simulator import UNLIMITED, simulate_block
from repro.verify.oracle import check_schedule
from repro.workloads import figure1_block
from repro.workloads.perfect import load_program
from tests.support.generator import random_block

MODELS = (2, 5)


def small_random_blocks(seed: int, count: int, max_n: int = 10):
    """Verifier-clean random blocks small enough to brute-force."""
    rng = np.random.default_rng(seed)
    for index in range(count):
        n = int(rng.integers(2, max_n + 1))
        yield random_block(rng, n_instructions=n, name=f"small{index}")


def all_topological_orders(dag, limit: int = 200_000):
    """Every topological order of ``dag`` (bounded; asserts if cut)."""
    n = len(dag)
    indegree = [len(dag.predecessors(v)) for v in range(n)]
    scheduled = [False] * n
    order = []

    def rec():
        if len(order) == n:
            yield tuple(order)
            return
        for v in range(n):
            if indegree[v] == 0 and not scheduled[v]:
                for s, _kind in dag.successor_items(v):
                    indegree[s] -= 1
                order.append(v)
                scheduled[v] = True
                yield from rec()
                order.pop()
                scheduled[v] = False
                for s, _kind in dag.successor_items(v):
                    indegree[s] += 1

    orders = list(itertools.islice(rec(), limit))
    if len(orders) == limit:
        return None  # too many orders to enumerate; caller skips
    return orders


# ----------------------------------------------------------------------
# Exactness against brute force
# ----------------------------------------------------------------------
class TestBruteForce:
    def test_certified_results_match_the_permutation_minimum(self):
        checked = 0
        for block in small_random_blocks(seed=9301, count=25):
            dag = build_dag(block)
            orders = all_topological_orders(dag)
            if orders is None:
                continue
            for latency in MODELS:
                result = optimize_order(
                    dag, latency,
                    live_in=block.live_in, live_out=block.live_out,
                )
                brute = min(schedule_cost(dag, o, latency) for o in orders)
                assert result.certified
                assert result.cost == brute
                assert result.lower_bound == result.cost
                checked += 1
        assert checked >= 40

    def test_pressure_capped_search_is_exact_and_detects_infeasibility(self):
        for block in small_random_blocks(seed=9302, count=8, max_n=8):
            dag = build_dag(block)
            orders = all_topological_orders(dag)
            if orders is None:
                continue
            latency = 5
            for cap in range(0, 10):
                feasible = [
                    o for o in orders
                    if max_live_registers(
                        dag, o, block.live_in, block.live_out
                    ) <= cap
                ]
                result = optimize_order(
                    dag, latency, max_live=cap,
                    live_in=block.live_in, live_out=block.live_out,
                )
                if not feasible:
                    assert not result.feasible
                else:
                    assert result.feasible and result.certified
                    assert result.cost == min(
                        schedule_cost(dag, o, latency) for o in feasible
                    )

    def test_tightening_the_cap_never_speeds_the_schedule(self):
        for block in small_random_blocks(seed=9303, count=10, max_n=9):
            dag = build_dag(block)
            previous = None
            for cap in range(12, 0, -1):
                result = optimize_order(
                    dag, 5, max_live=cap,
                    live_in=block.live_in, live_out=block.live_out,
                )
                if not result.feasible:
                    break
                if previous is not None:
                    assert result.cost >= previous
                previous = result.cost


# ----------------------------------------------------------------------
# The cost model is the simulator
# ----------------------------------------------------------------------
class TestCostModel:
    def test_schedule_cost_equals_the_scalar_simulator(self):
        rng = np.random.default_rng(9304)
        for _ in range(20):
            block = random_block(rng, n_instructions=int(rng.integers(2, 30)))
            dag = build_dag(block)
            for policy in (BalancedScheduler(), OptimalScheduler(5)):
                result = policy.schedule_dag(dag, block)
                for latency in MODELS:
                    simulated = simulate_block(
                        result.block.instructions,
                        [latency] * len(result.block.loads),
                        UNLIMITED,
                    )
                    assert (
                        schedule_cost(dag, result.order, latency)
                        == simulated.cycles
                    )

    def test_figure1_optima(self):
        """The Figure 1 DAG: 7 instructions, loads L0 -> L1 serial.
        All-hit (W=2) admits a fully covered 7-cycle schedule.  All-miss
        (W=5): L0 issues at 0, X0..X3 cover cycles 1-4, L1 issues the
        moment L0 returns (5) and X4 waits for L1 at 10 -- 11 cycles,
        with only the four X's available to cover ten miss cycles."""
        block, _labels = figure1_block()
        dag = build_dag(block)
        assert optimize_order(dag, 2).cost == 7
        assert optimize_order(dag, 5).cost == 11

    def test_max_live_matches_a_direct_recount(self):
        for block in small_random_blocks(seed=9305, count=10):
            dag = build_dag(block)
            order = BalancedScheduler().schedule_dag(dag, block).order
            uses_left = {}
            for inst in block.instructions:
                for reg in set(inst.all_uses()):
                    uses_left[reg] = uses_left.get(reg, 0) + 1
            live_out = set(block.live_out)
            defined = set(block.live_in)
            peak = len([
                r for r in defined
                if uses_left.get(r, 0) > 0 or r in live_out
            ])
            for v in order:
                inst = block.instructions[v]
                for reg in set(inst.all_uses()):
                    uses_left[reg] -= 1
                defined.update(inst.defs)
                live = [
                    r for r in defined
                    if uses_left.get(r, 0) > 0 or r in live_out
                ]
                peak = max(peak, len(live))
            assert max_live_registers(
                dag, order, block.live_in, block.live_out
            ) == peak


# ----------------------------------------------------------------------
# Budgets and certificates
# ----------------------------------------------------------------------
class TestBudget:
    def test_best_effort_stays_between_bound_and_seed(self):
        program = load_program("BDNA")
        for block in program.all_blocks():
            dag = build_dag(block)
            balanced = BalancedScheduler().schedule_dag(dag, block).order
            for latency in MODELS:
                tight = optimize_order(
                    dag, latency, seed_orders=[balanced], node_budget=1
                )
                balanced_cost = schedule_cost(dag, balanced, latency)
                assert tight.lower_bound <= tight.cost <= balanced_cost
                full = optimize_order(dag, latency, seed_orders=[balanced])
                assert full.certified
                assert tight.lower_bound <= full.cost <= tight.cost

    def test_budget_must_be_positive(self):
        block, _labels = figure1_block()
        dag = build_dag(block)
        with pytest.raises(ValueError):
            optimize_order(dag, 2, node_budget=0)

    def test_expansions_are_deterministic(self):
        program = load_program("MDG")
        block = program.all_blocks()[0]
        dag = build_dag(block)
        first = optimize_order(dag, 5)
        second = optimize_order(dag, 5)
        assert first == second


# ----------------------------------------------------------------------
# The policy wrapper
# ----------------------------------------------------------------------
class TestOptimalScheduler:
    def test_rejects_fractional_latency(self):
        with pytest.raises(ValueError):
            OptimalScheduler(2.5)
        with pytest.raises(ValueError):
            OptimalScheduler(-1)

    def test_float_and_int_latency_share_a_name(self):
        assert OptimalScheduler(2.0).name == OptimalScheduler(2).name == (
            "optimal(W=2)"
        )

    def test_result_carries_the_certificate(self):
        block, _labels = figure1_block()
        result = OptimalScheduler(5).schedule_block(block)
        assert isinstance(result, OptimalScheduleResult)
        assert result.certified
        assert result.cost == result.lower_bound == 11
        assert result.load_latency == 5
        assert sorted(result.order) == list(range(len(block)))
        assert not check_schedule(block, result.block)
        # Issue slots follow the fixed-latency recurrence; the last
        # instruction completes the block at `cost`.
        assert max(result.slots.values()) == result.cost - 1

    def test_never_worse_than_balanced_on_the_suite(self):
        program = load_program("QCD2")
        for block in program.all_blocks():
            dag = build_dag(block)
            balanced = BalancedScheduler().schedule_dag(dag, block)
            for latency in MODELS:
                result = OptimalScheduler(latency).schedule_dag(dag, block)
                assert result.cost <= schedule_cost(
                    dag, balanced.order, latency
                )

    def test_infeasible_pressure_cap_raises(self):
        block, _labels = figure1_block()
        with pytest.raises(InfeasiblePressureError):
            OptimalScheduler(2, max_live=0).schedule_block(block)

    def test_empty_block_schedules_to_nothing(self):
        from repro.ir.block import BasicBlock

        result = OptimalScheduler(2).schedule_block(BasicBlock("empty"))
        assert result.order == []
        assert result.cost == 0
        assert result.certified
