"""Micro-benchmarks of the core algorithm itself.

These measure the cost of the balanced weight computation and of one
full scheduling pass on suite-sized blocks -- the paper's complexity
claim is that balanced scheduling is "nearly as efficient" as plain
list scheduling (O(n^2 alpha n) vs O(n^2))."""

import numpy as np

from repro.analysis.dependence import build_dag
from repro.core.balanced import BalancedScheduler
from repro.core.traditional import TraditionalScheduler
from repro.core.weights import balanced_weights
from repro.workloads.perfect import load_program
from tests.support.generator import random_block


def _large_block():
    rng = np.random.default_rng(99)
    return random_block(rng, n_instructions=120, n_live_in=4)


def test_bench_balanced_weights(benchmark):
    block = _large_block()
    dag = build_dag(block)
    weights = benchmark(balanced_weights, dag)
    assert weights


def test_bench_balanced_schedule(benchmark):
    block = _large_block()
    result = benchmark(BalancedScheduler().schedule_block, block)
    assert len(result.order) == len(block)


def test_bench_traditional_schedule(benchmark):
    block = _large_block()
    result = benchmark(TraditionalScheduler(2).schedule_block, block)
    assert len(result.order) == len(block)


def test_bench_compile_suite_program(benchmark):
    from repro.core.pipeline import compile_program

    program = load_program("MG3D")
    compiled = benchmark(compile_program, program, BalancedScheduler())
    assert compiled.dynamic_instructions > 0
