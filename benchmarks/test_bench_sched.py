"""Scheduler-stack throughput benchmarks (the array-native engine).

Measures the three layers of the array-native scheduling stack on
generated workloads and records the numbers in ``BENCH_sched.json``
(repo root):

* ``schedule_dag`` throughput at 512 and 2048 instructions -- the
  packed-key, scaled-integer-clock engine against the ``Fraction``
  test oracle (``tests/core/oracles.py``), paired
  median-of-``REPEATS`` on the same DAG.  Acceptance: >=5x over the pre-vectorization
  BENCH_scale.json baseline at 2048 (11,457 instr/s) and no
  regression at 512 (29,038 instr/s).
* ``balanced_weights`` at 2048 -- the batched bitset-matrix
  implementation (wall-clock only; the oracle is quadratic and
  measured at 512 where it stays affordable).

Every timed pair is also cross-checked for exact equality, so a
benchmark run doubles as a coarse differential test.  Run from the
repository root (``python -m pytest benchmarks/test_bench_sched.py``)
so the ``tests`` package holding the oracles is importable.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import sys
import time

import pytest

from repro.analysis import build_dag
from repro.core import BalancedScheduler, ListScheduler
from repro.core.weights import balanced_weights
from repro.simulate.rng import spawn
from tests.core.oracles import balanced_weights_reference, schedule_reference
from tests.support.generator import random_block

BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_sched.json"

REPEATS = 5
#: Pre-vectorization throughput from BENCH_scale.json (instr/s).
BASELINE = {512: 29_038, 2048: 11_457}
SPEEDUP_FLOOR = 5.0

_RECORD: dict = {}


@pytest.fixture(scope="module", autouse=True)
def bench_record():
    """Collect every test's numbers, then write BENCH_sched.json."""
    yield _RECORD
    _RECORD["meta"] = {
        "repeats": REPEATS,
        "baseline_instr_per_second": BASELINE,
        "usable_cores": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": sys.version.split()[0],
    }
    BENCH_PATH.write_text(json.dumps(_RECORD, indent=2, sort_keys=True) + "\n")
    print(f"\n[written to {BENCH_PATH}]")


def _median_of(fn, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _weighted_dag(size):
    block = random_block(spawn("bench-sched", size), n_instructions=size)
    dag = build_dag(block)
    return block, dag.with_weights(BalancedScheduler().load_weights(dag))


@pytest.mark.parametrize("size", [512, 2048])
def test_bench_schedule_fast_vs_reference(benchmark, size):
    """Paired median: the packed-key engine vs the Fraction oracle.

    Weights are assigned once up front, so this isolates the
    scheduling pass exactly as the BENCH_scale.json baseline did.
    """
    block, dag = _weighted_dag(size)
    scheduler = ListScheduler()

    result = benchmark(scheduler.schedule, dag, block)
    assert len(result.order) == size

    fast_time = _median_of(lambda: scheduler.schedule(dag, block))
    ref_time = _median_of(lambda: schedule_reference(dag, block))
    reference = schedule_reference(dag, block)
    assert (result.order, result.noop_span, result.slots) == (
        reference.order,
        reference.noop_span,
        reference.slots,
    )

    throughput = size / fast_time
    vs_baseline = throughput / BASELINE[size]
    _RECORD[f"schedule_dag/{size}"] = {
        "fast_seconds": fast_time,
        "reference_seconds": ref_time,
        "speedup_vs_reference": round(ref_time / fast_time, 2),
        "instructions_per_second": round(throughput),
        "speedup_vs_baseline": round(vs_baseline, 2),
    }
    if size == 2048:
        assert vs_baseline >= SPEEDUP_FLOOR, (
            f"schedule_dag/2048 at {throughput:,.0f} instr/s is "
            f"{vs_baseline:.1f}x the {BASELINE[size]:,} instr/s baseline; "
            f"the acceptance floor is {SPEEDUP_FLOOR}x"
        )
    else:
        assert vs_baseline >= 1.0, (
            f"schedule_dag/512 regressed: {throughput:,.0f} instr/s vs "
            f"the {BASELINE[size]:,} instr/s baseline"
        )


def test_bench_balanced_weights(benchmark):
    """The batched bitset-matrix weights pass on a 2048-instr block."""
    block, dag = _weighted_dag(2048)
    weights = benchmark(balanced_weights, dag)
    assert weights

    batched_time = _median_of(lambda: balanced_weights(dag), repeats=3)
    _RECORD["balanced_weights/2048"] = {
        "seconds": batched_time,
        "instructions_per_second": round(2048 / batched_time),
    }

    # The quadratic oracle is only affordable at 512; pair it there.
    _, small = _weighted_dag(512)
    assert balanced_weights(small) == balanced_weights_reference(small)
    small_batched = _median_of(lambda: balanced_weights(small), repeats=3)
    small_oracle = _median_of(
        lambda: balanced_weights_reference(small), repeats=3
    )
    _RECORD["balanced_weights/512"] = {
        "batched_seconds": small_batched,
        "oracle_seconds": small_oracle,
        "speedup_vs_oracle": round(small_oracle / small_batched, 2),
    }
