"""Observability overhead benchmarks.

Records ``BENCH_obs.json`` (repo root): what ``repro.obs`` costs when
it is off (the null-recorder path, which must stay within noise of the
uninstrumented scheduler micro-bench in ``test_bench_scale.py``) and
what it costs when it is on (spans + metrics, and spans + metrics +
kernel stall attribution at the cell and the table level).

The hard acceptance bound lives in
``test_bench_null_spans_add_under_two_percent``: the null-span wrapper
that ``schedule_dag`` adds around the list scheduler must cost <2% of
the 512-instruction scheduler micro-bench, measured interleaved in the
same process so machine noise cancels.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import pathlib
import sys
import time

import pytest

from repro.analysis import build_dag
from repro.core import BalancedScheduler
from repro.experiments import runner
from repro.experiments.common import COMPILATION_CACHE, ProgramEvaluator
from repro.machine import UNLIMITED
from repro.machine.config import paper_system_rows
from repro.obs import recorder as obs
from repro.obs.recorder import span as _span
from repro.simulate.rng import spawn
from repro.workloads.perfect import clear_cache, load_program
from tests.support.generator import random_block

BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_obs.json"

BLOCK_SIZE = 512
OVERHEAD_CEILING_PCT = 2.0

_RECORD: dict = {}


@pytest.fixture(scope="module", autouse=True)
def bench_record():
    """Collect every test's numbers, then write BENCH_obs.json."""
    yield _RECORD
    _RECORD["meta"] = {
        "block_size": BLOCK_SIZE,
        "overhead_ceiling_pct": OVERHEAD_CEILING_PCT,
        "usable_cores": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": sys.version.split()[0],
    }
    BENCH_PATH.write_text(json.dumps(_RECORD, indent=2, sort_keys=True) + "\n")
    print(f"\n[written to {BENCH_PATH}]")


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _bench_dag():
    block = random_block(spawn("bench-obs"), n_instructions=BLOCK_SIZE)
    policy = BalancedScheduler()
    dag = build_dag(block)
    return policy, dag.with_weights(policy.load_weights(dag)), block


def test_bench_null_spans_add_under_two_percent():
    """The ``schedule_dag`` obs wrapper (two null spans per schedule)
    versus the bare list scheduler -- the same leg
    ``test_bench_scale.py`` benches.  Interleaved best-of-N, so the
    <2% bound is about the instrumentation, not the machine."""
    policy, dag, block = _bench_dag()
    scheduler = policy._scheduler
    assert obs.get() is None, "obs must be disabled for this benchmark"

    def bare():
        scheduler.schedule(dag, block)

    def wrapped():
        # schedule_dag's exact obs layer, minus the weight computation
        # (identical in both legs and excluded from both).
        with _span("weights", policy=policy.name):
            pass
        with _span("schedule", policy=policy.name):
            scheduler.schedule(dag, block)

    # The true wrapper cost is a few microseconds on a ~20ms schedule,
    # far below scheduler jitter on a loaded machine.  Pair the legs
    # back-to-back each round and take the median per-round ratio:
    # drift and interference hit both halves of a pair, so the median
    # isolates the instrumentation.
    # A full garbage collection lands inside one timed half and skews
    # that pair's ratio ~5x either way, so it is kept out of the timed
    # pairs, as ``timeit`` does.
    ratios = []
    gc.collect()
    gc.disable()
    try:
        for _ in range(21):
            bare_s = _best_of(bare, repeats=1)
            wrapped_s = _best_of(wrapped, repeats=1)
            ratios.append(wrapped_s / bare_s)
    finally:
        gc.enable()
    ratios.sort()
    median_ratio = ratios[len(ratios) // 2]
    overhead_pct = (median_ratio - 1.0) * 100.0

    _RECORD["null_span_wrapper_512"] = {
        "median_ratio": round(median_ratio, 5),
        "best_ratio": round(ratios[0], 5),
        "worst_ratio": round(ratios[-1], 5),
        "overhead_pct": round(overhead_pct, 3),
    }
    assert overhead_pct < OVERHEAD_CEILING_PCT, (
        f"null-recorder spans add {overhead_pct:.2f}% to the scheduler "
        f"micro-bench (ceiling {OVERHEAD_CEILING_PCT}%)"
    )


def test_bench_null_guard_cost():
    """Per-call cost of the module-global guard the hot paths use."""
    iterations = 1_000_000

    def guard_loop():
        get = obs.get
        for _ in range(iterations):
            if get() is None:
                pass

    seconds = _best_of(guard_loop, repeats=3)
    _RECORD["null_guard"] = {
        "ns_per_call": round(seconds / iterations * 1e9, 2),
    }


def test_bench_schedule_disabled_vs_enabled():
    """Full recording cost at the scheduler layer: spans + per-step
    selection metrics, with and without the decision log."""
    policy, dag, block = _bench_dag()

    disabled = _best_of(lambda: policy.schedule_dag(dag, block))

    def enabled():
        with obs.recording():
            policy.schedule_dag(dag, block)

    def with_decisions():
        with obs.recording(decisions=True):
            policy.schedule_dag(dag, block)

    enabled_s = _best_of(enabled)
    decisions_s = _best_of(with_decisions)
    _RECORD["schedule_dag_512"] = {
        "disabled_seconds": disabled,
        "enabled_seconds": enabled_s,
        "enabled_decisions_seconds": decisions_s,
        "enabled_over_disabled": round(enabled_s / disabled, 2),
        "decisions_over_disabled": round(decisions_s / disabled, 2),
    }


def test_bench_cell_disabled_vs_enabled():
    """User-facing cost of ``--obs`` on one table cell (compile +
    simulate + stall attribution), ADM on the paper's first system
    row."""
    row = paper_system_rows()[0]

    def evaluate():
        clear_cache()
        COMPILATION_CACHE.clear()
        ProgramEvaluator(load_program("ADM"), runs=3).cell(row, UNLIMITED)

    disabled = _best_of(evaluate, repeats=3)

    def observed():
        with obs.recording():
            evaluate()

    enabled = _best_of(observed, repeats=3)
    _RECORD["adm_cell_runs3"] = {
        "disabled_seconds": round(disabled, 4),
        "enabled_seconds": round(enabled, 4),
        "enabled_over_disabled": round(enabled / disabled, 2),
    }


#: ``adm_cell_runs30`` ceiling on ``enabled_over_disabled``.
RUNS30_CEILING = 6.0


def test_bench_cell_runs30_observation_cost():
    """Cost of ``--obs`` on the simulate side of one ADM cell at the
    paper's 30 runs.  The compilation is memoised before timing, so a
    cell is simulate + bootstrap + observation: the regime where the
    per-run scalar attribution replay used to dominate (~16x an
    unobserved cell); kernel-native attribution must stay within
    ``RUNS30_CEILING``."""
    row = paper_system_rows()[0]
    evaluator = ProgramEvaluator(load_program("ADM"), runs=30)
    evaluator.cell(row, UNLIMITED)  # memoise the compilation

    def evaluate():
        evaluator.cell(row, UNLIMITED)

    def observed():
        with obs.recording():
            evaluate()

    disabled = _best_of(evaluate, repeats=7)
    enabled = _best_of(observed, repeats=7)
    ratio = enabled / disabled
    _RECORD["adm_cell_runs30"] = {
        "disabled_seconds": round(disabled, 5),
        "enabled_seconds": round(enabled, 5),
        "enabled_over_disabled": round(ratio, 2),
    }
    assert ratio <= RUNS30_CEILING, (
        f"--obs costs {ratio:.1f}x an unobserved ADM cell at 30 runs "
        f"(ceiling {RUNS30_CEILING}x)"
    )


def test_bench_table2_observation_cost(tmp_path):
    """User-facing cost of ``--obs`` on a whole table:
    ``run table2 --quick --programs ADM`` in process, uncached, with
    every compilation redone, observed over unobserved.  Rounds
    alternate the two legs and each keeps its best, so drift on the
    host hits both."""
    argv = [
        "run", "table2", "--quick", "--programs", "ADM", "--no-cache",
        "--manifest", str(tmp_path / "manifest.jsonl"),
    ]

    def timed(extra):
        clear_cache()
        COMPILATION_CACHE.clear()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            assert runner.main(argv + extra) == 0
        return time.perf_counter() - start

    disabled = enabled = float("inf")
    for _ in range(5):
        disabled = min(disabled, timed([]))
        enabled = min(enabled, timed(["--obs"]))
    assert obs.get() is None
    _RECORD["table2_adm_quick"] = {
        "disabled_seconds": round(disabled, 4),
        "enabled_seconds": round(enabled, 4),
        "enabled_over_disabled": round(enabled / disabled, 2),
    }
