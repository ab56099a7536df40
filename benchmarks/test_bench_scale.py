"""Throughput benchmarks for the batch simulator and the cell engine.

Each test measures one leg of the PR-1 throughput layer on large
generated workloads and records the numbers in ``BENCH_scale.json``
(repo root) -- a machine-readable seed for the performance trajectory:

* ``sample_block`` on a 512-instruction block at 30 runs, batch
  (vectorised) versus the seed's scalar per-run loop, per processor
  model.  The acceptance floor is 5x on the UNLIMITED model.
* List-scheduler throughput on 512- and 2048-instruction DAGs.
* Table 2's cells in one process, as one-cell ``evaluate_cells`` calls
  versus one call that groups each program's cells and stacks their
  kernel calls (``table2_grouped``).
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time

import statistics

import numpy as np
import pytest

from repro.analysis import build_dag
from repro.core import BalancedScheduler
from repro.machine import LEN_8, MAX_8, UNLIMITED
from repro.experiments.common import CellSpec, evaluate_cells
from repro.machine.config import SYSTEMS_BY_NAME, paper_system_rows
from repro.simulate import simulate_block
from repro.simulate.batch import simulate_block_batch
from repro.simulate.rng import spawn
from repro.workloads import program_names
from tests.support.generator import random_block

BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_scale.json"

BLOCK_SIZE = 512
RUNS = 30
SPEEDUP_FLOOR = 5.0

_RECORD: dict = {}


@pytest.fixture(scope="module", autouse=True)
def bench_record():
    """Collect every test's numbers, then write BENCH_scale.json."""
    yield _RECORD
    _RECORD["meta"] = {
        "block_size": BLOCK_SIZE,
        "runs": RUNS,
        "usable_cores": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": sys.version.split()[0],
    }
    BENCH_PATH.write_text(json.dumps(_RECORD, indent=2, sort_keys=True) + "\n")
    print(f"\n[written to {BENCH_PATH}]")


def _scale_block():
    return random_block(spawn("bench-scale"), n_instructions=BLOCK_SIZE)


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize(
    "processor", [UNLIMITED, MAX_8, LEN_8], ids=lambda p: p.name
)
def test_bench_batch_vs_scalar_sample(benchmark, processor):
    """Batch simulation of 30 runs vs the seed's scalar per-run loop."""
    block = _scale_block()
    memory = SYSTEMS_BY_NAME["N(2,5)"]
    n_loads = sum(1 for i in block.instructions if i.is_load)
    latencies = memory.sample_many(
        spawn("bench-scale-lat"), n_loads * RUNS
    ).reshape(RUNS, n_loads)

    batch = benchmark(simulate_block_batch, block.instructions, latencies, processor)

    def scalar_loop():
        for run in range(RUNS):
            simulate_block(block.instructions, latencies[run], processor)

    scalar_time = _best_of(scalar_loop)
    batch_time = _best_of(
        lambda: simulate_block_batch(block.instructions, latencies, processor)
    )
    speedup = scalar_time / batch_time

    # Cross-check while we are here: the runs must agree exactly.
    reference = simulate_block(block.instructions, latencies[0], processor)
    assert batch.cycles[0] == reference.cycles

    _RECORD[f"sample_block_512x30/{processor.name}"] = {
        "scalar_seconds": scalar_time,
        "batch_seconds": batch_time,
        "speedup": round(speedup, 2),
        "runs_per_second": round(RUNS / batch_time),
    }
    if processor is UNLIMITED:
        assert speedup >= SPEEDUP_FLOOR, (
            f"batch sample_block speedup {speedup:.1f}x is below the "
            f"{SPEEDUP_FLOOR}x acceptance floor"
        )


@pytest.mark.parametrize("size", [512, 2048])
def test_bench_schedule_large_dag(benchmark, size):
    """Near-linear list scheduling on generated DAGs (heap ready list).

    Weights are assigned once up front so this measures the scheduling
    pass itself, not the balanced weight computation.
    """
    block = random_block(spawn("bench-sched", size), n_instructions=size)
    policy = BalancedScheduler()
    dag = build_dag(block)
    dag = dag.with_weights(policy.load_weights(dag))
    scheduler = policy._scheduler

    result = benchmark(scheduler.schedule, dag, block)
    assert len(result.order) == size

    elapsed = _best_of(lambda: scheduler.schedule(dag, block), repeats=3)
    _RECORD[f"schedule_dag/{size}"] = {
        "seconds": elapsed,
        "instructions_per_second": round(size / elapsed),
    }


def test_bench_table2_grouped(monkeypatch):
    """Table 2's 136 cells: one-cell ``evaluate_cells`` calls versus one
    grouped call, after a warm-up pass has compiled every binary (so
    both legs time sampling, bootstrap and the work loop, not the
    compile memo).  Legs alternate; the speedup is the ratio of the
    medians.  Results must be identical either way."""
    import repro.simulate.program as program_mod

    specs = [
        CellSpec(name, row) for name in program_names()
        for row in paper_system_rows()
    ]
    calls = []
    real = program_mod.simulate_block_batch

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(program_mod, "simulate_block_batch", counting)

    def per_cell():
        return [evaluate_cells([spec])[0] for spec in specs]

    def grouped():
        return evaluate_cells(specs)

    reference = grouped()  # warm-up: compiles every binary once
    counts = {}
    walls = {"per_cell": [], "grouped": []}
    for _ in range(3):
        for name, leg in (("per_cell", per_cell), ("grouped", grouped)):
            calls.clear()
            start = time.perf_counter()
            cells = leg()
            walls[name].append(time.perf_counter() - start)
            counts[name] = len(calls)
            assert [c.imp_pct for c in cells] == [
                c.imp_pct for c in reference
            ]
    per_cell_s = statistics.median(walls["per_cell"])
    grouped_s = statistics.median(walls["grouped"])
    _RECORD["table2_grouped"] = {
        "cells": len(specs),
        "per_cell_seconds": round(per_cell_s, 4),
        "grouped_seconds": round(grouped_s, 4),
        "speedup": round(per_cell_s / grouped_s, 2),
        "per_cell_kernel_calls": counts["per_cell"],
        "grouped_kernel_calls": counts["grouped"],
    }
    assert counts["grouped"] < counts["per_cell"]
