"""Throughput benchmarks for the vectorized superscalar batch kernel.

PR 1's batch simulator punted ``issue_width > 1`` to a per-run scalar
loop, so every wide-issue sweep (the Section 6 ablation, width sweeps)
forfeited the batch speedup.  These benchmarks measure the replacement
kernel and record the numbers in ``BENCH_superscalar.json`` (repo
root):

* paired batch-vs-scalar timings on every block of the compiled MDG
  program (the superscalar ablation's workload) at widths 2/4/8 and 30
  runs -- the acceptance floor is a **>= 3x paired-median speedup at
  width 4**;
* the same pairing on a 512-instruction generated block, per
  wide-issue processor family (UNLIMITED/MAX-8/LEN-8 at width 4), to
  show the kernel scales like the single-issue path in
  ``BENCH_scale.json``.

Every timing pair cross-checks cycles against the scalar simulator
while it is here, so a benchmark run is also an equivalence sweep.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import sys
import time

import pytest

from repro.core import BalancedScheduler
from repro.core.pipeline import compile_program
from repro.machine import LEN_8, MAX_8, superscalar
from repro.machine.config import SYSTEMS_BY_NAME
from repro.simulate import simulate_block
from repro.simulate.batch import simulate_block_batch
from repro.simulate.rng import spawn
from repro.workloads.perfect import load_program
from tests.support.generator import random_block

BENCH_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_superscalar.json"
)

RUNS = 30
WIDTHS = (2, 4, 8)
MEDIAN_SPEEDUP_FLOOR = 3.0  # paired median, width-4 MDG blocks

_RECORD: dict = {}


@pytest.fixture(scope="module", autouse=True)
def bench_record():
    """Collect every test's numbers, then write BENCH_superscalar.json."""
    yield _RECORD
    _RECORD["meta"] = {
        "runs": RUNS,
        "median_speedup_floor_width4": MEDIAN_SPEEDUP_FLOOR,
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


def _mdg_blocks():
    compiled = compile_program(load_program("MDG"), BalancedScheduler())
    return compiled.final_blocks


def _paired_times(block, processor, key):
    """(scalar_seconds, batch_seconds) for one block, cross-checked."""
    memory = SYSTEMS_BY_NAME["N(2,5)"]
    n_loads = sum(1 for i in block.instructions if i.is_load)
    latencies = memory.sample_many(
        spawn("bench-ss", *key), n_loads * RUNS
    ).reshape(RUNS, n_loads)

    batch = simulate_block_batch(block.instructions, latencies, processor)
    for run in (0, RUNS - 1):
        scalar = simulate_block(
            block.instructions, [int(x) for x in latencies[run]], processor
        )
        assert scalar.cycles == int(batch.cycles[run]), (
            f"equivalence broke on {key}: run {run}"
        )

    def scalar_loop():
        for run in range(RUNS):
            simulate_block(block.instructions, latencies[run], processor)

    scalar_s = _best_of(scalar_loop)
    batch_s = _best_of(
        lambda: simulate_block_batch(block.instructions, latencies, processor)
    )
    return scalar_s, batch_s


@pytest.mark.parametrize("width", WIDTHS)
def test_bench_mdg_blocks_paired_median(width):
    """Paired per-block speedups on the superscalar ablation workload."""
    blocks = _mdg_blocks()
    pairs = []
    for block in blocks:
        scalar_s, batch_s = _paired_times(
            block, superscalar(width), (block.name, width)
        )
        pairs.append({
            "block": block.name,
            "instructions": len(block.instructions),
            "scalar_seconds": scalar_s,
            "batch_seconds": batch_s,
            "speedup": round(scalar_s / batch_s, 2),
        })
    median = statistics.median(p["speedup"] for p in pairs)
    _RECORD[f"mdg_blocks_x30/width{width}"] = {
        "blocks": pairs,
        "median_speedup": round(median, 2),
    }
    if width == 4:
        assert median >= MEDIAN_SPEEDUP_FLOOR, (
            f"width-4 paired-median speedup {median:.2f}x on MDG blocks "
            f"is below the {MEDIAN_SPEEDUP_FLOOR}x acceptance floor"
        )


@pytest.mark.parametrize(
    "base", [None, MAX_8, LEN_8], ids=["UNLIMITED", "MAX-8", "LEN-8"]
)
def test_bench_large_block_width4_families(base):
    """A 512-instruction generated block at width 4, per memory-
    constraint family -- comparable to ``sample_block_512x30`` in
    BENCH_scale.json."""
    processor = superscalar(4) if base is None else superscalar(4, base)
    block = random_block(spawn("bench-ss-large"), n_instructions=512)
    scalar_s, batch_s = _paired_times(block, processor, ("large", processor.name))
    _RECORD[f"large_block_512x30/{processor.name}"] = {
        "scalar_seconds": scalar_s,
        "batch_seconds": batch_s,
        "speedup": round(scalar_s / batch_s, 2),
        "runs_per_second": round(RUNS / batch_s),
    }
