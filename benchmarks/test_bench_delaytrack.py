"""Throughput benchmarks for the vectorized delay-tracking kernel.

The delay-tracking issue model (``load_delay_tracking``) reorders
issue at run time, so its batch kernel cannot reuse the in-order
cascade the other kernels share -- it steps a global event loop across
all runs at once.  These benchmarks pin down what that costs relative
to the scalar oracle and record the numbers in
``BENCH_delaytrack.json`` (repo root):

* paired batch-vs-scalar timings on every block of the compiled MDG
  program (the study's style of workload) for DT-8 at widths 1 and 2
  and the DT-1 small-table case, at 30 runs -- the acceptance floor is
  a **>= 2x paired-median speedup for width-1 DT-8**;
* the same pairing on a 512-instruction generated block for DT-8 on
  the unrestricted and MAX-8 bases, comparable to the large-block rows
  in ``BENCH_superscalar.json``.  The scalar leg times 3 of the 30
  runs (runs are independent, so its time is linear in the run count)
  and is scaled x10 into ``scalar_seconds``;
* the delay-tracking study's final blocks at tables 1, 2, 4 and 64,
  one batch call per (block, table) against one call per block with
  the table passed per row (``study_blocks_x30/tables_stacked``);
* the same blocks and tables, one call per block (120 columns) against
  one ragged call per block position across the four policies'
  binaries (480 columns; ``study_positions_x120/blocks_stacked``);
* the study's oracle replay at tables 0, 1, 2, 4 and 64: each (block,
  table) building its own conflict lists and ordered pairs against
  the study's replay, which builds them once per block
  (``study_replay``).

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

import numpy as np

from repro.core import BalancedScheduler
from repro.core.pipeline import compile_program
from repro.experiments.common import COMPILATION_CACHE
from repro.experiments import delaytrack
from repro.experiments.delaytrack import _policies, _verify_traces
from repro.machine import MAX_8, delay_tracking, superscalar
from repro.machine.config import N_2_5, SYSTEMS_BY_NAME
from repro.simulate import simulate_block
from repro.simulate.batch import simulate_block_batch
from repro.simulate.rng import DEFAULT_SEED, spawn
from repro.simulate.simulator import delaytrack_issue_trace
from repro.verify import check_delaytrack_issue
from repro.workloads import program_names
from repro.workloads.perfect import load_program
from tests.support.generator import random_block

BENCH_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_delaytrack.json"
)

RUNS = 30
MEDIAN_SPEEDUP_FLOOR = 2.0  # paired median, width-1 DT-8 MDG blocks
#: Runs the scalar engine times on the 512-instruction block (~6 s a
#: run); ``scalar_seconds`` scales its best-of-5 to ``RUNS``.
LARGE_SCALAR_RUNS = 3

_RECORD: dict = {}


@pytest.fixture(scope="module", autouse=True)
def bench_record():
    """Collect every test's numbers, then write BENCH_delaytrack.json."""
    yield _RECORD
    _RECORD["meta"] = {
        "runs": RUNS,
        "median_speedup_floor_dt8": MEDIAN_SPEEDUP_FLOOR,
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


def _paired_times(block, processor, key, scalar_runs=RUNS):
    """(scalar_seconds, batch_seconds) for one block, cross-checked.

    The scalar leg times the first ``scalar_runs`` runs and scales the
    time to ``RUNS``: runs are independent, so it is linear in them."""
    memory = SYSTEMS_BY_NAME["N(2,5)"]
    n_loads = sum(1 for i in block.instructions if i.is_load)
    latencies = memory.sample_many(
        spawn("bench-dt", *key), n_loads * RUNS
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
        for run in range(scalar_runs):
            simulate_block(block.instructions, latencies[run], processor)

    scalar_s = _best_of(scalar_loop) * RUNS / scalar_runs
    batch_s = _best_of(
        lambda: simulate_block_batch(block.instructions, latencies, processor)
    )
    return scalar_s, batch_s


_PROCESSORS = [
    delay_tracking(8),
    delay_tracking(8, superscalar(2)),
    delay_tracking(1),
]


@pytest.mark.parametrize("processor", _PROCESSORS, ids=lambda p: p.name)
def test_bench_mdg_blocks_paired_median(processor):
    """Paired per-block speedups on the delay-tracking study workload."""
    blocks = _mdg_blocks()
    pairs = []
    for block in blocks:
        scalar_s, batch_s = _paired_times(
            block, processor, (block.name, processor.name)
        )
        pairs.append({
            "block": block.name,
            "instructions": len(block.instructions),
            "scalar_seconds": scalar_s,
            "batch_seconds": batch_s,
            "speedup": round(scalar_s / batch_s, 2),
        })
    median = statistics.median(p["speedup"] for p in pairs)
    _RECORD[f"mdg_blocks_x30/{processor.name}"] = {
        "blocks": pairs,
        "median_speedup": round(median, 2),
    }
    if processor.name == "DT-8":
        assert median >= MEDIAN_SPEEDUP_FLOOR, (
            f"DT-8 paired-median speedup {median:.2f}x on MDG blocks "
            f"is below the {MEDIAN_SPEEDUP_FLOOR}x acceptance floor"
        )


@pytest.mark.parametrize(
    "base", [None, MAX_8], ids=["UNLIMITED", "MAX-8"]
)
def test_bench_large_block_dt8_families(base):
    """A 512-instruction generated block under DT-8, per memory-
    constraint family -- comparable to ``large_block_512x30`` in
    BENCH_superscalar.json."""
    processor = delay_tracking(8) if base is None else delay_tracking(8, base)
    block = random_block(spawn("bench-dt-large"), n_instructions=512)
    scalar_s, batch_s = _paired_times(
        block, processor, ("large", processor.name),
        scalar_runs=LARGE_SCALAR_RUNS,
    )
    _RECORD[f"large_block_512x30/{processor.name}"] = {
        "scalar_seconds": scalar_s,
        "scalar_runs_timed": LARGE_SCALAR_RUNS,
        "batch_seconds": batch_s,
        "speedup": round(scalar_s / batch_s, 2),
        "runs_per_second": round(RUNS / batch_s),
    }


STUDY_TABLES = (1, 2, 4, 64)


def _study_programs():
    """``(program, {policy tag: compiled})`` for every suite program
    under the study's four policies, compiled as the study does."""
    policies = _policies(N_2_5, float(N_2_5.optimistic_latencies[0]))
    return [
        (name, {
            tag: COMPILATION_CACHE.compile(load_program(name), policy)
            for tag, policy in policies.items()
        })
        for name in program_names()
    ]


def _study_blocks():
    """Every final block the delay-tracking study simulates."""
    return [
        block
        for _, compiled in _study_programs()
        for artefacts in compiled.values()
        for block in artefacts.final_blocks
    ]


def test_bench_study_blocks_tables_stacked():
    """The study's nonzero tables: one kernel call per (block, table)
    against one per block with each row's table passed to the kernel.
    Legs alternate; the speedup is the median of the per-pair ratios.
    Every column of the stacked calls must equal the per-table calls."""
    blocks = _study_blocks()
    processors = [delay_tracking(t) for t in STUDY_TABLES]
    inputs = []
    for index, block in enumerate(blocks):
        n_loads = sum(1 for i in block.instructions if i.is_load)
        parts = [
            N_2_5.sample_many(
                spawn("bench-dt-tables", index, table), n_loads * RUNS
            ).reshape(RUNS, n_loads)
            for table in STUDY_TABLES
        ]
        inputs.append((block.instructions, parts, np.concatenate(parts)))
    row_tables = np.repeat(STUDY_TABLES, RUNS)

    def per_table():
        return [
            simulate_block_batch(instructions, rows, processor)
            for instructions, parts, _ in inputs
            for processor, rows in zip(processors, parts)
        ]

    def stacked():
        return [
            simulate_block_batch(
                instructions, latencies, processors[0], tables=row_tables
            )
            for instructions, _, latencies in inputs
        ]

    alone, together = per_table(), stacked()
    for k, result in enumerate(together):
        for t in range(len(STUDY_TABLES)):
            ref = alone[k * len(STUDY_TABLES) + t]
            cols = slice(t * RUNS, (t + 1) * RUNS)
            assert (result.cycles[cols] == ref.cycles).all(), (k, t)
            assert (result.interlocks[cols] == ref.interlocks).all(), (k, t)

    walls = {"per_table": [], "stacked": []}
    for _ in range(5):
        for name, leg in (("per_table", per_table), ("stacked", stacked)):
            start = time.perf_counter()
            leg()
            walls[name].append(time.perf_counter() - start)
    speedup = statistics.median(
        a / b for a, b in zip(walls["per_table"], walls["stacked"])
    )
    _RECORD["study_blocks_x30/tables_stacked"] = {
        "blocks": len(blocks),
        "tables": list(STUDY_TABLES),
        "per_table_calls": len(alone),
        "stacked_calls": len(together),
        "per_table_seconds": round(statistics.median(walls["per_table"]), 4),
        "stacked_seconds": round(statistics.median(walls["stacked"]), 4),
        "speedup": round(speedup, 2),
    }


def test_bench_study_positions_blocks_stacked():
    """The study's nonzero tables again: one kernel call per block (the
    four tables' rows stacked, 120 columns) against one ragged call per
    block position across the four policies' binaries (480 columns).
    Legs alternate; the speedup is the median of the per-pair ratios.
    Every column of the ragged calls must equal the per-block calls."""
    base = delay_tracking(STUDY_TABLES[0])
    row_tables = np.repeat(STUDY_TABLES, RUNS)
    positions = []
    for name, compiled in _study_programs():
        programs = [artefacts.final_blocks for artefacts in compiled.values()]
        for position, blocks in enumerate(zip(*programs)):
            parts = []
            for tag, block in zip(compiled, blocks):
                n_loads = sum(1 for i in block.instructions if i.is_load)
                parts.append(np.concatenate([
                    N_2_5.sample_many(
                        spawn("bench-dt-positions", name, position, tag, t),
                        n_loads * RUNS,
                    ).reshape(RUNS, n_loads)
                    for t in STUDY_TABLES
                ]))
            width = max(rows.shape[1] for rows in parts)
            positions.append((
                [block.instructions for block in blocks],
                parts,
                np.concatenate([
                    np.pad(rows, ((0, 0), (0, width - rows.shape[1])))
                    for rows in parts
                ]),
            ))
    n_policies = len(positions[0][0])
    stack_tables = np.tile(row_tables, n_policies)
    stack_index = np.repeat(np.arange(n_policies), row_tables.size)

    def per_block():
        return [
            simulate_block_batch(
                instructions, rows, base, tables=row_tables
            )
            for blocks, parts, _ in positions
            for instructions, rows in zip(blocks, parts)
        ]

    def stacked():
        return [
            simulate_block_batch(
                blocks, latencies, base, tables=stack_tables,
                block_index=stack_index,
            )
            for blocks, _, latencies in positions
        ]

    alone, together = per_block(), stacked()
    k = 0
    for result in together:
        for b in range(n_policies):
            ref = alone[k]
            mine = stack_index == b
            assert (result.cycles[mine] == ref.cycles).all(), (k, b)
            assert (result.interlocks[mine] == ref.interlocks).all(), (k, b)
            k += 1
    assert k == len(alone)

    walls = {"per_block": [], "stacked": []}
    for _ in range(5):
        for name, leg in (("per_block", per_block), ("stacked", stacked)):
            start = time.perf_counter()
            leg()
            walls[name].append(time.perf_counter() - start)
    speedup = statistics.median(
        a / b for a, b in zip(walls["per_block"], walls["stacked"])
    )
    _RECORD["study_positions_x120/blocks_stacked"] = {
        "blocks": len(alone),
        "tables": list(STUDY_TABLES),
        "per_block_calls": len(alone),
        "stacked_calls": len(together),
        "per_block_seconds": round(statistics.median(walls["per_block"]), 4),
        "stacked_seconds": round(statistics.median(walls["stacked"]), 4),
        "speedup": round(speedup, 2),
    }


REPLAY_TABLES = (0,) + STUDY_TABLES


def test_bench_study_replay_by_block(monkeypatch):
    """The study's oracle replay: one seeded draw per (block, policy,
    table), replayed by the scalar engine and checked by the oracle.
    The per-table leg lets every replay build its block's conflict
    lists and ordered pairs; the per-block leg is the study's own
    ``_verify_traces``, which builds them once per block.  Legs
    alternate; the speedup is the median of the per-pair ratios, and
    both legs must return the same tally."""
    programs = _study_programs()
    memory = N_2_5

    def per_table():
        checked = violations = 0
        for name, compiled in programs:
            for table in REPLAY_TABLES:
                processor = delay_tracking(table)
                for tag, artefacts in compiled.items():
                    for block in artefacts.final_blocks:
                        if not block.instructions:
                            continue
                        n_loads = sum(
                            1 for i in block.instructions if i.is_load
                        )
                        rng = spawn(
                            "delaytrack-verify", name, memory.name,
                            f"t{table}", tag, block.name, seed=DEFAULT_SEED,
                        )
                        latencies = [
                            int(x) for x in memory.sample_many(rng, n_loads)
                        ]
                        trace = delaytrack_issue_trace(
                            block.instructions, latencies, processor
                        )
                        checked += 1
                        violations += len(check_delaytrack_issue(
                            block.instructions, latencies, processor, trace
                        ))
        return checked, violations

    def per_block():
        tallies = [
            _verify_traces(name, compiled, REPLAY_TABLES, memory, DEFAULT_SEED)
            for name, compiled in programs
        ]
        return (
            sum(checked for checked, _ in tallies),
            sum(violations for _, violations in tallies),
        )

    blocks = sum(
        1
        for _, compiled in programs
        for artefacts in compiled.values()
        for block in artefacts.final_blocks
        if block.instructions
    )
    conflict_lists = []
    real = delaytrack.conflict_successors

    def counting(instructions):
        conflict_lists.append(len(instructions))
        return real(instructions)

    monkeypatch.setattr(delaytrack, "conflict_successors", counting)
    tally = per_block()
    monkeypatch.setattr(delaytrack, "conflict_successors", real)
    assert per_table() == tally == (blocks * len(REPLAY_TABLES), 0)
    assert len(conflict_lists) == blocks

    walls = {"per_table": [], "per_block": []}
    for _ in range(5):
        for name, leg in (("per_table", per_table), ("per_block", per_block)):
            start = time.perf_counter()
            leg()
            walls[name].append(time.perf_counter() - start)
    speedup = statistics.median(
        a / b for a, b in zip(walls["per_table"], walls["per_block"])
    )
    _RECORD["study_replay"] = {
        "blocks": blocks,
        "tables": list(REPLAY_TABLES),
        "traces": tally[0],
        "conflict_lists_calls": len(conflict_lists),
        "per_table_seconds": round(statistics.median(walls["per_table"]), 4),
        "per_block_seconds": round(statistics.median(walls["per_block"]), 4),
        "speedup": round(speedup, 2),
    }
