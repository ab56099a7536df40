"""Grouped cell evaluation: the misses of one program are one group.

``evaluate_cells`` hands every missed cell of one program to one
``ProgramEvaluator.cells`` call, which compiles each binary once and
makes one kernel call per (compiled block, processor) for the whole
group.  A cell's result, metrics and failure must not depend on the
group it was evaluated in.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import obs
from repro.experiments import common
from repro.experiments.cache import cell_key
from repro.experiments.common import (
    COMPILATION_CACHE,
    CellEvaluationError,
    CellSpec,
    ProgramEvaluator,
    WorkItem,
    evaluate_cells,
)
from repro.machine import BLOCKING, LEN_8, MAX_8, UNLIMITED, superscalar
from repro.machine.config import SystemRow, parse_processor, system_row
from repro.machine.memory import FixedMemory
from repro.machine.processor import delay_tracking
from repro.obs.export import metrics_json
from repro.obs.metrics import summarize_delta
from repro.simulate import batch as batch_mod


def _mixed_specs(program="ADM"):
    """Different rows, optimistic latencies and processors of one
    program: every balanced block stacks across processors' cells of
    one processor, every traditional block across equal latencies."""
    rows = [
        system_row("L80(2,5)", 2),
        system_row("L80(2,5)", 2.6),
        system_row("N(2,5)", 2),
        system_row("L80(2,10)", 2),
    ]
    processors = [UNLIMITED, MAX_8, LEN_8, superscalar(2), BLOCKING,
                  delay_tracking(2)]
    specs = []
    for k, row in enumerate(rows):
        for processor in (UNLIMITED, processors[(k + 1) % len(processors)]):
            specs.append(
                CellSpec(program, row, processor=processor, runs=3,
                         n_boot=20)
            )
    specs.append(CellSpec(program, rows[0], processor=processors[-1],
                          runs=3, n_boot=20))
    return specs


def _items(specs):
    return [
        WorkItem(
            common._evaluate_cells, spec, cell_key(spec), spec.program,
            spec.system.label, spec.processor.name,
        )
        for spec in specs
    ]


@pytest.fixture
def fresh_compiles(monkeypatch):
    """Each use starts from an empty compile memo, so the first cell
    compiles and later ones replay stage hits, as in a fresh process."""

    def reset():
        monkeypatch.setattr(common, "_EVALUATORS", {})
        COMPILATION_CACHE.clear()

    return reset


class TestResults:
    def test_mixed_group_equals_one_cell_groups(self):
        specs = _mixed_specs()
        grouped = evaluate_cells(specs, jobs=1)
        alone = [evaluate_cells([spec], jobs=1)[0] for spec in specs]
        assert pickle.dumps(grouped) == pickle.dumps(alone)

    def test_cell_is_the_one_cell_group(self):
        spec = _mixed_specs()[3]
        evaluator = ProgramEvaluator(
            common.load_program(spec.program), runs=spec.runs,
            n_boot=spec.n_boot,
        )
        (via_cells,) = evaluator.cells([(spec.system, spec.processor)])
        direct = evaluator.cell(spec.system, spec.processor)
        assert pickle.dumps(via_cells) == pickle.dumps(direct)

    def test_groups_stack_kernel_calls(self, monkeypatch):
        """One group makes fewer kernel calls than its cells alone."""
        calls = []
        real = batch_mod.simulate_block_batch

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(
            "repro.simulate.program.simulate_block_batch", counting
        )
        specs = [
            CellSpec("ADM", system_row(label, 2), runs=3, n_boot=20)
            for label in ("L80(2,5)", "L80(2,10)", "N(2,5)")
        ]
        evaluate_cells(specs, jobs=1)
        grouped = len(calls)
        calls.clear()
        for spec in specs:
            evaluate_cells([spec], jobs=1)
        # Three cells, one W: both binaries are shared by all three.
        assert grouped * 3 == len(calls)


class TestMetrics:
    def test_child_registries_equal_the_one_cell_path(self, fresh_compiles):
        """Every cell's child registry (sim.batch_kernel, the stall
        histograms, compile metrics replayed from stage hits) and its
        manifest summary are what the cell records alone."""
        specs = _mixed_specs()
        with obs.recording():
            fresh_compiles()
            grouped = common._run_group(_items(specs))
            fresh_compiles()
            alone = [
                timed
                for item in _items(specs)
                for timed in common._run_group([item])
            ]
        assert len(grouped) == len(alone) == len(specs)
        for together, single in zip(grouped, alone):
            assert metrics_json(together.metrics) == metrics_json(
                single.metrics
            )
            assert summarize_delta(together.metrics) == summarize_delta(
                single.metrics
            )
        first = metrics_json(grouped[0].metrics)["counters"]
        assert any(k.startswith("sim.batch_kernel") for k in first)
        assert any(k.startswith("regalloc.blocks") for k in first)
        assert any(
            k.startswith("sim.load_stall_cycles")
            for k in metrics_json(grouped[0].metrics)["histograms"]
        )

    def test_group_walls_cover_the_shared_sampling(self):
        specs = _mixed_specs()[:3]
        timed = common._run_group(_items(specs))
        assert all(t.wall > 0 for t in timed)


def _mixed_table_specs():
    """Cells of one program that differ only in the delay-tracking
    table: every block's rows at both tables share one kernel call."""
    rows = [system_row("N(2,5)", 2), system_row("L80(2,5)", 2)]
    return [
        CellSpec("ADM", row, processor=parse_processor(spec), runs=3,
                 n_boot=20)
        for row in rows
        for spec in ("unlimited+dt1", "unlimited+dt4")
    ]


class TestMixedTables:
    def test_results_equal_one_cell_groups(self):
        specs = _mixed_table_specs()
        grouped = evaluate_cells(specs, jobs=1)
        alone = [evaluate_cells([spec], jobs=1)[0] for spec in specs]
        assert pickle.dumps(grouped) == pickle.dumps(alone)

    def test_tables_share_kernel_calls(self, monkeypatch):
        calls = []
        real = batch_mod.simulate_block_batch

        def counting(*args, **kwargs):
            calls.append(kwargs.get("tables"))
            return real(*args, **kwargs)

        monkeypatch.setattr(
            "repro.simulate.program.simulate_block_batch", counting
        )
        specs = _mixed_table_specs()
        evaluate_cells(specs, jobs=1)
        grouped = len(calls)
        assert {1, 4} <= set(np.concatenate(calls).tolist())
        calls.clear()
        for spec in specs:
            evaluate_cells([spec], jobs=1)
        # Two rows, one W, two tables: both binaries are shared by all
        # four cells.
        assert grouped * 4 == len(calls)

    def test_child_registries_equal_the_one_cell_path(self, fresh_compiles):
        """Each cell's registry carries its own processor, in
        ``sim.attribution_skipped`` and the ``sim.issue_width`` gauge,
        exactly as when it is evaluated alone."""
        specs = _mixed_table_specs()
        with obs.recording():
            fresh_compiles()
            grouped = common._run_group(_items(specs))
            fresh_compiles()
            alone = [
                timed
                for item in _items(specs)
                for timed in common._run_group([item])
            ]
        for spec, together, single in zip(specs, grouped, alone):
            mine = metrics_json(together.metrics)
            assert mine == metrics_json(single.metrics)
            assert summarize_delta(together.metrics) == summarize_delta(
                single.metrics
            )
            name = spec.processor.name
            assert list(mine["gauges"]) == [
                f"sim.issue_width{{processor={name}}}"
            ]
            skipped = [
                k for k in mine["counters"]
                if k.startswith("sim.attribution_skipped")
            ]
            assert skipped
            assert all(f"processor={name}," in k for k in skipped)


class TestFailures:
    def test_failing_compile_names_its_cell(self, monkeypatch):
        specs = _mixed_specs()
        bad = specs[2]  # the first cell at optimistic latency 2.6
        real = ProgramEvaluator.traditional

        def traditional(self, latency):
            if latency == bad.system.optimistic_latency:
                raise ValueError("no schedule at this latency")
            return real(self, latency)

        monkeypatch.setattr(ProgramEvaluator, "traditional", traditional)
        with pytest.raises(CellEvaluationError) as info:
            evaluate_cells(specs, jobs=1)
        assert info.value.item == bad
        assert isinstance(info.value.cause, ValueError)

    def test_failing_stacked_kernel_call_names_its_cell(self):
        """A cell whose latencies the kernel rejects fails the stacked
        call it shares with healthy cells; the error still names it."""

        class Broken(FixedMemory):
            def sample_many(self, rng, n):
                return np.full(n, -1, dtype=np.int64)

        broken = SystemRow(Broken(4), 2.0, "broken")
        specs = _mixed_specs()[:2]
        bad = CellSpec("ADM", broken, processor=UNLIMITED, runs=3, n_boot=20)
        with pytest.raises(CellEvaluationError) as info:
            evaluate_cells(specs + [bad], jobs=1, cache=None, manifest=None)
        assert info.value.item == bad
        assert "negative load latency" in str(info.value.cause)
