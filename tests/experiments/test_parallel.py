"""Tests for the cell engine and the shared compilation cache.

The determinism contract: a cell's value is a pure function of its
:class:`CellSpec` (all random streams are string-keyed), so evaluating
it through :func:`evaluate_cells` or directly must give the same
result.
"""

import pytest

from repro.experiments.common import (
    COMPILATION_CACHE,
    CellSpec,
    ProgramEvaluator,
    evaluate_cells,
)
from repro.machine.config import system_row
from repro.machine.processor import MAX_8, UNLIMITED
from repro.workloads.perfect import load_program


def _specs():
    return [
        CellSpec(program=name, system=system_row(label, latency),
                 processor=processor, runs=3, n_boot=100)
        for name in ("TRACK", "ARC2D")
        for label, latency in (("L80(2,5)", 2), ("N(2,5)", 2))
        for processor in (UNLIMITED, MAX_8)
    ]


class TestEvaluateCells:
    def test_serial_matches_direct_evaluation(self):
        specs = _specs()
        cells = evaluate_cells(specs, jobs=1)
        assert [c.program for c in cells] == [s.program for s in specs]
        direct = ProgramEvaluator(
            load_program("TRACK"), runs=3, n_boot=100
        ).cell(specs[0].system, specs[0].processor)
        assert cells[0].imp_pct == direct.imp_pct
        assert cells[0].improvement.ci_low == direct.improvement.ci_low

    def test_rejects_bad_jobs(self):
        """``jobs`` is kept for old callers; only 1 is accepted."""
        for jobs in (0, 2):
            with pytest.raises(ValueError, match="jobs"):
                evaluate_cells(_specs(), jobs=jobs)


class TestCompilationCache:
    def test_shared_across_evaluators(self):
        """Two evaluators of the same program share one compilation."""
        program = load_program("TRACK")
        first = ProgramEvaluator(program, runs=3).balanced()
        second = ProgramEvaluator(program, runs=3).balanced()
        assert first is second

    def test_cache_counts_each_combination_once(self):
        # Latencies no other test compiles, so the growth counts are
        # deterministic regardless of what already sits in the global
        # cache when the full suite runs.
        program = load_program("ARC2D")
        evaluator = ProgramEvaluator(program, runs=3)
        before = len(COMPILATION_CACHE)
        evaluator.traditional(2.125)
        evaluator.traditional(17 / 8)  # same Fraction key as 2.125
        assert len(COMPILATION_CACHE) - before == 1
        evaluator.traditional(2.375)
        assert len(COMPILATION_CACHE) - before == 2
