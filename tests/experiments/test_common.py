"""Tests for the shared experiment machinery (ProgramEvaluator)."""

import pytest

from repro.experiments.common import CellResult, ProgramEvaluator
from repro.machine.config import system_row
from repro.machine.processor import MAX_8, UNLIMITED
from repro.regalloc.target import RegisterFile
from repro.workloads.perfect import load_program


@pytest.fixture(scope="module")
def evaluator():
    return ProgramEvaluator(load_program("TRACK"), runs=5)


class TestCompilationCaching:
    def test_balanced_compiled_once(self, evaluator):
        first = evaluator.balanced()
        second = evaluator.balanced()
        assert first is second

    def test_traditional_cached_per_latency(self, evaluator):
        a = evaluator.traditional(2)
        b = evaluator.traditional(2.0)
        c = evaluator.traditional(5)
        assert a is b  # 2 and 2.0 normalise to the same key
        assert a is not c

    def test_float_keys_exact(self, evaluator):
        """2.15 and 2.4 are distinct cache keys despite float fuzz."""
        assert evaluator.traditional(2.15) is not evaluator.traditional(2.4)


class TestCellEvaluation:
    def test_cell_fields(self, evaluator):
        row = system_row("L80(2,5)", 2)
        cell = evaluator.cell(row, UNLIMITED)
        assert isinstance(cell, CellResult)
        assert cell.program == "TRACK"
        assert cell.traditional_instructions > 0
        assert cell.balanced_instructions > 0
        assert 0 <= cell.traditional_interlock_pct <= 100
        assert 0 <= cell.balanced_interlock_pct <= 100
        assert cell.imp_pct == cell.improvement.mean

    def test_deterministic_across_instances(self):
        row = system_row("N(2,5)", 2)
        a = ProgramEvaluator(load_program("TRACK"), runs=5).cell(row, UNLIMITED)
        b = ProgramEvaluator(load_program("TRACK"), runs=5).cell(row, UNLIMITED)
        assert a.imp_pct == b.imp_pct
        assert a.improvement.ci_low == b.improvement.ci_low

    def test_seed_changes_results(self):
        row = system_row("N(2,5)", 2)
        a = ProgramEvaluator(load_program("TRACK"), runs=5, seed=1).cell(
            row, UNLIMITED
        )
        b = ProgramEvaluator(load_program("TRACK"), runs=5, seed=2).cell(
            row, UNLIMITED
        )
        assert a.imp_pct != b.imp_pct

    def test_processor_changes_stream(self, evaluator):
        row = system_row("N(2,5)", 2)
        unlimited = evaluator.cell(row, UNLIMITED)
        max8 = evaluator.cell(row, MAX_8)
        # Different processors draw independent latency streams, and
        # their interlock profiles legitimately differ.
        assert (unlimited.traditional_interlock_pct, unlimited.imp_pct) != (
            max8.traditional_interlock_pct,
            max8.imp_pct,
        )

    def test_custom_register_file(self):
        tight = ProgramEvaluator(
            load_program("QCD2"), runs=5,
            register_file=RegisterFile(n_int=6, n_fp=6),
        )
        roomy = ProgramEvaluator(
            load_program("QCD2"), runs=5,
            register_file=RegisterFile(n_int=24, n_fp=24),
        )
        assert tight.balanced().spill_percentage > roomy.balanced().spill_percentage
        assert roomy.balanced().spill_percentage == 0
