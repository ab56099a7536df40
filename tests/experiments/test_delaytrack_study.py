"""Golden-output and semantics tests for the delay-tracking study.

The study asks whether compile-time scheduling still pays off once the
*hardware* adapts: it sweeps the delay-tracking table size from 0 (the
paper's in-order interlocked machine) to the perfect-knowledge limit
and measures each policy's improvement over the traditional schedule
on the same processor.  The rendered report is byte-stable for a fixed
seed -- the golden file pins the exact bytes the CLI prints for a
two-program subset, and the committed full-suite copy lives at
``results/delay_tracking.txt`` (see EXPERIMENTS.md for provenance).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.delaytrack import (
    DEFAULT_TABLES,
    POLICY_ORDER,
    run_delay_tracking,
)
from repro.experiments.runner import main as cli_main

GOLDEN = os.path.join(
    os.path.dirname(__file__), "golden", "delay_tracking_track_qcd2.txt"
)


def _cli_stdout(capsys, argv):
    capsys.readouterr()
    assert cli_main(argv) == 0
    return capsys.readouterr().out


class TestGolden:
    def test_cli_matches_the_golden_file_byte_for_byte(self, capsys):
        with open(GOLDEN, encoding="utf-8") as handle:
            expected = handle.read()
        got = _cli_stdout(
            capsys,
            [
                "delay-track", "--programs", "TRACK,QCD2",
                "--tables", "0,2,64", "--quick",
            ],
        )
        assert got == expected

    def test_out_file_equals_stdout(self, capsys, tmp_path):
        argv = [
            "delay-track", "--programs", "TRACK",
            "--tables", "0,2", "--quick",
        ]
        stdout = _cli_stdout(capsys, argv)
        out = tmp_path / "dt.txt"
        assert cli_main(argv + ["--out", str(out)]) == 0
        assert out.read_text() == stdout

    def test_unknown_program_exits_2(self, capsys):
        assert cli_main(["delay-track", "--programs", "NOPE"]) == 2
        assert "unknown program" in capsys.readouterr().err

    def test_malformed_tables_exit_2(self, capsys):
        assert cli_main([
            "delay-track", "--programs", "TRACK", "--tables", "0,two",
        ]) == 2
        assert "--tables" in capsys.readouterr().err
        assert cli_main([
            "delay-track", "--programs", "TRACK", "--tables", "-1",
        ]) == 2
        assert "non-negative" in capsys.readouterr().err


class TestReportSemantics:
    @pytest.fixture(scope="class")
    def report(self):
        return run_delay_tracking(
            programs=["TRACK", "ADM"], tables=(0, 2, 64), runs=3
        )

    def test_every_cell_of_the_sweep_is_present(self, report):
        have = {(c.program, c.table, c.policy) for c in report.cells}
        want = {
            (program, table, policy)
            for program in ("TRACK", "ADM")
            for table in (0, 2, 64)
            for policy in POLICY_ORDER
        }
        assert have == want

    def test_confidence_intervals_bracket_the_mean(self, report):
        for cell in report.cells:
            assert cell.ci_low <= cell.improvement_pct <= cell.ci_high

    def test_issue_traces_are_oracle_clean(self, report):
        # One draw per (block, policy, table): TRACK and ADM compile
        # to 6 non-empty blocks between them, x 4 policies (traditional
        # included) x 3 tables.
        assert report.traces_checked == 6 * 4 * 3
        assert report.oracle_violations == 0

    def test_mean_row_averages_the_program_cells(self, report):
        for policy in POLICY_ORDER:
            for table in (0, 2, 64):
                cells = [
                    c.improvement_pct
                    for c in report.cells
                    if c.policy == policy and c.table == table
                ]
                assert report.mean_improvement(table, policy) == (
                    pytest.approx(sum(cells) / len(cells))
                )

    def test_rendering_is_deterministic(self, report):
        again = run_delay_tracking(
            programs=["TRACK", "ADM"], tables=(0, 2, 64), runs=3
        )
        assert again.format() == report.format()

    def test_table_labels_name_the_hardware(self, report):
        text = report.format()
        assert "in-order" in text
        assert "DT-2" in text
        assert "DT-inf" in text
        assert "violations: 0" in text

    def test_default_tables_span_inorder_to_perfect_knowledge(self):
        assert DEFAULT_TABLES[0] == 0
        # 64 exceeds every suite block's load count, so the last column
        # is the perfect-knowledge limit.
        assert DEFAULT_TABLES[-1] >= 64
        assert list(DEFAULT_TABLES) == sorted(set(DEFAULT_TABLES))


class TestTraceCliGuards:
    # The guard fires before the file is opened, so a placeholder
    # filename keeps these hermetic (same idiom as test_cli_errors).
    def test_trace_rejects_delay_tracking_processors(self, capsys):
        assert cli_main(["trace", "x.mf", "--processor", "dt8"]) == 2
        err = capsys.readouterr().err
        assert "delay-track" in err

    def test_trace_rejects_unknown_processor_specs(self, capsys):
        assert cli_main(["trace", "x.mf", "--processor", "turbo9000"]) == 2
        assert "turbo9000" in capsys.readouterr().err

    def test_trace_rejects_multi_issue_specs(self, capsys):
        assert cli_main(["trace", "x.mf", "--processor", "max8x2"]) == 2
        assert "single-issue" in capsys.readouterr().err

    def test_trace_rejects_blocking_processors(self, capsys):
        assert cli_main(["trace", "x.mf", "--processor", "blocking"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "non-blocking" in err

    @pytest.mark.parametrize("spec", ("blockingx2", "blockingx4+dt2"))
    def test_trace_rejects_blocking_multi_issue_specs(self, capsys, spec):
        assert cli_main(["trace", "x.mf", "--processor", spec]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "blocking loads are modelled for single-issue" in err
