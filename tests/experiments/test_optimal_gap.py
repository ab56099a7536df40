"""Golden-output and semantics tests for the optimality-gap report.

The rendered report must be byte-stable: the search budget is a
deterministic expansion count (never wall-clock), tie-breaks inside
the branch-and-bound are index-ordered, and the golden file pins the
exact bytes the CLI prints for a fixed program subset -- Pareto
fronts included.  The committed full-suite copy lives at
``results/optimal_gap.txt`` (see EXPERIMENTS.md for provenance).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.optimalgap import (
    CERTIFIED_SIZE_LIMIT,
    run_optimal_gap,
)
from repro.experiments.runner import main as cli_main

GOLDEN = os.path.join(
    os.path.dirname(__file__), "golden", "optimal_gap_track_mg3d.txt"
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
            capsys, ["optimal-gap", "--programs", "TRACK,MG3D"]
        )
        assert got == expected

    def test_out_file_equals_stdout(self, capsys, tmp_path):
        stdout = _cli_stdout(
            capsys,
            ["optimal-gap", "--programs", "TRACK", "--no-pareto"],
        )
        out = tmp_path / "gap.txt"
        assert cli_main([
            "optimal-gap", "--programs", "TRACK", "--no-pareto",
            "--out", str(out),
        ]) == 0
        assert out.read_text() == stdout

    def test_blank_program_parts_are_dropped(self, capsys):
        argv = ["optimal-gap", "--no-pareto", "--programs"]
        assert _cli_stdout(capsys, argv + ["TRACK, "]) == _cli_stdout(
            capsys, argv + ["TRACK"]
        )

    def test_unknown_program_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["optimal-gap", "--programs", "NOPE"])
        assert exc.value.code == 2
        assert "unknown program" in capsys.readouterr().err


class TestReportSemantics:
    @pytest.fixture(scope="class")
    def report(self):
        return run_optimal_gap(programs=["TRACK", "ADM"])

    def test_every_block_appears_under_both_models(self, report):
        by_model = {}
        for row in report.rows:
            by_model.setdefault(row.model, set()).add(
                (row.program, row.block)
            )
        assert by_model["optimistic"] == by_model["pessimistic"]

    def test_gaps_are_nonnegative_and_certified_blocks_close(self, report):
        for row in report.rows:
            assert row.balanced_gap_pct >= 0
            assert row.traditional_gap_pct >= 0
            assert row.lower_bound <= row.optimal_cost
            if row.certified:
                assert row.lower_bound == row.optimal_cost

    def test_suite_blocks_certify_within_default_budget(self, report):
        assert all(
            r.instructions <= CERTIFIED_SIZE_LIMIT for r in report.rows
        )
        assert report.certified_fraction() >= 0.9

    def test_optimal_schedules_are_oracle_clean(self, report):
        assert report.oracle_violations == 0

    def test_pareto_fronts_trade_monotonically(self, report):
        assert report.fronts
        for front in report.fronts:
            assert front.points, f"{front.block}: empty front"
            pressures = [p.max_live for p in front.points]
            costs = [p.cost for p in front.points]
            assert pressures == sorted(pressures, reverse=True)
            assert costs == sorted(costs)
            assert len(set(pressures)) == len(pressures)

    def test_rendering_is_deterministic(self, report):
        again = run_optimal_gap(programs=["TRACK", "ADM"])
        assert again.format() == report.format()
