"""Shape-reproduction tests for Tables 2-5.

These run the real experiment pipelines at a reduced run count (the
paper's 30 runs is used by the benchmark harness; 6 runs keeps the
test suite fast while the shape targets remain stable thanks to the
profile weighting and fixed seeds).
"""

import pytest

from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from repro.experiments.table4 import OPTIMISTIC_LATENCIES, run_table4
from repro.experiments.table5 import run_table5
from repro.machine.processor import LEN_8, MAX_8, UNLIMITED

RUNS = 6


@pytest.fixture(scope="module")
def table2():
    return run_table2(runs=RUNS)


@pytest.fixture(scope="module")
def table3():
    return run_table3(runs=RUNS)


@pytest.fixture(scope="module")
def table4():
    return run_table4()


@pytest.fixture(scope="module")
def table5():
    return run_table5(runs=RUNS)


class TestTable2:
    def test_seventeen_rows_eight_programs(self, table2):
        assert len(table2.rows) == 17
        assert all(len(row.cells) == 8 for row in table2.rows)

    def test_all_shape_checks_pass(self, table2):
        report = table2.shape_report()
        failed = [claim for claim, ok in report.items() if not ok]
        assert not failed, f"shape checks failed: {failed}"

    def test_overall_mean_in_paper_band(self, table2):
        """The paper's UNLIMITED mean improvement is 9.9%; ours must be
        positive and of the same order."""
        assert 3.0 < table2.mean_of_means() < 20.0

    def test_uncertainty_gradient_within_networks(self, table2):
        sigma_two = table2.row("N(2,2) @ 2").mean
        sigma_five = table2.row("N(2,5) @ 2").mean
        assert sigma_five > sigma_two

    def test_row_lookup_raises_for_unknown(self, table2):
        with pytest.raises(KeyError):
            table2.row("L50(9,9) @ 9")

    def test_restricted_processors_similar(self):
        """Section 5: 'The results for MAX-8 and LEN 8 are similar,
        with ... means of 10.0% and 8.7%'. Ours land within a couple of
        points, with every shape check intact."""
        from repro.experiments.table2 import run_table2

        for processor, paper_mean in ((MAX_8, 10.0), (LEN_8, 8.7)):
            result = run_table2(processor=processor, runs=RUNS)
            report = result.shape_report()
            # The full sign pattern needs the 30-run setting (the
            # benchmark asserts it); at 6 runs the near-zero rows
            # (N(30,5), mixed @ 7.6) may dip slightly negative, so
            # allow one small-noise violator outside N(30,5).
            negatives = [
                row.mean
                for row in result.rows
                if row.mean <= 0 and "N(30,5) @ 30" not in row.system.label
            ]
            assert len(negatives) <= 1
            assert all(mean > -5 for mean in negatives)
            assert report["bigger sigma helps (N(2,5) > N(2,2))"]
            assert abs(result.mean_of_means() - paper_mean) < 6.0

    def test_format_contains_every_program(self, table2):
        text = table2.format()
        for name in ("ADM", "ARC2D", "QCD2", "TRACK"):
            assert name in text
        assert "[ok]" in text and "[FAIL]" not in text


class TestTable3:
    def test_cells_for_all_processors(self, table3):
        for processor in (UNLIMITED, MAX_8, LEN_8):
            cell = table3.cell("L80(2,5) @ 2", processor)
            assert cell.program == "MDG"

    def test_shape_checks(self, table3):
        report = table3.shape_report()
        failed = [claim for claim, ok in report.items() if not ok]
        assert not failed, f"shape checks failed: {failed}"

    def test_balanced_interlocks_less_on_cache_rows(self, table3):
        cell = table3.cell("L80(2,10) @ 2", UNLIMITED)
        assert cell.balanced_interlock_pct < cell.traditional_interlock_pct

    def test_interlock_share_grows_with_latency(self, table3):
        low = table3.cell("N(2,2) @ 2", UNLIMITED)
        high = table3.cell("N(30,5) @ 30", UNLIMITED)
        assert high.traditional_interlock_pct > low.traditional_interlock_pct
        assert high.balanced_interlock_pct > low.balanced_interlock_pct


class TestTable4:
    def test_all_paper_latency_columns(self, table4):
        assert OPTIMISTIC_LATENCIES == (2, 2.15, 2.4, 2.6, 3, 3.6, 5, 7.6, 30)
        for row in table4.rows:
            assert set(row.traditional) == {float(l) for l in OPTIMISTIC_LATENCIES}

    def test_deterministic(self, table4):
        again = run_table4()
        for row, row2 in zip(table4.rows, again.rows):
            assert row.balanced == row2.balanced
            assert row.traditional == row2.traditional

    def test_spill_heavy_programs(self, table4):
        """QCD2 and BDNA carry the suite's register pressure."""
        assert table4.row("QCD2").balanced > 5
        assert table4.row("BDNA").balanced > 5
        assert table4.row("FLO52Q").balanced == 0

    def test_bdna_balanced_spills_less_everywhere(self, table4):
        """The paper's headline Table 4 direction, reproduced on the
        deep-tree program: balanced <= traditional at every latency."""
        row = table4.row("BDNA")
        assert row.balanced_not_worse_count() == len(OPTIMISTIC_LATENCIES)

    def test_balanced_not_worse_than_w30_on_most_programs(self, table4):
        wins = sum(
            1
            for row in table4.rows
            if row.balanced <= row.traditional[30.0] + 1e-9
        )
        assert wins >= 7


class TestTable5:
    def test_shape_checks(self, table5):
        report = table5.shape_report()
        failed = [claim for claim, ok in report.items() if not ok]
        assert not failed, f"shape checks failed: {failed}"

    def test_interlock_dominated(self, table5):
        """'as latencies get long, interlocks account for an
        increasingly large proportion of execution time.'"""
        for program in ("ADM", "MDG", "TRACK"):
            cell = table5.cell(program, UNLIMITED)
            assert cell.traditional_interlock_pct > 50
            assert cell.balanced_interlock_pct > 50

    def test_improvements_small_both_signs(self, table5):
        values = [
            table5.cell(p, UNLIMITED).imp_pct
            for p in ("ADM", "ARC2D", "BDNA", "FLO52Q", "MDG", "MG3D", "QCD2", "TRACK")
        ]
        assert any(v < 0 for v in values)
        assert all(abs(v) < 25 for v in values)
