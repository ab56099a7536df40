"""Exact-reproduction tests for Table 1 (the worked weight matrix)."""

from fractions import Fraction

import pytest

from repro.experiments.table1 import PAPER_TABLE1_TOTALS, run_table1


@pytest.fixture(scope="module")
def result():
    return run_table1()


class TestCells:
    def test_no_cell_mismatches(self, result):
        assert result.cell_mismatches() == []

    def test_l1_receives_one_from_everyone(self, result):
        row = result.matrix["L1"]
        assert len(row) == 9
        assert set(row.values()) == {Fraction(1)}

    def test_l1_contributes_quarter_to_other_loads(self, result):
        for load in ("L2", "L3", "L4", "L5", "L6"):
            assert result.matrix[load]["L1"] == Fraction(1, 4)

    def test_x_contributions_are_thirds(self, result):
        for load in ("L3", "L4", "L5", "L6"):
            for x in ("X1", "X2", "X3", "X4"):
                assert result.matrix[load][x] == Fraction(1, 3)

    def test_parallel_pair_contributions(self, result):
        assert result.matrix["L4"]["L5"] == Fraction(1)
        assert result.matrix["L4"]["L6"] == Fraction(1)
        assert result.matrix["L5"]["L4"] == Fraction(1, 2)
        assert result.matrix["L6"]["L4"] == Fraction(1, 2)


class TestTotals:
    def test_weight_is_one_plus_row_sum(self, result):
        for load, row in result.matrix.items():
            assert result.weights[load] == 1 + sum(row.values())

    def test_consistent_rows_match_printed_totals(self, result):
        """L1 and L2 are the rows whose printed totals are consistent
        with the printed cells; we match them exactly."""
        assert result.weights["L1"] == PAPER_TABLE1_TOTALS["L1"]
        assert result.weights["L2"] == PAPER_TABLE1_TOTALS["L2"]

    def test_erratum_rows_differ_by_exactly_one_sixth(self, result):
        """The documented Table 1 erratum: the printed totals for
        L3..L6 sit exactly 1/6 below the sum of the printed cells."""
        for load in ("L3", "L4", "L5", "L6"):
            assert result.weights[load] - PAPER_TABLE1_TOTALS[load] == Fraction(
                1, 6
            )


def test_format_renders_all_loads(result):
    text = result.format()
    for load in ("L1", "L2", "L3", "L4", "L5", "L6"):
        assert load in text
    assert "matches the paper exactly" in text
