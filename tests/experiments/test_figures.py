"""Exact-reproduction tests for Figures 1-5 (schedules and interlocks)."""

import pytest

from repro.experiments.figure2 import (
    PAPER_SCHEDULES,
    PAPER_WEIGHTS,
    run_figure2,
)
from repro.experiments.figure3 import run_figure3


@pytest.fixture(scope="module")
def figure2_result():
    return run_figure2()


@pytest.fixture(scope="module")
def figure3_result():
    return run_figure3()


class TestFigure2:
    def test_every_schedule_matches_paper(self, figure2_result):
        for name, expected in PAPER_SCHEDULES.items():
            assert figure2_result.schedules[name] == expected, name

    def test_matches_paper_helper(self, figure2_result):
        assert figure2_result.matches_paper()

    def test_weights_match_paper(self, figure2_result):
        assert set(figure2_result.weights["figure1"].values()) == {
            PAPER_WEIGHTS["figure1"]
        }
        assert set(figure2_result.weights["figure4"].values()) == {
            PAPER_WEIGHTS["figure4"]
        }

    def test_format_mentions_match(self, figure2_result):
        text = figure2_result.format()
        assert "match" in text
        assert "MISMATCH" not in text


class TestFigure3:
    def test_exact_interlock_curves(self, figure3_result):
        """The curves derived from the Figure 1 DAG."""
        assert figure3_result.latencies == [1, 2, 3, 4, 5, 6]
        assert figure3_result.interlocks["greedy_w5"] == [0, 1, 2, 3, 4, 6]
        assert figure3_result.interlocks["lazy_w1"] == [0, 1, 2, 3, 4, 6]
        assert figure3_result.interlocks["balanced"] == [0, 0, 0, 2, 4, 6]

    def test_paper_claim_holds(self, figure3_result):
        """'for latencies in the range of 2-4, the balanced schedules
        are faster than both ... Outside this range the balanced and
        traditional schedules perform equivalently.'"""
        assert figure3_result.matches_paper_claim()

    def test_balanced_never_worse(self, figure3_result):
        balanced = figure3_result.interlocks["balanced"]
        for name in ("greedy_w5", "lazy_w1"):
            for ours, theirs in zip(balanced, figure3_result.interlocks[name]):
                assert ours <= theirs

    def test_custom_latency_range(self):
        result = run_figure3(latencies=range(1, 12))
        assert len(result.interlocks["balanced"]) == 11

    def test_format_reports_claim(self, figure3_result):
        assert "holds" in figure3_result.format()
