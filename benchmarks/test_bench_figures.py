"""Benchmarks regenerating Figures 2/5 (schedules) and Figure 3
(interlock curves)."""

from repro.experiments.figure2 import run_figure2
from repro.experiments.figure3 import run_figure3


def test_bench_figure2(benchmark, save_result):
    """Figures 2 and 5: the worked example schedules, matched exactly."""
    result = benchmark(run_figure2)
    assert result.matches_paper()
    save_result("figure2", result.format())


def test_bench_figure3(benchmark, save_result):
    """Figure 3: interlocks vs. latency for greedy/lazy/balanced."""
    result = benchmark(run_figure3)
    assert result.matches_paper_claim()
    assert result.interlocks["balanced"] == [0, 0, 0, 2, 4, 6]
    save_result("figure3", result.format())
