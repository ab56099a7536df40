"""Benchmark regenerating Table 2 (the headline improvement grid)."""

from repro.experiments.table2 import run_table2


def test_bench_table2(benchmark, save_result):
    """Full 17 x 8 grid at the paper's 30 runs per block."""
    result = benchmark.pedantic(run_table2, rounds=1, iterations=1)
    report = result.shape_report()
    failed = [claim for claim, ok in report.items() if not ok]
    assert not failed, f"shape checks failed: {failed}"
    save_result("table2", result.format())
