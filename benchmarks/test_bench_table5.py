"""Benchmark regenerating Table 5 (the N(30,5) breakdown)."""

from repro.experiments.table5 import run_table5


def test_bench_table5(benchmark, save_result):
    result = benchmark.pedantic(run_table5, rounds=1, iterations=1)
    report = result.shape_report()
    failed = [claim for claim, ok in report.items() if not ok]
    assert not failed, f"shape checks failed: {failed}"
    save_result("table5", result.format())
