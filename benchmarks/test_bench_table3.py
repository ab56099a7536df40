"""Benchmark regenerating Table 3 (MDG detail, three processors)."""

from repro.experiments.table3 import run_table3


def test_bench_table3(benchmark, save_result):
    result = benchmark.pedantic(run_table3, rounds=1, iterations=1)
    report = result.shape_report()
    failed = [claim for claim, ok in report.items() if not ok]
    assert not failed, f"shape checks failed: {failed}"
    save_result("table3", result.format())
