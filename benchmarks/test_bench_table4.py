"""Benchmark regenerating Table 4 (spill instruction percentages)."""

from repro.experiments.table4 import run_table4


def test_bench_table4(benchmark, save_result):
    result = benchmark.pedantic(run_table4, rounds=1, iterations=1)
    # BDNA reproduces the paper's direction at every latency; most
    # programs are never worse than the W=30 baseline.
    assert result.row("BDNA").balanced_not_worse_count() == 9
    save_result("table4", result.format())
