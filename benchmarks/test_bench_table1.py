"""Benchmark regenerating Table 1 (the worked weight matrix)."""

from repro.experiments.table1 import run_table1


def test_bench_table1(benchmark, save_result):
    result = benchmark(run_table1)
    assert result.cell_mismatches() == []
    save_result("table1", result.format())
