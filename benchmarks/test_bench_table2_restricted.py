"""Benchmark: Table 2 under the restricted processor models.

The paper (Section 5): "The results for MAX-8 and LEN 8 are similar,
with ranges of 7% to 16% and 3% to 16%, and means of 10.0% and 8.7%."
"""

from repro.experiments.table2 import run_table2
from repro.machine.processor import LEN_8, MAX_8


def test_bench_table2_max8(benchmark, save_result):
    result = benchmark.pedantic(
        run_table2, kwargs={"processor": MAX_8}, rounds=1, iterations=1
    )
    assert all(result.shape_report().values())
    save_result("table2_max8", result.format())


def test_bench_table2_len8(benchmark, save_result):
    result = benchmark.pedantic(
        run_table2, kwargs={"processor": LEN_8}, rounds=1, iterations=1
    )
    assert all(result.shape_report().values())
    save_result("table2_len8", result.format())
