"""Benchmark regenerating the design-choice ablations (DESIGN.md §5)."""

from repro.experiments.ablations import run_all_ablations


def test_bench_ablations(benchmark, save_result):
    result = benchmark.pedantic(run_all_ablations, rounds=1, iterations=1)
    direction = result.tables["scheduler direction"]
    assert any(v > 0 for k, v in direction.items() if "bottom-up" in k)
    save_result("ablations", result.format())
