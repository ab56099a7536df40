"""The batch path has no scalar fallback left -- and the engine proves it.

Three gates, matching the PR's acceptance criteria:

1. ``repro.simulate.batch`` no longer contains ``_scalar_fallback``
   (the superscalar kernel is the only multi-issue path).
2. A superscalar ``CellSpec`` routed through ``evaluate_cells`` runs
   *every* simulated run on the vectorized superscalar kernel -- pinned
   by the ``sim.batch_kernel`` obs counter, which the batch simulator
   increments per kernel dispatch.
3. ``run_superscalar_ablation`` (now free of its width-1 special case)
   reproduces the superscalar section of the seed ``results/
   ablations.txt`` byte-for-byte.
"""

import pathlib

import repro.simulate.batch as batch_mod
from repro.experiments.ablations import run_superscalar_ablation
from repro.experiments.common import CellSpec, evaluate_cells
from repro.machine.config import paper_system_rows
from repro.machine.processor import UNLIMITED, superscalar
from repro.obs import recorder as obs

ABLATIONS_TXT = (
    pathlib.Path(__file__).resolve().parent.parent.parent
    / "results"
    / "ablations.txt"
)


def _counter_series(metrics, base):
    return {
        dict(labels).get("kernel"): value
        for (name, labels), value in metrics.counters.items()
        if name == base
    }


def _sum_counter(metrics, base):
    return sum(
        value
        for (name, _), value in metrics.counters.items()
        if name == base
    )


def test_scalar_fallback_is_gone():
    assert not hasattr(batch_mod, "_scalar_fallback"), (
        "the batch simulator grew a scalar fallback back"
    )
    assert hasattr(batch_mod, "_superscalar_kernel")


def test_superscalar_cell_routes_through_vectorized_kernel():
    """An end-to-end superscalar table cell: every simulated run is
    dispatched to the superscalar vector kernel, none anywhere else."""
    row = paper_system_rows()[0]
    spec = CellSpec("ADM", row, processor=superscalar(4), runs=2, n_boot=25)
    with obs.recording() as rec:
        results = evaluate_cells([spec], jobs=1)
    assert len(results) == 1 and results[0].program == "ADM"

    kernels = _counter_series(rec.metrics, "sim.batch_kernel")
    assert kernels, "the batch simulator recorded no kernel dispatches"
    assert set(kernels) == {"superscalar"}, (
        f"superscalar cell leaked onto other kernel paths: {kernels}"
    )
    total_runs = _sum_counter(rec.metrics, "sim.runs")
    assert kernels["superscalar"] == total_runs > 0
    # Wide-issue attribution is skipped with an explicit reason, never
    # silently (see repro.simulate.program).
    skipped = {
        dict(labels).get("reason")
        for name, labels in rec.metrics.counters
        if name == "sim.attribution_skipped"
    }
    assert skipped == {"multi-issue"}


def test_single_issue_cell_stays_on_single_issue_kernel():
    row = paper_system_rows()[0]
    spec = CellSpec("ADM", row, processor=UNLIMITED, runs=2, n_boot=25)
    with obs.recording() as rec:
        evaluate_cells([spec], jobs=1)
    kernels = _counter_series(rec.metrics, "sim.batch_kernel")
    assert set(kernels) == {"single-issue"}


def test_superscalar_ablation_matches_seed_results_exactly():
    """The ablation now builds every width via ``superscalar(width)``
    (no UNLIMITED special case) and runs on the vectorized kernel;
    its formatted rows must still equal the seed artifact exactly."""
    seed_text = ABLATIONS_TXT.read_text()
    lines = seed_text.splitlines()
    start = lines.index("  == superscalar width (Section 6)")
    seed_rows = []
    for line in lines[start + 1:]:
        if not line.strip():
            break
        seed_rows.append(line)

    table = run_superscalar_ablation()
    # The exact formatting AblationResult.format applies to this table.
    fresh_rows = [
        f"     {configuration:44s} {value:+7.1f}%"
        for configuration, value in table.items()
    ]
    assert fresh_rows == seed_rows
