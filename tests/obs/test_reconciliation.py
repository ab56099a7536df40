"""The acceptance invariant: stall histograms reconcile exactly.

A cell evaluated under observability must satisfy, from the metrics
registry alone:

* sum over the ``sim.load_stall_cycles`` and ``sim.other_stall_cycles``
  histograms == the ``sim.interlock_cycles`` counter, and
* ``sim.cycles`` == ``sim.instructions_issued`` + ``sim.interlock_cycles``
  (single-issue, non-blocking -- the paper's UNLIMITED model),

because the batch kernel's per-step stall attribution is cross-checked
against its own interlock counts run by run.  Nothing is sampled or
bucketed, so the equality is exact, not approximate.
"""

import pytest

from repro.experiments.common import ProgramEvaluator
from repro.machine.config import paper_system_rows
from repro.machine.processor import (
    BLOCKING,
    LEN_8,
    MAX_8,
    UNLIMITED,
    delay_tracking,
)
from repro.obs import recorder as obs
from repro.obs.metrics import MetricsRegistry
from repro.workloads.perfect import clear_cache, load_program


def _sum_counter(metrics, base):
    return sum(
        value
        for (name, _), value in metrics.counters.items()
        if name == base
    )


def _sum_histogram_totals(metrics, *bases):
    return sum(
        MetricsRegistry.histogram_total(hist)
        for (name, _), hist in metrics.histograms.items()
        if name in bases
    )


@pytest.fixture(scope="module")
def adm_cell_metrics():
    # A fresh Program object sidesteps the process-wide compilation
    # memo (keyed by program identity), so compile spans are recorded
    # even when earlier tests already evaluated ADM.
    clear_cache()
    row = paper_system_rows()[0]
    evaluator = ProgramEvaluator(load_program("ADM"), runs=3)
    with obs.recording() as rec:
        cell = evaluator.cell(row, UNLIMITED)
    return cell, rec


class TestStallReconciliation:
    def test_stall_histograms_cover_every_interlock_cycle(
        self, adm_cell_metrics
    ):
        _cell, rec = adm_cell_metrics
        interlocks = _sum_counter(rec.metrics, "sim.interlock_cycles")
        stalls = _sum_histogram_totals(
            rec.metrics, "sim.load_stall_cycles", "sim.other_stall_cycles"
        )
        assert interlocks > 0
        assert stalls == interlocks

    def test_cycles_decompose_into_issue_plus_interlock(
        self, adm_cell_metrics
    ):
        _cell, rec = adm_cell_metrics
        cycles = _sum_counter(rec.metrics, "sim.cycles")
        issued = _sum_counter(rec.metrics, "sim.instructions_issued")
        interlocks = _sum_counter(rec.metrics, "sim.interlock_cycles")
        assert cycles == issued + interlocks

    def test_no_attribution_skips_on_the_unlimited_model(
        self, adm_cell_metrics
    ):
        _cell, rec = adm_cell_metrics
        assert _sum_counter(rec.metrics, "sim.attribution_skipped") == 0

    def test_cell_numbers_unchanged_by_observation(self, adm_cell_metrics):
        """Observability must never perturb the science."""
        cell, _rec = adm_cell_metrics
        row = paper_system_rows()[0]
        bare = ProgramEvaluator(load_program("ADM"), runs=3).cell(
            row, UNLIMITED
        )
        assert bare.improvement.mean == cell.improvement.mean
        assert bare.traditional_interlock_pct == cell.traditional_interlock_pct
        assert bare.balanced_interlock_pct == cell.balanced_interlock_pct

    def test_ambient_cell_labels_reach_simulation_series(
        self, adm_cell_metrics
    ):
        _cell, rec = adm_cell_metrics
        series = rec.metrics.series("sim.load_stall_cycles")
        assert series
        for _key, labels in series:
            assert labels["program"] == "ADM"
            assert labels["policy"] in ("balanced", "traditional")
            assert "block" in labels and "load" in labels and "system" in labels


class TestAttributionSkip:
    def test_blocking_runs_are_counted_not_attributed(self):
        """`trace_block` models non-blocking loads only; on BLOCKING
        hardware the skip is counted instead of silently mis-attributed."""
        row = paper_system_rows()[0]
        evaluator = ProgramEvaluator(load_program("ADM"), runs=3)
        with obs.recording() as rec:
            evaluator.cell(row, BLOCKING)
        skipped = _sum_counter(rec.metrics, "sim.attribution_skipped")
        runs = _sum_counter(rec.metrics, "sim.runs")
        assert skipped == runs > 0
        assert rec.metrics.series("sim.load_stall_cycles") == []
        # The headline counters still reconcile at the top level.
        cycles = _sum_counter(rec.metrics, "sim.cycles")
        assert cycles > 0

    def test_delay_tracking_runs_are_counted_not_attributed(self):
        """A delay-tracking front end reorders issue, so the in-order
        replay cannot attribute its stalls even at width 1; the skip is
        counted under its own reason and the dedicated batch kernel
        shows up in the kernel counter."""
        row = paper_system_rows()[0]
        evaluator = ProgramEvaluator(load_program("ADM"), runs=3)
        with obs.recording() as rec:
            evaluator.cell(row, delay_tracking(8))
        skipped = _sum_counter(rec.metrics, "sim.attribution_skipped")
        runs = _sum_counter(rec.metrics, "sim.runs")
        assert skipped == runs > 0
        reasons = {
            labels["reason"]
            for _key, labels in rec.metrics.series("sim.attribution_skipped")
        }
        assert reasons == {"delay-tracking"}
        kernels = {
            labels["kernel"]
            for _key, labels in rec.metrics.series("sim.batch_kernel")
        }
        assert kernels == {"delaytrack"}
        assert rec.metrics.series("sim.load_stall_cycles") == []
        # The headline counters still come from the batch simulator.
        assert _sum_counter(rec.metrics, "sim.cycles") > 0

    def test_table_zero_is_attributed_and_reconciles(self):
        """A delay-tracking table of size 0 never reorders: it runs on
        the in-order kernel, is attributed like UNLIMITED, and counts
        no skip -- as ``trace --processor dt0`` attributes it."""
        row = paper_system_rows()[0]
        evaluator = ProgramEvaluator(load_program("ADM"), runs=3)
        with obs.recording() as rec:
            evaluator.cell(row, delay_tracking(0))
        assert _sum_counter(rec.metrics, "sim.attribution_skipped") == 0
        kernels = {
            labels["kernel"]
            for _key, labels in rec.metrics.series("sim.batch_kernel")
        }
        assert kernels == {"single-issue"}
        interlocks = _sum_counter(rec.metrics, "sim.interlock_cycles")
        stalls = _sum_histogram_totals(
            rec.metrics, "sim.load_stall_cycles", "sim.other_stall_cycles"
        )
        assert stalls == interlocks > 0

    def test_max8_is_single_issue_and_still_reconciles(self):
        """Finite load slots (MAX-8) stay attributable: the kernel
        records LOAD_SLOTS causes, and totals still reconcile."""
        row = paper_system_rows()[0]
        evaluator = ProgramEvaluator(load_program("ADM"), runs=3)
        with obs.recording() as rec:
            evaluator.cell(row, MAX_8)
        assert _sum_counter(rec.metrics, "sim.attribution_skipped") == 0
        interlocks = _sum_counter(rec.metrics, "sim.interlock_cycles")
        stalls = _sum_histogram_totals(
            rec.metrics, "sim.load_stall_cycles", "sim.other_stall_cycles"
        )
        assert stalls == interlocks > 0

    def test_len8_freezes_are_attributed_and_reconcile(self):
        """Freeze windows (LEN-8) stay attributable too: on a
        long-latency system some stalls land under source=freeze, and
        the histograms still cover every interlock cycle."""
        row = next(
            r for r in paper_system_rows() if r.memory.mean_latency > 8
        )
        evaluator = ProgramEvaluator(load_program("ADM"), runs=3)
        with obs.recording() as rec:
            evaluator.cell(row, LEN_8)
        assert _sum_counter(rec.metrics, "sim.attribution_skipped") == 0
        sources = {
            labels["source"]
            for _key, labels in rec.metrics.series("sim.other_stall_cycles")
        }
        assert "freeze" in sources
        interlocks = _sum_counter(rec.metrics, "sim.interlock_cycles")
        stalls = _sum_histogram_totals(
            rec.metrics, "sim.load_stall_cycles", "sim.other_stall_cycles"
        )
        assert stalls == interlocks > 0


class TestPipelineSpans:
    def test_cell_records_the_full_phase_hierarchy(self, adm_cell_metrics):
        _cell, rec = adm_cell_metrics
        names = {span.name for span in rec.spans}
        for required in (
            "cell", "compile", "compile_block", "pass1", "dependence",
            "weights", "schedule", "regalloc", "pass2",
            "simulate_program", "simulate", "bootstrap",
        ):
            assert required in names, f"missing span {required!r}"

    def test_regalloc_metrics_recorded(self, adm_cell_metrics):
        _cell, rec = adm_cell_metrics
        assert _sum_counter(rec.metrics, "regalloc.blocks") > 0
        assert rec.metrics.series("regalloc.spill_instructions")

    def test_load_weights_observed_for_both_policies(self, adm_cell_metrics):
        _cell, rec = adm_cell_metrics
        policies = {
            labels.get("policy")
            for _key, labels in rec.metrics.series("sched.load_weight")
        }
        assert "balanced" in policies
        assert any(p and p.startswith("traditional") for p in policies)
