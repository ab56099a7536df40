"""Tests for the ablation studies and the CLI runner."""

import pytest

from repro.experiments.ablations import (
    run_alias_ablation,
    run_pipelining_ablation,
    run_allocator_ablation,
    run_trace_ablation,
    run_blocking_ablation,
    run_average_weight_ablation,
    run_direction_ablation,
    run_spill_pool_ablation,
    run_superscalar_ablation,
)
from repro.experiments.runner import EXPERIMENTS, main


class TestAverageWeightAblation:
    def test_reports_both_policies_on_every_system(self):
        table = run_average_weight_ablation("MDG")
        for label in (
            "balanced vs traditional @ N(2,5) @ 2",
            "average-weight vs traditional @ N(2,5) @ 2",
        ):
            assert label in table

    def test_balanced_competitive_with_average_variant(self):
        """Divergence documented in EXPERIMENTS.md: the paper reports
        the block-average variant was no better than *traditional*; in
        our substrate (homogeneous kernels, virtual no-ops removed, no
        pressure penalty for over-weighting) the variant tracks
        per-load balanced closely.  The reproducible claims are that
        both weighting schemes clearly beat traditional and that
        per-load balancing is competitive."""
        table = run_average_weight_ablation("MDG")
        balanced = [v for k, v in table.items() if k.startswith("balanced")]
        average = [v for k, v in table.items() if k.startswith("average")]
        assert all(v > 0 for v in balanced)
        assert sum(balanced) >= sum(average) - 10.0


class TestBlockingAblation:
    def test_nonblocking_is_the_enabler(self):
        """Section 1: balanced scheduling's advantage requires
        non-blocking loads; on blocking hardware it collapses."""
        table = run_blocking_ablation("MDG")
        unlimited = next(v for k, v in table.items() if "UNLIMITED" in k)
        blocking = next(v for k, v in table.items() if "BLOCKING" in k)
        assert unlimited > 10
        assert abs(blocking) < 5
        assert unlimited > blocking + 10


class TestDirectionAblation:
    def test_both_directions_reported(self):
        table = run_direction_ablation("MDG")
        assert any("bottom-up" in key for key in table)
        assert any("top-down" in key for key in table)

    def test_bottom_up_balanced_wins(self):
        table = run_direction_ablation("MDG")
        for key, value in table.items():
            if "bottom-up" in key:
                assert value > 0


class TestSpillPoolAblation:
    def test_reports_both_configurations(self):
        table = run_spill_pool_ablation("QCD2")
        assert any("enlarged FIFO" in key for key in table)
        assert any("GCC" in key for key in table)

    def test_spill_percentages_reported(self):
        table = run_spill_pool_ablation("QCD2")
        spills = [v for k, v in table.items() if "spill %" in k]
        assert spills and all(v >= 0 for v in spills)


class TestAliasAblation:
    def test_fortran_vs_c_reported(self):
        table = run_alias_ablation("MDG")
        assert any("fortran" in key for key in table)
        assert any(key.startswith("c alias") or "c alias" in key for key in table)


class TestTraceAblation:
    def test_trace_beats_blocks_for_balanced(self):
        table = run_trace_ablation(latency=6)
        saving = table["balanced: trace saving %"]
        assert saving > 20

    def test_balanced_exploits_trace_more_than_traditional(self):
        """The Section 6 synergy: enlarging blocks helps, and balanced
        weighting is what converts the room into hidden latency."""
        table = run_trace_ablation(latency=6)
        assert (
            table["balanced: trace saving %"]
            > table["traditional W=2: trace saving %"]
        )


class TestAllocatorAblation:
    def test_both_allocators_reported(self):
        table = run_allocator_ablation("BDNA")
        assert any("linear scan" in k for k in table)
        assert any("chaitin" in k for k in table)

    def test_allocators_have_different_characters(self):
        """The Table 4 sensitivity result: the two allocators make
        measurably different spill choices on the same schedules."""
        table = run_allocator_ablation("BDNA")
        linear_t2 = table["linear scan: traditional W=2 spill %"]
        chaitin_t2 = table["chaitin cost/degree: traditional W=2 spill %"]
        assert linear_t2 != chaitin_t2


class TestSuperscalarAblation:
    def test_three_widths(self):
        table = run_superscalar_ablation("MDG")
        assert len(table) == 3
        assert any("width 1" in key for key in table)
        assert any("width 4" in key for key in table)


class TestPipeliningAblation:
    def test_ii_matches_unrolled_throughput(self):
        table = run_pipelining_ablation(load_latency=6)
        for loop in ("stream", "dot", "filter"):
            ii = table[f"{loop}: modulo II (cycles/iteration)"]
            unrolled = table[f"{loop}: unrolled balanced cycles/iteration"]
            assert abs(ii - unrolled) < 0.6

    def test_stages_reported(self):
        table = run_pipelining_ablation()
        assert all(
            v >= 1 for k, v in table.items() if "stages" in k
        )


class TestRunnerCLI:
    def test_experiment_list_complete(self):
        assert set(EXPERIMENTS) == {
            "figure2",
            "figure3",
            "table1",
            "table2",
            "table3",
            "table4",
            "table5",
            "ablations",
        }

    def test_figure2_via_cli(self, capsys):
        assert main(["figure2"]) == 0
        out = capsys.readouterr().out
        assert "worked example schedules" in out
        assert "regenerated" in out

    def test_quick_table4(self, capsys):
        assert main(["table4", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "spill instructions" in out

    def test_bad_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["table99"])
