"""End-to-end tests for the observability CLI surface.

Covers `run --obs/--trace-out/--metrics-out`, `profile`, `explain`,
the `--programs` subset, and the -v/-q logging satellite.
"""

import json
import logging

import pytest

from repro.experiments.runner import (
    _configure_logging,
    _profile_report,
    main,
)
from repro.obs.export import validate_chrome_trace
from repro.obs.metrics import MetricsRegistry, exported_name
from repro.workloads.perfect import clear_cache

MINIF = """
program obsdemo
  array a[64], b[64]
  kernel k freq 5
    t = a[i] * b[i]
    s = s + t
  end
end
"""


@pytest.fixture
def minif_file(tmp_path):
    path = tmp_path / "demo.mf"
    path.write_text(MINIF)
    return str(path)


def _run_table2(tmp_path, *extra):
    manifest = tmp_path / "manifest.jsonl"
    argv = [
        "run", "table2", "--quick", "--programs", "ADM",
        "--no-cache", "--manifest", str(manifest), *extra,
    ]
    rc = main(argv)
    cells = [
        json.loads(line)
        for line in manifest.read_text().splitlines()
        if json.loads(line).get("event") == "cell"
    ]
    return rc, cells


class TestRunWithObs:
    def test_obs_run_emits_trace_metrics_and_summary(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        metrics_path = tmp_path / "m.json"
        clear_cache()  # so frontend lowering runs (and is traced) again
        rc, cells = _run_table2(
            tmp_path, "--obs",
            "--trace-out", str(trace_path),
            "--metrics-out", str(metrics_path),
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "regenerated" in out
        assert "phase" in out and "self" in out  # phase summary header

        trace = json.loads(trace_path.read_text())
        assert validate_chrome_trace(trace) == []
        names = {e["name"] for e in trace["traceEvents"]}
        for required in (
            "frontend", "dependence", "schedule", "regalloc", "simulate",
        ):
            assert required in names

        metrics = json.loads(metrics_path.read_text())
        interlocks = sum(
            v for k, v in metrics["counters"].items()
            if exported_name(k) == "sim.interlock_cycles"
        )
        stall_total = sum(
            float(value) * count
            for key, hist in metrics["histograms"].items()
            if exported_name(key)
            in ("sim.load_stall_cycles", "sim.other_stall_cycles")
            for value, count in hist.items()
        )
        assert interlocks > 0
        assert stall_total == interlocks

        assert cells and all("metrics" in cell for cell in cells)
        for cell in cells:
            assert cell["metrics"]["counters"]["sim.interlock_cycles"] >= 0

    def test_trace_out_alone_implies_obs(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        rc, _cells = _run_table2(tmp_path, "--trace-out", str(trace_path))
        assert rc == 0
        assert trace_path.exists()

    def test_without_obs_manifest_stays_byte_compatible(
        self, tmp_path, capsys
    ):
        rc, cells = _run_table2(tmp_path)
        assert rc == 0
        assert cells and all("metrics" not in cell for cell in cells)
        out = capsys.readouterr().out
        assert "phase" not in out  # no summary table appended

    def test_unknown_program_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main([
                "run", "table2", "--quick", "--programs", "NOPE",
                "--no-cache", "--manifest", str(tmp_path / "m.jsonl"),
            ])

    def test_programs_rejected_for_non_table2(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "run", "table3", "--quick", "--programs", "ADM",
                "--no-cache", "--manifest", str(tmp_path / "m.jsonl"),
            ])


class TestProfile:
    def test_profile_reports_phases_and_hot_loads(self, capsys):
        rc = main([
            "profile", "table2", "--quick", "--programs", "ADM", "--top", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("profile: table2")
        assert "phase" in out
        assert "scheduler selection reasons:" in out
        assert "hottest loads" in out
        # System labels with commas survive the series-key round trip.
        assert "N(30,5)" in out

    def test_skip_note_counts_runs_per_reason(self):
        metrics = MetricsRegistry()
        for reason, runs in (
            ("delay-tracking", 60), ("blocking-loads", 30),
            ("multi-issue", 3), ("delay-tracking", 30),
        ):
            metrics.inc(
                "sim.attribution_skipped", runs, reason=reason,
                processor="P", block=f"b{runs}",
            )
        note = _profile_report(metrics).splitlines()[-1]
        assert note == (
            "note: 123 run(s) are counted but not attributed per load "
            "(30 blocking-loads, 90 delay-tracking, 3 multi-issue)"
        )

    def test_no_skip_note_when_every_run_is_attributed(self):
        metrics = MetricsRegistry()
        metrics.observe("sim.load_stall_cycles", 4, load=0, block="b")
        assert "note:" not in _profile_report(metrics)


class TestExplain:
    def test_explain_diffs_the_two_policies(self, capsys):
        rc = main(["explain", "ADM", "--block", "vdiff"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "==== vdiff" in out
        assert "--- balanced" in out
        assert "+++ traditional W=2" in out
        assert "only-candidate" in out

    def test_explain_accepts_minif_files(self, minif_file, capsys):
        rc = main(["explain", minif_file])
        assert rc == 0
        assert "==== k" in capsys.readouterr().out

    def test_unknown_block_lists_choices(self, capsys):
        rc = main(["explain", "ADM", "--block", "nope"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "no block named" in err and "vdiff" in err

    def test_unknown_program_lists_suite(self, capsys):
        with pytest.raises(SystemExit):
            main(["explain", "not-a-program"])
        assert "ADM" in capsys.readouterr().err


class TestVerbosity:
    @pytest.fixture(autouse=True)
    def _restore_level(self):
        logger = logging.getLogger("repro")
        before = logger.level
        yield
        logger.setLevel(before)

    def test_levels_follow_the_flag_counts(self):
        logger = logging.getLogger("repro")
        _configure_logging(0, 0)
        assert logger.level == logging.WARNING
        _configure_logging(1, 0)
        assert logger.level == logging.INFO
        _configure_logging(2, 0)
        assert logger.level == logging.DEBUG
        _configure_logging(0, 1)
        assert logger.level == logging.ERROR
        _configure_logging(5, 0)  # clamped
        assert logger.level == logging.DEBUG

    def test_handler_installed_once(self):
        _configure_logging(0, 0)
        _configure_logging(1, 0)
        handlers = [
            h for h in logging.getLogger("repro").handlers
            if getattr(h, "_repro_cli", False)
        ]
        assert len(handlers) == 1

    def test_verbosity_flags_compose_with_bare_shorthand(self, capsys):
        assert main(["-v", "figure2"]) == 0
        assert "regenerated" in capsys.readouterr().out

    def test_jobs_clamp_goes_through_logging(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING, logger="repro"):
            rc = main([
                "run", "figure2", "--jobs", "2",
                "--no-cache", "--manifest", str(tmp_path / "m.jsonl"),
            ])
        assert rc == 0
        assert any("clamped" in record.message for record in caplog.records)
