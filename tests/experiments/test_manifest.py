"""Tests for the run manifest (the engine's flight recorder)."""

import json
import subprocess

from repro.experiments import manifest
from repro.experiments.manifest import (
    ManifestWriter,
    read_runs,
    summarize_manifest,
)


def _write_run(path, experiment="table2", cells=3, hits=1, status="ok"):
    writer = ManifestWriter(path)
    run_id = writer.start_run(experiment, seed=42, runs=3, resume=True)
    for index in range(cells):
        writer.record_cell(
            key=f"k{index}",
            program=f"P{index}",
            system="L80(2,5) @ 2",
            processor="UNLIMITED",
            wall_s=0.5 * (index + 1),
            worker=1000 + index,
            cache="hit" if index < hits else "miss",
        )
    writer.end_run(wall_s=9.5, status=status)
    return run_id


class TestWriter:
    def test_records_are_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        _write_run(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 5  # start + 3 cells + end
        records = [json.loads(line) for line in lines]
        assert [r["event"] for r in records] == [
            "run_start", "cell", "cell", "cell", "run_end",
        ]

    def test_run_id_stamps_every_record(self, tmp_path):
        path = tmp_path / "m.jsonl"
        run_id = _write_run(path)
        for line in path.read_text().strip().splitlines():
            assert json.loads(line)["run_id"] == run_id

    def test_end_run_carries_counts(self, tmp_path):
        path = tmp_path / "m.jsonl"
        _write_run(path, cells=4, hits=1)
        end = json.loads(path.read_text().strip().splitlines()[-1])
        assert end["cells"] == 4
        assert end["hits"] == 1
        assert end["misses"] == 3
        assert "retries" not in end

    def test_cell_metrics_present_only_when_given(self, tmp_path):
        """Obs-off manifests stay byte-compatible: the ``metrics`` key
        appears only on cells recorded with a metrics summary."""
        path = tmp_path / "m.jsonl"
        writer = ManifestWriter(path)
        writer.start_run("table2", seed=42, runs=3, resume=True)
        writer.record_cell(
            key="bare", program="ADM", system="s", processor="p",
            wall_s=1.0, worker=1, cache="miss",
        )
        writer.record_cell(
            key="observed", program="ADM", system="s", processor="p",
            wall_s=1.0, worker=1, cache="miss",
            metrics={
                "counters": {"sim.cycles": 3042},
                "histograms": {"sim.load_stall_cycles": {
                    "count": 12, "total": 96,
                }},
            },
        )
        writer.end_run(wall_s=2.0)
        bare, observed = [
            json.loads(line)
            for line in path.read_text().strip().splitlines()
            if json.loads(line)["event"] == "cell"
        ]
        assert "metrics" not in bare
        assert observed["metrics"]["counters"]["sim.cycles"] == 3042
        # The reader passes the field through untouched.
        (run,) = read_runs(path)
        assert run.cells[1]["metrics"]["histograms"][
            "sim.load_stall_cycles"
        ]["total"] == 96

    def test_git_describe_runs_once_per_process(self, tmp_path, monkeypatch):
        calls = []

        def run(*args, **kwargs):
            calls.append(args)
            return subprocess.CompletedProcess(args, 0, stdout="abc123\n")

        monkeypatch.setattr(manifest, "_process_git", None)
        monkeypatch.setattr(manifest.subprocess, "run", run)
        writer = ManifestWriter(tmp_path / "m.jsonl")
        for experiment in ("table2", "table3"):
            writer.start_run(experiment)
            writer.end_run(wall_s=0.1)
        starts = [
            json.loads(line)
            for line in (tmp_path / "m.jsonl").read_text().splitlines()
            if json.loads(line)["event"] == "run_start"
        ]
        assert len(calls) == 1
        assert [r["git"] for r in starts] == ["abc123", "abc123"]

    def test_appends_across_runs(self, tmp_path):
        path = tmp_path / "m.jsonl"
        first = _write_run(path, experiment="table2")
        second = _write_run(path, experiment="table3")
        runs = read_runs(path)
        assert [r.run_id for r in runs] == [first, second]


class TestDurability:
    def _count_fsyncs(self, monkeypatch):
        from repro.experiments import manifest as manifest_mod

        calls = []
        real = manifest_mod.os.fsync

        def counting(fd):
            calls.append(fd)
            real(fd)

        monkeypatch.setattr(manifest_mod.os, "fsync", counting)
        return calls

    def test_records_are_flushed_at_once_and_fsynced_on_sync(
        self, tmp_path, monkeypatch
    ):
        """A record is readable as soon as it is appended (a crash of
        the process loses nothing written); ``sync`` fsyncs what was
        appended since the last one, and nothing twice."""
        calls = self._count_fsyncs(monkeypatch)
        path = tmp_path / "m.jsonl"
        writer = ManifestWriter(path)
        writer.start_run("table2", seed=0)
        writer.record_request(kind="simulate", status=200, wall_s=0.1)
        assert len(path.read_text().splitlines()) == 2
        assert calls == []
        writer.sync()
        writer.sync()
        assert len(calls) == 1
        writer.end_run(wall_s=1.0)
        assert len(calls) == 2

    def test_one_fsync_per_checkpoint_group(self, tmp_path, monkeypatch):
        from repro.experiments.common import CellSpec, evaluate_cells
        from repro.machine import system_row

        calls = self._count_fsyncs(monkeypatch)
        writer = ManifestWriter(tmp_path / "m.jsonl")
        writer.start_run("table2", seed=0)
        specs = [
            CellSpec(program, system_row(label, 2), runs=2, n_boot=10)
            for program in ("ADM", "MDG")
            for label in ("L80(2,5)", "N(2,5)")
        ]
        evaluate_cells(specs, jobs=1, manifest=writer)
        assert len(calls) == 2  # two programs: two groups
        writer.end_run(wall_s=1.0)
        (run,) = read_runs(writer.path)
        assert len(run.cells) == 4 and len(calls) == 3


class TestReader:
    def test_reassembles_cells_and_status(self, tmp_path):
        path = tmp_path / "m.jsonl"
        _write_run(path, cells=3, hits=2, status="interrupted")
        (run,) = read_runs(path)
        assert run.experiment == "table2"
        assert len(run.cells) == 3
        assert run.hits == 2
        assert run.misses == 1
        assert run.status == "interrupted"

    def test_missing_run_end_reads_as_incomplete(self, tmp_path):
        path = tmp_path / "m.jsonl"
        writer = ManifestWriter(path)
        writer.start_run("table5", seed=1, runs=3, resume=True)
        writer.record_cell(
            key="k", program="MDG", system="s", processor="p",
            wall_s=1.0, worker=1, cache="miss",
        )
        (run,) = read_runs(path)
        assert "incomplete" in run.status

    def test_torn_lines_are_skipped(self, tmp_path):
        """A crash can tear the final line; readers must survive it."""
        path = tmp_path / "m.jsonl"
        _write_run(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "cell", "run_id"')  # torn mid-write
        (run,) = read_runs(path)
        assert len(run.cells) == 3

    def test_torn_line_logs_a_warning_naming_the_line(
        self, tmp_path, caplog
    ):
        """Reproducer: SIGKILL mid-append leaves a partial final line.
        The reader must skip it *with a logged warning* locating the
        damage, not silently or with a crash."""
        path = tmp_path / "m.jsonl"
        _write_run(path)  # 5 records
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "run_end", "wall_s": 3.')  # torn
        with caplog.at_level(
            "WARNING", logger="repro.experiments.manifest"
        ):
            (run,) = read_runs(path)
        assert "incomplete" not in run.status  # prior run_end survived
        (record,) = [
            r for r in caplog.records if "unparseable" in r.message
        ]
        message = record.getMessage()
        assert str(path) in message
        assert ":6" in message, "warning must name the damaged line"

    def test_truncated_mid_file_line_keeps_later_runs(
        self, tmp_path, caplog
    ):
        """Torn bytes mid-file (e.g. concurrent writers before the
        writer lock) must not take later, intact runs down with them."""
        path = tmp_path / "m.jsonl"
        _write_run(path, experiment="first")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "cell", "ru\n')  # torn + newline
        second = _write_run(path, experiment="second")
        with caplog.at_level(
            "WARNING", logger="repro.experiments.manifest"
        ):
            runs = read_runs(path)
        assert [r.experiment for r in runs] == ["first", "second"]
        assert runs[1].run_id == second
        assert any("unparseable" in r.message for r in caplog.records)

    def test_non_object_records_are_skipped_with_warning(
        self, tmp_path, caplog
    ):
        path = tmp_path / "m.jsonl"
        _write_run(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('"just a string"\n[1, 2, 3]\n')
        with caplog.at_level(
            "WARNING", logger="repro.experiments.manifest"
        ):
            (run,) = read_runs(path)
        assert len(run.cells) == 3
        assert sum(
            "non-object" in r.message for r in caplog.records
        ) == 2

    def test_request_events_are_counted(self, tmp_path):
        writer = ManifestWriter(tmp_path / "m.jsonl")
        writer.start_run("serve")
        writer.record_request(kind="simulate", status=200, wall_s=0.5)
        writer.record_request(kind="compile", status=400, wall_s=0.01)
        writer.end_run(wall_s=1.0)
        (run,) = read_runs(tmp_path / "m.jsonl")
        assert run.requests == 2
        assert "requests served: 2" in run.format()

    def test_request_extra_fields_ride_along(self, tmp_path):
        """``record_request`` passes extras (the trace id) through to
        the record verbatim, and the reader keeps them."""
        path = tmp_path / "m.jsonl"
        writer = ManifestWriter(path)
        writer.start_run("serve")
        writer.record_request(
            kind="simulate", status=200, wall_s=0.5, trace_id="ab" * 16
        )
        writer.end_run(wall_s=1.0)
        (run,) = read_runs(path)
        assert run.request_records[0]["trace_id"] == "ab" * 16

    def test_records_of_older_versions_still_read(self, tmp_path):
        """Manifests written while cells could run in worker processes
        carry a ``jobs`` setting, retry counts and ``pool_downgrade``
        events; the reader ignores them."""
        path = tmp_path / "m.jsonl"
        records = [
            {"event": "run_start", "run_id": "r1", "experiment": "table2",
             "jobs": 2, "seed": 1, "runs": 3},
            {"event": "cell", "run_id": "r1", "key": "k0", "program": "ADM",
             "system": "L80(2,5) @ 2", "processor": "UNLIMITED",
             "wall_s": 0.5, "worker": 7, "cache": "miss", "retries": 1},
            {"event": "pool_downgrade", "run_id": "r1", "items": 1},
            {"event": "run_end", "run_id": "r1", "experiment": "table2",
             "status": "ok", "wall_s": 1.0, "cells": 1, "hits": 0,
             "misses": 1, "retries": 1, "inline": 1},
        ]
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )
        (run,) = read_runs(path)
        assert [c["program"] for c in run.cells] == ["ADM"]
        assert run.status == "ok"
        text = run.format()
        assert "cells: 1  cache hits: 0 (0%)" in text
        assert "retries" not in text and "jobs" not in text

    def test_route_latency_stats_golden(self, tmp_path):
        """Per-route p50/p99 over the request records -- nearest-rank,
        so the percentiles are exact observed values."""
        path = tmp_path / "m.jsonl"
        writer = ManifestWriter(path)
        writer.start_run("serve")
        for wall in (0.040, 0.010, 0.030, 0.020):
            writer.record_request(kind="simulate", status=200, wall_s=wall)
        writer.record_request(kind="compile", status=200, wall_s=0.005)
        writer.end_run(wall_s=1.0)
        (run,) = read_runs(path)
        assert run.route_latency_stats() == [
            {"route": "compile", "count": 1, "p50_ms": 5.0, "p99_ms": 5.0},
            {"route": "simulate", "count": 4, "p50_ms": 20.0,
             "p99_ms": 40.0},
        ]

    def test_format_includes_per_route_latency_lines(self, tmp_path):
        """Golden output for `balanced-sched manifest` on a serve run."""
        path = tmp_path / "m.jsonl"
        writer = ManifestWriter(path)
        writer.start_run("serve")
        for wall in (0.040, 0.010, 0.030, 0.020):
            writer.record_request(kind="simulate", status=200, wall_s=wall)
        writer.record_request(kind="compile", status=200, wall_s=0.005)
        writer.end_run(wall_s=1.0)
        (run,) = read_runs(path)
        text = run.format()
        assert "requests served: 5" in text
        assert (
            "    compile    count     1  "
            "p50    5.000ms  p99    5.000ms"
        ) in text
        assert (
            "    simulate   count     4  "
            "p50   20.000ms  p99   40.000ms"
        ) in text

    def test_slowest_orders_by_wall_clock(self, tmp_path):
        path = tmp_path / "m.jsonl"
        _write_run(path, cells=3, hits=0)
        (run,) = read_runs(path)
        slow = run.slowest(2)
        assert [c["program"] for c in slow] == ["P2", "P1"]

    def test_missing_file_is_empty(self, tmp_path):
        assert read_runs(tmp_path / "absent.jsonl") == []


class TestSummary:
    def test_summary_names_runs_hits_and_slow_cells(self, tmp_path):
        path = tmp_path / "m.jsonl"
        _write_run(path, experiment="table3", cells=3, hits=1)
        text = summarize_manifest(path, last=1, top=2)
        assert "table3" in text
        assert "cache hits: 1" in text
        assert "P2" in text  # the slowest non-hit cell
        assert "1 run(s)" in text

    def test_last_selects_most_recent(self, tmp_path):
        path = tmp_path / "m.jsonl"
        _write_run(path, experiment="table2")
        _write_run(path, experiment="table4")
        only_last = summarize_manifest(path, last=1)
        assert "table4" in only_last and "(table2)" not in only_last
        both = summarize_manifest(path, last=2)
        assert "table4" in both and "table2" in both

    def test_empty_manifest_summary(self, tmp_path):
        assert "no runs" in summarize_manifest(tmp_path / "absent.jsonl")
