"""The checkpointed work loop behind table cells, Table 4 rows and
ablation tables (``repro.experiments.common.checkpointed_map``).

Each item records its metrics into a child registry of its own, merged
into the recorder's registry.  These tests pin what that must preserve
(every cell summary of a reference run, the per-group checkpoints) and
what it guarantees: writes made through a reference to the parent
registry stay out of a cell's summary, and obs-off runs write no
metrics.
Evaluation functions take a group: ``fn(args, scope)``, where
``scope(i)`` is the context of item ``i``'s own work.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.experiments import common
from repro.experiments.cache import ResultCache
from repro.experiments.common import CellSpec, evaluate_cells
from repro.experiments.manifest import ManifestWriter, read_runs
from repro.machine import UNLIMITED, system_row

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")
GOLDEN = Path(__file__).parent / "golden" / "table2_adm_cell_metrics.json"


def run_cli(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(REPO_SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.experiments.runner", *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def run_with_obs(tmp_path, tag, argv):
    """Run one obs-on command; return (metrics JSON, cell records)."""
    metrics = tmp_path / f"{tag}.json"
    manifest = tmp_path / f"{tag}.jsonl"
    run_cli(argv + [
        "--obs", "--no-cache", "--metrics-out", str(metrics),
        "--manifest", str(manifest),
    ])
    (run,) = read_runs(manifest)
    return json.loads(metrics.read_text()), run.cells


def _specs():
    return [
        CellSpec("ADM", system_row(label, 2), processor=UNLIMITED, runs=2,
                 n_boot=25)
        for label in ("L80(2,5)", "L80(2,10)", "N(2,5)")
    ]


class TestCellSummaries:
    def test_table2_cell_metrics_match_the_golden(self, tmp_path):
        """Every cell record's summary, in spec order, exactly as the
        snapshot/delta engine this loop replaced wrote it."""
        _, cells = run_with_obs(
            tmp_path, "adm",
            ["run", "table2", "--quick", "--programs", "ADM"],
        )
        got = [
            {
                "program": c["program"],
                "system": c["system"],
                "processor": c["processor"],
                "metrics": c["metrics"],
            }
            for c in cells
        ]
        assert got == json.loads(GOLDEN.read_text())

    def test_inline_path_checkpoints_each_group(self, tmp_path, monkeypatch):
        """Every group (one program's cells) is its own checkpoint: an
        interrupt during the second group leaves the
        first group's cells cached and recorded."""
        real = common._evaluate_cells
        calls = []

        def evaluate(specs, scope):
            calls.append(specs)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return real(specs, scope)

        monkeypatch.setattr(common, "_evaluate_cells", evaluate)
        specs = _specs()[:2] + [
            CellSpec("MDG", system_row("N(2,5)", 2), processor=UNLIMITED,
                     runs=2, n_boot=25)
        ]
        cache = ResultCache(tmp_path / "cache")
        manifest = ManifestWriter(tmp_path / "m.jsonl")
        manifest.start_run("inline", seed=0, runs=2, resume=True)
        with pytest.raises(KeyboardInterrupt):
            evaluate_cells(specs, jobs=1, cache=cache, manifest=manifest)
        assert [len(group) for group in calls] == [2, 1]
        assert len(cache) == 2
        (run,) = read_runs(manifest.path)
        assert [c["system"] for c in run.cells] == [
            spec.system.label for spec in specs[:2]
        ]


class TestChildRegistry:
    def test_writes_through_a_captured_parent_registry_stay_out(
        self, tmp_path, monkeypatch
    ):
        """The service's request accounting holds its own reference to
        the recorder's registry and may write while a cell runs on the
        CPU thread; the cell's summary must not pick those writes up."""
        real = common._evaluate_cells
        manifest = ManifestWriter(tmp_path / "m.jsonl")
        manifest.start_run("leak", seed=0, runs=2, resume=True)
        with obs.recording() as rec:
            parent = rec.metrics

            def evaluate(specs, scope):
                with scope(0):
                    parent.inc("service.requests", endpoint="simulate",
                               status="200")
                    parent.observe("service.request_ms", 1.5)
                return real(specs, scope)

            monkeypatch.setattr(common, "_evaluate_cells", evaluate)
            evaluate_cells(_specs()[:1], jobs=1, manifest=manifest)
        (run,) = read_runs(manifest.path)
        (cell,) = run.cells
        assert "sim.cycles" in cell["metrics"]["counters"]
        assert "service.requests" not in cell["metrics"]["counters"]
        assert "service.request_ms" not in cell["metrics"]["histograms"]
        # The parent still has both its own writes and the cell's.
        assert rec.metrics.counters[
            ("service.requests", (("endpoint", "simulate"), ("status", "200")))
        ] == 1
        assert any(name == "sim.cycles" for name, _ in rec.metrics.counters)

    @pytest.mark.parametrize(
        "exc, raised",
        [(ValueError("bad cell"), common.CellEvaluationError),
         (KeyboardInterrupt(), KeyboardInterrupt)],
    )
    def test_a_failing_item_keeps_its_metrics(self, monkeypatch, exc, raised):
        """What an item recorded before it raised still reaches the
        recorder (a legality violation must be counted), and the parent
        registry is back in place afterwards."""

        def evaluate(specs, scope):
            with scope(0):
                obs.get().metrics.inc("verify.violations", 2)
                raise exc

        monkeypatch.setattr(common, "_evaluate_cells", evaluate)
        with obs.recording() as rec:
            parent = rec.metrics
            with pytest.raises(raised):
                evaluate_cells(_specs()[:1], jobs=1)
            assert rec.metrics is parent
        assert parent.counters[("verify.violations", ())] == 2


class TestManifestMetrics:
    def test_obs_off_records_carry_no_metrics(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        run_cli([
            "run", "table4", "--no-cache", "--manifest", str(manifest),
        ])
        (run,) = read_runs(manifest)
        assert run.cells and all("metrics" not in c for c in run.cells)
