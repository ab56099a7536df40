"""Tests for the on-disk result cache behind ``run --resume``.

The contract: keys are pure functions of the cell spec (stable across
processes -- never ``hash()``), values round-trip bit-exactly through
pickle, corrupt entries read as misses, and ``evaluate_cells`` replays
cached cells so resumed runs match fresh runs exactly.
"""

import dataclasses
import os
import pickle
import shutil
import subprocess
import sys

from repro.experiments import cache as cache_module
from repro.experiments.cache import (
    PACKAGE_ROOT,
    ResultCache,
    cell_key,
    code_version,
    object_key,
    source_digest,
    spec_token,
)
from repro.experiments.common import CellSpec, evaluate_cells
from repro.machine import MAX_8, UNLIMITED, system_row
from repro.machine.config import SystemRow


def _spec(**overrides):
    base = dict(
        program="TRACK",
        system=system_row("L80(2,5)", 2),
        processor=UNLIMITED,
        runs=3,
        n_boot=100,
    )
    base.update(overrides)
    return CellSpec(**base)


def _specs():
    return [
        _spec(program=name, processor=processor)
        for name in ("TRACK", "ARC2D")
        for processor in (UNLIMITED, MAX_8)
    ]


class TestKeys:
    def test_key_is_deterministic_across_constructions(self):
        assert cell_key(_spec()) == cell_key(_spec())

    def test_every_result_field_changes_the_key(self):
        base = cell_key(_spec())
        assert cell_key(_spec(program="ARC2D")) != base
        assert cell_key(_spec(system=system_row("N(2,5)", 2))) != base
        assert cell_key(_spec(system=system_row("L80(2,5)", 5))) != base
        assert cell_key(_spec(processor=MAX_8)) != base
        assert cell_key(_spec(seed=7)) != base
        assert cell_key(_spec(runs=5)) != base
        assert cell_key(_spec(n_boot=200)) != base
        assert cell_key(_spec(register_file=None)) != base

    def test_presentation_only_group_is_excluded(self):
        """SystemRow.group labels table sections; it cannot change a
        result, so it must not change the key (or renaming a section
        header would orphan the whole cache)."""
        row = system_row("L80(2,5)", 2)
        relabelled = SystemRow(row.memory, row.optimistic_latency, "Other")
        assert cell_key(_spec(system=row)) == cell_key(
            _spec(system=relabelled)
        )

    def test_token_is_json_primitive_only(self):
        import json

        json.dumps(spec_token(_spec()))  # must not raise

    def test_code_version_salts_every_key(self, monkeypatch):
        assert len(code_version()) == 64  # a SHA-256 hex digest
        key = object_key("x")
        assert key == object_key("x")
        assert key != object_key("y")
        monkeypatch.setattr(cache_module, "code_version", lambda: "other")
        assert object_key("x") != key


def _copy_package(dest):
    """A copy of the running ``repro`` sources under ``dest/repro``."""
    target = dest / "repro"
    shutil.copytree(
        PACKAGE_ROOT, target, ignore=shutil.ignore_patterns("__pycache__")
    )
    return target


def _key_in_subprocess(src_root):
    """``object_key("probe")`` as computed by the package at ``src_root``."""
    out = subprocess.run(
        [
            sys.executable, "-c",
            "from repro.experiments.cache import object_key; "
            "print(object_key('probe'))",
        ],
        env=dict(os.environ, PYTHONPATH=str(src_root)),
        capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


class TestCodeVersion:
    """The salt is derived from the code, never bumped by hand."""

    def test_digest_of_a_copy_matches_the_running_package(self, tmp_path):
        assert source_digest(_copy_package(tmp_path)) == code_version()

    def test_digest_covers_relative_paths(self, tmp_path):
        copy = _copy_package(tmp_path)
        before = source_digest(copy)
        (copy / "simulate" / "stats.py").rename(
            copy / "simulate" / "stats_renamed.py"
        )
        assert source_digest(copy) != before

    def test_editing_a_simulator_constant_changes_the_key(self, tmp_path):
        same, edited = tmp_path / "same", tmp_path / "edited"
        _copy_package(same)
        program = _copy_package(edited) / "simulate" / "program.py"
        text = program.read_text()
        assert "DEFAULT_RUNS = 30" in text
        program.write_text(text.replace("DEFAULT_RUNS = 30", "DEFAULT_RUNS = 31"))
        assert _key_in_subprocess(same) == object_key("probe")
        assert _key_in_subprocess(edited) != object_key("probe")


class TestStore:
    def test_round_trip_preserves_float_bits(self, tmp_path):
        cache = ResultCache(tmp_path)
        value = {"pi": 3.141592653589793, "tiny": 5e-324}
        cache.put_object(object_key("t"), value)
        loaded = cache.get_object(object_key("t"))
        assert pickle.dumps(loaded) == pickle.dumps(value)

    def test_miss_returns_none(self, tmp_path):
        assert ResultCache(tmp_path).get_object(object_key("absent")) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = object_key("will-corrupt")
        cache.put_object(key, [1, 2, 3])
        cache.path_for(key).write_bytes(b"not a pickle")
        assert cache.get_object(key) is None
        # ...and the next put repairs it.
        cache.put_object(key, [4])
        assert cache.get_object(key) == [4]

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = object_key("will-truncate")
        cache.put_object(key, list(range(100)))
        path = cache.path_for(key)
        path.write_bytes(path.read_bytes()[:10])
        assert cache.get_object(key) is None

    def test_truncated_entry_logs_a_warning_naming_the_file(
        self, tmp_path, caplog
    ):
        """Reproducer: a SIGKILL mid-write can leave a torn pickle.
        The read must degrade to a miss *and say so* -- a silent miss
        hides disk corruption from the operator."""
        cache = ResultCache(tmp_path)
        key = object_key("will-truncate-loudly")
        cache.put_object(key, {"big": list(range(1000))})
        path = cache.path_for(key)
        path.write_bytes(path.read_bytes()[:17])
        with caplog.at_level("WARNING", logger="repro.experiments.cache"):
            assert cache.get_object(key) is None
        (record,) = [
            r for r in caplog.records if "corrupt result-cache" in r.message
        ]
        assert str(path) in record.getMessage()
        assert "miss" in record.getMessage()

    def test_empty_entry_logs_a_warning(self, tmp_path, caplog):
        """Zero-byte files are the most common SIGKILL artifact."""
        cache = ResultCache(tmp_path)
        key = object_key("will-be-empty")
        cache.put_object(key, [1])
        cache.path_for(key).write_bytes(b"")
        with caplog.at_level("WARNING", logger="repro.experiments.cache"):
            assert cache.get_object(key) is None
        assert any(
            "corrupt result-cache" in r.message for r in caplog.records
        )
        # ...and the next put repairs the entry.
        cache.put_object(key, [2])
        assert cache.get_object(key) == [2]

    def test_len_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        cache.put_object(object_key("a"), 1)
        cache.put_object(object_key("b"), 2)
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0
        assert cache.get_object(object_key("a")) is None

    def test_no_temp_files_survive_a_put(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_object(object_key("a"), 1)
        leftovers = [p for p in tmp_path.rglob("*.tmp")]
        assert leftovers == []


class TestEvaluateCellsWithCache:
    def test_resumed_run_matches_fresh_run(self, tmp_path):
        specs = _specs()
        fresh = evaluate_cells(specs, jobs=1)

        cache = ResultCache(tmp_path)
        first = evaluate_cells(specs, jobs=1, cache=cache)
        assert len(cache) == len(specs)
        resumed = evaluate_cells(specs, jobs=1, cache=cache)
        for a, b, c in zip(fresh, first, resumed):
            assert pickle.dumps(b) == pickle.dumps(c)
            assert a.imp_pct == c.imp_pct
            assert a.improvement.ci_low == c.improvement.ci_low
            assert a.balanced_instructions == c.balanced_instructions

    def test_partial_cache_recomputes_only_the_missing(self, tmp_path):
        """The crash scenario: k cells were checkpointed before the
        interrupt; the re-run replays them and computes the rest."""
        specs = _specs()
        cache = ResultCache(tmp_path)
        evaluate_cells(specs[:2], jobs=1, cache=cache)
        assert len(cache) == 2

        resumed = evaluate_cells(specs, jobs=1, cache=cache)
        reference = evaluate_cells(specs, jobs=1)
        assert len(cache) == len(specs)
        for a, b in zip(resumed, reference):
            assert a.imp_pct == b.imp_pct
            assert a.improvement.ci_low == b.improvement.ci_low

    def test_fresh_ignores_reads_but_still_writes(self, tmp_path):
        specs = _specs()[:2]
        cache = ResultCache(tmp_path)
        poisoned = evaluate_cells(specs, jobs=1, cache=cache)
        # Corrupt the stored values; --fresh must not read them...
        for spec in specs:
            cache.put_object(
                cell_key(spec),
                dataclasses.replace(poisoned[0], program="BOGUS"),
            )
        fresh = evaluate_cells(specs, jobs=1, cache=cache, resume=False)
        assert [c.program for c in fresh] == [s.program for s in specs]
        # ...and must repopulate the store with the real results.
        for spec, cell in zip(specs, fresh):
            assert cache.get_object(cell_key(spec)).program == cell.program
