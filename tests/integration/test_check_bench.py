"""Tests for the benchmark regression gate (``tools/check_bench.py``).

The gate diffs freshly regenerated ``BENCH_*.json`` files against the
committed baselines, holding machine-independent ratios (speedups) to
a tight tolerance and machine-dependent absolutes (seconds, req/s) to
a catastrophic-only one.  These tests drive it against a throwaway git
repo so both the pass and the fail paths are exercised hermetically.
"""

import importlib.util
import json
import pathlib
import subprocess

import pytest

TOOLS = pathlib.Path(__file__).resolve().parents[2] / "tools"

spec = importlib.util.spec_from_file_location(
    "check_bench", TOOLS / "check_bench.py"
)
check_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_bench)


BASELINE = {
    "meta": {"python": "3.x", "machine": "baseline-host"},
    "batch": {
        "speedup": 4.0,
        "elapsed_seconds": 10.0,
        "requests_per_s": 1000.0,
        "per_block": [1, 2, 3],
        "byte_identical": True,
    },
}


def _git(repo, *args):
    subprocess.run(
        ["git", "-C", str(repo), *args],
        check=True,
        capture_output=True,
        env={
            "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
            "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t",
            "HOME": str(repo),
            "PATH": "/usr/bin:/bin:/usr/local/bin",
        },
    )


@pytest.fixture
def repo(tmp_path):
    """A one-commit git repo holding BENCH_x.json as the baseline."""
    _git(tmp_path, "init", "-q")
    (tmp_path / "BENCH_x.json").write_text(json.dumps(BASELINE))
    _git(tmp_path, "add", "BENCH_x.json")
    _git(tmp_path, "commit", "-qm", "baseline")
    return tmp_path


def _run(repo, fresh, **kwargs):
    (repo / "BENCH_x.json").write_text(json.dumps(fresh))
    return check_bench.check(
        str(repo), [str(repo / "BENCH_x.json")], **kwargs
    )


class TestGate:
    def test_identical_file_passes(self, repo, capsys):
        assert _run(repo, BASELINE) == []
        assert ": ok" in capsys.readouterr().out

    def test_small_drift_is_within_tolerance(self, repo):
        fresh = json.loads(json.dumps(BASELINE))
        fresh["batch"]["speedup"] = 3.2  # -20%: inside the 35% floor
        fresh["batch"]["elapsed_seconds"] = 30.0  # 3x slower host: OK
        assert _run(repo, fresh) == []

    def test_relative_regression_fails(self, repo):
        fresh = json.loads(json.dumps(BASELINE))
        fresh["batch"]["speedup"] = 2.0  # half the committed speedup
        (problem,) = _run(repo, fresh)
        assert "batch.speedup" in problem
        assert "relative" in problem

    def test_absolute_cliff_fails(self, repo):
        fresh = json.loads(json.dumps(BASELINE))
        fresh["batch"]["requests_per_s"] = 50.0  # 20x throughput cliff
        (problem,) = _run(repo, fresh)
        assert "requests_per_s" in problem
        assert "absolute" in problem

    def test_lower_is_better_direction(self, repo):
        """A *drop* in elapsed seconds is an improvement, never a
        regression -- even a huge one."""
        fresh = json.loads(json.dumps(BASELINE))
        fresh["batch"]["elapsed_seconds"] = 0.1
        assert _run(repo, fresh) == []
        # ... but a blow-up past the absolute floor fails.
        fresh["batch"]["elapsed_seconds"] = 1000.0
        (problem,) = _run(repo, fresh)
        assert "elapsed_seconds" in problem

    def test_meta_lists_and_schema_drift_are_ignored(self, repo):
        fresh = json.loads(json.dumps(BASELINE))
        fresh["meta"]["machine"] = "other-host"
        fresh["batch"]["per_block"] = [9, 9, 9]
        fresh["batch"]["brand_new_metric"] = 0.001  # only on one side
        del fresh["batch"]["requests_per_s"]  # dropped metric
        assert _run(repo, fresh) == []

    def test_new_file_without_baseline_is_skipped(self, repo, capsys):
        (repo / "BENCH_new.json").write_text(json.dumps(BASELINE))
        problems = check_bench.check(
            str(repo),
            [str(repo / "BENCH_x.json"), str(repo / "BENCH_new.json")],
        )
        assert problems == []
        assert "no committed baseline" in capsys.readouterr().out

    def test_nothing_comparable_is_itself_a_problem(self, repo):
        (repo / "BENCH_new.json").write_text(json.dumps(BASELINE))
        (problem,) = check_bench.check(
            str(repo), [str(repo / "BENCH_new.json")]
        )
        assert "no BENCH files had committed baselines" in problem

    def test_unreadable_fresh_file_is_a_problem(self, repo):
        (repo / "BENCH_x.json").write_text("{not json")
        problems = check_bench.check(
            str(repo), [str(repo / "BENCH_x.json")]
        )
        assert any("unreadable fresh file" in p for p in problems)


OBS_BASELINE = {
    "schedule_dag_512": {
        "decisions_over_disabled": 1.1,
        "enabled_over_disabled": 1.01,
    },
}


@pytest.fixture
def obs_repo(tmp_path):
    """A one-commit git repo holding observation-overhead ratios."""
    _git(tmp_path, "init", "-q")
    (tmp_path / "BENCH_x.json").write_text(json.dumps(OBS_BASELINE))
    _git(tmp_path, "add", "BENCH_x.json")
    _git(tmp_path, "commit", "-qm", "baseline")
    return tmp_path


class TestOverheadRatios:
    """``*_over_disabled`` is observability-on time over -off time:
    smaller is better, and it is noisy from run to run."""

    def _fresh(self, decisions, enabled=1.01):
        return {
            "schedule_dag_512": {
                "decisions_over_disabled": decisions,
                "enabled_over_disabled": enabled,
            },
        }

    def test_drop_in_overhead_passes(self, obs_repo):
        assert _run(obs_repo, self._fresh(1.0, enabled=1.0)) == []

    def test_observed_host_noise_passes(self, obs_repo):
        """1.1 -> 1.8 is the spread seen between runs on one host."""
        assert _run(obs_repo, self._fresh(1.8)) == []

    def test_doubled_overhead_fails(self, obs_repo):
        (problem,) = _run(obs_repo, self._fresh(1.1, enabled=2.5))
        assert "enabled_over_disabled" in problem
        assert "tolerance 0.5" in problem

    def test_tight_relative_flag_does_not_tighten_overhead(self, obs_repo):
        assert _run(
            obs_repo, self._fresh(1.8), relative_tolerance=0.1
        ) == []


class TestWorkloadDescriptors:
    """Leaves that describe the workload must equal the baseline; they
    are never scored as better or worse."""

    @pytest.fixture
    def study_repo(self, tmp_path):
        baseline = {
            "study": {
                "blocks": 88,
                "traces": 440,
                "per_table_calls": 352,
                "stacked_calls": 88,
                "speedup": 2.0,
            },
            "large": {"scalar_runs_timed": 3, "instructions": 512},
        }
        _git(tmp_path, "init", "-q")
        (tmp_path / "BENCH_x.json").write_text(json.dumps(baseline))
        _git(tmp_path, "add", "BENCH_x.json")
        _git(tmp_path, "commit", "-qm", "baseline")
        return tmp_path, baseline

    @pytest.mark.parametrize(
        "section, leaf, value",
        [("study", "blocks", 96), ("study", "blocks", 80),
         ("study", "traces", 480), ("study", "per_table_calls", 300),
         ("study", "per_table_calls", 400),
         ("large", "scalar_runs_timed", 30), ("large", "instructions", 256)],
    )
    def test_a_changed_descriptor_fails_either_way(
        self, study_repo, section, leaf, value
    ):
        repo, baseline = study_repo
        fresh = json.loads(json.dumps(baseline))
        fresh[section][leaf] = value
        (problem,) = _run(repo, fresh)
        assert f"{section}.{leaf}" in problem
        assert "workload changed; regenerate the baseline" in problem

    def test_equal_descriptors_pass_and_calls_still_gate(self, study_repo):
        repo, baseline = study_repo
        assert _run(repo, baseline) == []
        fresh = json.loads(json.dumps(baseline))
        fresh["study"]["stacked_calls"] = 352  # 4x the calls: a regression
        (problem,) = _run(repo, fresh)
        assert "study.stacked_calls regressed" in problem

    @pytest.mark.parametrize(
        "name",
        ["study.blocks", "study.traces", "mdg.instructions",
         "large.scalar_runs_timed", "study.per_table_calls",
         "study.per_block_calls"],
    )
    def test_descriptor_names(self, name):
        assert check_bench.is_descriptor(name)

    @pytest.mark.parametrize(
        "name", ["study.stacked_calls", "study.conflict_lists_calls",
                 "batch.speedup", "blocks_seconds"]
    )
    def test_performance_names_are_not_descriptors(self, name):
        assert not check_bench.is_descriptor(name)


class TestMetricClassification:
    @pytest.mark.parametrize(
        "name",
        ["batch.speedup", "overlap_ratio", "hit_over_disabled",
         "obs.overhead_pct"],
    )
    def test_relative_names(self, name):
        assert check_bench.is_relative(name)

    @pytest.mark.parametrize(
        "name", ["elapsed_seconds", "p99_ms", "requests_per_s"]
    )
    def test_absolute_names(self, name):
        assert not check_bench.is_relative(name)

    @pytest.mark.parametrize(
        "name", ["elapsed_seconds", "seconds", "p99_ms", "ns_per_call",
                 "obs.overhead_pct"]
    )
    def test_lower_is_better_names(self, name):
        assert check_bench.lower_is_better(name)

    def test_higher_is_better_names(self):
        assert not check_bench.lower_is_better("requests_per_s")
        assert not check_bench.lower_is_better("batch.speedup")

    @pytest.mark.parametrize(
        "name",
        ["adm_cell_runs3.enabled_over_disabled",
         "schedule_dag_512.decisions_over_disabled"],
    )
    def test_overhead_ratios_are_lower_is_better(self, name):
        assert check_bench.lower_is_better(name)
        assert check_bench.is_relative(name)

    def test_walk_metrics_flattens_with_dotted_paths(self):
        metrics = dict(check_bench.walk_metrics(BASELINE))
        assert metrics == {
            "batch.speedup": 4.0,
            "batch.elapsed_seconds": 10.0,
            "batch.requests_per_s": 1000.0,
        }
