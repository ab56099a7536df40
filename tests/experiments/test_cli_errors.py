"""CLI error paths: every bad input exits non-zero with a one-line
message on stderr -- never a traceback.

Run as real subprocesses so the assertion covers exactly what a shell
user sees (exit status, stderr, nothing leaking to stdout).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def run_cli(argv, cwd=None, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(REPO_SRC)
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments.runner", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=timeout,
    )


BAD_SOURCE = "program broken\nkernel k freq 1\nx = nosucharray[i]\nend\nend\n"


@pytest.fixture
def bad_mf(tmp_path):
    path = tmp_path / "bad.mf"
    path.write_text(BAD_SOURCE)
    return str(path)


class TestBadInputsExitCleanly:
    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["compile", "/no/such/file.mf"], id="missing-file"),
            pytest.param(["schedule", "/no/such/file.mf"], id="missing-file-schedule"),
            pytest.param(["weights", "/no/such/file.mf"], id="missing-file-weights"),
            pytest.param(["explain", "NOSUCHPROG"], id="unknown-program"),
            pytest.param(
                ["run", "table2", "--programs", "BOGUS", "--quick"],
                id="unknown-programs-subset",
            ),
            pytest.param(
                ["run", "table4", "--programs", "ADM", "--quick"],
                id="programs-wrong-experiment",
            ),
            pytest.param(["trace", "x.mf", "--memory", "BOGUS"], id="bad-memory"),
        ],
    )
    def test_exits_2_with_one_line_and_no_traceback(self, argv):
        proc = run_cli(argv)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        lines = [l for l in proc.stderr.splitlines() if l.strip()]
        assert len(lines) == 1, proc.stderr

    def test_bad_minif_source_is_a_one_liner(self, bad_mf):
        proc = run_cli(["compile", bad_mf])
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("balanced-sched: ")
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_directory_instead_of_file(self, tmp_path):
        proc = run_cli(["compile", str(tmp_path)])
        assert proc.returncode == 2
        assert proc.stderr.startswith("balanced-sched: ")
        assert "Traceback" not in proc.stderr

    def test_good_input_still_exits_zero(self, tmp_path):
        path = tmp_path / "ok.mf"
        path.write_text(
            "program ok\narray a[64], b[64]\nkernel k freq 1\n"
            "b[i] = a[i] * c0\nend\nend\n"
        )
        proc = run_cli(["compile", str(path)])
        assert proc.returncode == 0, proc.stderr
        assert "==== balanced" in proc.stdout


class TestOptionValidation:
    def test_serve_rejects_zero_jobs_at_parse_time(self):
        # Before parse-time validation the daemon started and answered
        # every /simulate with a 500; the timeout catches that.
        proc = run_cli(["serve", "--jobs", "0", "--port", "0"], timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert "--jobs" in proc.stderr and "must be >= 1" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["run", "table2", "--quick"], id="run"),
            pytest.param(["profile", "table2", "--quick"], id="profile"),
            pytest.param(["verify"], id="verify"),
            pytest.param(["optimal-gap"], id="optimal-gap"),
            pytest.param(["delay-track", "--quick"], id="delay-track"),
        ],
    )
    def test_every_programs_option_parses_the_same_way(self, argv):
        """Parts are stripped and blank parts dropped, so only the
        genuinely unknown name is reported, in one line."""
        proc = run_cli(argv + ["--programs", "ADM, NOPE,"])
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        lines = [l for l in proc.stderr.splitlines() if l.strip()]
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("unknown program(s) ['NOPE']; ")


class TestInterruptDrill:
    def test_sigterm_shuts_down_run_cleanly(self, tmp_path):
        """SIGTERM mid-`run` must behave like Ctrl-C: exit 130, an
        ``interrupted`` manifest record, and no half-written obs
        artifacts from --trace-out/--metrics-out."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(REPO_SRC)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.experiments.runner",
                "run", "table2", "--jobs", "2",
                "--trace-out", "trace.json",
                "--metrics-out", "metrics.json",
            ],
            cwd=tmp_path,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        manifest = tmp_path / "results" / "manifest.jsonl"
        deadline = time.monotonic() + 120
        # Interrupt only once the run is demonstrably under way.
        while time.monotonic() < deadline and not manifest.exists():
            if proc.poll() is not None:
                pytest.fail(f"run died early: {proc.communicate()[1]}")
            time.sleep(0.1)
        assert manifest.exists(), "run never started"
        # The whole table2 run can finish ~1.3 s after its run_start
        # record on a fast host; signal well inside that window.
        time.sleep(0.2)
        proc.send_signal(signal.SIGTERM)
        _, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 130, stderr
        assert "Traceback" not in stderr

        import json

        records = [
            json.loads(line)
            for line in manifest.read_text().splitlines()
            if line.strip()
        ]
        ends = [r for r in records if r["event"] == "run_end"]
        assert ends and ends[-1]["status"] == "interrupted"

        # Obs artifacts are written atomically on the interrupt path:
        # each either does not exist or parses as complete JSON.
        for name in ("trace.json", "metrics.json"):
            path = tmp_path / name
            if path.exists():
                json.loads(path.read_text())
