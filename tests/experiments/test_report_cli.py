"""Tests for the CSV/markdown exports and the extended CLI."""

import pytest

from repro.experiments.figure3 import run_figure3
from repro.experiments.table1 import run_table1
from repro.experiments.table4 import run_table4
from repro.experiments.report import export, records_of, to_csv, to_markdown
from repro.experiments.runner import main

MINIF = """
program clidemo
  array a[64], b[64]
  kernel k freq 5
    s = s + a[i] * b[i]
  end
end
"""


@pytest.fixture
def minif_file(tmp_path):
    path = tmp_path / "demo.mf"
    path.write_text(MINIF)
    return str(path)


class TestRecords:
    def test_figure3_records(self):
        records = records_of(run_figure3())
        assert len(records) == 3
        assert records[0]["latency_1"] == 0

    def test_table1_records(self):
        records = records_of(run_table1())
        loads = {r["load"] for r in records}
        assert loads == {"L1", "L2", "L3", "L4", "L5", "L6"}
        l1 = next(r for r in records if r["load"] == "L1")
        assert l1["weight"] == 10.0

    def test_table4_records(self):
        records = records_of(run_table4())
        assert len(records) == 8
        bdna = next(r for r in records if r["program"] == "BDNA")
        assert bdna["balanced"] > 0
        assert "w30" in bdna

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            records_of(object())  # type: ignore[arg-type]


class TestSerialisation:
    def test_csv_round_trips_through_stdlib(self):
        import csv
        import io

        text = to_csv(records_of(run_figure3()))
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 3
        assert rows[0]["schedule"] in {"greedy_w5", "lazy_w1", "balanced"}

    def test_markdown_has_separator_row(self):
        text = to_markdown(records_of(run_figure3()))
        lines = text.splitlines()
        assert lines[1].startswith("| ---")
        assert len(lines) == 2 + 3

    def test_export_dispatch(self):
        result = run_figure3()
        assert export(result, "text") == result.format()
        assert export(result, "csv").startswith("schedule")
        assert export(result, "markdown").startswith("|")
        with pytest.raises(ValueError):
            export(result, "xml")

    def test_missing_keys_padded(self):
        text = to_markdown([{"a": 1}, {"b": 2}])
        assert "| a | b |" in text


class TestCLI:
    def test_bare_experiment_shorthand(self, capsys):
        assert main(["figure3"]) == 0
        assert "interlocks" in capsys.readouterr().out

    def test_run_with_csv_format(self, capsys):
        assert main(["run", "table4", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert "program,bins,balanced" in out

    def test_compile_command(self, capsys, minif_file):
        assert main(["compile", minif_file]) == 0
        out = capsys.readouterr().out
        assert "==== balanced" in out
        assert "traditional(W=2" in out
        assert "dynamic instructions" in out

    def test_weights_command(self, capsys, minif_file):
        assert main(["weights", minif_file]) == 0
        out = capsys.readouterr().out
        assert "weight" in out
        assert "loads" in out

    def test_weights_matrix_flag(self, capsys, minif_file):
        assert main(["weights", minif_file, "--matrix"]) == 0
        assert "<-" in capsys.readouterr().out

    def test_trace_command(self, capsys, minif_file):
        assert main(["trace", minif_file, "--memory", "N(2,5)"]) == 0
        out = capsys.readouterr().out
        assert "cycles:" in out
        assert "|" in out  # the pipeline diagram

    def test_trace_traditional_policy(self, capsys, minif_file):
        assert main([
            "trace", minif_file, "--policy", "traditional", "--latency", "5",
            "--processor", "len8",
        ]) == 0
        assert "traditional" in capsys.readouterr().out

    def test_trace_unknown_memory_fails_gracefully(self, capsys, minif_file):
        assert main(["trace", minif_file, "--memory", "BOGUS"]) == 2
        assert "unknown memory" in capsys.readouterr().err


class TestScheduleCommand:
    def test_schedule_inline(self, minif_file, capsys):
        assert main(["schedule", minif_file]) == 0
        out = capsys.readouterr().out
        assert "noop span" in out
        assert "under balanced (jobs=1)" in out

    def test_schedule_has_no_jobs_option(self, minif_file, capsys):
        # Blocks are always scheduled inline; the option is gone.
        with pytest.raises(SystemExit) as exc:
            main(["schedule", minif_file, "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_schedule_traditional(self, minif_file, capsys):
        assert main(
            ["schedule", minif_file, "--policy", "traditional"]
        ) == 0
        assert "traditional" in capsys.readouterr().out
