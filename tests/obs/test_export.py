"""Golden-file and schema tests for the obs exporters.

The golden scenario pins the recorder clock (1000 ns per reading), so
both the Chrome trace JSON and the phase summary are byte-deterministic
-- any drift in the export format shows up as a diff against the files
in ``tests/obs/golden/``.  To regenerate after an intentional format
change::

    REGEN_OBS_GOLDENS=1 PYTHONPATH=src python -m pytest tests/obs/test_export.py
"""

import json
import os
from pathlib import Path

from repro.obs.export import (
    chrome_trace,
    metrics_json,
    phase_summary,
    prometheus_text,
    validate_chrome_trace,
    validate_prometheus_text,
    write_chrome_trace,
    write_metrics,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import Recorder

GOLDEN_DIR = Path(__file__).parent / "golden"


def _counting_clock(step=1000):
    state = {"t": 0}

    def clock():
        state["t"] += step
        return state["t"]

    return clock


def golden_recorder() -> Recorder:
    """A miniature pipeline's worth of spans under a pinned clock."""
    rec = Recorder(clock=_counting_clock())
    with rec.span("compile_block", block="b0", policy="balanced"):
        with rec.span("pass1"):
            with rec.span("dependence", block="b0"):
                pass
            with rec.span("weights", policy="balanced"):
                pass
            with rec.span("schedule", policy="balanced"):
                pass
        with rec.span("regalloc"):
            pass
    with rec.span("simulate", block="b0", runs=3):
        pass
    return rec


def _check_golden(name: str, text: str) -> None:
    path = GOLDEN_DIR / name
    if os.environ.get("REGEN_OBS_GOLDENS"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert path.exists(), f"golden file missing: {path}"
    assert text == path.read_text(), (
        f"{name} drifted from its golden copy; regenerate with "
        "REGEN_OBS_GOLDENS=1 if the change is intentional"
    )


class TestChromeTraceGolden:
    def test_trace_file_is_byte_identical(self, tmp_path):
        out = write_chrome_trace(tmp_path / "t.json", golden_recorder())
        _check_golden("chrome_trace.json", out.read_text())

    def test_trace_validates_cleanly(self):
        assert validate_chrome_trace(chrome_trace(golden_recorder())) == []

    def test_events_in_span_open_order_after_metadata(self):
        events = chrome_trace(golden_recorder())["traceEvents"]
        assert events[0]["ph"] == "M"
        names = [e["name"] for e in events[1:]]
        assert names == [
            "compile_block", "pass1", "dependence", "weights",
            "schedule", "regalloc", "simulate",
        ]
        cats = {e["name"]: e["cat"] for e in events[1:]}
        assert cats["dependence"] == "compile_block/pass1"
        assert cats["compile_block"] == "root"

    def test_span_args_become_event_args(self):
        events = chrome_trace(golden_recorder())["traceEvents"]
        sim = next(e for e in events if e["name"] == "simulate")
        assert sim["args"] == {"block": "b0", "runs": 3}


class TestValidator:
    def test_rejects_non_objects(self):
        assert validate_chrome_trace([]) == ["trace is not a JSON object"]
        assert validate_chrome_trace({"nope": 1}) == [
            "traceEvents is missing or not a list"
        ]

    def test_flags_bad_events(self):
        bad = {
            "traceEvents": [
                {"name": "", "ph": "X", "pid": 1, "tid": 1, "ts": 0, "dur": 1},
                {"name": "ok", "ph": "Z", "pid": 1, "tid": 1},
                {"name": "ok", "ph": "X", "pid": "1", "tid": 1,
                 "ts": -5, "dur": 1},
                "not-an-event",
            ]
        }
        problems = validate_chrome_trace(bad)
        assert any("missing event name" in p for p in problems)
        assert any("unknown phase" in p for p in problems)
        assert any("pid must be an integer" in p for p in problems)
        assert any("ts must be a non-negative number" in p for p in problems)
        assert any("not an object" in p for p in problems)

    def test_empty_trace_is_flagged(self):
        assert validate_chrome_trace({"traceEvents": []}) == [
            "traceEvents is empty"
        ]


class TestPhaseSummaryGolden:
    def test_summary_is_byte_identical(self):
        _check_golden("phase_summary.txt", phase_summary(golden_recorder()))

    def test_self_time_subtracts_direct_children(self):
        text = phase_summary(golden_recorder())
        lines = text.splitlines()
        pass1 = next(line for line in lines if line.lstrip().startswith("pass1"))
        # Each clock reading advances 1 tick (= 0.001ms): every leaf
        # child lasts 1 tick, so pass1's 7-tick total leaves 4 ticks of
        # self time after subtracting its three 1-tick children.
        assert "0.007ms" in pass1
        assert "0.004ms" in pass1

    def test_empty_recorder_renders_placeholder(self):
        rec = Recorder(clock=_counting_clock())
        assert "(no spans recorded)" in phase_summary(rec)


class TestPrometheusValidator:
    """The /metrics schema gate, exercised on hand-broken expositions.

    The service tests only ever feed it *valid* output; these are the
    negative cases that prove the gate can actually fail."""

    def test_real_registry_with_exemplar_is_valid(self):
        m = MetricsRegistry()
        m.inc("service.requests", endpoint="simulate", status="200")
        m.observe(
            "service.request_ms", 12.5,
            exemplar={"trace_id": "ab" * 16},
            endpoint="simulate",
        )
        text = prometheus_text(m)
        assert validate_prometheus_text(text) == []
        assert f'# {{trace_id="{"ab" * 16}"}} 12.5' in text

    def test_bad_exemplar_syntax_is_flagged(self):
        text = (
            "# TYPE m histogram\n"
            'm_bucket{le="1"} 1 # {trace_id=} 0.5\n'  # empty label value
        )
        problems = validate_prometheus_text(text)
        assert any("malformed sample" in p for p in problems)

    def test_exemplar_on_non_bucket_sample_is_flagged(self):
        text = (
            "# TYPE m counter\n"
            'm 3 # {trace_id="abcd"} 3\n'
        )
        problems = validate_prometheus_text(text)
        assert any("exemplar on non-bucket sample m" in p for p in problems)

    def test_non_monotone_bucket_counts_are_flagged(self):
        text = (
            "# TYPE m histogram\n"
            'm_bucket{le="1"} 5\n'
            'm_bucket{le="2"} 3\n'  # cumulative count went *down*
            'm_bucket{le="+Inf"} 5\n'
            "m_sum 7\n"
            "m_count 5\n"
        )
        problems = validate_prometheus_text(text)
        assert any("non-monotone bucket counts" in p for p in problems)

    def test_monotone_buckets_compare_le_numerically(self):
        # le="10" sorts before le="2" as a string; the validator must
        # order buckets numerically or this valid series would fail.
        text = (
            "# TYPE m histogram\n"
            'm_bucket{le="2"} 1\n'
            'm_bucket{le="10"} 4\n'
            'm_bucket{le="+Inf"} 4\n'
            "m_sum 42\n"
            "m_count 4\n"
        )
        assert validate_prometheus_text(text) == []

    def test_unescaped_label_value_is_flagged(self):
        text = (
            "# TYPE m counter\n"
            'm{path="say "hi""} 1\n'  # unescaped inner quotes
        )
        problems = validate_prometheus_text(text)
        assert any("malformed sample" in p for p in problems)

    def test_escaped_label_value_is_valid(self):
        m = MetricsRegistry()
        m.inc("m", path='say "hi"\nback\\slash')
        assert validate_prometheus_text(prometheus_text(m)) == []

    def test_bucket_without_le_label_is_flagged(self):
        text = (
            "# TYPE m histogram\n"
            'm_bucket{other="x"} 1\n'
        )
        problems = validate_prometheus_text(text)
        assert any("without an 'le' label" in p for p in problems)

    def test_undeclared_sample_is_flagged(self):
        problems = validate_prometheus_text("mystery 1\n")
        assert any("no TYPE declaration" in p for p in problems)


class TestMetricsExport:
    def test_metrics_json_sorted_and_stringified(self, tmp_path):
        m = MetricsRegistry()
        m.inc("b.counter", 2)
        m.inc("a.counter", 1)
        m.set_gauge("g", 4)
        m.observe_many("h", [10, 2, 10])
        data = metrics_json(m)
        assert list(data["counters"]) == ["a.counter", "b.counter"]
        assert data["histograms"]["h"] == {"2": 1, "10": 2}
        out = write_metrics(tmp_path / "m.json", m)
        assert json.loads(out.read_text()) == data
