"""Tests for request-scoped trace contexts and the trace store.

The wire-format half (``parse_traceparent``) follows the W3C Trace
Context rules the service relies on: malformed, all-zero and
reserved-version headers must fall back to a fresh context rather than
failing the request.  The store half is the bounded ring behind
``GET /debug/requests`` and ``GET /debug/trace/<id>``.
"""

import os

import pytest

from repro.obs.export import validate_chrome_trace
from repro.obs.requesttrace import (
    RequestTraceStore,
    TraceContext,
    new_context,
    parse_traceparent,
)

TRACE = "0af7651916cd43dd8448eb211c80319c"
SPAN = "b7ad6b7169203331"


class TestParseTraceparent:
    def test_valid_header_keeps_trace_and_reparents(self):
        ctx = parse_traceparent(f"00-{TRACE}-{SPAN}-01")
        assert ctx.trace_id == TRACE
        assert ctx.parent_id == SPAN
        assert ctx.span_id != SPAN, "the server mints its own span"
        assert len(ctx.span_id) == 16
        assert ctx.sampled

    def test_unsampled_flag(self):
        ctx = parse_traceparent(f"00-{TRACE}-{SPAN}-00")
        assert not ctx.sampled
        assert ctx.traceparent().endswith("-00")

    def test_future_version_is_accepted(self):
        assert parse_traceparent(f"cc-{TRACE}-{SPAN}-01") is not None

    def test_case_and_whitespace_are_normalised(self):
        ctx = parse_traceparent(f"  00-{TRACE.upper()}-{SPAN}-01 ")
        assert ctx is not None and ctx.trace_id == TRACE

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "not-a-traceparent",
            f"00-{TRACE}-{SPAN}",  # missing flags
            f"00-{TRACE[:-1]}-{SPAN}-01",  # short trace id
            f"00-{TRACE}xx-{SPAN}-01",  # non-hex
            f"ff-{TRACE}-{SPAN}-01",  # reserved version
            f"00-{'0' * 32}-{SPAN}-01",  # all-zero trace id
            f"00-{TRACE}-{'0' * 16}-01",  # all-zero span id
        ],
    )
    def test_invalid_headers_return_none(self, header):
        assert parse_traceparent(header) is None

    def test_roundtrip_through_the_header(self):
        ctx = new_context()
        again = parse_traceparent(ctx.traceparent())
        assert again.trace_id == ctx.trace_id
        assert again.parent_id == ctx.span_id


class TestRingBuffer:
    def _begin(self, store, trace_id, route="simulate"):
        ctx = TraceContext(trace_id=trace_id, span_id="ab" * 8)
        store.begin(ctx, route)
        return ctx

    def test_capacity_evicts_oldest(self):
        store = RequestTraceStore(capacity=2)
        for trace_id in ("aa" * 16, "bb" * 16, "cc" * 16):
            self._begin(store, trace_id)
        assert len(store) == 2
        assert store.trace("aa" * 16) is None, "oldest evicted"
        assert store.trace("cc" * 16) is not None

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            RequestTraceStore(capacity=0)

    def test_fragments_for_unknown_traces_are_dropped(self):
        store = RequestTraceStore(capacity=4)
        self._begin(store, "aa" * 16)
        store.add("ee" * 16, "ghost", start_ns=0, dur_ns=1)
        (record,) = store.recent()
        assert record["spans"] == 0

    def test_recent_is_newest_first_without_fragments(self):
        store = RequestTraceStore(capacity=4)
        self._begin(store, "aa" * 16, route="compile")
        ctx = self._begin(store, "bb" * 16, route="simulate")
        store.add(ctx.trace_id, "cell", start_ns=10, dur_ns=5)
        store.note_timing(ctx.trace_id, "engine", 1.25)
        store.note_timing(ctx.trace_id, "engine", 0.25)
        store.note_cell(ctx.trace_id, "k1")
        store.note_cell(ctx.trace_id, "k1")  # deduplicated
        store.finish(ctx.trace_id, 200, 12.3456)
        newest, oldest = store.recent()
        assert [r["route"] for r in (newest, oldest)] == [
            "simulate", "compile",
        ]
        assert set(newest) == {
            "trace_id", "parent_id", "route", "status", "started_ns",
            "duration_ms", "cell_keys", "timings_ms", "spans",
        }
        assert newest["spans"] == 1
        assert newest["timings_ms"] == {"engine": 1.5}
        assert newest["cell_keys"] == ["k1"]
        assert newest["status"] == 200
        assert newest["duration_ms"] == 12.346


class TestTraceAssembly:
    def test_chrome_trace_puts_fragments_on_one_timeline(self):
        store = RequestTraceStore()
        ctx = TraceContext(trace_id="ab" * 16, span_id="cd" * 8)
        store.begin(ctx, "simulate")
        base = 1_000_000_000
        store.add(ctx.trace_id, "evaluate_cell ADM",
                  start_ns=base + 2000, dur_ns=1000, cat="engine",
                  args={"program": "ADM"})
        store.add(ctx.trace_id, "request /simulate",
                  start_ns=base, dur_ns=5000)
        trace = store.trace(ctx.trace_id)
        assert validate_chrome_trace(trace) == []
        events = trace["traceEvents"]
        (meta,) = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert meta["pid"] == os.getpid()
        assert meta["args"]["name"] == "balanced-sched server"
        assert {e["pid"] for e in spans} == {os.getpid()}
        # Spans come back sorted by start time, on a shared timeline.
        assert [e["name"] for e in spans] == [
            "request /simulate", "evaluate_cell ADM",
        ]
        assert spans[0]["ts"] == 0
        assert spans[1]["ts"] - spans[0]["ts"] == pytest.approx(2.0)
        assert [e["cat"] for e in spans] == ["service", "engine"]
        assert spans[1]["args"] == {"program": "ADM"}
        assert trace["otherData"]["trace_id"] == ctx.trace_id

    def test_equal_start_times_keep_recording_order(self):
        store = RequestTraceStore()
        ctx = new_context()
        store.begin(ctx, "simulate")
        for name in ("evaluate_cell ADM", "parse", "cell"):
            store.add(ctx.trace_id, name, start_ns=7, dur_ns=1)
        spans = [
            e["name"] for e in store.trace(ctx.trace_id)["traceEvents"]
            if e["ph"] == "X"
        ]
        assert spans == ["evaluate_cell ADM", "parse", "cell"]

    def test_unknown_trace_is_none(self):
        assert RequestTraceStore().trace("ff" * 16) is None
