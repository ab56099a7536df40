"""Request-scoped trace context and the per-request trace store.

The scheduling service tags every request with a W3C-style
``traceparent`` id (caller-supplied or generated) and records the
request's spans -- its own, the batcher's and the engine's for the
cell it waited on -- under that id, all on the recorder's clock
(:func:`time.perf_counter_ns`), so they line up on one timeline.

Two pieces:

* :func:`parse_traceparent` / :class:`TraceContext` -- the wire
  format (``00-<32 hex trace id>-<16 hex span id>-<2 hex flags>``);
* :class:`RequestTraceStore` -- a bounded ring buffer of recent
  requests (id, route, cell keys, phase timings, status, spans)
  behind ``GET /debug/requests``, with :meth:`RequestTraceStore.trace`
  rendering one request as Perfetto-loadable Chrome ``trace_event``
  JSON (``GET /debug/trace/<id>``).
"""

from __future__ import annotations

import os
import re
import secrets
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional

__all__ = [
    "TraceContext",
    "RequestTraceStore",
    "parse_traceparent",
    "new_context",
    "new_span_id",
]

#: ``version-traceid-spanid-flags`` per the W3C Trace Context spec;
#: only version 00 is produced, any version except ``ff`` is accepted.
_TRACEPARENT = re.compile(
    r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$"
)


@dataclass(frozen=True)
class TraceContext:
    """One request's identity on the trace wire.

    ``span_id`` is the *current* span (the server's root span for this
    request); ``parent_id`` is the caller's span id when the request
    arrived with a ``traceparent`` header, else ``None``.
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str] = None
    sampled: bool = True

    def traceparent(self) -> str:
        """The header value to echo back / propagate downstream."""
        flags = "01" if self.sampled else "00"
        return f"00-{self.trace_id}-{self.span_id}-{flags}"


def new_span_id() -> str:
    return secrets.token_hex(8)


def new_context() -> TraceContext:
    """A fresh root context (for requests without a ``traceparent``)."""
    return TraceContext(trace_id=secrets.token_hex(16), span_id=new_span_id())


def parse_traceparent(header: Optional[str]) -> Optional[TraceContext]:
    """Parse a ``traceparent`` header into a server-side context.

    Returns ``None`` for a missing or malformed header (the server then
    generates a fresh context rather than failing the request).  The
    caller's span id becomes ``parent_id``; a new ``span_id`` is minted
    for the server's root span, as the spec prescribes for a
    participating service.
    """
    if not header:
        return None
    match = _TRACEPARENT.match(header.strip().lower())
    if match is None:
        return None
    version, trace_id, parent_id, flags = match.groups()
    # All-zero ids and the reserved version are invalid per spec.
    if version == "ff" or trace_id == "0" * 32 or parent_id == "0" * 16:
        return None
    return TraceContext(
        trace_id=trace_id,
        span_id=new_span_id(),
        parent_id=parent_id,
        sampled=bool(int(flags, 16) & 0x01),
    )


# ----------------------------------------------------------------------
# The recent-requests ring buffer
# ----------------------------------------------------------------------
class RequestTraceStore:
    """A bounded, thread-safe ring buffer of recent traced requests.

    The service begins a record per request, adds its spans and phase
    timings under the trace id, and the HTTP debug endpoints read the
    assembled result.  Accessed concurrently from the event loop and
    the CPU executor thread, so every method takes the lock.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._records: "OrderedDict[str, dict]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    # ------------------------------------------------------------------
    def begin(self, ctx: TraceContext, route: str) -> None:
        """Open the record for one request (evicting the oldest past
        ``capacity``).  A trace id reused by a client reopens its slot."""
        with self._lock:
            self._records[ctx.trace_id] = {
                "trace_id": ctx.trace_id,
                "parent_id": ctx.parent_id,
                "route": route,
                "status": None,
                "started_ns": time.time_ns(),
                "duration_ms": None,
                "cell_keys": [],
                "timings_ms": {},
                "events": [],
            }
            self._records.move_to_end(ctx.trace_id)
            while len(self._records) > self.capacity:
                self._records.popitem(last=False)

    def add(
        self,
        trace_id: str,
        name: str,
        *,
        start_ns: int,
        dur_ns: int,
        cat: str = "service",
        args: Optional[dict] = None,
    ) -> None:
        """Record one span of a request, timed on
        :func:`time.perf_counter_ns`; spans of evicted (or never-seen)
        traces are dropped silently."""
        with self._lock:
            record = self._records.get(trace_id)
            if record is not None:
                record["events"].append(
                    (int(start_ns), max(0, int(dur_ns)), name, cat,
                     dict(args or {}))
                )

    def note_timing(self, trace_id: str, phase: str, ms: float) -> None:
        """Accumulate one phase timing (queue/batch/engine/render ...)."""
        with self._lock:
            record = self._records.get(trace_id)
            if record is not None:
                timings = record["timings_ms"]
                timings[phase] = round(timings.get(phase, 0.0) + ms, 3)

    def note_cell(self, trace_id: str, cell_key: str) -> None:
        with self._lock:
            record = self._records.get(trace_id)
            if record is not None and cell_key not in record["cell_keys"]:
                record["cell_keys"].append(cell_key)

    def finish(self, trace_id: str, status: int, duration_ms: float) -> None:
        with self._lock:
            record = self._records.get(trace_id)
            if record is not None:
                record["status"] = status
                record["duration_ms"] = round(duration_ms, 3)

    # ------------------------------------------------------------------
    def recent(self) -> List[dict]:
        """Summaries of the buffered requests, newest first (the
        ``GET /debug/requests`` payload -- spans counted, not listed)."""
        with self._lock:
            records = list(self._records.values())
        out = []
        for record in reversed(records):
            summary = {
                k: v for k, v in record.items() if k != "events"
            }
            summary["spans"] = len(record["events"])
            out.append(summary)
        return out

    def trace(self, trace_id: str) -> Optional[dict]:
        """One request's span tree as Chrome ``trace_event`` JSON
        (``GET /debug/trace/<id>``), or ``None`` for an unknown id.

        Every span is recorded in this process; ``process_name``
        metadata labels its track in Perfetto.  Spans are listed by
        start time, the earliest at ``ts`` 0.
        """
        with self._lock:
            record = self._records.get(trace_id)
            if record is None:
                return None
            spans = sorted(record["events"], key=lambda e: e[0])
            route = record["route"]
        pid = os.getpid()
        base_ns = spans[0][0] if spans else 0
        events: List[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 1,
                "args": {"name": "balanced-sched server"},
            }
        ]
        for start_ns, dur_ns, name, cat, args in spans:
            events.append(
                {
                    "name": name,
                    "cat": cat,
                    "ph": "X",
                    "ts": (start_ns - base_ns) / 1000,
                    "dur": dur_ns / 1000,
                    "pid": pid,
                    "tid": 1,
                    "args": args,
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"trace_id": trace_id, "route": route},
        }
