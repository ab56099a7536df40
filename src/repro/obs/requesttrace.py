"""Request-scoped trace context and span-fragment assembly.

The scheduling service tags every request with a W3C-style
``traceparent`` id (caller-supplied or generated) and threads that
trace context through the batcher into the experiment engine.  Each
hop records *span fragments* -- flat dicts carrying the trace id, the
process id and epoch timestamps -- which are reassembled here into a
per-request span tree.

Two pieces:

* :func:`parse_traceparent` / :class:`TraceContext` -- the wire
  format (``00-<32 hex trace id>-<16 hex span id>-<2 hex flags>``);
* :class:`RequestTraceStore` -- a bounded ring buffer of recent
  requests (id, route, cell keys, phase timings, status, fragments)
  behind ``GET /debug/requests``, with :meth:`RequestTraceStore.trace`
  rendering one request as Perfetto-loadable Chrome ``trace_event``
  JSON (``GET /debug/trace/<id>``).

The store is installed as a module-global sink (:func:`install`) so
the engine can forward its fragments without the service threading
a handle through ``evaluate_cells``; with no sink installed every hook
is a no-op, which is what keeps the batch CLI byte-identical to a
tracing-off daemon.

Fragments use wall-clock epoch nanoseconds (``time.time_ns``), not the
recorder's monotonic clock, so the service's spans and the engine's
remapped recorder spans line up on one timeline.
"""

from __future__ import annotations

import os
import re
import secrets
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

__all__ = [
    "TraceContext",
    "RequestTraceStore",
    "parse_traceparent",
    "new_context",
    "new_span_id",
    "install",
    "uninstall",
    "active",
    "record_fragments",
    "fragment",
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
# Span fragments
# ----------------------------------------------------------------------
def fragment(
    trace_id: str,
    name: str,
    *,
    start_ns: int,
    dur_ns: int,
    cat: str = "service",
    tid: int = 1,
    args: Optional[dict] = None,
) -> dict:
    """One span fragment: a flat dict that maps 1:1 onto a Chrome
    ``"ph": "X"`` event."""
    return {
        "trace_id": trace_id,
        "name": name,
        "cat": cat,
        "pid": os.getpid(),
        "tid": tid,
        "start_ns": int(start_ns),
        "dur_ns": max(0, int(dur_ns)),
        "args": dict(args or {}),
    }


# ----------------------------------------------------------------------
# The recent-requests ring buffer
# ----------------------------------------------------------------------
class RequestTraceStore:
    """A bounded, thread-safe ring buffer of recent traced requests.

    The service begins a record per request, every layer appends span
    fragments and phase timings under the trace id, and the HTTP debug
    endpoints read the assembled result.  Accessed concurrently from
    the event loop, the CPU executor thread and the batcher's flush
    task, so every method takes the lock.
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
                "fragments": [],
            }
            self._records.move_to_end(ctx.trace_id)
            while len(self._records) > self.capacity:
                self._records.popitem(last=False)

    def add_fragments(self, fragments: Iterable[dict]) -> None:
        """File fragments under their own trace ids; fragments for
        evicted (or never-seen) traces are dropped silently."""
        with self._lock:
            for frag in fragments:
                record = self._records.get(frag.get("trace_id"))
                if record is not None:
                    record["fragments"].append(frag)

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
        ``GET /debug/requests`` payload -- fragments excluded)."""
        with self._lock:
            records = list(self._records.values())
        out = []
        for record in reversed(records):
            summary = {
                k: v for k, v in record.items() if k != "fragments"
            }
            summary["spans"] = len(record["fragments"])
            out.append(summary)
        return out

    def trace(self, trace_id: str) -> Optional[dict]:
        """One request's span tree as Chrome ``trace_event`` JSON
        (``GET /debug/trace/<id>``), or ``None`` for an unknown id.

        Every fragment is recorded in this process; ``process_name``
        metadata labels its track in Perfetto.
        """
        with self._lock:
            record = self._records.get(trace_id)
            if record is None:
                return None
            fragments = list(record["fragments"])
            route = record["route"]
            started_ns = record["started_ns"]
        base_ns = min(
            [started_ns] + [f["start_ns"] for f in fragments]
        )
        events: List[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": os.getpid(),
                "tid": 1,
                "args": {"name": "balanced-sched server"},
            }
        ]
        for frag in sorted(fragments, key=lambda f: f["start_ns"]):
            events.append(
                {
                    "name": frag["name"],
                    "cat": frag.get("cat", "service"),
                    "ph": "X",
                    "ts": (frag["start_ns"] - base_ns) / 1000,
                    "dur": frag["dur_ns"] / 1000,
                    "pid": frag["pid"],
                    "tid": frag.get("tid", 1),
                    "args": frag.get("args", {}),
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"trace_id": trace_id, "route": route},
        }


# ----------------------------------------------------------------------
# The module-global sink
# ----------------------------------------------------------------------
#: The active store, if a service installed one.  The engine forwards
#: its span fragments here; with no store every hook is a no-op, so
#: batch runs and tracing-off daemons record nothing.
_ACTIVE: Optional[RequestTraceStore] = None


def install(store: RequestTraceStore) -> RequestTraceStore:
    global _ACTIVE
    _ACTIVE = store
    return store


def uninstall(store: Optional[RequestTraceStore] = None) -> None:
    """Remove the active store (only if it is ``store``, when given --
    so shutting one service down never unhooks another's)."""
    global _ACTIVE
    if store is None or _ACTIVE is store:
        _ACTIVE = None


def active() -> Optional[RequestTraceStore]:
    return _ACTIVE


def record_fragments(fragments: Iterable[dict]) -> None:
    """Forward fragments to the active store, if any."""
    store = _ACTIVE
    if store is not None:
        store.add_fragments(fragments)
