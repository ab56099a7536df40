"""The span recorder and the module-global observability switch.

Disabled is the default and costs (almost) nothing: the whole pipeline
talks to observability through :func:`span`, :func:`get` and
:func:`enabled`, and with no recorder installed those return a shared
no-op span / ``None`` -- one global read plus one ``is None`` test per
call site, hoisted out of every hot loop.  No state is allocated, no
clock is read.  The scale benchmarks (``BENCH_scale.json``) are
recorded with observability off and must stay noise-identical; the
``BENCH_obs.json`` benchmark watches exactly this property.

Enabled (``balanced-sched run --obs``, ``profile``, ``explain``, or
:func:`recording` in tests), a :class:`Recorder` collects three
streams:

* **spans** -- hierarchical wall-clock phases (``frontend``,
  ``dependence``, ``weights``, ``schedule``, ``regalloc``,
  ``simulate`` ... per block), exportable as Chrome ``trace_event``
  JSON and as a plain-text phase summary (:mod:`repro.obs.export`);
* **metrics** -- a :class:`~repro.obs.metrics.MetricsRegistry`;
* **decisions** -- a :class:`~repro.obs.decisions.DecisionLog` of
  per-step scheduler choices (off unless requested: it is by far the
  most voluminous stream).

Span *arguments* double as ambient labels: :meth:`Recorder.context`
merges the args of every active span, so a deeply nested call site
(say, the per-block simulator) can label its metrics with the
program/policy/system of the enclosing experiment cell without any of
those being threaded through the call chain.

Everything a recorder collects is deterministic for a fixed seed
except the clock readings, so two traces of the same run diff cleanly
modulo ``ts``/``dur`` (the golden tests pin the clock to prove it).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .decisions import DecisionLog
from .metrics import MetricsRegistry


@dataclass(frozen=True)
class SpanEvent:
    """One closed span."""

    name: str
    #: Names from the root span down to (and including) this one.
    path: Tuple[str, ...]
    args: Tuple[Tuple[str, object], ...]
    start_ns: int
    duration_ns: int
    depth: int
    #: Order the span *opened* in (stable tie order for exports).
    index: int

    @property
    def args_dict(self) -> Dict[str, object]:
        return dict(self.args)


class _NullSpan:
    """The disabled-mode span: a reusable, stateless no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _Span:
    """A live span; records itself on exit."""

    __slots__ = ("_recorder", "name", "args", "_start", "_index", "_depth")

    def __init__(self, recorder: "Recorder", name: str, args: dict):
        self._recorder = recorder
        self.name = name
        self.args = args

    def __enter__(self) -> "_Span":
        rec = self._recorder
        self._index = rec._next_index
        rec._next_index += 1
        self._depth = len(rec._stack)
        rec._stack.append(self)
        self._start = rec._clock()
        return self

    def __exit__(self, *exc_info) -> bool:
        rec = self._recorder
        end = rec._clock()
        rec._stack.pop()
        rec.spans.append(
            SpanEvent(
                name=self.name,
                path=tuple(s.name for s in rec._stack) + (self.name,),
                args=tuple(sorted(self.args.items())),
                start_ns=self._start - rec.epoch_ns,
                duration_ns=end - self._start,
                depth=self._depth,
                index=self._index,
            )
        )
        return False


class Recorder:
    """One observability session: spans + metrics + decisions.

    ``clock`` is injectable (nanosecond counter) so exports can be made
    byte-deterministic in tests; the default is
    :func:`time.perf_counter_ns`.
    """

    def __init__(
        self,
        decisions: bool = False,
        clock: Callable[[], int] = time.perf_counter_ns,
    ) -> None:
        self._clock = clock
        self.epoch_ns = clock()
        self.spans: List[SpanEvent] = []
        self.metrics = MetricsRegistry()
        self.decisions: Optional[DecisionLog] = (
            DecisionLog() if decisions else None
        )
        self._stack: List[_Span] = []
        self._next_index = 0

    # ------------------------------------------------------------------
    def span(self, name: str, **args) -> _Span:
        """Open a hierarchical span (use as a context manager)."""
        return _Span(self, name, args)

    def context(self) -> Dict[str, object]:
        """Merged args of every active span (innermost wins)."""
        merged: Dict[str, object] = {}
        for span in self._stack:
            merged.update(span.args)
        return merged


# ----------------------------------------------------------------------
# The module-global switch
# ----------------------------------------------------------------------
_RECORDER: Optional[Recorder] = None


def get() -> Optional[Recorder]:
    """The active recorder, or ``None`` when observability is off.

    Hot loops fetch this once per call and branch on ``is None``; the
    disabled path never allocates or reads a clock.
    """
    return _RECORDER


def enabled() -> bool:
    return _RECORDER is not None


def enable(
    decisions: bool = False,
    clock: Callable[[], int] = time.perf_counter_ns,
) -> Recorder:
    """Install (and return) a fresh global recorder."""
    global _RECORDER
    _RECORDER = Recorder(decisions=decisions, clock=clock)
    return _RECORDER


def disable() -> None:
    """Remove the global recorder (observability back to no-op)."""
    global _RECORDER
    _RECORDER = None


@contextmanager
def recording(
    decisions: bool = False,
    clock: Callable[[], int] = time.perf_counter_ns,
) -> Iterator[Recorder]:
    """Scoped enable/disable; restores whatever was installed before."""
    global _RECORDER
    previous = _RECORDER
    _RECORDER = Recorder(decisions=decisions, clock=clock)
    try:
        yield _RECORDER
    finally:
        _RECORDER = previous


def span(name: str, **args):
    """A span on the active recorder, or the shared no-op when off."""
    rec = _RECORDER
    if rec is None:
        return NULL_SPAN
    return rec.span(name, **args)
