"""Admission control and the coalescing simulation batcher.

Simulation requests are the daemon's expensive endpoint: each one is a
full traditional-vs-balanced Monte-Carlo cell.  Rather than evaluating
them one-by-one as they arrive, the batcher holds each request for a
short window (``window_s``), then flushes everything queued as ONE
call into the vectorized batch engine -- so concurrent requests for
different cells share compile work (compile-sharing groups), requests
for the *same* cell collapse into a single evaluation whose result
fans back out to every waiter, and the engine stacks the kernel calls
of a batch's cells instead of running singletons.

Admission is bounded: once ``max_queue`` requests are queued or in
flight, new submissions fail fast with :class:`AdmissionError`
(HTTP 429) instead of growing an unbounded backlog.  Each request may
carry a deadline; a request whose deadline passes while it waits is
dropped from the flush (:class:`DeadlineExceeded`, HTTP 504) without
cancelling the batch it would have joined.

With a :class:`~repro.obs.requesttrace.RequestTraceStore` attached,
each traced request's record gets the batcher's spans (its wait in the
queue, the batch it ran in) and the engine's for its cell
(``evaluate_cell <program>`` with the recorder spans below it, or
``cache_hit <program>``), built from what the engine reports as it
finishes each cell.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional, Sequence

from ..experiments.common import CellResult, CellSpec, OnItem, cell_key
from ..obs import recorder as _obs
from ..obs.metrics import MetricsRegistry
from ..obs.requesttrace import RequestTraceStore

__all__ = ["AdmissionError", "DeadlineExceeded", "SimulationBatcher"]


class AdmissionError(RuntimeError):
    """The queue is full; the daemon answers 429."""

    def __init__(self, depth: int, limit: int) -> None:
        super().__init__(
            f"simulation queue is full ({depth} queued/in-flight, "
            f"limit {limit}); retry later"
        )
        self.depth = depth
        self.limit = limit


class DeadlineExceeded(RuntimeError):
    """The request's deadline passed before its result was ready; the
    daemon answers 504."""

    def __init__(self, deadline_s: float) -> None:
        super().__init__(
            f"request deadline of {deadline_s * 1000:.0f} ms exceeded"
        )
        self.deadline_s = deadline_s


@dataclass
class _Pending:
    spec: CellSpec
    key: str
    future: "asyncio.Future[CellResult]"
    expires_at: Optional[float] = None
    coalesced: bool = field(default=False)
    #: The request's trace id, when it is traced.
    trace_id: Optional[str] = None
    #: ``perf_counter_ns`` at submit time, so traced requests can report
    #: how long they sat in the queue before their flush.
    enqueued_ns: int = 0


def _stall_cycles(metrics: Optional[MetricsRegistry]) -> float:
    """Total load-stall cycles attributed inside one child registry."""
    if metrics is None:
        return 0.0
    return sum(
        MetricsRegistry.histogram_total(hist)
        for (name, _), hist in metrics.histograms.items()
        if name == "sim.load_stall_cycles"
    )


class SimulationBatcher:
    """Coalesces concurrent simulation requests into engine batches.

    ``runner`` is an async callable taking a list of :class:`CellSpec`
    and an ``on_item`` callback (or ``None``), and returning the
    matching :class:`CellResult` list (the server wraps
    :func:`~repro.experiments.common.evaluate_cells` in the CPU
    executor).  ``trace_store``, when given, receives the spans of
    traced requests.  One flush task drains the queue; a failure of the
    runner fails every request in that flush -- later flushes start
    clean, which is what lets the daemon keep serving after a failed
    batch.
    """

    def __init__(
        self,
        runner: Callable[
            [Sequence[CellSpec], Optional[OnItem]],
            Awaitable[List[CellResult]],
        ],
        *,
        max_queue: int = 64,
        window_s: float = 0.01,
        metrics=None,
        trace_store: Optional[RequestTraceStore] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._runner = runner
        self._trace_store = trace_store
        self.max_queue = max_queue
        self.window_s = window_s
        self._metrics = metrics
        self._clock = clock
        self._queue: List[_Pending] = []
        self._inflight = 0
        self._wakeup: Optional[asyncio.Event] = None
        self._task: Optional[asyncio.Task] = None
        self._stopping = False
        # Cumulative counters, mirrored into the obs registry when one
        # is attached; kept here too so tests can read them directly.
        self.batches = 0
        self.coalesced = 0

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Requests currently queued or in flight."""
        return len(self._queue) + self._inflight

    def start(self) -> None:
        self._stopping = False
        self._wakeup = asyncio.Event()
        self._task = asyncio.get_running_loop().create_task(
            self._flush_loop(), name="sim-batcher"
        )

    async def stop(self) -> None:
        """Stop the flush loop and fail anything still pending."""
        self._stopping = True
        if self._wakeup is not None:
            self._wakeup.set()
        if self._task is not None:
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        for pending in self._queue:
            if not pending.future.done():
                pending.future.set_exception(
                    RuntimeError("service shutting down")
                )
        self._queue.clear()

    # ------------------------------------------------------------------
    async def submit(
        self,
        spec: CellSpec,
        deadline_s: Optional[float] = None,
        trace_id: Optional[str] = None,
    ) -> CellResult:
        """Queue one cell and wait for its result.

        ``trace_id`` names the request's record in the trace store.

        Raises :class:`AdmissionError` immediately when the queue is
        full, :class:`DeadlineExceeded` when ``deadline_s`` elapses
        first, and re-raises whatever the engine raised (e.g.
        ``CellEvaluationError``) for every request in a failed flush.
        """
        if self._task is None or self._stopping:
            raise RuntimeError("batcher is not running")
        if self.depth >= self.max_queue:
            if self._metrics is not None:
                self._metrics.inc("service.rejected", reason="queue_full")
            raise AdmissionError(self.depth, self.max_queue)
        loop = asyncio.get_running_loop()
        pending = _Pending(
            spec=spec,
            key=cell_key(spec),
            future=loop.create_future(),
            expires_at=(
                self._clock() + deadline_s if deadline_s is not None else None
            ),
            trace_id=trace_id,
            enqueued_ns=time.perf_counter_ns(),
        )
        if trace_id is not None and self._trace_store is not None:
            self._trace_store.note_cell(trace_id, pending.key)
        self._queue.append(pending)
        if self._metrics is not None:
            self._metrics.set_gauge("service.queue_depth", float(self.depth))
        assert self._wakeup is not None
        self._wakeup.set()
        if deadline_s is None:
            return await pending.future
        try:
            return await asyncio.wait_for(
                asyncio.shield(pending.future), timeout=deadline_s
            )
        except asyncio.TimeoutError:
            # The batch (if already running) continues -- its result
            # still lands in the cache for the client's retry.
            pending.future.cancel()
            if self._metrics is not None:
                self._metrics.inc("service.rejected", reason="deadline")
            raise DeadlineExceeded(deadline_s) from None

    # ------------------------------------------------------------------
    async def _flush_loop(self) -> None:
        assert self._wakeup is not None
        while not self._stopping:
            await self._wakeup.wait()
            self._wakeup.clear()
            if self._stopping:
                break
            if not self._queue:
                continue
            # Collection window: let concurrent submissions join this
            # flush instead of each paying a full engine round-trip.
            if self.window_s > 0:
                await asyncio.sleep(self.window_s)
            batch = [
                p
                for p in self._drain()
                if not self._expired(p) and not p.future.cancelled()
            ]
            if batch:
                await self._run_batch(batch)

    def _drain(self) -> List[_Pending]:
        drained, self._queue = self._queue, []
        return drained

    def _expired(self, pending: _Pending) -> bool:
        if (
            pending.expires_at is not None
            and self._clock() >= pending.expires_at
        ):
            # The waiter's wait_for raises DeadlineExceeded; dropping
            # the entry here just keeps the dead spec out of the batch.
            pending.future.cancel()
            return True
        return False

    async def _run_batch(self, batch: List[_Pending]) -> None:
        # Coalesce: identical cell keys evaluate once and fan out.
        by_key: Dict[str, List[_Pending]] = {}
        for pending in batch:
            by_key.setdefault(pending.key, []).append(pending)
        unique = [waiters[0].spec for waiters in by_key.values()]
        n_coalesced = len(batch) - len(unique)
        self.batches += 1
        self.coalesced += n_coalesced
        if self._metrics is not None:
            self._metrics.inc("service.batches")
            self._metrics.observe("service.batch_size", float(len(unique)))
            if n_coalesced:
                self._metrics.inc("service.coalesced", n_coalesced)
        store = self._trace_store
        traced = [
            pending for pending in batch
            if store is not None and pending.trace_id is not None
        ]
        flush_ns = time.perf_counter_ns()
        for pending in traced:
            queue_ns = max(0, flush_ns - pending.enqueued_ns)
            store.note_timing(pending.trace_id, "queue", queue_ns / 1e6)
            store.add(
                pending.trace_id, "batcher.queue",
                start_ns=pending.enqueued_ns, dur_ns=queue_ns,
            )
        self._inflight += len(batch)
        try:
            # evaluate_cells returns results in spec order, so zipping
            # against the (insertion-ordered) key groups is exact.
            results = await self._runner(
                unique, self._trace_cells(by_key) if traced else None
            )
        except BaseException as exc:  # noqa: BLE001 -- fan the failure out
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(exc)
            return
        finally:
            self._inflight -= len(batch)
            if self._metrics is not None:
                self._metrics.set_gauge(
                    "service.queue_depth", float(self.depth)
                )
            batch_ns = max(0, time.perf_counter_ns() - flush_ns)
            for pending in traced:
                store.note_timing(pending.trace_id, "batch", batch_ns / 1e6)
                store.add(
                    pending.trace_id, "batcher.run_batch",
                    start_ns=flush_ns, dur_ns=batch_ns,
                    args={
                        "batch_size": len(unique),
                        "coalesced": n_coalesced,
                    },
                )
        for waiters, result in zip(by_key.values(), results):
            for pending in waiters:
                if pending.future.done():
                    continue
                if result is None:
                    pending.future.set_exception(
                        RuntimeError(
                            f"engine returned no result for cell "
                            f"{pending.key}"
                        )
                    )
                else:
                    pending.future.set_result(result)

    def _trace_cells(self, by_key: Dict[str, List[_Pending]]) -> OnItem:
        """The engine's ``on_item`` callback for one batch: records each
        finished cell's spans under every traced request waiting on it.

        A replayed cell is one zero-length ``cache_hit <program>`` span.
        An evaluated one is ``evaluate_cell <program>`` -- its args join
        the trace to the cell's manifest record and cache entry, and
        give the load-stall cycles it attributed -- followed by the
        cell's top two levels of recorder spans (``cell`` / ``compile``
        / ``simulate_program`` / ``bootstrap`` ...).
        """
        store = self._trace_store
        assert store is not None

        def on_item(item, status, wall, metrics, spans) -> None:
            waiting = [
                pending.trace_id for pending in by_key.get(item.key, ())
                if pending.trace_id is not None
            ]
            if not waiting:
                return
            if status == "hit":
                now = time.perf_counter_ns()
                for trace_id in waiting:
                    store.add(
                        trace_id, f"cache_hit {item.program}",
                        start_ns=now, dur_ns=0, cat="engine",
                        args={"cell_key": item.key},
                    )
                return
            rec = _obs.get()
            children = []
            # Recorder spans share the store's clock unless a caller
            # installed a recorder with a clock of its own.
            if spans and rec._clock is time.perf_counter_ns:
                top = min(span.depth for span in spans) + 1
                children = [
                    (span.name, span.start_ns + rec.epoch_ns,
                     span.duration_ns, span.args_dict)
                    for span in spans if span.depth <= top
                ]
            wall_ns = int(wall * 1e9)
            start_ns = (
                min(child[1] for child in children) if children
                else time.perf_counter_ns() - wall_ns
            )
            args = {
                "cell_key": item.key,
                "program": item.program,
                "system": item.system,
                "processor": item.processor,
                "stall_cycles": _stall_cycles(metrics),
                "decision_log": (
                    "recorded"
                    if rec is not None and rec.decisions is not None
                    else "off"
                ),
            }
            for trace_id in waiting:
                store.note_timing(trace_id, "engine", wall * 1000.0)
                store.add(
                    trace_id, f"evaluate_cell {item.program}",
                    start_ns=start_ns, dur_ns=wall_ns, cat="engine",
                    args=args,
                )
                for name, child_start, dur_ns, child_args in children:
                    store.add(
                        trace_id, name, start_ns=child_start,
                        dur_ns=dur_ns, cat="engine", args=child_args,
                    )

        return on_item
