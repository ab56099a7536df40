"""Admission control and the coalescing simulation batcher.

Simulation requests are the daemon's expensive endpoint: each one is a
full traditional-vs-balanced Monte-Carlo cell.  Rather than evaluating
them one-by-one as they arrive, the batcher holds each request for a
short window (``window_s``), then flushes everything queued as ONE
call into the vectorized batch engine -- so concurrent requests for
different cells share compile work (compile-sharing groups), requests
for the *same* cell collapse into a single evaluation whose result
fans back out to every waiter, and the process pool sees large batches
instead of singletons.

Admission is bounded: once ``max_queue`` requests are queued or in
flight, new submissions fail fast with :class:`AdmissionError`
(HTTP 429) instead of growing an unbounded backlog.  Each request may
carry a deadline; a request whose deadline passes while it waits is
dropped from the flush (:class:`DeadlineExceeded`, HTTP 504) without
cancelling the batch it would have joined.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field, replace
from typing import Awaitable, Callable, Dict, List, Optional, Sequence

from ..experiments.common import CellResult, CellSpec, cell_key
from ..obs import requesttrace as _reqtrace

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
    #: Epoch nanoseconds at submit time, so traced requests can report
    #: how long they sat in the queue before their flush.
    enqueued_ns: int = 0


class SimulationBatcher:
    """Coalesces concurrent simulation requests into engine batches.

    ``runner`` is an async callable taking a list of :class:`CellSpec`
    and returning the matching :class:`CellResult` list (the server
    wraps :func:`~repro.experiments.common.evaluate_cells` in the CPU
    executor).  One flush task drains the queue; a failure of the
    runner fails every request in that flush -- later flushes start
    clean, which is what lets the daemon keep serving after a pool
    breakage.
    """

    def __init__(
        self,
        runner: Callable[[Sequence[CellSpec]], Awaitable[List[CellResult]]],
        *,
        max_queue: int = 64,
        window_s: float = 0.01,
        metrics=None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._runner = runner
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
        self, spec: CellSpec, deadline_s: Optional[float] = None
    ) -> CellResult:
        """Queue one cell and wait for its result.

        Raises :class:`AdmissionError` immediately when the queue is
        full, :class:`DeadlineExceeded` when ``deadline_s`` elapses
        first, and re-raises whatever the engine raised (e.g.
        ``PoolBrokenError``) for every request in a failed flush.
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
            enqueued_ns=time.time_ns(),
        )
        if spec.trace_ids:
            store = _reqtrace.active()
            if store is not None:
                for trace_id in spec.trace_ids:
                    store.note_cell(trace_id, pending.key)
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

    @staticmethod
    def _merged_spec(waiters: List[_Pending]) -> CellSpec:
        """The one spec a coalesced group evaluates, carrying the union
        of the waiters' trace ids so every traced request in the group
        still gets its worker span fragments."""
        spec = waiters[0].spec
        traced = tuple(
            dict.fromkeys(
                trace_id
                for pending in waiters
                for trace_id in pending.spec.trace_ids
            )
        )
        if traced != spec.trace_ids:
            spec = replace(spec, trace_ids=traced)
        return spec

    async def _run_batch(self, batch: List[_Pending]) -> None:
        # Coalesce: identical cell keys evaluate once and fan out.
        by_key: Dict[str, List[_Pending]] = {}
        for pending in batch:
            by_key.setdefault(pending.key, []).append(pending)
        unique = [self._merged_spec(waiters) for waiters in by_key.values()]
        n_coalesced = len(batch) - len(unique)
        self.batches += 1
        self.coalesced += n_coalesced
        if self._metrics is not None:
            self._metrics.inc("service.batches")
            self._metrics.observe("service.batch_size", float(len(unique)))
            if n_coalesced:
                self._metrics.inc("service.coalesced", n_coalesced)
        store = _reqtrace.active()
        flush_ns = time.time_ns() if store is not None else 0
        if store is not None:
            fragments = []
            for pending in batch:
                if not pending.spec.trace_ids:
                    continue
                queue_ns = max(0, flush_ns - pending.enqueued_ns)
                for trace_id in pending.spec.trace_ids:
                    store.note_timing(trace_id, "queue", queue_ns / 1e6)
                    fragments.append(
                        _reqtrace.fragment(
                            trace_id,
                            "batcher.queue",
                            start_ns=pending.enqueued_ns,
                            dur_ns=queue_ns,
                        )
                    )
            store.add_fragments(fragments)
        self._inflight += len(batch)
        try:
            # evaluate_cells returns results in spec order, so zipping
            # against the (insertion-ordered) key groups is exact.
            results = await self._runner(unique)
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
            if store is not None:
                batch_ns = max(0, time.time_ns() - flush_ns)
                fragments = []
                for pending in batch:
                    for trace_id in pending.spec.trace_ids:
                        store.note_timing(trace_id, "batch", batch_ns / 1e6)
                        fragments.append(
                            _reqtrace.fragment(
                                trace_id,
                                "batcher.run_batch",
                                start_ns=flush_ns,
                                dur_ns=batch_ns,
                                args={
                                    "batch_size": len(unique),
                                    "coalesced": n_coalesced,
                                },
                            )
                        )
                store.add_fragments(fragments)
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
