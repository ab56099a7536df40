"""The asyncio HTTP daemon behind ``balanced-sched serve``.

One process, three layers:

* an asyncio HTTP/1.1 front end (hand-rolled over
  ``asyncio.start_server`` -- stdlib only, keep-alive, bounded bodies);
* a single-thread CPU executor through which every compile / schedule
  / explain render and every engine batch runs, serialising access to
  the process-wide :class:`~repro.experiments.common.CompilationCache`
  and the obs registry;
* the :class:`~repro.service.batcher.SimulationBatcher`, which
  coalesces concurrent ``/simulate`` requests into single
  :func:`~repro.experiments.common.evaluate_cells` calls, run on the
  CPU executor like every other engine call.

A batch that fails fails only its own requests; the next batch starts
clean.  Cells finished before a failure were checkpointed to the
result cache, so a client retry replays them for free.

Every request is traced (unless ``--no-tracing``): the daemon accepts
or generates a W3C-style ``traceparent``, threads the trace context
through the batcher into the engine, and reassembles the span
fragments in a bounded
:class:`~repro.obs.requesttrace.RequestTraceStore`.  Tracing only adds
a response header, debug routes and log lines -- response *bodies* are
byte-identical with tracing on, off, or absent (the CLI).

Routes: ``GET /healthz``, ``GET /metrics`` (Prometheus text format,
with trace-id exemplars on ``service.request_ms`` buckets),
``GET /debug/requests`` (the recent-requests ring), ``GET
/debug/trace/<id>`` (one request as Perfetto-loadable Chrome-trace
JSON), ``POST /compile | /schedule | /simulate | /explain`` (JSON
bodies; see docs/service.md).  Access lines are JSON objects on the
``repro.service.access`` logger.
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple

from ..experiments.common import CellResult, CellSpec, evaluate_cells
from ..obs import recorder as _obs
from ..obs import requesttrace as _reqtrace
from ..obs.export import prometheus_text
from ..obs.requesttrace import RequestTraceStore, TraceContext
from .batcher import AdmissionError, DeadlineExceeded, SimulationBatcher
from .schema import (
    RequestError,
    cell_payload,
    load_request_program,
    parse_request,
    to_cell_spec,
)

logger = logging.getLogger("repro.service.server")

#: One JSON object per served request (method, path, status, ms, and
#: the trace id when tracing is on) -- structured enough to grep, quiet
#: by default (enable with ``logging.getLogger("repro.service.access")
#: .setLevel(logging.INFO)`` or the CLI's usual logging config).
access_log = logging.getLogger("repro.service.access")

#: Largest request body the daemon will read.
MAX_BODY_BYTES = 8 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    504: "Gateway Timeout",
}


class SchedulingService:
    """The daemon's state: caches, batcher, executor, HTTP server.

    Construct, ``await startup()``, ``await listen(host, port)``, and
    eventually ``await shutdown()`` -- or use :meth:`run` (the CLI) /
    :class:`ServiceThread` (tests, benchmarks), which do all four.
    """

    def __init__(
        self,
        *,
        cache=None,
        manifest=None,
        resume: bool = True,
        max_queue: int = 64,
        deadline_s: Optional[float] = 30.0,
        batch_window_s: float = 0.01,
        trace_requests: bool = True,
        trace_capacity: int = 256,
    ) -> None:
        self.cache = cache
        self.manifest = manifest
        self.resume = resume
        self.max_queue = max_queue
        self.deadline_s = deadline_s
        self.batch_window_s = batch_window_s
        self.trace_requests = trace_requests
        self.trace_capacity = trace_capacity
        self._executor: Optional[ThreadPoolExecutor] = None
        self._batcher: Optional[SimulationBatcher] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._owns_recorder = False
        self._started_at = 0.0
        self._metrics = None
        self._trace_store: Optional[RequestTraceStore] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def startup(self) -> None:
        rec = _obs.get()
        if rec is None:
            rec = _obs.enable()
            self._owns_recorder = True
        self._metrics = rec.metrics
        self._started_at = time.monotonic()
        if self.trace_requests:
            # Installed as the module-global sink so the engine (and
            # the batcher) can forward span fragments without a handle
            # threaded through evaluate_cells.
            self._trace_store = _reqtrace.install(
                RequestTraceStore(capacity=self.trace_capacity)
            )
        if self.manifest is not None:
            self.manifest.start_run("serve", max_queue=self.max_queue)
        # One CPU thread: renders, engine batches and /metrics scrapes
        # all serialise here, so the compilation cache and the metrics
        # registry are never mutated from two threads at once.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="svc-cpu"
        )
        self._batcher = SimulationBatcher(
            self._evaluate_async,
            max_queue=self.max_queue,
            window_s=self.batch_window_s,
            metrics=self._metrics,
        )
        self._batcher.start()

    async def listen(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> asyncio.AbstractServer:
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        return self._server

    @property
    def port(self) -> int:
        assert self._server is not None and self._server.sockets
        return self._server.sockets[0].getsockname()[1]

    async def shutdown(self, status: str = "ok") -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._batcher is not None:
            await self._batcher.stop()
            self._batcher = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self.manifest is not None:
            self.manifest.end_run(
                wall_s=time.monotonic() - self._started_at, status=status
            )
        if self._trace_store is not None:
            _reqtrace.uninstall(self._trace_store)
            self._trace_store = None
        if self._owns_recorder:
            _obs.disable()
            self._owns_recorder = False

    def run(self, host: str = "127.0.0.1", port: int = 8321) -> int:
        """Serve until SIGINT/SIGTERM; the CLI entry point."""
        return asyncio.run(self._serve_until_signal(host, port))

    async def _serve_until_signal(self, host: str, port: int) -> int:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        installed: List[signal.Signals] = []
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
                installed.append(sig)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await self.startup()
        try:
            await self.listen(host, port)
            print(
                f"serving on http://{host}:{self.port}",
                file=sys.stderr,
                flush=True,
            )
            await stop.wait()
            print("shutting down", file=sys.stderr, flush=True)
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
            await self.shutdown()
        return 0

    # ------------------------------------------------------------------
    # Engine plumbing
    # ------------------------------------------------------------------
    async def _cpu(self, fn: Callable, deadline_s: Optional[float]):
        """Run ``fn`` on the CPU executor, bounded by the deadline.

        The computation itself is not cancellable (it is a thread), so
        a timeout abandons the wait -- the result still lands in the
        compilation/result caches for the client's retry.
        """
        loop = asyncio.get_running_loop()
        assert self._executor is not None
        future = loop.run_in_executor(self._executor, fn)
        if deadline_s is None:
            return await future
        try:
            return await asyncio.wait_for(asyncio.shield(future), deadline_s)
        except asyncio.TimeoutError:
            raise DeadlineExceeded(deadline_s) from None

    async def _evaluate_async(
        self, specs: Sequence[CellSpec]
    ) -> List[CellResult]:
        loop = asyncio.get_running_loop()
        assert self._executor is not None
        return await loop.run_in_executor(
            self._executor, self._evaluate_batch_sync, list(specs)
        )

    def _evaluate_batch_sync(
        self, specs: List[CellSpec]
    ) -> List[CellResult]:
        return evaluate_cells(
            specs,
            cache=self.cache,
            manifest=self.manifest,
            resume=self.resume,
        )

    # ------------------------------------------------------------------
    # HTTP front end
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request_line = await reader.readline()
                if not request_line:
                    break
                parts = request_line.decode("latin-1").split()
                if len(parts) != 3:
                    await self._respond(
                        writer, 400, {"error": "malformed request line"},
                        close=True,
                    )
                    break
                method, path, _version = parts
                headers = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                try:
                    length = int(headers.get("content-length", "0") or "0")
                except ValueError:
                    length = -1
                if length < 0 or length > MAX_BODY_BYTES:
                    await self._respond(
                        writer, 413,
                        {"error": f"body too large (max {MAX_BODY_BYTES})"},
                        close=True,
                    )
                    break
                body = await reader.readexactly(length) if length else b""
                close = headers.get("connection", "").lower() == "close"
                started = time.monotonic()
                status, content_type, payload, extra = await self._dispatch(
                    method, path, body, headers
                )
                await self._respond(
                    writer, status, payload,
                    content_type=content_type, close=close,
                    extra_headers=extra,
                )
                if access_log.isEnabledFor(logging.INFO):
                    entry = {
                        "method": method,
                        "path": path,
                        "status": status,
                        "ms": round((time.monotonic() - started) * 1000, 3),
                    }
                    if extra and "traceparent" in extra:
                        entry["trace_id"] = extra["traceparent"].split("-")[1]
                    access_log.info(json.dumps(entry, sort_keys=True))
                if close:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload,
        content_type: str = "application/json",
        close: bool = False,
        extra_headers: Optional[dict] = None,
    ) -> None:
        if isinstance(payload, bytes):
            body = payload
        else:
            body = (
                json.dumps(payload, sort_keys=True) + "\n"
            ).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        extra = "".join(
            f"{name}: {value}\r\n"
            for name, value in (extra_headers or {}).items()
        )
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            f"{extra}"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    async def _dispatch(
        self, method: str, path: str, body: bytes, headers: dict
    ) -> Tuple[int, str, object, Optional[dict]]:
        if path == "/healthz":
            if method != "GET":
                return 405, "application/json", {"error": "use GET"}, None
            return 200, "application/json", {"status": "ok"}, None
        if path == "/metrics":
            if method != "GET":
                return 405, "application/json", {"error": "use GET"}, None
            status, payload = await self._timed("metrics", self._metrics_text)
            ctype = (
                "text/plain; version=0.0.4"
                if status == 200
                else "application/json"
            )
            return status, ctype, payload, None
        if path == "/debug/requests" or path.startswith("/debug/trace/"):
            if method != "GET":
                return 405, "application/json", {"error": "use GET"}, None
            return (*self._debug(path), None)
        kind = path.lstrip("/")
        if kind not in ("compile", "schedule", "simulate", "explain"):
            return 404, "application/json", {"error": f"no route {path!r}"}, None
        if method != "POST":
            return 405, "application/json", {"error": "use POST"}, None
        ctx: Optional[TraceContext] = None
        if self._trace_store is not None:
            ctx = (
                _reqtrace.parse_traceparent(headers.get("traceparent"))
                or _reqtrace.new_context()
            )
            self._trace_store.begin(ctx, kind)
        status, payload = await self._timed(
            kind, lambda: self._handle_request(kind, body, ctx), ctx=ctx
        )
        extra = {"traceparent": ctx.traceparent()} if ctx is not None else None
        return status, "application/json", payload, extra

    def _debug(self, path: str) -> Tuple[int, str, object]:
        """The live-introspection routes (tracing must be on)."""
        store = self._trace_store
        if store is None:
            return 404, "application/json", {
                "error": "request tracing is disabled (--no-tracing)"
            }
        if path == "/debug/requests":
            return 200, "application/json", {"requests": store.recent()}
        trace_id = path[len("/debug/trace/"):]
        trace = store.trace(trace_id)
        if trace is None:
            return 404, "application/json", {
                "error": f"no buffered trace {trace_id!r}"
            }
        return 200, "application/json", trace

    async def _timed(
        self, kind: str, handler, ctx: Optional[TraceContext] = None
    ) -> Tuple[int, object]:
        """Run one request handler; map exceptions to statuses and
        record the obs + manifest + trace accounting every path shares."""
        start = time.monotonic()
        start_wall_ns = time.time_ns()
        try:
            payload = await handler()
            status = 200
        except RequestError as exc:
            status, payload = 400, {"error": str(exc)}
        except KeyError as exc:
            status, payload = 404, {"error": str(exc.args[0])}
        except AdmissionError as exc:
            status, payload = 429, {"error": str(exc)}
        except DeadlineExceeded as exc:
            status, payload = 504, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 -- the 500 boundary
            logger.exception("unhandled error serving %s", kind)
            status = 500
            payload = {"error": f"{type(exc).__name__}: {exc}"}
        wall = time.monotonic() - start
        if self._metrics is not None:
            self._metrics.inc(
                "service.requests", endpoint=kind, status=str(status)
            )
            self._metrics.observe(
                "service.request_ms",
                round(wall * 1000.0, 3),
                exemplar=(
                    {"trace_id": ctx.trace_id} if ctx is not None else None
                ),
                endpoint=kind,
            )
        if self.manifest is not None and kind != "metrics":
            extra = {"trace_id": ctx.trace_id} if ctx is not None else {}
            self.manifest.record_request(
                kind=kind, status=status, wall_s=wall, **extra
            )
        if ctx is not None and self._trace_store is not None:
            # The request's root span, under the serving process's pid.
            self._trace_store.add_fragments(
                [
                    _reqtrace.fragment(
                        ctx.trace_id,
                        f"request /{kind}",
                        start_ns=start_wall_ns,
                        dur_ns=int(wall * 1e9),
                        args={
                            "status": status,
                            "parent_id": ctx.parent_id or "",
                        },
                    )
                ]
            )
            self._trace_store.finish(ctx.trace_id, status, wall * 1000.0)
        return status, payload

    async def _metrics_text(self) -> bytes:
        # Rendered on the CPU thread so the registry is not mutated by
        # an engine batch mid-iteration.
        assert self._metrics is not None
        text = await self._cpu(
            lambda: prometheus_text(self._metrics), self.deadline_s
        )
        return text.encode("utf-8")

    async def _handle_request(
        self, kind: str, body: bytes, ctx: Optional[TraceContext] = None
    ):
        try:
            raw = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RequestError(f"body is not valid JSON: {exc}") from exc
        request = parse_request(kind, raw)
        deadline = (
            request.deadline_s
            if request.deadline_s is not None
            else self.deadline_s
        )

        def note_render(started: float) -> None:
            if ctx is not None and self._trace_store is not None:
                self._trace_store.note_timing(
                    ctx.trace_id,
                    "render",
                    (time.monotonic() - started) * 1000.0,
                )

        if kind == "simulate":
            assert self._batcher is not None
            result = await self._batcher.submit(
                to_cell_spec(
                    request,
                    trace_id=ctx.trace_id if ctx is not None else None,
                ),
                deadline,
            )
            render_start = time.monotonic()
            payload = cell_payload(result)
            note_render(render_start)
            return payload
        if kind == "compile":
            def work():
                program = load_request_program(
                    request.source, request.program
                )
                from ..experiments.runner import render_compile

                return render_compile(program, latency=request.latency)
        elif kind == "schedule":
            def work():
                program = load_request_program(
                    request.source, request.program
                )
                from ..experiments.runner import render_schedule

                return render_schedule(
                    program,
                    policy_name=request.policy,
                    latency=request.latency,
                    jobs=1,
                    verbose=request.verbose,
                )
        else:  # explain
            def work():
                program = load_request_program(
                    request.source, request.program
                )
                from ..experiments.runner import render_explain

                return render_explain(
                    program,
                    block=request.block,
                    latency=request.latency,
                    context=request.context,
                    full=request.full,
                )
        render_start = time.monotonic()
        output = await self._cpu(work, deadline)
        note_render(render_start)
        return {"output": output}


class ServiceThread:
    """Run a :class:`SchedulingService` in a daemon thread on an
    ephemeral port -- the embedding used by tests, the benchmark and
    ``tools/check_service.py``'s in-process mode.

    ::

        with ServiceThread(SchedulingService()) as svc:
            client = ServiceClient(port=svc.port)
    """

    def __init__(
        self, service: SchedulingService, host: str = "127.0.0.1"
    ) -> None:
        self.service = service
        self.host = host
        self.port: Optional[int] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._error: Optional[BaseException] = None

    def __enter__(self) -> "ServiceThread":
        self._thread = threading.Thread(
            target=self._main, name="scheduling-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("service thread failed to start in 30s")
        if self._error is not None:
            raise RuntimeError("service thread died on startup") from self._error
        return self

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30)

    def _main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # pragma: no cover - surfaced in enter
            self._error = exc
            self._ready.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self.service.startup()
        try:
            await self.service.listen(self.host, 0)
            self.port = self.service.port
            self._ready.set()
            await self._stop.wait()
        finally:
            await self.service.shutdown()
