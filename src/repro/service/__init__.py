"""Scheduling-as-a-service: the long-lived daemon behind
``balanced-sched serve``.

The batch CLI regenerates whole tables; this package serves the same
pipeline as an online system -- compile / schedule / simulate /
explain requests arriving continuously over HTTP, sharing one
process-wide :class:`~repro.experiments.common.CompilationCache` and
one on-disk result cache, coalescing compatible simulation requests
into single calls to the vectorized batch kernels.  Responses are
byte-identical to the batch CLI for identical specs; see
docs/service.md.

Layout:

* :mod:`~repro.service.schema` -- request parsing/validation and the
  canonical response payloads;
* :mod:`~repro.service.batcher` -- the admission queue (bounded depth,
  per-request deadlines) and the coalescing simulation batcher;
* :mod:`~repro.service.server` -- the asyncio HTTP daemon
  (:class:`SchedulingService`) plus :class:`ServiceThread` for
  embedding it in tests and benchmarks;
* :mod:`~repro.service.client` -- a small stdlib-only client.
"""

from ..obs.requesttrace import (
    RequestTraceStore,
    TraceContext,
    parse_traceparent,
)
from .batcher import AdmissionError, DeadlineExceeded, SimulationBatcher
from .client import ServiceClient, ServiceError
from .schema import (
    RequestError,
    cell_payload,
    parse_request,
    to_cell_spec,
)
from .server import SchedulingService, ServiceThread

__all__ = [
    "AdmissionError",
    "DeadlineExceeded",
    "RequestError",
    "RequestTraceStore",
    "SchedulingService",
    "ServiceClient",
    "ServiceError",
    "ServiceThread",
    "SimulationBatcher",
    "TraceContext",
    "cell_payload",
    "parse_request",
    "parse_traceparent",
    "to_cell_spec",
]
