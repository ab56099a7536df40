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
  (:class:`~repro.service.server.SchedulingService`) plus
  :class:`~repro.service.server.ServiceThread` for embedding it in
  tests and benchmarks;
* :mod:`~repro.service.client` -- a small stdlib-only client.
"""

# benchmarks/e2e/client.py imports these four names from the package,
# so they stay here; everything else is imported from its own module.
from .client import ServiceClient
from .schema import cell_payload, parse_request, to_cell_spec

__all__ = ["ServiceClient", "cell_payload", "parse_request", "to_cell_spec"]
