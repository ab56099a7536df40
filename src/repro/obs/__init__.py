"""``repro.obs``: zero-dependency observability for the whole pipeline.

Three streams behind one module-level switch (off by default, and a
pure no-op guard when off):

* hierarchical **spans** (:func:`span`, exported as Chrome
  ``trace_event`` JSON or a plain-text phase summary);
* a **metrics** registry (counters / gauges / exact histograms, e.g.
  per-load stall-cycle attribution that reconciles with simulator
  cycle counts);
* a scheduler **decision log** (per-step candidate sets and win
  reasons, diffable between weighting policies).

Typical use::

    from repro import obs

    with obs.recording() as rec:
        ...  # run the pipeline
        print(obs.phase_summary(rec))
        obs.write_chrome_trace("trace.json", rec)
        obs.write_metrics("metrics.json", rec.metrics)

See ``docs/observability.md`` for the span names, metric names and
file formats.
"""

from .decisions import Candidate, Decision, DecisionLog
from .export import (
    chrome_trace,
    metrics_json,
    phase_summary,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics,
)
from .metrics import (
    MetricsRegistry,
    render_series,
    series_labels,
    summarize_delta,
)
from .recorder import (
    NULL_SPAN,
    Recorder,
    SpanEvent,
    disable,
    enable,
    enabled,
    get,
    recording,
    span,
)

__all__ = [
    "Candidate",
    "Decision",
    "DecisionLog",
    "MetricsRegistry",
    "NULL_SPAN",
    "Recorder",
    "SpanEvent",
    "chrome_trace",
    "disable",
    "enable",
    "enabled",
    "get",
    "metrics_json",
    "phase_summary",
    "recording",
    "render_series",
    "series_labels",
    "span",
    "summarize_delta",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_metrics",
]
