"""``repro.obs``: zero-dependency observability for the whole pipeline.

Three streams behind one module-level switch (off by default, and a
pure no-op guard when off):

* hierarchical **spans** (:func:`~repro.obs.recorder.span`, exported as Chrome
  ``trace_event`` JSON or a plain-text phase summary);
* a **metrics** registry (counters / gauges / exact histograms, e.g.
  per-load stall-cycle attribution that reconciles with simulator
  cycle counts);
* a scheduler **decision log** (per-step candidate sets and win
  reasons, diffable between weighting policies).

See ``docs/observability.md`` for the span names, metric names and
file formats.
"""
