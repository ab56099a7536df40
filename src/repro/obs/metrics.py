"""The metrics registry: counters, gauges and exact histograms.

Metrics are identified by a base name plus optional labels; the pair
is flattened into a single Prometheus-style series key with sorted
label order (``sim.load_stall_cycles{block=vdiff,load=3}``), so a
registry is a plain dict and every export is deterministic.

Three instrument kinds:

* **counters** -- monotonically accumulated numbers (cycle totals,
  spill counts);
* **gauges** -- last-write-wins values (configuration echoes, sizes);
* **histograms** -- *exact* value -> occurrence-count maps rather than
  bucketed approximations.  Stall attributions and latency draws are
  small integers, so exact histograms stay compact while letting the
  totals reconcile to the cycle counters without rounding -- the
  property the observability acceptance tests rely on.

Each unit of experiment work records into a child registry of its own,
swapped onto the recorder for the duration of the item.  The child is
folded into the parent's registry with :meth:`MetricsRegistry.merge`,
and summarised onto the item's run-manifest record with
:func:`summarize_delta` (see ``repro.experiments.common``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

Number = Union[int, float]

#: A histogram is an exact value -> count map.
Histogram = Dict[Number, int]


def _escape(text: str) -> str:
    """Backslash-escape the key syntax characters inside a label part."""
    return (
        text.replace("\\", "\\\\").replace(",", "\\,").replace("=", "\\=")
    )


def series_key(name: str, labels: Dict[str, object]) -> str:
    """Flatten ``name`` + ``labels`` into one deterministic series key.

    Label names and values are backslash-escaped, so values containing
    the syntax characters (e.g. the system label ``N(30,5) @ 30``)
    round-trip exactly through :func:`split_series_key`.
    """
    if not labels:
        return name
    inner = ",".join(
        f"{_escape(str(k))}={_escape(str(labels[k]))}" for k in sorted(labels)
    )
    return f"{name}{{{inner}}}"


def split_series_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Inverse of :func:`series_key` (labels come back as strings)."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key.partition("{")
    labels: Dict[str, str] = {}
    buf: List[str] = []
    label: Optional[str] = None
    escaped = False

    def flush() -> None:
        nonlocal label, buf
        if label is not None:
            labels[label] = "".join(buf)
        elif buf:
            labels["".join(buf)] = ""
        label, buf = None, []

    for ch in inner[:-1]:
        if escaped:
            buf.append(ch)
            escaped = False
        elif ch == "\\":
            escaped = True
        elif ch == "=" and label is None:
            label = "".join(buf)
            buf = []
        elif ch == ",":
            flush()
        else:
            buf.append(ch)
    flush()
    return name, labels


class MetricsRegistry:
    """Counters, gauges and exact histograms keyed by flattened series."""

    __slots__ = ("counters", "gauges", "histograms", "exemplars")

    def __init__(self) -> None:
        self.counters: Dict[str, Number] = {}
        self.gauges: Dict[str, Number] = {}
        self.histograms: Dict[str, Histogram] = {}
        #: Last exemplar per histogram series: ``{"value": observed,
        #: "labels": {...}}`` -- e.g. a trace id attached to a latency
        #: observation, rendered onto the matching ``_bucket`` line of
        #: the Prometheus exposition (OpenMetrics exemplar syntax).
        self.exemplars: Dict[str, dict] = {}

    def __len__(self) -> int:
        return len(self.counters) + len(self.gauges) + len(self.histograms)

    # ------------------------------------------------------------------
    # Instruments
    # ------------------------------------------------------------------
    def inc(self, name: str, value: Number = 1, **labels) -> None:
        key = series_key(name, labels)
        self.counters[key] = self.counters.get(key, 0) + value

    def set_gauge(self, name: str, value: Number, **labels) -> None:
        self.gauges[series_key(name, labels)] = value

    def observe(
        self,
        name: str,
        value: Number,
        *,
        exemplar: Optional[Dict[str, str]] = None,
        **labels,
    ) -> None:
        key = series_key(name, labels)
        hist = self.histograms.setdefault(key, {})
        hist[value] = hist.get(value, 0) + 1
        if exemplar:
            # Last write wins: one representative (value, labels) pair
            # per series, e.g. {"trace_id": ...} for /metrics exemplars.
            self.exemplars[key] = {"value": value, "labels": dict(exemplar)}

    def observe_many(
        self, name: str, values: Iterable[Number], **labels
    ) -> None:
        hist = self.histograms.setdefault(series_key(name, labels), {})
        for value in values:
            hist[value] = hist.get(value, 0) + 1

    def observe_counts(
        self,
        name: str,
        values: Iterable[Number],
        counts: Iterable[int],
        **labels,
    ) -> None:
        """Observe ``values[i]`` ``counts[i]`` times each: the same
        histogram as that many :meth:`observe` calls, for data that is
        counted already (e.g. by ``numpy.unique``)."""
        hist = self.histograms.setdefault(series_key(name, labels), {})
        for value, count in zip(values, counts):
            if count:
                hist[value] = hist.get(value, 0) + count

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @staticmethod
    def histogram_total(hist: Histogram) -> Number:
        """Sum of all observed values (value * count)."""
        return sum(value * count for value, count in hist.items())

    @staticmethod
    def histogram_count(hist: Histogram) -> int:
        return sum(hist.values())

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry (e.g. a work item's child registry)
        into this one: counters and histogram bins add, gauges and
        exemplars overwrite."""
        for key, value in other.counters.items():
            self.counters[key] = self.counters.get(key, 0) + value
        self.gauges.update(other.gauges)
        for key, hist in other.histograms.items():
            mine = self.histograms.setdefault(key, {})
            for value, count in hist.items():
                mine[value] = mine.get(value, 0) + count
        self.exemplars.update(other.exemplars)

    # ------------------------------------------------------------------
    def series(self, name: str) -> List[Tuple[str, Dict[str, str]]]:
        """Every recorded series of one base name, with parsed labels."""
        out: List[Tuple[str, Dict[str, str]]] = []
        for store in (self.counters, self.gauges, self.histograms):
            for key in store:
                base, labels = split_series_key(key)
                if base == name:
                    out.append((key, labels))
        return sorted(out)


def counter_total(counters: dict, base: str) -> float:
    """Sum one counter across all of its label series.

    ``counters`` is the ``"counters"`` mapping of an exported metrics
    JSON (or ``MetricsRegistry.counters``); ``base`` is the unlabelled
    series name, e.g. ``"verify.violations"``.  Used by the CI gates
    (``tools/check_obs.py`` / ``tools/check_verify.py``).
    """
    return sum(
        value
        for key, value in counters.items()
        if split_series_key(key)[0] == base
    )


def summarize_delta(delta: MetricsRegistry) -> dict:
    """Compress what one work item recorded into a compact summary.

    ``delta`` is the item's child registry.  Counters are summed by
    base name (labels stripped); histograms collapse to ``{count,
    total}``.  Zero counters and empty histograms are left out: a
    child keeps ``inc(..., 0)`` series, but the summary lists only
    what the item actually changed.  The result is a dozen-key dict
    small enough to ride on a run-manifest ``cell`` record.
    """
    counters: Dict[str, Number] = {}
    for key, value in delta.counters.items():
        if not value:
            continue
        base, _ = split_series_key(key)
        counters[base] = counters.get(base, 0) + value
    histograms: Dict[str, Dict[str, Number]] = {}
    for key, hist in delta.histograms.items():
        if not hist:
            continue
        base, _ = split_series_key(key)
        entry = histograms.setdefault(base, {"count": 0, "total": 0})
        entry["count"] += MetricsRegistry.histogram_count(hist)
        entry["total"] += MetricsRegistry.histogram_total(hist)
    out: dict = {}
    if counters:
        out["counters"] = {k: counters[k] for k in sorted(counters)}
    if histograms:
        out["histograms"] = {k: histograms[k] for k in sorted(histograms)}
    return out
