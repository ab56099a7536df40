"""The metrics registry: counters, gauges and exact histograms.

Metrics are identified by a base name plus optional labels.  In the
registry a series is a structured key, ``(name, labels)``, where
``labels`` is a tuple of ``(label, str(value))`` pairs sorted by label
(:func:`series_labels`).  Values are stringified when they are
recorded, so ``load=3`` and ``load="3"`` are one series.  Recording
builds no string: the Prometheus-style text form
(``sim.load_stall_cycles{block=vdiff,load=3}``, :func:`render_series`)
is made only by the exporters -- the ``--metrics-out`` JSON, the
``/metrics`` exposition, :meth:`MetricsRegistry.series` -- which sort
series by that text, so every export is deterministic.  Hot recorders
build a key once and record through the ``*_series`` methods.

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

from typing import (
    Dict, Iterable, List, Mapping, Optional, Tuple, TypeVar, Union,
)

Number = Union[int, float]

#: A histogram is an exact value -> count map.
Histogram = Dict[Number, int]

#: A series' labels: ``(label, str(value))`` pairs sorted by label.
Labels = Tuple[Tuple[str, str], ...]

#: A series key: the base name and its labels.
SeriesKey = Tuple[str, Labels]

V = TypeVar("V")


def series_labels(labels: Mapping[str, object]) -> Labels:
    """The structured form of a ``label -> value`` mapping."""
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape(text: str) -> str:
    """Backslash-escape the key syntax characters inside a label part."""
    return (
        text.replace("\\", "\\\\").replace(",", "\\,").replace("=", "\\=")
    )


def render_series(key: SeriesKey) -> str:
    """The text form of a series key: ``name{label=value,...}``.

    Label names and values are backslash-escaped, so values containing
    the syntax characters (e.g. the system label ``N(30,5) @ 30``)
    stay unambiguous in the exported files.
    """
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{_escape(k)}={_escape(v)}" for k, v in labels)
    return f"{name}{{{inner}}}"


def rendered(store: Mapping[SeriesKey, V]) -> List[Tuple[str, SeriesKey, V]]:
    """``(text, key, value)`` for every series of one registry store,
    sorted by the text form -- the order every export uses."""
    return sorted(
        ((render_series(key), key, value) for key, value in store.items()),
        key=lambda row: row[0],
    )


def exported_name(text: str) -> str:
    """The base name of a series key as exported (its text form)."""
    return text.partition("{")[0] if text.endswith("}") else text


class MetricsRegistry:
    """Counters, gauges and exact histograms keyed by
    :data:`SeriesKey`."""

    __slots__ = ("counters", "gauges", "histograms", "exemplars")

    def __init__(self) -> None:
        self.counters: Dict[SeriesKey, Number] = {}
        self.gauges: Dict[SeriesKey, Number] = {}
        self.histograms: Dict[SeriesKey, Histogram] = {}
        #: Last exemplar per histogram series: ``{"value": observed,
        #: "labels": {...}}`` -- e.g. a trace id attached to a latency
        #: observation, rendered onto the matching ``_bucket`` line of
        #: the Prometheus exposition (OpenMetrics exemplar syntax).
        self.exemplars: Dict[SeriesKey, dict] = {}

    def __len__(self) -> int:
        return len(self.counters) + len(self.gauges) + len(self.histograms)

    # ------------------------------------------------------------------
    # Instruments, by name and labels
    # ------------------------------------------------------------------
    def inc(self, name: str, value: Number = 1, **labels) -> None:
        self.inc_series((name, series_labels(labels)), value)

    def set_gauge(self, name: str, value: Number, **labels) -> None:
        self.gauges[(name, series_labels(labels))] = value

    def observe(
        self,
        name: str,
        value: Number,
        *,
        exemplar: Optional[Dict[str, str]] = None,
        **labels,
    ) -> None:
        key = (name, series_labels(labels))
        hist = self.histograms.setdefault(key, {})
        hist[value] = hist.get(value, 0) + 1
        if exemplar:
            # Last write wins: one representative (value, labels) pair
            # per series, e.g. {"trace_id": ...} for /metrics exemplars.
            self.exemplars[key] = {"value": value, "labels": dict(exemplar)}

    def observe_many(
        self, name: str, values: Iterable[Number], **labels
    ) -> None:
        hist = self.histograms.setdefault((name, series_labels(labels)), {})
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
        self.observe_counts_series(
            (name, series_labels(labels)), values, counts
        )

    # ------------------------------------------------------------------
    # Instruments, by a prebuilt key (for recorders that reuse one)
    # ------------------------------------------------------------------
    def inc_series(self, key: SeriesKey, value: Number = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def observe_series(self, key: SeriesKey, value: Number) -> None:
        hist = self.histograms.setdefault(key, {})
        hist[value] = hist.get(value, 0) + 1

    def observe_counts_series(
        self, key: SeriesKey, values: Iterable[Number], counts: Iterable[int]
    ) -> None:
        hist = self.histograms.setdefault(key, {})
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
        """Every recorded series of one base name: its text form and
        its labels."""
        out: List[Tuple[str, Dict[str, str]]] = []
        for store in (self.counters, self.gauges, self.histograms):
            for key in store:
                if key[0] == name:
                    out.append((render_series(key), dict(key[1])))
        return sorted(out)

    def counter_total(self, name: str) -> Number:
        """Sum one counter across all of its label series."""
        return sum(
            value for key, value in self.counters.items() if key[0] == name
        )


def counter_total(counters: Mapping[str, Number], base: str) -> float:
    """Sum one counter of an exported metrics JSON across all of its
    label series.

    ``counters`` is the ``"counters"`` mapping of the file, keyed by
    the text form; ``base`` is the unlabelled series name, e.g.
    ``"verify.violations"``.  Used by the CI gates
    (``tools/check_obs.py`` / ``tools/check_verify.py``).
    """
    return sum(
        value
        for key, value in counters.items()
        if exported_name(key) == base
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
    for (base, _), value in delta.counters.items():
        if value:
            counters[base] = counters.get(base, 0) + value
    histograms: Dict[str, Dict[str, Number]] = {}
    for (base, _), hist in delta.histograms.items():
        if not hist:
            continue
        entry = histograms.setdefault(base, {"count": 0, "total": 0})
        entry["count"] += MetricsRegistry.histogram_count(hist)
        entry["total"] += MetricsRegistry.histogram_total(hist)
    out: dict = {}
    if counters:
        out["counters"] = {k: counters[k] for k in sorted(counters)}
    if histograms:
        out["histograms"] = {k: histograms[k] for k in sorted(histograms)}
    return out
