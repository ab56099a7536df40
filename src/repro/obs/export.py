"""Exports: Chrome ``trace_event`` JSON, phase summaries, metrics JSON.

The Chrome trace format is the JSON-array flavour documented by the
Trace Event Format spec and consumed by ``chrome://tracing`` and
Perfetto (https://ui.perfetto.dev): a ``traceEvents`` list of complete
(``"ph": "X"``) events with microsecond ``ts``/``dur``.  Spans from a
:class:`~repro.obs.recorder.Recorder` map 1:1 onto complete events;
pid/tid are fixed (the pipeline records spans from one thread), and
events are emitted in span-open order, so with a pinned clock the
whole file is byte-deterministic -- the golden tests rely on that.

:func:`validate_chrome_trace` is the schema check CI runs against
emitted traces; it accepts exactly what this module emits and flags
anything Perfetto would choke on.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple, Union

from .metrics import Labels, MetricsRegistry, rendered
from .recorder import Recorder


def _write_atomic(path: Union[str, Path], text: str) -> Path:
    """Write ``text`` to ``path`` via a same-directory temp file and
    ``os.replace``, so an interrupt (SIGTERM mid-export) can never
    leave a half-written artifact behind."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path

#: Fixed process/thread ids for emitted events (single-threaded spans).
TRACE_PID = 1
TRACE_TID = 1


# ----------------------------------------------------------------------
# Chrome trace_event JSON
# ----------------------------------------------------------------------
def chrome_trace(recorder: Recorder) -> dict:
    """Render the recorder's spans as a Chrome trace_event object."""
    events: List[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": TRACE_PID,
            "tid": TRACE_TID,
            "args": {"name": "balanced-sched"},
        }
    ]
    for span in sorted(recorder.spans, key=lambda s: s.index):
        events.append(
            {
                "name": span.name,
                "cat": "/".join(span.path[:-1]) or "root",
                "ph": "X",
                "ts": span.start_ns / 1000,
                "dur": span.duration_ns / 1000,
                "pid": TRACE_PID,
                "tid": TRACE_TID,
                "args": {str(k): _jsonable(v) for k, v in span.args},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: Union[str, Path], recorder: Recorder) -> Path:
    return _write_atomic(path, json.dumps(chrome_trace(recorder), indent=1) + "\n")


def validate_chrome_trace(data: object) -> List[str]:
    """Schema-check a trace object; returns problems (empty == valid)."""
    problems: List[str] = []
    if not isinstance(data, dict):
        return ["trace is not a JSON object"]
    events = data.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    if not events:
        problems.append("traceEvents is empty")
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        if not isinstance(event.get("name"), str) or not event.get("name"):
            problems.append(f"{where}: missing event name")
        ph = event.get("ph")
        if ph not in ("X", "M", "B", "E", "i"):
            problems.append(f"{where}: unknown phase {ph!r}")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                problems.append(f"{where}: {field} must be an integer")
        if "args" in event and not isinstance(event["args"], dict):
            problems.append(f"{where}: args must be an object")
        if ph == "X":
            for field in ("ts", "dur"):
                value = event.get(field)
                if not isinstance(value, (int, float)) or value < 0:
                    problems.append(
                        f"{where}: {field} must be a non-negative number"
                    )
    return problems


def _jsonable(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


# ----------------------------------------------------------------------
# Plain-text phase summary
# ----------------------------------------------------------------------
def phase_summary(recorder: Recorder) -> str:
    """Aggregate spans into an indented per-phase timing table.

    Rows are span *paths* (so ``compile_block > schedule`` and a
    top-level ``schedule`` stay distinct), in first-open order; ``self``
    is the phase's own time with direct children subtracted.
    """
    Agg = Tuple[int, int, int]  # count, total_ns, first_index
    aggregate: Dict[Tuple[str, ...], Agg] = {}
    for span in recorder.spans:
        count, total, first = aggregate.get(span.path, (0, 0, span.index))
        aggregate[span.path] = (
            count + 1, total + span.duration_ns, min(first, span.index)
        )

    child_totals: Dict[Tuple[str, ...], int] = {}
    for path, (_count, total, _first) in aggregate.items():
        if len(path) > 1:
            parent = path[:-1]
            child_totals[parent] = child_totals.get(parent, 0) + total

    header = f"{'phase':<40} {'count':>7} {'total':>12} {'self':>12}"
    lines = [header, "-" * len(header)]
    for path in sorted(aggregate, key=lambda p: aggregate[p][2]):
        count, total, _first = aggregate[path]
        self_ns = total - child_totals.get(path, 0)
        name = "  " * (len(path) - 1) + path[-1]
        lines.append(
            f"{name:<40} {count:>7} {_ms(total):>12} {_ms(self_ns):>12}"
        )
    if len(lines) == 2:
        lines.append("(no spans recorded)")
    return "\n".join(lines)


def _ms(ns: int) -> str:
    return f"{ns / 1e6:.3f}ms"


# ----------------------------------------------------------------------
# Metrics JSON
# ----------------------------------------------------------------------
def metrics_json(metrics: MetricsRegistry) -> dict:
    """Render a registry as a sorted, JSON-safe object.

    Histogram keys (observed values) become strings because JSON keys
    must be; readers sort them numerically via ``float(key)``.
    """
    return {
        "counters": {
            text: value for text, _, value in rendered(metrics.counters)
        },
        "gauges": {
            text: value for text, _, value in rendered(metrics.gauges)
        },
        "histograms": {
            text: {
                str(value): hist[value]
                for value in sorted(hist, key=float)
            }
            for text, _, hist in rendered(metrics.histograms)
        },
    }


def write_metrics(
    path: Union[str, Path], metrics: MetricsRegistry
) -> Path:
    return _write_atomic(path, json.dumps(metrics_json(metrics), indent=1) + "\n")


# ----------------------------------------------------------------------
# Prometheus text exposition (the service's /metrics endpoint)
# ----------------------------------------------------------------------
#: A legal Prometheus metric name; everything else is mapped to "_".
_PROM_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_PROM_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")
_PROM_LABEL_BAD = re.compile(r"[^a-zA-Z0-9_]")


def prometheus_name(base: str) -> str:
    """Map a registry series base name onto a legal Prometheus metric
    name (``sim.load_stall_cycles`` -> ``sim_load_stall_cycles``)."""
    name = _PROM_NAME_BAD.sub("_", base)
    if not name or not _PROM_NAME_OK.match(name):
        name = "_" + name
    return name


def _prom_label_value(value: str) -> str:
    """Escape a label value per the exposition-format rules."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _prom_series(base: str, labels: Labels, extra: str = "") -> str:
    """``name{label="value",...}`` with sanitised names and escaped
    values; ``extra`` appends a pre-rendered label (the histogram
    ``le``)."""
    name = prometheus_name(base)
    parts = [
        f'{_PROM_LABEL_BAD.sub("_", key)}="{_prom_label_value(value)}"'
        for key, value in labels
    ]
    if extra:
        parts.append(extra)
    if not parts:
        return name
    return f"{name}{{{','.join(parts)}}}"


def _prom_number(value: object) -> str:
    """Render a sample value (integers stay integral)."""
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def prometheus_text(metrics: MetricsRegistry) -> str:
    """Render a registry in the Prometheus text exposition format.

    Counters and gauges map 1:1; the registry's *exact* histograms
    render as real Prometheus histograms -- every observed value
    becomes an ``le`` bucket boundary (cumulative counts), plus the
    standard ``+Inf`` bucket, ``_sum`` and ``_count`` series.  Output
    is deterministic: one ``# TYPE`` line per metric name, series in
    sorted-key order.  This is what ``balanced-sched serve`` exposes
    at ``/metrics``.
    """
    by_name: Dict[str, List[str]] = {}
    types: Dict[str, str] = {}

    def emit(base: str, kind: str, line: str) -> None:
        name = prometheus_name(base)
        types.setdefault(name, kind)
        by_name.setdefault(name, []).append(line)

    for _, (base, labels), value in rendered(metrics.counters):
        emit(
            base, "counter",
            f"{_prom_series(base, labels)} {_prom_number(value)}",
        )
    for _, (base, labels), value in rendered(metrics.gauges):
        emit(
            base, "gauge",
            f"{_prom_series(base, labels)} {_prom_number(value)}",
        )
    for _, key, hist in rendered(metrics.histograms):
        base, labels = key
        name = prometheus_name(base)
        exemplar = metrics.exemplars.get(key)
        cumulative = 0
        for value in sorted(hist, key=float):
            cumulative += hist[value]
            suffix = ""
            if exemplar is not None and float(exemplar["value"]) <= float(value):
                # OpenMetrics exemplar on the first bucket containing
                # the exemplar observation: `... # {trace_id="..."} v`.
                suffix = _prom_exemplar(exemplar)
                exemplar = None
            emit(
                base, "histogram",
                f"{_prom_series(base + '_bucket', labels, extra=_le_label(value))} "
                f"{cumulative}{suffix}",
            )
        inf_label = 'le="+Inf"'
        emit(
            base, "histogram",
            f"{_prom_series(base + '_bucket', labels, extra=inf_label)} "
            f"{cumulative}",
        )
        emit(
            base, "histogram",
            f"{_prom_series(base + '_sum', labels)} "
            f"{_prom_number(MetricsRegistry.histogram_total(hist))}",
        )
        emit(
            base, "histogram",
            f"{_prom_series(base + '_count', labels)} {cumulative}",
        )
        types.setdefault(name, "histogram")
    lines: List[str] = []
    for name in sorted(by_name):
        lines.append(f"# TYPE {name} {types[name]}")
        lines.extend(by_name[name])
    return "\n".join(lines) + ("\n" if lines else "")


def _le_label(value: object) -> str:
    """The ``le`` bucket label for one observed histogram value."""
    return f'le="{_prom_number(value)}"'


def _prom_exemplar(exemplar: dict) -> str:
    """Render one exemplar suffix (OpenMetrics syntax) for a bucket
    line: `` # {label="value",...} <observed value>``."""
    labels = exemplar.get("labels", {})
    inner = ",".join(
        f'{_PROM_LABEL_BAD.sub("_", key)}="{_prom_label_value(str(labels[key]))}"'
        for key in sorted(labels)
    )
    return f" # {{{inner}}} {_prom_number(exemplar['value'])}"


_PROM_LABELS_RE = (
    r"\{(?:[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\.)*\""
    r"(?:,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\.)*\")*)?\}"
)
_PROM_NUMBER_RE = r"-?(?:\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|\+?Inf|NaN)"
_PROM_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"  # metric name
    rf"(?:{_PROM_LABELS_RE})?"  # labels
    rf" {_PROM_NUMBER_RE}"  # value
    # Optional OpenMetrics exemplar: ` # {labels} value [timestamp]`.
    rf"(?P<exemplar> # {_PROM_LABELS_RE} {_PROM_NUMBER_RE}"
    rf"(?: {_PROM_NUMBER_RE})?)?$"
)
_PROM_TYPE = re.compile(
    r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* "
    r"(counter|gauge|histogram|summary|untyped)$"
)
_PROM_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def validate_prometheus_text(text: str) -> List[str]:
    """Schema-check a text exposition; returns problems (empty == valid).

    Checks line syntax (TYPE comments, samples, exemplar suffixes),
    that every sample's metric name was TYPE-declared (histogram series
    resolve to their parent), that exemplars appear only on ``_bucket``
    samples, and that each histogram's cumulative bucket counts are
    non-decreasing in ``le`` order.  Used by the service tests and
    ``tools/check_service.py``.
    """
    problems: List[str] = []
    declared: Dict[str, str] = {}
    # (name, labels-minus-le) -> list of (le, count, lineno) in file order.
    buckets: Dict[Tuple[str, Tuple[Tuple[str, str], ...]],
                  List[Tuple[float, float, int]]] = {}
    if text and not text.endswith("\n"):
        problems.append("exposition must end with a newline")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            problems.append(f"line {lineno}: blank line")
            continue
        if line.startswith("#"):
            if line.startswith("# TYPE "):
                if not _PROM_TYPE.match(line):
                    problems.append(f"line {lineno}: malformed TYPE: {line!r}")
                else:
                    _, _, name, kind = line.split(" ", 3)
                    if name in declared:
                        problems.append(
                            f"line {lineno}: duplicate TYPE for {name}"
                        )
                    declared[name] = kind
            # Other comments (# HELP ...) are legal and unchecked.
            continue
        match = _PROM_SAMPLE.match(line)
        if not match:
            problems.append(f"line {lineno}: malformed sample: {line!r}")
            continue
        name = re.split(r"[{ ]", line, maxsplit=1)[0]
        if match.group("exemplar") and not name.endswith("_bucket"):
            problems.append(
                f"line {lineno}: exemplar on non-bucket sample {name}"
            )
        parent = re.sub(r"_(bucket|sum|count)$", "", name)
        if name not in declared and parent not in declared:
            problems.append(
                f"line {lineno}: sample {name} has no TYPE declaration"
            )
        if name.endswith("_bucket"):
            sample = line.split(" # ", 1)[0]  # strip any exemplar
            series, _, value_text = sample.rpartition(" ")
            labels = dict(_PROM_LABEL_PAIR.findall(series))
            le_text = labels.pop("le", None)
            if le_text is None:
                problems.append(
                    f"line {lineno}: bucket sample without an 'le' label"
                )
                continue
            try:
                le = float(le_text.replace("+Inf", "inf"))
                count = float(value_text)
            except ValueError:
                continue  # the sample regex already vetted the syntax
            group = (name, tuple(sorted(labels.items())))
            buckets.setdefault(group, []).append((le, count, lineno))
    for (name, _labels), rows in buckets.items():
        rows.sort(key=lambda row: row[0])
        for (lo_le, lo_count, _), (hi_le, hi_count, hi_line) in zip(
            rows, rows[1:]
        ):
            if hi_count < lo_count:
                problems.append(
                    f"line {hi_line}: non-monotone bucket counts for "
                    f"{name}: le={_fmt_le(hi_le)} has {hi_count:g} < "
                    f"{lo_count:g} at le={_fmt_le(lo_le)}"
                )
    return problems


def _fmt_le(le: float) -> str:
    return "+Inf" if le == float("inf") else f"{le:g}"
