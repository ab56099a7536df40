"""Run manifests: an append-only JSON-lines log of what actually ran.

Every ``balanced-sched run <exp>`` appends one ``run_start`` record,
one ``cell`` record per evaluated (or cache-replayed) cell, and one
``run_end`` record to ``results/manifest.jsonl``.  The log is the
run's flight recorder: it names the code version (``git describe``),
the seed/runs configuration, each cell's wall-clock time, which
process computed it and whether it was a cache hit -- so a died run
can be diagnosed and a published table can point at the exact run that
produced it (see EXPERIMENTS.md).

Record schema (one JSON object per line; fields beyond these may be
added, readers must ignore unknown keys):

``run_start``
    ``run_id, experiment, git, seed, runs, resume, started``
``cell``
    ``run_id, key, program, system, processor, wall_s, worker`` (the
    pid of the process that computed it), ``cache ("hit"|"miss")`` --
    plus, when the run was made with ``--obs``, a ``metrics`` object
    (compact per-cell counter / histogram summary from
    :func:`repro.obs.metrics.summarize_delta`)
``request``
    ``run_id, kind ("compile"|"schedule"|"simulate"|"explain"),
    status (HTTP status code), wall_s`` -- one per request served by
    ``balanced-sched serve`` (see docs/service.md); traced requests
    also carry their ``trace_id``
``run_end``
    ``run_id, experiment, status ("ok"|"interrupted"|"failed"),
    wall_s, cells, hits, misses``

Manifests written by older versions carry fields and events this
version no longer writes (a ``jobs`` setting, retry counts); readers
ignore unknown keys and events.

``balanced-sched manifest`` summarises the most recent run(s):
hit rate, total wall-clock and the slowest cells.
"""

from __future__ import annotations

import json
import logging
import math
import os
import subprocess
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

logger = logging.getLogger("repro.experiments.manifest")

#: Environment override for the manifest path used by the CLI.
MANIFEST_ENV = "BALANCED_SCHED_MANIFEST"

#: The CLI's default manifest path (relative to the working directory).
DEFAULT_MANIFEST_PATH = os.path.join("results", "manifest.jsonl")


def default_manifest_path() -> str:
    return os.environ.get(MANIFEST_ENV, DEFAULT_MANIFEST_PATH)


def git_describe() -> str:
    """``git describe --always --dirty`` of the working tree, or
    ``"unknown"`` outside a repository."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


class ManifestWriter:
    """Appends run records.

    Each record is written and flushed to the operating system as it
    is appended, so a crash of this process never loses what already
    ran.  :meth:`sync` (called once per checkpointed batch, and by
    :meth:`end_run`) fsyncs what was appended since the last sync, so
    a machine crash loses at most the records of the batch in flight.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._run_id: Optional[str] = None
        self._experiment: Optional[str] = None
        self._counts: Dict[str, int] = {}
        self._unsynced = False
        # The service appends from the event loop, the CPU executor
        # and the batcher concurrently; one lock keeps records whole.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _append(self, record: dict) -> None:
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
            self._unsynced = True

    def sync(self) -> None:
        """fsync the records appended since the last sync (if any)."""
        with self._lock:
            if not self._unsynced:
                return
            fd = os.open(self.path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
            self._unsynced = False

    # ------------------------------------------------------------------
    def start_run(self, experiment: str, **fields) -> str:
        """Open a run; returns its id (also stamped on cell records)."""
        self._run_id = f"{experiment}-{uuid.uuid4().hex[:8]}"
        self._experiment = experiment
        self._counts = {"cells": 0, "hits": 0, "misses": 0}
        self._append(
            {
                "event": "run_start",
                "run_id": self._run_id,
                "experiment": experiment,
                "git": git_describe(),
                "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
                **fields,
            }
        )
        return self._run_id

    def record_cell(
        self,
        *,
        key: str,
        program: str,
        system: str,
        processor: str,
        wall_s: float,
        worker: int,
        cache: str,
        metrics: Optional[dict] = None,
    ) -> None:
        self._counts["cells"] = self._counts.get("cells", 0) + 1
        bucket = "hits" if cache == "hit" else "misses"
        self._counts[bucket] = self._counts.get(bucket, 0) + 1
        record = {
            "event": "cell",
            "run_id": self._run_id,
            "key": key,
            "program": program,
            "system": system,
            "processor": processor,
            "wall_s": round(wall_s, 6),
            "worker": worker,
            "cache": cache,
        }
        # Only present on --obs runs, so obs-off manifests are
        # byte-compatible with earlier versions.
        if metrics is not None:
            record["metrics"] = metrics
        self._append(record)

    def record_request(
        self, *, kind: str, status: int, wall_s: float, **fields
    ) -> None:
        """One request served by ``balanced-sched serve``.

        ``status`` is the HTTP status code the client saw; extra
        fields (``cache``, ``coalesced`` ...) ride along verbatim.
        """
        self._append(
            {
                "event": "request",
                "run_id": self._run_id,
                "kind": kind,
                "status": status,
                "wall_s": round(wall_s, 6),
                **fields,
            }
        )

    def end_run(self, *, wall_s: float, status: str = "ok") -> None:
        self._append(
            {
                "event": "run_end",
                "run_id": self._run_id,
                "experiment": self._experiment,
                "status": status,
                "wall_s": round(wall_s, 3),
                **self._counts,
            }
        )
        self.sync()
        self._run_id = None
        self._experiment = None


# ----------------------------------------------------------------------
# Summaries (`balanced-sched manifest`)
# ----------------------------------------------------------------------
def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted non-empty list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


@dataclass
class RunSummary:
    """One run reassembled from its manifest records."""

    start: dict
    cells: List[dict] = field(default_factory=list)
    end: Optional[dict] = None
    request_records: List[dict] = field(default_factory=list)

    @property
    def requests(self) -> int:
        return len(self.request_records)

    @property
    def run_id(self) -> str:
        return self.start.get("run_id", "?")

    @property
    def experiment(self) -> str:
        return self.start.get("experiment", "?")

    @property
    def hits(self) -> int:
        return sum(1 for c in self.cells if c.get("cache") == "hit")

    @property
    def misses(self) -> int:
        return len(self.cells) - self.hits

    @property
    def status(self) -> str:
        if self.end is None:
            return "incomplete (no run_end -- crashed or still running)"
        return self.end.get("status", "?")

    def slowest(self, top: int = 5) -> List[dict]:
        return sorted(
            self.cells, key=lambda c: c.get("wall_s", 0.0), reverse=True
        )[:top]

    def route_latency_stats(self) -> List[dict]:
        """Per-route latency stats over this run's ``request`` records:
        ``[{route, count, p50_ms, p99_ms}, ...]``, routes sorted by
        name.  Percentiles use the nearest-rank method, so they are
        exact observed values, not interpolations."""
        by_route: Dict[str, List[float]] = {}
        for record in self.request_records:
            route = str(record.get("kind", "?"))
            by_route.setdefault(route, []).append(
                float(record.get("wall_s", 0.0))
            )
        out = []
        for route in sorted(by_route):
            walls = sorted(by_route[route])
            out.append(
                {
                    "route": route,
                    "count": len(walls),
                    "p50_ms": round(_percentile(walls, 0.50) * 1000.0, 3),
                    "p99_ms": round(_percentile(walls, 0.99) * 1000.0, 3),
                }
            )
        return out

    def format(self, top: int = 5) -> str:
        lines = [
            f"run {self.run_id} ({self.experiment})",
            f"  git {self.start.get('git', '?')}  seed "
            f"{self.start.get('seed', '?')}  runs "
            f"{self.start.get('runs', '?')}",
            f"  status: {self.status}"
            + (
                f"  wall {self.end['wall_s']:.1f}s"
                if self.end and "wall_s" in self.end
                else ""
            ),
        ]
        if self.requests:
            lines.append(f"  requests served: {self.requests}")
            for stat in self.route_latency_stats():
                lines.append(
                    f"    {stat['route']:10s} count {stat['count']:5d}  "
                    f"p50 {stat['p50_ms']:8.3f}ms  "
                    f"p99 {stat['p99_ms']:8.3f}ms"
                )
        if self.cells:
            rate = 100.0 * self.hits / len(self.cells)
            lines.append(
                f"  cells: {len(self.cells)}  cache hits: {self.hits} "
                f"({rate:.0f}%)"
            )
            slow = [c for c in self.slowest(top) if c.get("cache") != "hit"]
            if slow:
                lines.append(f"  slowest cells:")
                for c in slow:
                    lines.append(
                        f"    {c.get('wall_s', 0.0):8.3f}s  "
                        f"{c.get('program', '?'):8s} {c.get('system', '?'):22s} "
                        f"{c.get('processor', '?'):10s} worker {c.get('worker', '?')}"
                    )
        else:
            lines.append("  cells: 0")
        return "\n".join(lines)


def read_runs(path) -> List[RunSummary]:
    """Every run in the manifest, oldest first.  Unparseable lines
    (torn writes from a crash -- e.g. a partial final line after a
    SIGKILL mid-append) are skipped with a logged warning."""
    runs: List[RunSummary] = []
    by_id: Dict[str, RunSummary] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except FileNotFoundError:
        return []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            logger.warning(
                "skipping unparseable manifest record %s:%d (torn "
                "write?): %.60r", path, lineno, line,
            )
            continue
        if not isinstance(record, dict):
            logger.warning(
                "skipping non-object manifest record %s:%d", path, lineno,
            )
            continue
        event = record.get("event")
        run_id = record.get("run_id")
        if event == "run_start" and run_id:
            summary = RunSummary(start=record)
            runs.append(summary)
            by_id[run_id] = summary
        elif run_id in by_id:
            if event == "cell":
                by_id[run_id].cells.append(record)
            elif event == "run_end":
                by_id[run_id].end = record
            elif event == "request":
                by_id[run_id].request_records.append(record)
    return runs


def summarize_manifest(path, last: int = 1, top: int = 5) -> str:
    """Human summary of the ``last`` most recent runs."""
    runs = read_runs(path)
    if not runs:
        return f"no runs recorded in {path}"
    chosen = runs[-last:]
    blocks = [run.format(top=top) for run in reversed(chosen)]
    blocks.append(f"({len(runs)} run(s) in {path})")
    return "\n\n".join(blocks)
