"""Scheduling-service throughput benchmarks.

Records ``BENCH_service.json`` (repo root): requests/s and latency
percentiles for the daemon under a 64-request burst, measured against
an in-process :class:`~repro.service.server.ServiceThread` over real
HTTP.  Three bursts are timed:

* ``healthz`` -- the HTTP front end alone (protocol floor);
* ``simulate_warm`` -- 64 identical simulation requests against a
  warm result cache (coalescing + cache replay path);
* ``compile`` -- 64 compile renders of the same source (compilation
  memo + CPU executor path).

Acceptance: the warm-cache burst must finish -- every request served,
byte-identical bodies -- and the service must report the coalescing /
request metrics the docs promise.  Latency floors are recorded, not
asserted: wall-clock on shared CI is too noisy for hard bounds.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import sys
import threading
import time

import pytest

from repro.experiments.cache import ResultCache
from repro.service.client import ServiceClient
from repro.service.server import SchedulingService, ServiceThread

BENCH_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_service.json"
)

BURST = 64
CONCURRENCY = 8

SOURCE = (
    "program bench\n"
    "array a[256], b[256], c[256]\n"
    "kernel k1 freq 20 unroll 2\n"
    "t1 = a[i] * b[i]\n"
    "c[i] = t1 + a[i+1]\n"
    "end\nend\n"
)

SIM = {"program": "TRACK", "memory": "N(2,5)", "runs": 3, "n_boot": 10}

_RECORD: dict = {}


@pytest.fixture(scope="module", autouse=True)
def bench_record():
    """Collect every test's numbers, then write BENCH_service.json."""
    yield _RECORD
    _RECORD["meta"] = {
        "burst": BURST,
        "concurrency": CONCURRENCY,
        "usable_cores": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": sys.version.split()[0],
    }
    BENCH_PATH.write_text(json.dumps(_RECORD, indent=2, sort_keys=True) + "\n")
    print(f"\n[written to {BENCH_PATH}]")


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench-service")
    service = SchedulingService(
        cache=ResultCache(tmp / "cache"), batch_window_s=0.005
    )
    with ServiceThread(service) as thread:
        yield service, thread.port


def _burst(port: int, fire) -> dict:
    """Fire ``BURST`` requests from ``CONCURRENCY`` worker threads and
    summarise wall-clock latency."""
    latencies = [0.0] * BURST
    bodies = [None] * BURST
    errors = []
    indices = iter(range(BURST))
    lock = threading.Lock()

    def worker():
        client = ServiceClient(port=port, timeout=300)
        while True:
            with lock:
                index = next(indices, None)
            if index is None:
                return
            start = time.perf_counter()
            try:
                bodies[index] = fire(client)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
                return
            latencies[index] = time.perf_counter() - start

    started = time.perf_counter()
    threads = [threading.Thread(target=worker) for _ in range(CONCURRENCY)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=600)
    wall = time.perf_counter() - started
    assert not errors, errors[0]
    assert all(body is not None for body in bodies)
    ordered = sorted(latencies)
    return {
        "bodies": bodies,
        "summary": {
            "requests": BURST,
            "wall_s": round(wall, 4),
            "requests_per_s": round(BURST / wall, 1),
            "p50_ms": round(statistics.median(ordered) * 1000.0, 3),
            "p99_ms": round(
                ordered[min(BURST - 1, int(BURST * 0.99))] * 1000.0, 3
            ),
            "max_ms": round(ordered[-1] * 1000.0, 3),
        },
    }


def test_bench_healthz_burst(served, bench_record):
    _, port = served
    result = _burst(port, lambda c: c.healthz())
    assert all(body == {"status": "ok"} for body in result["bodies"])
    bench_record["healthz"] = result["summary"]


def test_bench_simulate_warm_burst(served, bench_record):
    service, port = served
    # Warm the cell once so the burst measures the serving path, not
    # one Monte-Carlo evaluation amortised over it.
    ServiceClient(port=port, timeout=300).simulate(**SIM)
    result = _burst(port, lambda c: c.simulate_bytes(**SIM))
    assert len(set(result["bodies"])) == 1, "burst must be byte-identical"
    bench_record["simulate_warm"] = result["summary"]


def test_bench_compile_burst(served, bench_record):
    _, port = served
    result = _burst(port, lambda c: c.compile(source=SOURCE)["output"])
    assert len(set(result["bodies"])) == 1
    bench_record["compile"] = result["summary"]


def test_service_metrics_cover_the_bursts(served, bench_record):
    _, port = served
    text = ServiceClient(port=port).metrics()
    assert "service_requests" in text
    assert "service_request_ms" in text
    served_total = sum(
        float(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if line.startswith("service_requests{")
    )
    assert served_total >= 2 * BURST
    bench_record["requests_served_total"] = served_total
