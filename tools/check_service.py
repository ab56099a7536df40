#!/usr/bin/env python
"""CI gate for the scheduling service.

Usage::

    PYTHONPATH=src python tools/check_service.py

Boots a real ``balanced-sched serve`` daemon as a subprocess (ephemeral
port, temp cache + manifest), then checks that

1. every endpoint answers: ``/healthz``, one POST each to
   ``/compile``, ``/schedule``, ``/simulate`` and ``/explain``;
2. a repeated ``/simulate`` is byte-identical (shared result cache);
3. a malformed request is a 400 with a JSON error body, not a crash;
4. a caller-supplied ``traceparent`` round-trips: the response echoes
   the caller's trace id, ``GET /debug/trace/<id>`` is a valid Chrome
   trace containing the engine's ``evaluate_cell`` fragment and its
   ``compile`` / ``simulate_program`` / ``bootstrap`` children, and
   ``GET /debug/requests`` lists the request;
5. ``/metrics`` scrapes as valid Prometheus text exposition, shows the
   requests just served, and carries a trace-id exemplar on the
   ``service_request_ms`` bucket series;
6. SIGTERM shuts the daemon down cleanly (exit 0, ``run_end`` record
   in the manifest, no stray temp files in the cache).

Exit status is the number of problems found (0 = clean).
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "src")
)

from repro.obs.export import (  # noqa: E402
    validate_chrome_trace,
    validate_prometheus_text,
)

SOURCE = (
    "program smoke\n"
    "array a[64], b[64], c[64]\n"
    "kernel k1 freq 5\n"
    "t1 = a[i] * b[i]\n"
    "c[i] = t1 + a[i+1]\n"
    "end\nend\n"
)


def post(port: int, path: str, payload: dict, headers: dict = None):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=300) as response:
            return response.status, response.read(), dict(response.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read(), dict(exc.headers or {})


def get(port: int, path: str):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=60
    ) as response:
        return response.status, response.read()


def main() -> int:
    problems = []
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="check-service-"))
    manifest = tmp / "manifest.jsonl"
    cache_dir = tmp / "cache"
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.experiments.runner", "serve",
            "--port", "0",
            "--cache-dir", str(cache_dir),
            "--manifest", str(manifest),
        ],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stderr.readline().strip()
        if not line:
            problems.append("daemon exited before the serving banner")
            return report(problems)
        if not line.startswith("serving on "):
            problems.append(f"unexpected startup line: {line!r}")
            return report(problems)
        port = int(line.rsplit(":", 1)[-1])
        print(f"daemon up on port {port}")

        status, body = get(port, "/healthz")
        if status != 200 or json.loads(body) != {"status": "ok"}:
            problems.append(f"/healthz: {status} {body!r}")

        status, body, _ = post(port, "/compile", {"source": SOURCE})
        if status != 200 or "==== balanced" not in json.loads(body)["output"]:
            problems.append(f"/compile: {status}")

        status, body, _ = post(
            port, "/schedule", {"source": SOURCE, "policy": "traditional"}
        )
        if status != 200 or "scheduled" not in json.loads(body)["output"]:
            problems.append(f"/schedule: {status}")

        status, body, _ = post(port, "/explain", {"source": SOURCE})
        if status != 200 or "====" not in json.loads(body)["output"]:
            problems.append(f"/explain: {status}")

        sim = {"program": "TRACK", "memory": "N(2,5)", "runs": 3,
               "n_boot": 10}
        status, first, _ = post(port, "/simulate", sim)
        if status != 200:
            problems.append(f"/simulate: {status} {first!r}")
        else:
            payload = json.loads(first)
            for field in ("improvement_pct", "program", "processor"):
                if field not in payload:
                    problems.append(f"/simulate payload missing {field!r}")
            status, second, _ = post(port, "/simulate", sim)
            if status != 200 or second != first:
                problems.append(
                    "/simulate is not byte-stable across requests"
                )

        status, body, _ = post(port, "/simulate", {"program": "NOPE"})
        if status != 400 or "error" not in json.loads(body):
            problems.append(f"malformed request: expected 400, got {status}")

        # The traced request goes last so its trace id is the exemplar
        # the /metrics scrape below sees (exemplars are last-write-wins
        # per label set), and uses a fresh spec so the engine actually
        # evaluates it (a cache hit would short-circuit the engine and
        # leave no evaluate_cell span in the trace).
        caller_trace = "0af7651916cd43dd8448eb211c80319c"
        traceparent = f"00-{caller_trace}-b7ad6b7169203331-01"
        traced_sim = dict(sim, program="ADM")
        status, traced, headers = post(
            port, "/simulate", traced_sim,
            headers={"traceparent": traceparent},
        )
        if status != 200:
            problems.append(f"traced /simulate: {status} {traced!r}")
        else:
            echoed = headers.get("traceparent", "")
            if caller_trace not in echoed:
                problems.append(
                    f"traceparent did not round-trip: sent trace id "
                    f"{caller_trace}, response header {echoed!r}"
                )
            problems += check_debug(port, caller_trace)

        status, body = get(port, "/metrics")
        text = body.decode("utf-8")
        if status != 200:
            problems.append(f"/metrics: {status}")
        problems += validate_prometheus_text(text)
        if 'service_requests{endpoint="simulate",status="200"} 3' not in text:
            problems.append("/metrics does not count the simulate requests")
        if "service_request_ms_bucket" not in text:
            problems.append("/metrics lacks request-latency bucket series")
        if f'# {{trace_id="{caller_trace}"}}' not in text:
            problems.append(
                "/metrics lacks a trace-id exemplar on the request "
                "latency buckets"
            )

        proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            problems.append("daemon did not exit within 60s of SIGTERM")
            proc.kill()
            code = proc.wait()
        if code != 0:
            problems.append(f"daemon exited {code} on SIGTERM")

        records = [
            json.loads(line)
            for line in manifest.read_text().splitlines()
            if line.strip()
        ]
        ends = [r for r in records if r["event"] == "run_end"]
        if not ends or ends[-1]["status"] != "ok":
            problems.append("manifest lacks a clean run_end record")
        requests = [r for r in records if r["event"] == "request"]
        if len(requests) < 6:
            problems.append(
                f"manifest has {len(requests)} request records, expected >=6"
            )
        stray = list(cache_dir.rglob("*.tmp"))
        if stray:
            problems.append(f"stray temp files in the cache: {stray}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return report(problems)


#: The engine spans a traced, freshly evaluated cell must contribute.
ENGINE_SPANS = ("compile", "simulate_program", "bootstrap")


def check_debug(port: int, trace_id: str):
    """Validate the live-introspection routes for one traced request."""
    problems = []
    status, body = get(port, "/debug/requests")
    if status != 200:
        problems.append(f"/debug/requests: {status}")
    else:
        recent = json.loads(body)["requests"]
        match = [r for r in recent if r.get("trace_id") == trace_id]
        if not match:
            problems.append(
                f"/debug/requests does not list trace {trace_id}"
            )
        elif match[0].get("status") != 200 or not match[0].get("timings_ms"):
            problems.append(
                f"/debug/requests record incomplete: {match[0]!r}"
            )
    status, body = get(port, f"/debug/trace/{trace_id}")
    if status != 200:
        problems.append(f"/debug/trace/{trace_id}: {status}")
        return problems
    trace = json.loads(body)
    problems += validate_chrome_trace(trace)
    spans = [e for e in trace.get("traceEvents", []) if e.get("ph") == "X"]
    names = {e["name"] for e in spans if e.get("cat") == "engine"}
    if not any(name.startswith("evaluate_cell") for name in names):
        problems.append(
            f"/debug/trace/{trace_id} lacks the engine's evaluate_cell "
            f"span (got {sorted(names)})"
        )
    missing = [name for name in ENGINE_SPANS if name not in names]
    if missing:
        problems.append(
            f"/debug/trace/{trace_id} lacks engine spans {missing} "
            f"(got {sorted(names)})"
        )
    return problems


def report(problems) -> int:
    for problem in problems:
        print(f"PROBLEM: {problem}")
    if not problems:
        print("service smoke: all checks passed")
    return len(problems)


if __name__ == "__main__":
    sys.exit(main())
