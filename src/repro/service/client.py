"""A small stdlib-only client for the scheduling service.

One connection per call (``Connection: close``), JSON in / JSON out.
Non-2xx responses raise :class:`ServiceError` carrying the HTTP status
and the decoded error payload, so callers branch on ``exc.status``
(429 retry-later, 504 deadline) instead of parsing
messages.
"""

from __future__ import annotations

import http.client
import json
from typing import Optional


class ServiceError(RuntimeError):
    """A non-2xx response from the daemon."""

    def __init__(self, status: int, payload) -> None:
        detail = (
            payload.get("error") if isinstance(payload, dict) else payload
        )
        super().__init__(f"HTTP {status}: {detail}")
        self.status = status
        self.payload = payload


class ServiceClient:
    """Talk to a running ``balanced-sched serve`` daemon."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8321,
        timeout: float = 60.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # ------------------------------------------------------------------
    def raw_request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        headers: Optional[dict] = None,
    ):
        """One HTTP round trip; returns ``(status, body_bytes)``."""
        status, body, _ = self.request(
            method, path, payload=payload, headers=headers
        )
        return status, body

    def request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        headers: Optional[dict] = None,
    ):
        """One HTTP round trip; returns ``(status, body_bytes,
        response_headers)`` with header names lower-cased.  Pass a
        ``{"traceparent": ...}`` header to join an existing trace; the
        daemon's ``traceparent`` response header carries the trace id
        to feed ``GET /debug/trace/<id>``."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            body = None
            send_headers = {"Connection": "close"}
            if payload is not None:
                body = json.dumps(payload, sort_keys=True).encode("utf-8")
                send_headers["Content-Type"] = "application/json"
            if headers:
                send_headers.update(headers)
            conn.request(method, path, body=body, headers=send_headers)
            response = conn.getresponse()
            response_headers = {
                name.lower(): value for name, value in response.getheaders()
            }
            return response.status, response.read(), response_headers
        finally:
            conn.close()

    def _post(self, path: str, payload: dict) -> dict:
        status, body = self.raw_request("POST", path, payload)
        try:
            decoded = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            decoded = {"error": body.decode("utf-8", "replace")}
        if status != 200:
            raise ServiceError(status, decoded)
        return decoded

    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        status, body = self.raw_request("GET", "/healthz")
        payload = json.loads(body.decode("utf-8"))
        if status != 200:
            raise ServiceError(status, payload)
        return payload

    def metrics(self) -> str:
        """The Prometheus text exposition from ``/metrics``."""
        status, body = self.raw_request("GET", "/metrics")
        if status != 200:
            raise ServiceError(status, body.decode("utf-8", "replace"))
        return body.decode("utf-8")

    def compile(self, **payload) -> dict:
        return self._post("/compile", payload)

    def schedule(self, **payload) -> dict:
        return self._post("/schedule", payload)

    def simulate(self, **payload) -> dict:
        return self._post("/simulate", payload)

    def simulate_bytes(self, **payload) -> bytes:
        """The exact response body of ``/simulate`` (byte-identity
        tests compare this against the batch engine's payload)."""
        status, body = self.raw_request("POST", "/simulate", payload)
        if status != 200:
            try:
                decoded = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                decoded = {"error": body.decode("utf-8", "replace")}
            raise ServiceError(status, decoded)
        return body

    def explain(self, **payload) -> dict:
        return self._post("/explain", payload)

    # ------------------------------------------------------------------
    # Tracing and live introspection
    # ------------------------------------------------------------------
    def simulate_traced(
        self, *, traceparent: Optional[str] = None, **payload
    ):
        """POST ``/simulate`` inside a trace; returns ``(payload,
        trace_id)``.  With ``traceparent`` given, the daemon joins that
        trace (the returned trace id equals the caller's); otherwise
        the daemon starts one."""
        headers = {"traceparent": traceparent} if traceparent else None
        status, body, response_headers = self.request(
            "POST", "/simulate", payload, headers=headers
        )
        try:
            decoded = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            decoded = {"error": body.decode("utf-8", "replace")}
        if status != 200:
            raise ServiceError(status, decoded)
        parent = response_headers.get("traceparent", "")
        trace_id = parent.split("-")[1] if parent.count("-") >= 2 else None
        return decoded, trace_id

    def debug_requests(self) -> list:
        """The recent-requests ring from ``GET /debug/requests``."""
        status, body = self.raw_request("GET", "/debug/requests")
        payload = json.loads(body.decode("utf-8"))
        if status != 200:
            raise ServiceError(status, payload)
        return payload["requests"]

    def debug_trace(self, trace_id: str) -> dict:
        """One request's Chrome-trace JSON from ``GET /debug/trace/<id>``
        (load it in Perfetto / ``chrome://tracing``)."""
        status, body = self.raw_request("GET", f"/debug/trace/{trace_id}")
        payload = json.loads(body.decode("utf-8"))
        if status != 200:
            raise ServiceError(status, payload)
        return payload
