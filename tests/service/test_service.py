"""End-to-end tests of the scheduling service.

The headline invariants:

* responses are **byte-identical** to the batch CLI for identical
  specs (compile/schedule/explain share the CLI's render functions;
  simulate payloads come from the same engine cells);
* concurrent requests share the compilation and result caches and
  coalesce into engine batches;
* a traced request's span tree holds the engine's spans for its cell;
* a daemon that enabled its own recorder keeps no spans between
  requests;
* ``/metrics`` is valid Prometheus text exposition.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.common import evaluate_cells
from repro.experiments.manifest import ManifestWriter
from repro.experiments.runner import main as cli_main
from repro.obs import recorder as obs
from repro.obs.export import (
    validate_chrome_trace,
    validate_prometheus_text,
)
from repro.service.client import ServiceClient, ServiceError
from repro.service.schema import cell_payload, parse_request, to_cell_spec
from repro.service.server import SchedulingService, ServiceThread

SOURCE = """
program svc
  array a[256], b[256], c[256]
  kernel k1 freq 20 unroll 2
    t1 = a[i] * b[i]
    c[i] = t1 + a[i+1]
  end
end
"""

SIM_PAYLOAD = {
    "program": "TRACK",
    "memory": "N(2,5)",
    "runs": 3,
    "n_boot": 10,
}


@pytest.fixture
def served(tmp_path):
    """A running service (fresh caches) and a client talking to it."""
    service = SchedulingService(
        cache=ResultCache(tmp_path / "cache"),
        manifest=ManifestWriter(tmp_path / "manifest.jsonl"),
        batch_window_s=0.02,
    )
    with ServiceThread(service) as thread:
        yield service, ServiceClient(port=thread.port)


def _cli_stdout(capsys, argv):
    """Run the real CLI in-process and return exactly its stdout."""
    capsys.readouterr()
    assert cli_main(argv) == 0
    return capsys.readouterr().out


class TestByteIdentity:
    def test_compile_matches_the_cli(self, served, tmp_path, capsys):
        _, client = served
        path = tmp_path / "svc.mf"
        path.write_text(SOURCE)
        expected = _cli_stdout(capsys, ["compile", str(path)])
        assert client.compile(source=SOURCE)["output"] == expected

    def test_schedule_matches_the_cli(self, served, tmp_path, capsys):
        _, client = served
        path = tmp_path / "svc.mf"
        path.write_text(SOURCE)
        expected = _cli_stdout(
            capsys, ["schedule", str(path), "--policy", "traditional",
                     "--verbose"]
        )
        got = client.schedule(
            source=SOURCE, policy="traditional", verbose=True
        )
        assert got["output"] == expected

    def test_optimal_schedule_matches_the_cli(self, served, tmp_path, capsys):
        """`"policy": "optimal"` routes through the same renderer as
        the CLI; the certificate lines (cost / certified / expansions)
        must agree byte-for-byte -- the search budget is deterministic,
        and the policy name normalises int-vs-float latency."""
        _, client = served
        path = tmp_path / "svc.mf"
        path.write_text(SOURCE)
        expected = _cli_stdout(
            capsys, ["schedule", str(path), "--policy", "optimal",
                     "--latency", "5", "--verbose"]
        )
        got = client.schedule(
            source=SOURCE, policy="optimal", latency=5, verbose=True
        )
        assert got["output"] == expected
        assert "certified optimal" in got["output"]

    def test_optimal_fractional_latency_is_a_400(self, served):
        _, client = served
        with pytest.raises(ServiceError) as excinfo:
            client.schedule(source=SOURCE, policy="optimal", latency=2.5)
        assert excinfo.value.status == 400
        assert "latency" in str(excinfo.value)

    def test_explain_matches_the_cli(self, served, tmp_path, capsys):
        _, client = served
        path = tmp_path / "svc.mf"
        path.write_text(SOURCE)
        expected = _cli_stdout(capsys, ["explain", str(path), "--full"])
        assert client.explain(source=SOURCE, full=True)["output"] == expected

    def test_simulate_payload_matches_the_batch_engine(self, served):
        """The /simulate body must be the canonical serialisation of
        the exact cell the batch engine computes for the same spec."""
        _, client = served
        spec = to_cell_spec(parse_request("simulate", dict(SIM_PAYLOAD)))
        (cell,) = evaluate_cells([spec], jobs=1)
        expected = (
            json.dumps(cell_payload(cell), sort_keys=True) + "\n"
        ).encode("utf-8")
        assert client.simulate_bytes(**SIM_PAYLOAD) == expected

    def test_repeated_requests_are_byte_identical(self, served):
        _, client = served
        first = client.simulate_bytes(**SIM_PAYLOAD)
        second = client.simulate_bytes(**SIM_PAYLOAD)
        assert first == second


class TestConcurrency:
    def test_concurrent_identical_requests_coalesce(self, tmp_path):
        service = SchedulingService(
            cache=ResultCache(tmp_path / "cache"),
            batch_window_s=0.25,  # wide window: everyone joins one flush
        )
        with ServiceThread(service) as thread:
            client = ServiceClient(port=thread.port)
            bodies = [None] * 6
            errors = []

            def worker(index):
                try:
                    bodies[index] = client.simulate_bytes(**SIM_PAYLOAD)
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(len(bodies))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            batcher = service._batcher
            assert not errors
            assert len(set(bodies)) == 1, "every client saw the same bytes"
            # All six landed before the first flush: one engine call.
            assert batcher.coalesced >= 1

    def test_one_flush_of_tables_matches_requests_served_alone(self):
        """Requests that differ only in ``+dtN`` are separate cells of
        one flush, and their rows share kernel calls; each body is the
        one the request gets on its own."""
        specs = ("unlimited+dt1", "unlimited+dt4", "unlimited+dt64")
        alone = {}
        for spec in specs:
            service = SchedulingService(cache=None, batch_window_s=0.02)
            with ServiceThread(service) as thread:
                alone[spec] = ServiceClient(port=thread.port).simulate_bytes(
                    processor=spec, **SIM_PAYLOAD
                )
        service = SchedulingService(
            cache=None,
            batch_window_s=0.25,  # wide window: everyone joins one flush
        )
        with ServiceThread(service) as thread:
            client = ServiceClient(port=thread.port)
            bodies = {}
            errors = []

            def worker(spec):
                try:
                    bodies[spec] = client.simulate_bytes(
                        processor=spec, **SIM_PAYLOAD
                    )
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(spec,))
                for spec in specs
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not errors
            assert service._batcher.batches == 1
        assert bodies == alone
        assert len(set(alone.values())) == len(specs)

    def test_full_queue_rejects_with_429(self, tmp_path):
        service = SchedulingService(
            cache=None,
            max_queue=1,
            batch_window_s=0.5,
        )
        with ServiceThread(service) as thread:
            client = ServiceClient(port=thread.port)
            statuses = []
            lock = threading.Lock()

            def worker(memory):
                try:
                    client.simulate(
                        program="TRACK", memory=memory, runs=3, n_boot=10
                    )
                    with lock:
                        statuses.append(200)
                except ServiceError as exc:
                    with lock:
                        statuses.append(exc.status)

            threads = [
                threading.Thread(target=worker, args=(m,))
                for m in ("N(2,5)", "N(2,2)", "N(3,2)")
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert 200 in statuses, "someone must get through"
            assert 429 in statuses, "someone must be turned away"

    def test_deadline_returns_504(self, served):
        _, client = served
        with pytest.raises(ServiceError) as excinfo:
            # 1 ms cannot cover a Monte-Carlo cell; the request times
            # out in the queue and reports 504.
            client.simulate(**SIM_PAYLOAD, deadline_ms=1)
        assert excinfo.value.status == 504


class TestTracing:
    """Request-scoped tracing: traceparent round trips, engine span
    fragments reassemble into a Perfetto-loadable trace, and the debug
    routes expose the recent-requests ring."""

    CALLER_TRACE = "0af7651916cd43dd8448eb211c80319c"
    CALLER_SPAN = "b7ad6b7169203331"

    @pytest.fixture
    def traced(self, tmp_path):
        service = SchedulingService(
            cache=ResultCache(tmp_path / "cache"),
            manifest=ManifestWriter(tmp_path / "manifest.jsonl"),
            batch_window_s=0.0,
        )
        with ServiceThread(service) as thread:
            yield service, ServiceClient(port=thread.port)

    def _traceparent(self, trace_id=None):
        return f"00-{trace_id or self.CALLER_TRACE}-{self.CALLER_SPAN}-01"

    def test_caller_trace_id_round_trips(self, traced):
        _, client = traced
        payload, trace_id = client.simulate_traced(
            traceparent=self._traceparent(), **SIM_PAYLOAD
        )
        assert trace_id == self.CALLER_TRACE
        assert "improvement_pct" in payload

    def test_trace_id_is_minted_when_header_absent(self, traced):
        _, client = traced
        _, trace_id = client.simulate_traced(**SIM_PAYLOAD)
        assert trace_id and len(trace_id) == 32
        assert trace_id != self.CALLER_TRACE
        int(trace_id, 16)  # well-formed hex

    def test_debug_trace_spans_server_and_engine(self, traced):
        """One daemon process serves the request and evaluates its
        cell: the trace holds the server's request span and the
        engine's ``evaluate_cell`` fragment with its phase children,
        all on the daemon's track."""
        _, client = traced
        client.simulate_traced(
            traceparent=self._traceparent(), **SIM_PAYLOAD
        )
        trace = client.debug_trace(self.CALLER_TRACE)
        assert validate_chrome_trace(trace) == []
        spans = [
            e for e in trace["traceEvents"] if e.get("ph") == "X"
        ]
        names = {e["name"] for e in spans}
        assert "request /simulate" in names
        assert "evaluate_cell TRACK" in names
        assert {"compile", "simulate_program", "bootstrap"} <= names
        engine = [e for e in spans if e["cat"] == "engine"]
        assert {e["name"] for e in engine} >= {
            "evaluate_cell TRACK", "compile", "simulate_program",
            "bootstrap",
        }
        (pid,) = {e["pid"] for e in trace["traceEvents"]}
        (meta,) = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert meta["pid"] == pid
        assert meta["args"]["name"] == "balanced-sched server"
        assert trace["otherData"]["trace_id"] == self.CALLER_TRACE

    def test_debug_requests_lists_the_request(self, traced):
        _, client = traced
        client.simulate_traced(
            traceparent=self._traceparent(), **SIM_PAYLOAD
        )
        (record,) = [
            r
            for r in client.debug_requests()
            if r["trace_id"] == self.CALLER_TRACE
        ]
        assert record["route"] == "simulate"
        assert record["status"] == 200
        assert record["parent_id"] == self.CALLER_SPAN
        assert record["spans"] > 0
        assert record["cell_keys"], "the evaluated cell key is noted"
        assert "engine" in record["timings_ms"]

    def test_trace_id_lands_on_the_manifest_request_record(
        self, traced, tmp_path
    ):
        _, client = traced
        client.simulate_traced(
            traceparent=self._traceparent(), **SIM_PAYLOAD
        )
        records = [
            json.loads(line)
            for line in (tmp_path / "manifest.jsonl")
            .read_text()
            .splitlines()
        ]
        (request,) = [r for r in records if r["event"] == "request"]
        assert request["trace_id"] == self.CALLER_TRACE

    def test_tracing_off_is_byte_identical_and_404s_debug(self, tmp_path):
        """--no-tracing must change nothing but the extras: the
        /simulate body stays byte-identical to the batch engine, and
        the debug routes answer 404."""
        service = SchedulingService(
            cache=ResultCache(tmp_path / "cache"),
            trace_requests=False,
        )
        with ServiceThread(service) as thread:
            client = ServiceClient(port=thread.port)
            spec = to_cell_spec(
                parse_request("simulate", dict(SIM_PAYLOAD))
            )
            (cell,) = evaluate_cells([spec], jobs=1)
            expected = (
                json.dumps(cell_payload(cell), sort_keys=True) + "\n"
            ).encode("utf-8")
            status, body, headers = client.request(
                "POST", "/simulate", dict(SIM_PAYLOAD),
                headers={"traceparent": self._traceparent()},
            )
            assert (status, body) == (200, expected)
            assert "traceparent" not in headers
            for path in ("/debug/requests", f"/debug/trace/{'a' * 32}"):
                status, body = client.raw_request("GET", path)
                assert status == 404
                assert "tracing is disabled" in json.loads(body)["error"]

    def test_malformed_traceparent_falls_back_to_a_fresh_trace(
        self, traced
    ):
        _, client = traced
        payload, trace_id = client.simulate_traced(
            traceparent="00-not-a-real-header", **SIM_PAYLOAD
        )
        assert "improvement_pct" in payload
        assert trace_id and trace_id != self.CALLER_TRACE

    @staticmethod
    def _spans(client, trace_id):
        trace = client.debug_trace(trace_id)
        assert validate_chrome_trace(trace) == []
        return [e for e in trace["traceEvents"] if e["ph"] == "X"]

    def test_coalesced_requests_each_get_the_cell_spans(self, tmp_path):
        """Two identical traced requests in one flush evaluate one cell;
        both traces hold its ``evaluate_cell`` span and children."""
        service = SchedulingService(
            cache=ResultCache(tmp_path / "cache"),
            batch_window_s=0.25,  # wide window: both join one flush
        )
        trace_ids = ["%032x" % (k + 1) for k in range(2)]
        with ServiceThread(service) as thread:
            client = ServiceClient(port=thread.port)
            threads = [
                threading.Thread(
                    target=client.simulate_traced,
                    kwargs=dict(SIM_PAYLOAD, traceparent=(
                        self._traceparent(trace_id)
                    )),
                )
                for trace_id in trace_ids
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert service._batcher.coalesced == 1
            for trace_id in trace_ids:
                spans = self._spans(client, trace_id)
                (run_batch,) = [
                    e for e in spans if e["name"] == "batcher.run_batch"
                ]
                assert run_batch["args"] == {
                    "batch_size": 1, "coalesced": 1,
                }
                engine = [e["name"] for e in spans if e["cat"] == "engine"]
                assert engine[0] == "evaluate_cell TRACK"
                assert engine.count("evaluate_cell TRACK") == 1
                assert {
                    "cell", "compile", "simulate_program", "bootstrap",
                } <= set(engine)
                (record,) = [
                    r for r in client.debug_requests()
                    if r["trace_id"] == trace_id
                ]
                assert "engine" in record["timings_ms"]

    def test_replay_from_the_result_cache_shows_cache_hit(self, traced):
        _, client = traced
        first, second = "%032x" % 1, "%032x" % 2
        for trace_id in (first, second):
            client.simulate_traced(
                traceparent=self._traceparent(trace_id), **SIM_PAYLOAD
            )
        evaluated = self._spans(client, first)
        replayed = self._spans(client, second)
        (cell,) = [
            e for e in evaluated if e["name"] == "evaluate_cell TRACK"
        ]
        (hit,) = [e for e in replayed if e["cat"] == "engine"]
        assert hit["name"] == "cache_hit TRACK"
        assert hit["dur"] == 0
        assert hit["args"] == {"cell_key": cell["args"]["cell_key"]}
        (record,) = [
            r for r in client.debug_requests() if r["trace_id"] == second
        ]
        assert "engine" not in record["timings_ms"]

    def test_stall_cycles_arg_is_the_manifest_records_total(
        self, traced, tmp_path
    ):
        """The ``evaluate_cell`` span's ``stall_cycles`` is the load-stall
        total its cell's manifest record carries, and is nonzero for a
        block that waits on loads."""
        _, client = traced
        client.simulate_traced(
            traceparent=self._traceparent(), **SIM_PAYLOAD
        )
        (cell,) = [
            e for e in self._spans(client, self.CALLER_TRACE)
            if e["name"] == "evaluate_cell TRACK"
        ]
        (record,) = [
            r for r in map(json.loads, (tmp_path / "manifest.jsonl")
                           .read_text().splitlines())
            if r["event"] == "cell"
        ]
        total = record["metrics"]["histograms"]["sim.load_stall_cycles"][
            "total"]
        assert total > 0
        assert cell["args"]["stall_cycles"] == total


class TestRecorderSpans:
    """The daemon's always-on recorder must not grow with traffic."""

    @staticmethod
    def _mixed_requests(client, count):
        for k in range(count):
            kind = k % 5
            if kind == 0:  # a fresh cell each time
                client.simulate(**dict(SIM_PAYLOAD, seed=k))
            elif kind == 1:
                client.compile(program="TRACK")
            elif kind == 2:
                client.schedule(program="TRACK", policy="traditional")
            elif kind == 3:
                client.explain(program="TRACK")
            else:
                client.compile(source=SOURCE)

    def test_an_owned_recorder_keeps_no_spans(self, tmp_path):
        assert obs.get() is None
        service = SchedulingService(cache=ResultCache(tmp_path / "cache"))
        with ServiceThread(service) as thread:
            client = ServiceClient(port=thread.port)
            self._mixed_requests(client, 50)
            rec = obs.get()
            assert rec is not None and rec is service._recorder
            assert len(rec.spans) == 0
            # The traces themselves are intact.
            assert all(r["spans"] > 0 for r in client.debug_requests())

    def test_a_recorder_installed_beforehand_is_left_alone(self, tmp_path):
        with obs.recording() as rec:
            service = SchedulingService(cache=ResultCache(tmp_path / "c"))
            with ServiceThread(service) as thread:
                self._mixed_requests(ServiceClient(port=thread.port), 5)
            assert obs.get() is rec
        assert any(span.name == "simulate_program" for span in rec.spans)


class TestMetricsEndpoint:
    def test_prometheus_text_is_valid(self, served):
        _, client = served
        client.simulate(**SIM_PAYLOAD)
        client.compile(source=SOURCE)
        text = client.metrics()
        assert validate_prometheus_text(text) == []
        assert 'service_requests{endpoint="simulate",status="200"} 1' in text

    def test_request_records_land_in_the_manifest(self, served, tmp_path):
        service, client = served
        client.simulate(**SIM_PAYLOAD)
        client.healthz()
        with pytest.raises(ServiceError):
            client.simulate(program="TRACK", memory="BOGUS")
        # Shut down to flush run_end, then reassemble.
        # (ServiceThread's __exit__ does it; read after the with block
        # in other tests -- here read the raw records instead.)
        records = [
            json.loads(line)
            for line in (tmp_path / "manifest.jsonl").read_text().splitlines()
        ]
        requests = [r for r in records if r["event"] == "request"]
        assert [r["kind"] for r in requests] == ["simulate", "simulate"]
        assert [r["status"] for r in requests] == [200, 400]


class TestRequestValidation:
    def test_unknown_field_is_400(self, served):
        _, client = served
        with pytest.raises(ServiceError) as excinfo:
            client.simulate(program="TRACK", memory="N(2,5)", bogus=1)
        assert excinfo.value.status == 400
        assert "bogus" in str(excinfo.value)

    def test_delay_tracking_processor_specs_are_accepted(self, served):
        """/simulate takes the full parse_processor grammar, so the
        adaptive-hardware family is reachable over the wire."""
        _, client = served
        payload = client.simulate(processor="dt8", **SIM_PAYLOAD)
        assert payload["processor"] == "DT-8"
        payload = client.simulate(processor="max8x2+dt4", **SIM_PAYLOAD)
        assert payload["processor"] == "MAX-8x2+DT4"

    def test_unknown_processor_spec_is_400(self, served):
        _, client = served
        with pytest.raises(ServiceError) as excinfo:
            client.simulate(
                processor="dt8turbo", **SIM_PAYLOAD
            )
        assert excinfo.value.status == 400
        assert "dt8turbo" in str(excinfo.value)

    @pytest.mark.parametrize("spec", ("blockingx2", "blockingx2+dt4"))
    def test_blocking_multi_issue_processor_is_400(self, served, spec):
        """A blocking multi-issue machine is not modelled: refused, not
        answered as if its loads did not block."""
        _, client = served
        with pytest.raises(ServiceError) as excinfo:
            client.simulate(processor=spec, **SIM_PAYLOAD)
        assert excinfo.value.status == 400
        assert "blocking loads are modelled for single-issue" in str(
            excinfo.value
        )

    def test_unknown_program_is_400(self, served):
        _, client = served
        with pytest.raises(ServiceError) as excinfo:
            client.simulate(program="NOPE", memory="N(2,5)")
        assert excinfo.value.status == 400

    def test_source_xor_program(self, served):
        _, client = served
        with pytest.raises(ServiceError) as excinfo:
            client.compile(source=SOURCE, program="TRACK")
        assert excinfo.value.status == 400

    def test_bad_json_is_400(self, served):
        _, client = served
        status, _ = client.raw_request("POST", "/compile", None)
        # empty body parses as {} -> missing source/program -> 400
        assert status == 400

    def test_unknown_route_is_404(self, served):
        _, client = served
        status, _ = client.raw_request("GET", "/nope")
        assert status == 404

    def test_unknown_block_is_404(self, served):
        _, client = served
        with pytest.raises(ServiceError) as excinfo:
            client.explain(source=SOURCE, block="nope")
        assert excinfo.value.status == 404
        assert "choose from" in str(excinfo.value)

    def test_bad_minif_source_is_400(self, served):
        _, client = served
        with pytest.raises(ServiceError) as excinfo:
            client.compile(source="program broken\n")
        assert excinfo.value.status == 400
