"""The serving telemetry plane, scraped over real HTTP.

These tests run a live :class:`JoinServer` (fake parked backend for
admission-shape tests, a real session for end-to-end ones), attach the
monitor thread, and talk to it the way Prometheus and an operator
would: GET the endpoints, parse the exposition, read the query log off
disk, load the capture traces.
"""

import json
import os
import threading
import urllib.error
import urllib.request

import pytest

from repro.errors import ExecutionError, Overloaded
from repro.obs.telemetry import QueryLog, validate_exposition
from repro.obs.trace import validate_chrome_trace
from repro.serve import JoinServer
from repro.serve.monitor import (
    RequestRecord,
    SlowQueryCapture,
    TraceSampler,
    request_tracer,
    scrape,
    scrape_statz,
)
from repro.serve.server import WINDOW_TENANT_CAP

from tests.serve.test_server import MERGE_QUERY, FakeBackend, build_session


@pytest.fixture(scope="module")
def session():
    return build_session()


class TestRequestTracer:
    def test_executed_request_has_queue_and_execute_spans(self):
        record = RequestRecord(
            seq=3, statement="SELECT 1", tenant="t0",
            arrival=100.0, started=100.5, finished=101.25,
        )
        record.latency = 1.25
        trace = request_tracer(record).chrome_trace()
        validate_chrome_trace(trace)
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert [event["name"] for event in spans] == ["queue_wait", "execute"]
        # Spans are epoch-relative to arrival: 0.5s wait, 1.25s total.
        execute = spans[1]
        assert execute["ts"] == pytest.approx(0.5e6)
        assert execute["dur"] == pytest.approx(0.75e6)
        assert execute["args"]["seq"] == 3
        assert execute["args"]["tenant"] == "t0"

    def test_coalesced_request_has_single_wait_span(self):
        record = RequestRecord(
            seq=4, statement="SELECT 1", tenant=None,
            arrival=10.0, coalesced=True,
        )
        record.latency = 0.25
        trace = request_tracer(record).chrome_trace()
        validate_chrome_trace(trace)
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert [event["name"] for event in spans] == ["wait_shared"]


class TestSamplerAndCapture:
    def test_sampler_one_in_n(self, tmp_path):
        sampler = TraceSampler(3, str(tmp_path), limit=16)
        sampled = [seq for seq in range(1, 10) if sampler.should_sample(seq)]
        assert sampled == [3, 6, 9]
        assert not TraceSampler(0).should_sample(5)

    def test_sampler_retention_bounded(self, tmp_path):
        sampler = TraceSampler(1, str(tmp_path), limit=2)
        for seq in range(1, 5):
            record = RequestRecord(
                seq=seq, statement="q", tenant=None, arrival=0.0,
                started=0.0, finished=0.1,
            )
            sampler.record(record)
        assert sampler.sampled == 4
        assert len(sampler.traces) == 2
        assert len(list(tmp_path.iterdir())) == 2

    def test_slow_capture_writes_loadable_trace(self, tmp_path):
        capture = SlowQueryCapture(0.5, str(tmp_path), limit=8)
        fast = RequestRecord(
            seq=1, statement="q", tenant="t", arrival=0.0,
            started=0.0, finished=0.1,
        )
        fast.latency = 0.1
        assert capture.consider(fast) is None
        slow = RequestRecord(
            seq=2, statement="q", tenant="t", arrival=0.0,
            started=0.2, finished=1.2,
        )
        slow.latency = 1.2
        trace_path = capture.consider(slow)
        assert trace_path is not None
        with open(trace_path) as handle:
            validate_chrome_trace(json.load(handle))
        explain_path = trace_path.replace(".trace.json", ".explain.txt")
        text = open(explain_path).read()
        assert "seq=2" in text
        assert "(no explain backend configured)" in text
        assert capture.captures == 1

    def test_slow_capture_retention_drops_oldest_group(self, tmp_path):
        capture = SlowQueryCapture(0.0, str(tmp_path), limit=2)
        for seq in range(1, 4):
            record = RequestRecord(
                seq=seq, statement="q", tenant=None, arrival=0.0,
                started=0.0, finished=0.2,
            )
            record.latency = 0.2
            capture.consider(record)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert len(names) == 4  # 2 groups x (trace + explain)
        assert not any("slow-000001" in name for name in names)


class TestMonitorEndpoints:
    def test_metrics_healthz_statz_over_http(self, session):
        with JoinServer(session, max_in_flight=2) as server:
            with server.monitor() as monitor:
                for index in range(3):
                    server.execute(MERGE_QUERY, tenant=f"t{index % 2}")
                text = scrape(monitor.url)
                assert validate_exposition(text) == []
                assert "repro_serve_latency_seconds_bucket" in text
                assert 'repro_tenant_cache_misses_total{tenant="t0"}' in text
                assert "repro_serve_queries_completed_total 3" in text

                health = json.loads(scrape(monitor.url, "/healthz"))
                assert health == {"status": "ok", "in_flight": 0}

                statz = scrape_statz(monitor.url)
                assert statz["completed"] == 3
                window = statz["window"]
                assert window["count"] == 3
                assert window["tenants"]["t0"]["p99"] > 0
                assert "metrics" in statz

                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    scrape(monitor.url, "/nonsense")
                assert excinfo.value.code == 404

    def test_healthz_degrades_once_draining(self):
        backend = FakeBackend()
        backend.gate.set()
        server = JoinServer(backend, max_in_flight=2)
        with server.monitor() as monitor:
            server.drain()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                scrape(monitor.url, "/healthz")
            assert excinfo.value.code == 503
            payload = json.loads(excinfo.value.read().decode("utf-8"))
            assert payload["status"] == "closing"
        server.shutdown()

    def test_scrape_counters_move(self):
        # A fresh session: scrape counters live in the session registry,
        # which the module-scoped fixture shares across tests.
        with JoinServer(build_session()) as server:
            with server.monitor() as monitor:
                scrape(monitor.url)
                scrape(monitor.url)
                text = scrape(monitor.url)
        assert "repro_monitor_scrapes_metrics_total 3" in text


class TestQueryLogIntegration:
    def test_one_record_per_request_including_coalesced_and_shed(
        self, tmp_path
    ):
        backend = FakeBackend()
        log_path = tmp_path / "queries.jsonl"
        server = JoinServer(
            backend, max_in_flight=1, queue_depth=0, overload="shed",
            coalesce=True, query_log=str(log_path),
        )
        try:
            leader = server.submit("Q", tenant="a")
            backend.started.acquire(timeout=5)
            follower = server.submit("Q", tenant="b")  # coalesces
            assert follower is leader
            with pytest.raises(Overloaded):
                server.submit("R", tenant="c")  # sheds
            backend.gate.set()
            leader.result(timeout=5)
        finally:
            backend.gate.set()
            server.shutdown()
        records = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
        ]
        assert len(records) == 3
        by_outcome = {}
        for record in records:
            by_outcome.setdefault(record["outcome"], []).append(record)
        assert len(by_outcome["ok"]) == 2
        assert len(by_outcome["shed"]) == 1
        assert by_outcome["shed"][0]["shed"] is True
        coalesced = [r for r in records if r["coalesced"]]
        assert len(coalesced) == 1
        assert coalesced[0]["tenant"] == "b"
        # Stable schema: every record carries every meta field.
        for record in records:
            for field in ("kernel", "parallel_mode", "units_split",
                          "runtime_resplits", "fingerprint", "ts",
                          "latency_seconds", "cache", "sampled"):
                assert field in record

    def test_real_execution_populates_cache_and_meta(self, tmp_path):
        # Fresh session: the first execution must be a cold cache miss.
        log_path = tmp_path / "queries.jsonl"
        with JoinServer(build_session(), query_log=str(log_path)) as server:
            server.execute(MERGE_QUERY, tenant="t0")
            server.execute(MERGE_QUERY, tenant="t0")
        # Records land in callback-completion order, not sequence order;
        # the seq field carries the true arrival order.
        first, second = sorted(
            (json.loads(line) for line in log_path.read_text().splitlines()),
            key=lambda record: record["seq"],
        )
        assert first["cache"] == "miss"
        assert second["cache"] == "hit"
        assert first["kernel"] is not None
        assert first["fingerprint"] == second["fingerprint"]

    def test_shared_query_log_not_closed_by_server(self, tmp_path):
        backend = FakeBackend()
        backend.gate.set()
        log = QueryLog(tmp_path / "q.jsonl")
        with JoinServer(backend, query_log=log) as server:
            server.execute("Q")
        log.log({"still": "open"})  # caller owns it
        log.close()

    def test_owned_query_log_closed_on_shutdown(self, tmp_path):
        backend = FakeBackend()
        backend.gate.set()
        server = JoinServer(backend, query_log=str(tmp_path / "q.jsonl"))
        server.execute("Q")
        server.shutdown()
        with pytest.raises(ValueError):
            server._query_log.log({"late": True})


class TestServerTelemetryIntegration:
    def test_sampling_and_slow_capture_on_live_server(
        self, session, tmp_path
    ):
        capture_dir = tmp_path / "captures"
        with JoinServer(
            session, trace_sample=1, slow_query_seconds=0.0,
            capture_dir=str(capture_dir), coalesce=False,
        ) as server:
            for _ in range(3):
                server.execute(MERGE_QUERY, tenant="t0")
        # Captures run in the done-callback, which may lag the caller;
        # shutdown joins the pool workers, so by here they are all in.
        stats = server.stats()["telemetry"]
        assert stats["trace_sample"] == 1
        assert stats["sampled"] == 3
        assert stats["slow_captures"] == 3
        # Explain-analyze ran for at least one capture (serialised on a
        # non-blocking lock, so concurrent captures may skip it).
        assert stats["slow_explains"] >= 1
        traces = [
            name for name in os.listdir(capture_dir)
            if name.endswith(".trace.json")
        ]
        assert traces
        for name in traces:
            with open(capture_dir / name) as handle:
                validate_chrome_trace(json.load(handle))
        explains = [
            name for name in os.listdir(capture_dir)
            if name.endswith(".explain.txt")
        ]
        assert any(
            "EXPLAIN ANALYZE" in (capture_dir / name).read_text()
            for name in explains
        )

    def test_occupancy_gauges_track_requests(self):
        backend = FakeBackend()
        server = JoinServer(backend, max_in_flight=1, queue_depth=1)
        try:
            first = server.submit("A")
            backend.started.acquire(timeout=5)
            second = server.submit("B")  # admitted, waiting for a thread
            stats = server.stats()
            assert stats["in_flight"] == 2
            assert stats["running"] == 1
            assert stats["queued"] == 1
            backend.gate.set()
            first.result(timeout=5)
            second.result(timeout=5)
            server.drain()
            stats = server.stats()
            assert stats["in_flight"] == 0
            assert stats["running"] == 0
            assert stats["queued"] == 0
        finally:
            backend.gate.set()
            server.shutdown()

    def test_tenant_window_cardinality_cap(self):
        backend = FakeBackend()
        backend.gate.set()
        with JoinServer(backend) as server:
            for index in range(WINDOW_TENANT_CAP + 5):
                server.execute("Q", tenant=f"t{index}")
            window = server.stats()["window"]
        assert len(window["tenants"]) == WINDOW_TENANT_CAP + 1
        assert "_other" in window["tenants"]
        assert window["tenants"]["_other"]["count"] == 5
        assert window["count"] == WINDOW_TENANT_CAP + 5

    def test_config_validation(self):
        backend = FakeBackend()
        with pytest.raises(ExecutionError, match="trace_sample"):
            JoinServer(backend, trace_sample=-1)
        with pytest.raises(ExecutionError, match="capture_dir"):
            JoinServer(backend, slow_query_seconds=1.0)
        with pytest.raises(ExecutionError, match="window_seconds"):
            JoinServer(backend, window_seconds=0.0)


class TestScrapeUnderLoad:
    def test_closed_loop_with_monitor_scrapes_validly(self, session, tmp_path):
        from repro.serve.load import QueryMix, run_closed_loop

        mix = QueryMix(
            statements=[MERGE_QUERY], tenants=["a", "b"], seed=3
        )
        log_path = tmp_path / "queries.jsonl"
        with JoinServer(
            session, max_in_flight=2, query_log=str(log_path), trace_sample=1,
        ) as server:
            with server.monitor() as monitor:
                report = run_closed_loop(
                    server, mix, clients=2, requests_per_client=5,
                    monitor=monitor, scrape_interval=0.005,
                )
        assert report.completed == 10
        assert report.scrapes >= 1
        assert report.scrape_errors == []
        # Scraping under load loses no query-log record, and the log's
        # sampled flags agree with the sampler (coalesced followers are
        # logged but never sampled).
        records = [
            json.loads(line) for line in log_path.read_text().splitlines()
        ]
        assert len(records) == report.completed
        sampled = server.stats()["telemetry"]["sampled"]
        assert 0 < sampled <= report.completed
        assert sum(record["sampled"] for record in records) == sampled
