"""JoinServer: admission control, coalescing, lifecycle, and the
multi-client correctness storm.

The deterministic half drives a fake backend whose executions park on an
Event, so the tests control exactly how many queries are in flight when
admission decisions happen. The storm half hammers one real
:class:`~repro.session.Session` from many threads and holds the server
to the only acceptable standard: byte-identical results to serial
execution and cache counters that add up exactly.
"""

import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.adm.cells import CellSet
from repro.errors import ExecutionError, Overloaded
from repro.obs.metrics import MetricsRegistry
from repro.serve import JoinServer, tenant_cache_stats
from repro.serve.server import REJECTED_OPTIONS
from repro.session import Session

MERGE_QUERY = "SELECT A.v, B.v FROM A JOIN B ON A.i = B.i AND A.j = B.j"
HASH_QUERY = (
    "SELECT A.v, B.v INTO T<av:int64, bv:int64>[] "
    "FROM A, B WHERE A.v = B.v"
)
QUERIES = (MERGE_QUERY, HASH_QUERY)


def result_bytes(result) -> bytes:
    """Canonical byte representation of a join output: sorted cells.

    Parallelism, coalescing, and cache warmth may reorder rows; they
    must never change the cells, so identity is judged on the sorted
    structured representation.
    """
    packed = result.cells.to_structured(sorted(result.cells.attrs))
    return np.sort(packed).tobytes()


class FakeBackend:
    """Backend whose executions park until released; counts concurrency."""

    def __init__(self):
        self.metrics = MetricsRegistry()
        self.gate = threading.Event()
        self.started = threading.Semaphore(0)
        self._lock = threading.Lock()
        self.calls = 0
        self.active = 0
        self.max_active = 0

    def execute(self, statement, **options):
        with self._lock:
            self.calls += 1
            self.active += 1
            self.max_active = max(self.max_active, self.active)
        self.started.release()
        try:
            if not self.gate.wait(timeout=10):
                raise TimeoutError("gate never opened")
            return (statement, tuple(sorted(options.items())))
        finally:
            with self._lock:
                self.active -= 1


def build_session(seed=7, n_cells=150):
    gen = np.random.default_rng(seed)
    session = Session(n_nodes=3, selectivity_hint=0.3)
    for name, sub_seed in (("A", 2 * seed), ("B", 2 * seed + 1)):
        sub = np.random.default_rng(sub_seed)
        coords = np.unique(sub.integers(1, 33, size=(n_cells, 2)), axis=0)
        session.create_and_load(
            f"{name}<v:int64>[i=1,32,8, j=1,32,8]",
            CellSet(coords, {"v": sub.integers(0, 8, len(coords))}),
        )
    return session


class TestAdmissionControl:
    def test_shed_fires_exactly_at_the_bound(self):
        backend = FakeBackend()
        server = JoinServer(
            backend, max_in_flight=2, queue_depth=1, overload="shed",
            coalesce=False,
        )
        try:
            # Fill every permit: 2 running + 1 queued.
            futures = [server.submit(f"Q{i}") for i in range(3)]
            for _ in range(2):
                assert backend.started.acquire(timeout=5)
            assert server.in_flight == 3
            # The 4th request must shed with the typed error...
            with pytest.raises(Overloaded):
                server.submit("Q3")
            counters = backend.metrics.snapshot()["counters"]
            assert counters["serve_queries_shed"] == 1
            assert counters["serve_queries_admitted"] == 3
            # ...and admission must recover once work drains.
            backend.gate.set()
            for future in futures:
                future.result(timeout=5)
            assert server.execute("Q4") is not None
        finally:
            backend.gate.set()
            server.shutdown()

    def test_block_policy_bounds_concurrency(self):
        backend = FakeBackend()
        server = JoinServer(
            backend, max_in_flight=2, queue_depth=0, overload="block",
            coalesce=False,
        )
        try:
            results = []
            threads = [
                threading.Thread(
                    target=lambda i=i: results.append(
                        server.execute(f"Q{i}")
                    ),
                    daemon=True,
                )
                for i in range(6)
            ]
            for thread in threads:
                thread.start()
            for _ in range(2):
                assert backend.started.acquire(timeout=5)
            # Blocked submitters wait; they never shed and never
            # oversubscribe the backend.
            time.sleep(0.05)
            assert backend.max_active <= 2
            backend.gate.set()
            for thread in threads:
                thread.join(timeout=5)
            assert len(results) == 6
            assert backend.max_active <= 2
            counters = backend.metrics.snapshot()["counters"]
            assert counters.get("serve_queries_shed", 0) == 0
        finally:
            backend.gate.set()
            server.shutdown()

    def test_invalid_config_rejected(self):
        backend = FakeBackend()
        with pytest.raises(ExecutionError, match="overload policy"):
            JoinServer(backend, overload="panic")
        with pytest.raises(ExecutionError, match="max_in_flight"):
            JoinServer(backend, max_in_flight=0)
        with pytest.raises(ExecutionError, match="queue_depth"):
            JoinServer(backend, queue_depth=-1)


class TestCoalescing:
    def test_identical_requests_share_one_execution(self):
        backend = FakeBackend()
        server = JoinServer(backend, max_in_flight=2, coalesce=True)
        try:
            leader = server.submit("Q", tenant="t0", planner="tabu")
            assert backend.started.acquire(timeout=5)
            follower = server.submit("Q", tenant="t0", planner="tabu")
            assert follower is leader
            backend.gate.set()
            assert leader.result(timeout=5) is follower.result(timeout=5)
            assert backend.calls == 1
            counters = backend.metrics.snapshot()["counters"]
            assert counters["serve_queries_coalesced"] == 1
            assert counters["serve_queries_admitted"] == 1
            # Both waiters' latencies were recorded.
            histogram = backend.metrics.snapshot()["histograms"]
            assert histogram["serve_latency_seconds"]["count"] == 2
        finally:
            backend.gate.set()
            server.shutdown()

    def test_tenants_share_identical_executions(self):
        # The result is a pure function of statement + options; tenant
        # is cache-namespace metadata, so cross-tenant duplicates
        # coalesce onto one execution.
        backend = FakeBackend()
        server = JoinServer(backend, max_in_flight=2, coalesce=True)
        try:
            first = server.submit("Q", tenant="t0")
            second = server.submit("Q", tenant="t1")
            assert second is first
            backend.gate.set()
            first.result(timeout=5)
            assert backend.calls == 1
        finally:
            backend.gate.set()
            server.shutdown()

    def test_different_options_never_coalesce(self):
        backend = FakeBackend()
        server = JoinServer(backend, max_in_flight=2, coalesce=True)
        try:
            first = server.submit("Q", planner="tabu")
            second = server.submit("Q", planner="baseline")
            assert second is not first
            backend.gate.set()
            first.result(timeout=5)
            second.result(timeout=5)
            assert backend.calls == 2
        finally:
            backend.gate.set()
            server.shutdown()

    def test_coalesce_off_runs_every_request(self):
        backend = FakeBackend()
        backend.gate.set()
        server = JoinServer(backend, max_in_flight=2, coalesce=False)
        try:
            futures = [server.submit("Q") for _ in range(4)]
            for future in futures:
                future.result(timeout=5)
            assert backend.calls == 4
        finally:
            server.shutdown()


class TestLifecycle:
    def test_rejected_options(self):
        backend = FakeBackend()
        server = JoinServer(backend)
        try:
            for option in sorted(REJECTED_OPTIONS):
                with pytest.raises(ExecutionError, match="not servable"):
                    server.submit("Q", **{option: True})
        finally:
            server.shutdown()

    def test_drain_then_submit_is_overloaded(self):
        backend = FakeBackend()
        backend.gate.set()
        server = JoinServer(backend, max_in_flight=2)
        server.execute("Q")
        assert server.drain(timeout=5)
        assert server.closed
        with pytest.raises(Overloaded, match="closed"):
            server.submit("Q")
        server.shutdown()

    def test_drain_waits_for_in_flight_work(self):
        backend = FakeBackend()
        server = JoinServer(backend, max_in_flight=1)
        future = server.submit("Q")
        assert backend.started.acquire(timeout=5)
        assert not server.drain(timeout=0.05), "work still parked"
        backend.gate.set()
        assert server.drain(timeout=5)
        assert future.result(timeout=5) is not None
        server.shutdown()

    def test_context_manager_shuts_down(self):
        backend = FakeBackend()
        backend.gate.set()
        with JoinServer(backend) as server:
            server.execute("Q")
        with pytest.raises(Overloaded):
            server.submit("Q")

    def test_failed_query_counts_and_propagates(self):
        class Exploding:
            metrics = MetricsRegistry()

            def execute(self, statement, **options):
                raise ExecutionError("boom")

        backend = Exploding()
        with JoinServer(backend) as server:
            with pytest.raises(ExecutionError, match="boom"):
                server.execute("Q")
            counters = backend.metrics.snapshot()["counters"]
            assert counters["serve_queries_failed"] == 1
            assert counters.get("serve_queries_completed", 0) == 0
        # Failures release their admission permits: a fresh server over
        # the same bound would otherwise wedge after max_in_flight errors.

    def test_stats_shape(self):
        backend = FakeBackend()
        backend.gate.set()
        with JoinServer(backend, max_in_flight=3, queue_depth=2) as server:
            server.execute("Q")
            stats = server.stats()
        assert stats["max_in_flight"] == 3
        assert stats["queue_depth"] == 2
        assert stats["completed"] == 1
        assert stats["in_flight"] == 0
        assert stats["latency_p50"] > 0


class TestSessionStorm:
    """Many threads, one Session, one JoinServer: the real thing."""

    @pytest.fixture(scope="class")
    def session(self):
        return build_session()

    def _references(self, session):
        return {
            query: result_bytes(session.execute(query, use_cache=False))
            for query in QUERIES
        }

    @pytest.mark.parametrize("coalesce", [True, False])
    def test_storm_is_byte_identical_to_serial(self, session, coalesce):
        references = self._references(session)
        session.executor.plan_cache.clear()
        tenants = ("alpha", "beta", "gamma")
        n_threads, per_thread = 8, 6
        collected: list[list] = [[] for _ in range(n_threads)]
        failures: list[Exception] = []
        barrier = threading.Barrier(n_threads)

        with JoinServer(
            session, max_in_flight=4, queue_depth=16, coalesce=coalesce
        ) as server:

            def storm(index):
                rng = np.random.default_rng(index)
                barrier.wait()
                for _ in range(per_thread):
                    query = QUERIES[int(rng.integers(2))]
                    tenant = tenants[int(rng.integers(len(tenants)))]
                    try:
                        result = server.execute(query, tenant=tenant)
                        collected[index].append((query, result))
                    except Exception as exc:  # pragma: no cover
                        failures.append(exc)

            threads = [
                threading.Thread(target=storm, args=(index,), daemon=True)
                for index in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)

        assert not failures
        flat = [pair for chunk in collected for pair in chunk]
        assert len(flat) == n_threads * per_thread
        for query, result in flat:
            assert result_bytes(result) == references[query]

    def test_storm_cache_counters_add_up(self, session):
        """With coalescing off every request is a real cache lookup, so
        per-tenant hits + misses must equal exactly the requests issued
        — any drift means a counter or cache race."""
        session.executor.plan_cache.clear()
        metrics = session.executor.metrics
        before = {
            name: value
            for name, value in metrics.snapshot()["counters"].items()
            if name.startswith("tenant_cache_")
        }
        tenants = ("hot", "cold")
        n_threads, per_thread = 6, 5

        with JoinServer(
            session, max_in_flight=4, queue_depth=32, coalesce=False
        ) as server:
            issued = {tenant: 0 for tenant in tenants}
            lock = threading.Lock()

            def storm(index):
                rng = np.random.default_rng(100 + index)
                for _ in range(per_thread):
                    query = QUERIES[int(rng.integers(2))]
                    tenant = tenants[int(rng.integers(2))]
                    with lock:
                        issued[tenant] += 1
                    server.execute(query, tenant=tenant)

            threads = [
                threading.Thread(target=storm, args=(index,), daemon=True)
                for index in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)

        counters = metrics.snapshot()["counters"]
        stats = tenant_cache_stats(
            {
                name: value - before.get(name, 0)
                for name, value in counters.items()
            }
        )
        for tenant in tenants:
            lookups = stats[tenant]["hits"] + stats[tenant]["misses"]
            assert lookups == issued[tenant], (tenant, stats[tenant])
            # Each (tenant, query) pair misses at least once. Concurrent
            # first touches may each miss (the cache is thread-safe but
            # deliberately does not dedupe racing fills — that is the
            # server's coalescing layer, off in this test), so there is
            # no exact upper bound; the load is warm-dominated though.
            assert stats[tenant]["misses"] >= 1
            assert stats[tenant]["hits"] > 0
