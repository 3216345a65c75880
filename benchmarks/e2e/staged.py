"""The traced pass: a staged replay that times every layer from outside.

``--trace 1`` first runs a quarter-size *untraced* protocol (the
end-to-end reference the residuals are taken against), then drives
requests through the layers' public functions one call at a time with a
span around each call, then probes the match kernel and materialisation
on their own. Spans (name, start, end, parent, request id) stay in memory
and are written as JSON lines when the run ends. Nothing inside
``src/repro`` is instrumented: what the engine does between two public
calls shows up as ``engine.dispatch_overhead_s`` and in the
``bench.*_residual_share`` metrics, which say how faithful the staging is.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

from repro.adm.cells import CellSet
from repro.core.cost_model import AnalyticalCostModel
from repro.core.join_schema import infer_join_schema
from repro.core.logical import LogicalPlanner, PlanInputs
from repro.core.multijoin import MultiJoinPlanner
from repro.core.planners import get_planner
from repro.engine.estimate import estimate_selectivity
from repro.engine.executor import PreparedJoin
from repro.engine.joins import match_pairs
from repro.engine.kernels import packed_match_sorted
from repro.engine.multijoin import (
    estimate_pair_selectivities,
    execute_multi_join,
)
from repro.engine.output import OutputBuilder, derive_destination
from repro.engine.parallel import shutdown_pools
from repro.errors import Overloaded
from repro.query.ddl import parse_statement
from repro.serve.cache import CachedPlan
from repro.serve.fingerprint import plan_fingerprint
from repro.serve.server import JoinServer

from benchmarks.e2e import measure, stats
from benchmarks.e2e.measure import Checker, Metric, System
from benchmarks.e2e.workloads import Scale, Workload, tenant_names

#: Open-loop rates (requests per second) and the latency limit that
#: defines ``serve.open_max_rate_qps``.
OPEN_RATES = (5, 10, 20)
OPEN_LIMIT_S = 0.25

#: Stand-alone match / materialise probes, spread over the steady replay.
PROBES = 8


# ------------------------------------------------------------------- spans


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: int | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanLog:
    """In-memory span recorder; written out once, at the end."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []

    @contextmanager
    def span(self, name: str, parent: Span | None = None, request: int | None = None):
        span = Span(
            id=len(self.spans), name=name, start=0.0,
            parent=parent.id if parent is not None else None,
            request=request if parent is None else parent.request,
        )
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()

    def record(self, name: str, start: float, seconds: float, request: int | None = None):
        """A span whose duration was accumulated over many short calls."""
        self.spans.append(
            Span(len(self.spans), name, start, start + seconds, None, request)
        )

    def seconds(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def p50(self, name: str) -> float:
        """The span's quiet-machine median (see ``stats.quiet_median``);
        0 when no such span was recorded."""
        samples = self.seconds(name)
        return stats.quiet_median(samples) if samples else 0.0

    def write(self, path: Path) -> None:
        with open(path, "w") as out:
            for s in self.spans:
                out.write(
                    json.dumps(
                        {
                            "workload": self.workload, "id": s.id,
                            "name": s.name, "start": s.start, "end": s.end,
                            "parent": s.parent, "request": s.request,
                        }
                    )
                    + "\n"
                )


# --------------------------------------------------------- serve-plane proxy


class TimestampingBackend:
    """What JoinServer dispatches to in the traced pass: the Session,
    with entry/exit timestamps pinned on every result, so queue wait,
    backend execution and server overhead separate without touching
    ``src/``."""

    def __init__(self, session):
        self.session = session
        self.metrics = session.metrics
        self.plan_cache = session.plan_cache

    def execute(self, statement, **options):
        entered = time.perf_counter()
        result = self.session.execute(statement, **options)
        result._bench_span = (entered, time.perf_counter())
        return result


# ------------------------------------------------------------ staged replay


def logical_phase(executor, query, join_algo):
    """The logical planning the executor does inside ``prepare``,
    re-done through public functions (no statement here carries a
    pushdown filter, so input sizes are plain cell counts)."""
    cluster = executor.cluster
    alpha, beta = cluster.schema(query.left), cluster.schema(query.right)
    histograms = {}
    for pred in query.predicates:
        for array, schema, name in (
            (query.left, alpha, pred.left.field),
            (query.right, beta, pred.right.field),
        ):
            if schema.has_attr(name):
                known = cluster.statistics(array).histograms
                if name in known:
                    histograms[f"{schema.name}.{name}"] = known[name]
    join_schema = infer_join_schema(
        query, alpha, beta, histograms=histograms,
        destination=derive_destination(query, alpha, beta),
    )
    selectivity = executor.selectivity_hint
    if selectivity is None:
        selectivity = estimate_selectivity(
            cluster, query.left, query.right, join_schema
        )
    planner = LogicalPlanner(
        join_schema,
        PlanInputs(
            n_alpha=cluster.array_cell_count(query.left),
            n_beta=cluster.array_cell_count(query.right),
            c_alpha=max(cluster.catalog_entry(query.left).n_chunks, 1),
            c_beta=max(cluster.catalog_entry(query.right).n_chunks, 1),
            selectivity=selectivity,
            n_nodes=cluster.n_nodes,
        ),
    )
    if join_algo is None:
        return planner.best_plan(include_nested_loop=False)
    return planner.plan_named(join_algo)


class DirectReference:
    """Untraced end-to-end requests of statement 0, sent straight to the
    Session *between* the staged ones, so both see the same stretch of
    machine: what the residual and overhead shares are taken against."""

    def __init__(self, system: System, checker: Checker, tenant):
        self.system = system
        self.checker = checker
        self.options = dict(system.workload.query_options)
        if tenant is not None:
            self.options["tenant"] = tenant
        self.cold: list[float] = []
        self.steady: list[float] = []

    def request(self, cold: bool) -> None:
        session = self.system.session
        if cold:
            session.executor.invalidate_cached_plans()
        started = time.perf_counter()
        result = session.execute(
            self.system.workload.statements[0].text, **self.options
        )
        (self.cold if cold else self.steady).append(
            time.perf_counter() - started
        )
        self.checker.record(0, self.system.version, result)

    @property
    def cold_p50(self) -> float:
        return stats.quiet_median(self.cold)

    @property
    def steady_p50(self) -> float:
        return stats.quiet_median(self.steady)


def _lookup(log: SpanLog, request: Span, system: System, tenant, get_name):
    """parse → fingerprint → plan-cache get, one span each."""
    executor = system.session.executor
    options = system.workload.query_options
    with log.span("query.parse", request):
        parsed = parse_statement(system.workload.statements[0].text)
    with log.span("serve.fingerprint", request):
        fingerprint = plan_fingerprint(
            parsed, system.session.cluster, options["planner"],
            options.get("join_algo"), executor._fingerprint_options(tenant),
        )
    with log.span(get_name, request):
        entry = system.session.plan_cache.get(fingerprint)
    return parsed, fingerprint, entry


def _process_mode(executor) -> bool:
    return executor.parallel_mode == "process" and executor.n_workers > 1


def staged_two_way(
    log: SpanLog, system: System, checker: Checker, direct: DirectReference,
    n_cold: int, n_steady: int, tenant,
) -> None:
    """Drive cold then steady requests of statement 0 layer by layer,
    each followed by the same request made end to end, untraced."""
    session = system.session
    executor = session.executor
    options = system.workload.query_options
    planner, algo = options["planner"], options.get("join_algo")
    serial = 0
    for _ in range(n_cold):
        executor.invalidate_cached_plans()
        serial += 1
        with log.span("request.cold", request=serial) as request:
            parsed, fingerprint, _ = _lookup(
                log, request, system, tenant, "serve.cache_get.miss"
            )
            with log.span("core.prepare", request):
                prepared = executor.prepare(parsed, join_algo=algo)
            if _process_mode(executor):
                with log.span("engine.arena_build", request):
                    prepared.slice_table.shm_arena()
            with log.span("engine.execute_first", request):
                result = prepared.execute(planner)
            with log.span("serve.cache_put", request):
                session.plan_cache.put(
                    CachedPlan(
                        join_schema=prepared.join_schema,
                        logical_plan=prepared.logical_plan,
                        n_units=prepared.n_units,
                        slice_table=prepared.slice_table,
                        assignment=result.physical_plan.assignment,
                        physical_plan=result.physical_plan,
                        arrays=(parsed.left, parsed.right),
                        fingerprint=fingerprint,
                    )
                )
        checker.record(0, system.version, result)
        # Stand-alone probes of the two planning layers, outside the request.
        with log.span("core.logical_plan", request=serial):
            logical_phase(executor, parsed, algo)
        with log.span("core.physical_plan", request=serial):
            get_planner(planner, max_rounds=executor.tabu_max_rounds).plan(
                AnalyticalCostModel(
                    prepared.stats, prepared.logical_plan.join_algo,
                    executor.cost,
                )
            )
        del prepared, result
        direct.request(cold=True)
    probe_every = max(n_steady // PROBES, 1)
    for k in range(n_steady):
        serial += 1
        with log.span("request.steady", request=serial) as request:
            parsed, _, entry = _lookup(
                log, request, system, tenant, "serve.cache_get"
            )
            replay = PreparedJoin(
                executor=executor, query=parsed,
                join_schema=entry.join_schema,
                logical_plan=entry.logical_plan, logical_seconds=0.0,
                n_units=entry.n_units, slice_table=entry.slice_table,
            )
            with log.span("engine.execute_repeat", request):
                result = replay.execute(planner)
        checker.record(0, system.version, result)
        direct.request(cold=False)
        if k % probe_every == 0:
            probe_match_and_materialise(log, executor, parsed, replay)


def probe_match_and_materialise(log: SpanLog, executor, query, prepared) -> None:
    """Time matching and materialisation on their own, once.

    Serial workloads: ``match_pairs`` over every matchable unit's key
    columns, then ``OutputBuilder.add_matches`` … ``finish`` with those
    match indices. Process/shm workloads: one ``packed_match_sorted``
    over the arena's fused sorted columns, one ``add_matches``.
    """
    table = prepared.slice_table
    join_schema = prepared.join_schema
    algo = prepared.logical_plan.join_algo
    if _process_mode(executor):
        arena = table.shm_arena()
        with log.span("engine.match_kernel"):
            li, ri = packed_match_sorted(
                arena.left_keys, arena.right_keys, executor.kernel
            )
        li, ri = arena.left_order[li], arena.right_order[ri]
        left, right = table.left_assembly, table.right_assembly
        with log.span("engine.materialise"):
            builder = OutputBuilder(query, join_schema)
            builder.add_matches(left.cells, right.cells, li, ri, left.key_cols)
            builder.finish()
        return
    totals = prepared.stats
    matchable = (
        (totals.left_unit_totals > 0) & (totals.right_unit_totals > 0)
    ).nonzero()[0]
    matches = []
    first = time.perf_counter()
    spent = 0.0
    for unit in matchable.tolist():
        left_cols, left_keys = table.unit_keys("left", unit, join_schema)
        _, right_keys = table.unit_keys("right", unit, join_schema)
        if algo == "merge":
            lo = table.unit_order("left", unit, join_schema)
            ro = table.unit_order("right", unit, join_schema)
            left_keys, right_keys = left_keys[lo], right_keys[ro]
        started = time.perf_counter()
        li, ri = match_pairs(algo, left_keys, right_keys)
        spent += time.perf_counter() - started
        if algo == "merge":
            li, ri = lo[li], ro[ri]
        matches.append((unit, li, ri, left_cols))
    log.record("engine.match_kernel", first, spent)
    with log.span("engine.materialise"):
        builder = OutputBuilder(query, join_schema)
        for unit, li, ri, left_cols in matches:
            builder.add_matches(
                table.assembled("left", unit),
                table.assembled("right", unit), li, ri, left_cols,
            )
        builder.finish()


def staged_chain(
    log: SpanLog, system: System, checker: Checker, direct: DirectReference,
    n_cold: int, n_steady: int,
):
    """The multiway pipeline, staged.

    Cold: parse, pipeline fingerprint, cache miss, the ordering step
    (pair sampling + DP) through its public functions, then
    ``execute_multi_join`` under that plan. Stage statements are built
    by engine-private helpers, so the per-stage planning layers are read
    from the stage reports' ``prepare_breakdown`` instead of re-timed.
    Steady: parse, fingerprint, cache hit, and the cached final stage
    replayed as a ``PreparedJoin`` behind a schema-only ephemeral shell,
    as the engine's warm path does. Returns the last cold result and the
    per-request sums of the stage-report layers.
    """
    session = system.session
    executor, cluster = session.executor, session.cluster
    planner = system.workload.query_options["planner"]
    serial = 0
    cold_result = None
    layers = {"logical_plan": [], "stats": [], "physical_assign": [], "align": []}
    for _ in range(n_cold):
        executor.invalidate_cached_plans()
        serial += 1
        with log.span("request.cold", request=serial) as request:
            parsed, _, _ = _lookup(
                log, request, system, None, "serve.cache_get.miss"
            )
            with log.span("engine.multijoin_order", request):
                sizes = {
                    name: cluster.array_cell_count(name)
                    for name in parsed.arrays
                }
                plan = MultiJoinPlanner(
                    sizes, estimate_pair_selectivities(executor, parsed)
                ).plan(parsed)
            with log.span("engine.multijoin_stages", request):
                cold_result = execute_multi_join(
                    executor, parsed, planner=planner, plan=plan
                )
        checker.record(0, system.version, cold_result)
        breakdowns = [r.report.prepare_breakdown for r in cold_result.stage_results]
        for key in ("logical_plan", "stats", "physical_assign"):
            layers[key].append(sum(b.get(key, 0.0) for b in breakdowns))
        layers["align"].append(
            sum(b.get("alignment", 0.0) + b.get("schedule", 0.0) for b in breakdowns)
        )
        # An explicit plan bypasses the pipeline cache; the end-to-end
        # request that follows populates the entry the steady replay hits.
        direct.request(cold=True)
    probe_every = max(n_steady // PROBES, 1)
    for k in range(n_steady):
        serial += 1
        with log.span("request.steady", request=serial) as request:
            parsed, _, entry = _lookup(
                log, request, system, None, "serve.cache_get"
            )
            with log.span("engine.execute_repeat", request):
                final = entry.stages[-1]
                shell = final.join_schema.left_schema
                cluster.attach_ephemeral(
                    shell,
                    [
                        CellSet.empty(
                            shell.ndims, {a.name: a.dtype for a in shell.attrs}
                        )
                    ]
                    * cluster.n_nodes,
                )
                try:
                    replay = PreparedJoin(
                        executor=executor, query=final.query,
                        join_schema=final.join_schema,
                        logical_plan=final.logical_plan, logical_seconds=0.0,
                        n_units=final.n_units, slice_table=final.slice_table,
                    )
                    result = replay.execute(planner)
                finally:
                    cluster.detach_ephemeral(shell.name)
        checker.record(0, system.version, result)
        direct.request(cold=False)
        if k % probe_every == 0:
            probe_match_and_materialise(log, executor, final.query, replay)
    return cold_result, layers


# ------------------------------------------------------------- serve extras


def one_client_backend_p50(system: System, checker: Checker, n: int) -> float:
    """Backend execute p50 with a single closed-loop client on the same
    server and statements (the denominator of concurrency_slowdown)."""
    tenants = tenant_names(system.workload)
    spans = []
    for k in range(n):
        index = k % len(system.workload.statements)
        result = system.request(index, tenants[k % len(tenants)])
        checker.record(index, system.version, result)
        entered, left = result._bench_span
        spans.append(left - entered)
    return stats.median(spans)


def open_loop(system: System, checker: Checker, rate: float, n: int):
    """``n`` requests sent on a fixed schedule against a shedding server.

    Each latency runs from the request's *scheduled* send time, so a
    stall is charged to every request it delays. Returns (latencies,
    generator lateness per request, requests shed).
    """
    workload = system.workload
    tenants = tenant_names(workload)
    server = JoinServer(
        system.session, **{**measure.SERVER_OPTIONS, "overload": "shed"}
    )
    lock = threading.Lock()
    finished: list[tuple[float, int, object]] = []
    lateness: list[float] = []
    shed = 0
    origin = time.perf_counter() + 0.05
    try:
        for k in range(n):
            due = origin + k / rate
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            lateness.append(max(time.perf_counter() - due, 0.0))
            index = k % len(workload.statements)
            try:
                future = server.submit(
                    workload.statements[index].text,
                    tenant=tenants[k % len(tenants)],
                    **workload.query_options,
                )
            except Overloaded:
                shed += 1
                continue

            def done(future, due=due, index=index):
                with lock:
                    finished.append((time.perf_counter() - due, index, future))

            future.add_done_callback(done)
        server.drain(timeout=60.0)
    finally:
        server.shutdown(wait=True)
    latencies = []
    for latency, index, future in finished:
        if future.exception() is not None:
            checker.error()
            continue
        latencies.append(latency)
        checker.record(index, system.version, future.result())
    return latencies, lateness, shed


# ------------------------------------------------------------ the traced run


def _quarter(scale: Scale, workload: Workload) -> Scale:
    """The traced pass's request counts: a quarter of the untraced run's,
    floored where the statistics need it — 6 requests per client and
    round, or a round is over before its clients ever overlap."""
    return replace(
        scale, requests=scale.requests / 4,
        min_steady=min(scale.min_steady, 48 * workload.clients),
        min_cold=min(scale.min_cold, 4),
    )


def traced(workload: Workload, seed: int, scale: Scale, trace_path: Path) -> dict:
    """Run one workload's traced pass; returns the result record."""
    before = measure.shm_entries()
    record = _traced_body(workload, seed, scale, trace_path)
    # Every reference to the system died with the body's frame, so what
    # is still in /dev/shm now is a leak.
    leaked = measure.leaked_segments(before)
    record["metrics"]["engine.leaked_shm_segments"] = Metric(float(leaked))
    record["correct"] = record["correct"] and leaked == 0
    return record


def _traced_body(
    workload: Workload, seed: int, scale: Scale, trace_path: Path
) -> dict:
    log = SpanLog(workload.name)
    n_cold, n_steady = _quarter(scale, workload).counts(workload)
    system = measure.set_up(
        workload, seed, scale,
        backend_wrapper=TimestampingBackend if workload.served else None,
    )
    session = system.session
    checker = Checker(workload)
    values: dict[str, Metric] = {}

    def put(name: str, value: float, n: int = 1) -> None:
        values[name] = Metric(float(value), n)

    # ---- untraced reference: the same protocol, a quarter of the size
    first_touches = measure.warm_up(system, checker)
    cache_before = session.plan_cache.stats()
    counters_before = session.metrics.snapshot()["counters"]
    reference = measure.run_protocol(
        system, checker, n_cold, n_steady, first_touches
    )
    cache_after = session.plan_cache.stats()
    counters_after = session.metrics.snapshot()["counters"]

    hits = cache_after.get("hits", 0) - cache_before.get("hits", 0)
    misses = cache_after.get("misses", 0) - cache_before.get("misses", 0)
    # Cold samples taken inside the protocol are misses by design; the
    # share is over steady lookups.
    cold_lookups = 0 if reference.cold_from_warm_up else len(reference.cold)
    steady_lookups = hits + misses - cold_lookups
    steady_requests = len(reference.sim)
    put("serve.cache_hit_share", hits / max(steady_lookups, 1), steady_lookups)
    put("serve.miss_share", reference.misses / max(steady_requests, 1), steady_requests)
    put("serve.cache_evictions", cache_after.get("evictions", 0))
    put("serve.cache_entries", cache_after["entries"])
    if reference.loads:
        put("cluster.insert_p50_s", stats.median(reference.loads), len(reference.loads))

    # The serve plane goes first: the staged replay clears the plan cache.
    if workload.served:
        _serve_plane(
            put, system, checker, reference, scale,
            {
                name: counters_after.get(name, 0) - counters_before.get(name, 0)
                for name in counters_after
            },
        )

    direct_steady = _staged_layers(
        put, log, system, checker, reference, n_cold, min(n_steady, 32)
    )

    # ---- exact counters, read from the last steady report
    report = reference.last_result.report
    put("core.n_units", report.n_units)
    put("core.units_split", report.meta.get("units_split", 0))
    put("core.subunits_created", report.meta.get("subunits_created", 0))
    put("cluster.cells_moved", report.cells_moved)
    put("cluster.n_transfers", report.n_transfers)
    put("engine.output_cells", report.output_cells)
    put("engine.output_cells_per_s", report.output_cells / direct_steady)
    put("engine.shm_bytes", report.meta.get("shm_bytes", 0))

    if _process_mode(session.executor):
        # the first request after a pool shutdown pays the worker start
        shutdown_pools()
        started = time.perf_counter()
        checker.record(0, system.version, system.request(0, None))
        put("engine.pool_start_s", time.perf_counter() - started - direct_steady)

    drained = system.close()
    failed = checker.failed(system)
    log.write(trace_path)
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": True,
        "requests": {"cold": n_cold, "steady": n_steady, "setups": 1},
        "attempted": checker.attempted,
        "failed": failed,
        "correct": failed == 0 and drained,
        "metrics": values,
        "spans": len(log.spans),
    }


def _serve_plane(put, system, checker, reference, scale, counted) -> None:
    """Queue wait / backend / overhead from the proxy's stamps on the
    reference protocol's requests; on a multi-client workload also the
    one-client comparison and the open-loop rates."""
    put("serve.queue_wait_p50_s", stats.median(reference.queue_wait), len(reference.queue_wait))
    put(
        "serve.queue_wait_p90_s",
        stats.percentile(reference.queue_wait, 0.90, min_beyond=4),
        len(reference.queue_wait),
    )
    # Plain medians: under concurrency the fastest samples are the ones
    # that happened to run alone, not the quiet-machine ones.
    backend = stats.median(reference.backend)
    put("serve.backend_execute_p50_s", backend, len(reference.backend))
    put("serve.overhead_p50_s", stats.median(reference.overhead), len(reference.overhead))
    coalesced = counted.get("serve_queries_coalesced", 0)
    submitted = max(counted.get("serve_queries_admitted", 0) + coalesced, 1)
    put("serve.coalesced_share", coalesced / submitted, submitted)
    put("serve.shed_count", counted.get("serve_queries_shed", 0))
    put("serve.failed_count", counted.get("serve_queries_failed", 0))
    if system.workload.clients == 1:
        return
    alone = one_client_backend_p50(system, checker, 32)
    put("serve.concurrency_slowdown", backend / alone, 32)
    n_open = max(12, round(40 * scale.requests))
    best_rate = 0.0
    late: list[float] = []
    for rate in OPEN_RATES:
        latencies, lateness, shed = open_loop(system, checker, rate, n_open)
        late.extend(lateness)
        # 12-20 requests per rate cannot support the ten-beyond rule: the
        # p90 is step-valued, which is why these rows are per-layer and
        # not end-to-end.
        p90 = stats.percentile(latencies, 0.90, min_beyond=0)
        put(f"serve.open{rate}_p90_s", p90, len(latencies))
        if p90 <= OPEN_LIMIT_S and shed == 0:
            best_rate = float(rate)
    put("serve.open_late_p90_s", stats.percentile(late, 0.90, min_beyond=3), len(late))
    put("serve.open_max_rate_qps", best_rate)


def _staged_layers(
    put, log: SpanLog, system: System, checker: Checker, reference,
    n_cold: int, n_steady: int,
) -> float:
    """Run the staged replay and report the layer timings and the
    ``bench.*`` faithfulness shares; returns the untraced steady p50 the
    replay was interleaved with."""
    workload = system.workload
    executor = system.session.executor
    tenant = tenant_names(workload)[0] if workload.served else None
    direct = DirectReference(system, checker, tenant)
    if workload.family == "chain":
        cold_result, layers = staged_chain(
            log, system, checker, direct, n_cold, n_steady
        )
        put("core.logical_plan_s", stats.quiet_median(layers["logical_plan"]), n_cold)
        put("core.slice_mapping_s", stats.quiet_median(layers["stats"]), n_cold)
        put("core.physical_plan_s", stats.quiet_median(layers["physical_assign"]), n_cold)
        put("cluster.align_schedule_s", stats.quiet_median(layers["align"]), n_cold)
        put("engine.multijoin_order_s", log.p50("engine.multijoin_order"), n_cold)
        put("engine.multijoin_stages_cold", len(cold_result.stage_results))
        put(
            "engine.multijoin_stages_steady",
            len(reference.last_result.stage_results),
        )
        put(
            "engine.intermediate_cells",
            sum(r.report.output_cells for r in cold_result.stage_results[:-1]),
        )
        cold_spans = ("engine.multijoin_order", "engine.multijoin_stages")
        plan_cost = sum(
            r.physical_plan.cost.total_seconds
            for r in cold_result.stage_results if r.physical_plan is not None
        )
    else:
        staged_two_way(log, system, checker, direct, n_cold, n_steady, tenant)
        logical = log.p50("core.logical_plan")
        physical = log.p50("core.physical_plan")
        put("core.logical_plan_s", logical, n_cold)
        put("core.slice_mapping_s", log.p50("core.prepare") - logical, n_cold)
        put("core.physical_plan_s", physical, n_cold)
        put(
            "cluster.align_schedule_s",
            log.p50("engine.execute_first")
            - log.p50("engine.execute_repeat") - physical,
            n_cold,
        )
        if _process_mode(executor):
            put("engine.arena_build_s", log.p50("engine.arena_build"), n_cold)
        cold_spans = (
            "core.prepare", "engine.arena_build", "engine.execute_first",
            "serve.cache_put",
        )
        plan_cost = reference.last_result.physical_plan.cost.total_seconds
    put("core.plan_cost_s", plan_cost)

    lookup = log.p50("query.parse") + log.p50("serve.fingerprint")
    cold_layers = lookup + log.p50("serve.cache_get.miss") + sum(
        log.p50(name) for name in cold_spans
    )
    repeat = log.p50("engine.execute_repeat")
    steady_layers = lookup + log.p50("serve.cache_get") + repeat
    match = log.p50("engine.match_kernel")
    materialise = log.p50("engine.materialise")
    put("query.parse_s", log.p50("query.parse"), len(log.seconds("query.parse")))
    put("serve.fingerprint_s", log.p50("serve.fingerprint"), len(log.seconds("serve.fingerprint")))
    put("serve.cache_get_s", log.p50("serve.cache_get"), n_steady)
    put("engine.execute_repeat_s", repeat, n_steady)
    put("engine.match_kernel_s", match, len(log.seconds("engine.match_kernel")))
    put("engine.materialise_s", materialise, len(log.seconds("engine.materialise")))
    put("engine.dispatch_overhead_s", repeat - match - materialise, n_steady)
    put("bench.cold_residual_share", 1 - cold_layers / direct.cold_p50, n_cold)
    put("bench.steady_residual_share", 1 - steady_layers / direct.steady_p50, n_steady)
    put(
        "bench.trace_overhead_share",
        log.p50("request.steady") / direct.steady_p50 - 1, n_steady,
    )
    return direct.steady_p50
