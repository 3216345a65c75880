"""Set-up, the cold/steady run protocol, and the end-to-end metrics.

Everything here runs inside the one process that measures a workload;
tracing is off. The protocol is the same for every workload:

1. **set-up** (timed, several times; ``setup_s`` is the fastest):
   generate the inputs from the seed, build the Session (and JoinServer),
   load the data;
2. an untimed warm-up fills every plan-cache entry the steady phase uses;
3. the steady phase runs a fixed request count in ``ROUNDS`` equal
   rounds, and a few **cold samples** (plan-cache misses) are taken
   before each round, so a noisy stretch lands on both phases;
4. every served result is summarised between requests, outside every
   timed region, and compared with the oracle after the peak RSS was
   read.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import resource
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.engine.parallel import shutdown_pools
from repro.engine.shm import live_arena_names
from repro.serve.server import JoinServer
from repro.session import Session

from benchmarks.e2e import oracle, stats
from benchmarks.e2e.workloads import (
    ROUNDS,
    Inputs,
    Scale,
    Workload,
    churn_batch,
    columns_of,
    generate,
    steady_plan,
    tenant_names,
)

#: JoinServer shape of the two serve workloads.
SERVER_OPTIONS = {"max_in_flight": 2, "queue_depth": 8, "overload": "block"}


@dataclass(frozen=True)
class Metric:
    """One reported value; its unit is ``metrics.UNITS[name]``."""

    value: float
    #: samples behind the value (1 for counters and one-shot readings)
    n: int = 1


# ------------------------------------------------------------------ the system


class System:
    """One workload's program under test: Session, server, write path."""

    def __init__(
        self,
        workload: Workload,
        inputs: Inputs,
        seed: int,
        scale: Scale,
        backend_wrapper=None,
    ):
        self.workload = workload
        self.inputs = inputs
        self.seed = seed
        self.scale = scale
        self.session = Session(
            n_nodes=workload.n_nodes, **scale.session_options(workload)
        )
        for array, placement in inputs.arrays:
            self.session.cluster.load_array(array, placement=placement)
        self.server = None
        if workload.served:
            backend = self.session
            if backend_wrapper is not None:
                backend = backend_wrapper(self.session)
            self.server = JoinServer(backend, **SERVER_OPTIONS)
        #: churn batches loaded so far == the data version results carry
        self.version = 0

    def request(self, index: int, tenant: str | None):
        statement = self.workload.statements[index].text
        options = self.workload.query_options
        if self.server is not None:
            return self.server.execute(statement, tenant=tenant, **options)
        return self.session.execute(statement, **options)

    def load_batch(self) -> float:
        """Load the next churn batch into A; returns the seconds it took."""
        schema = self.session.cluster.schema("A")
        cells = churn_batch(
            self.workload, self.version, self.seed, self.scale, schema
        )
        started = time.perf_counter()
        self.session.load("A", cells)
        elapsed = time.perf_counter() - started
        self.version += 1
        return elapsed

    def close(self) -> bool:
        """Shut the server down; True when it drained."""
        if self.server is None:
            return True
        drained = self.server.drain(timeout=60.0)
        self.server.shutdown(wait=True)
        return drained and self.server.in_flight == 0


def set_up(workload: Workload, seed: int, scale: Scale, **kwargs) -> System:
    return System(workload, generate(workload, seed, scale), seed, scale, **kwargs)


# ------------------------------------------------------------ result checking


class Checker:
    """Summarises served results now, compares them with the oracle later."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.seen: list[tuple[int, int, oracle.Summary]] = []
        self._digested: set[tuple[int, int]] = set()
        self.errors = 0

    def record(self, index: int, version: int, result) -> None:
        key = (index, version)
        summary = oracle.Summary.of(
            columns_of(result.cells, result.array.schema),
            with_digest=key not in self._digested,
        )
        self._digested.add(key)
        self.seen.append((index, version, summary))

    def error(self) -> None:
        self.errors += 1

    @property
    def attempted(self) -> int:
        return len(self.seen) + self.errors

    def failed(self, system: System) -> int:
        """Errors plus results that differ from the brute-force oracle."""
        references: dict[tuple[int, int], oracle.Summary] = {}
        #: per data version: (tables, memo shared by its statements)
        versions: dict[int, tuple[dict, dict]] = {}
        mismatches = 0
        for index, version, summary in self.seen:
            key = (index, version)
            if key not in references:
                if version not in versions:
                    versions[version] = (_tables_at(system, version), {})
                references[key] = oracle.Summary.of(
                    self.workload.statements[index].reference(
                        *versions[version]
                    ),
                    with_digest=True,
                )
            mismatches += not summary.matches(references[key])
        return self.errors + mismatches


def _tables_at(system: System, version: int) -> dict[str, oracle.Columns]:
    """The oracle's tables after ``version`` churn batches."""
    tables = system.inputs.tables
    if version == 0:
        return tables
    schema = system.session.cluster.schema("A")
    batches = [
        columns_of(
            churn_batch(system.workload, b, system.seed, system.scale, schema),
            schema,
        )
        for b in range(version)
    ]
    grown = {
        name: np.concatenate([tables["A"][name]] + [b[name] for b in batches])
        for name in tables["A"]
    }
    return {**tables, "A": grown}


# --------------------------------------------------------------- the protocol


@dataclass
class Samples:
    cold: list[float] = field(default_factory=list)
    #: per round, every client's request latencies pooled
    rounds: list[list[float]] = field(default_factory=list)
    round_qps: list[float] = field(default_factory=list)
    #: the cold samples are the warm-up's first touches (see run_protocol)
    cold_from_warm_up: bool = False
    sim: list[float] = field(default_factory=list)
    loads: list[float] = field(default_factory=list)
    #: steady requests whose plan-cache lookup missed
    misses: int = 0
    #: per steady request, when the backend stamps its results (traced
    #: pass): submit → backend entry, entry → return, return → client
    queue_wait: list[float] = field(default_factory=list)
    backend: list[float] = field(default_factory=list)
    overhead: list[float] = field(default_factory=list)
    last_result: object = None

    @property
    def steady(self) -> list[float]:
        return [latency for one in self.rounds for latency in one]


def warm_up(system: System, checker: Checker) -> list[float]:
    """Fill every plan-cache entry the steady phase will ask for.

    Returns each first-touch request's latency: one per (tenant,
    statement) fingerprint, every one a plan-cache miss.
    """
    workload = system.workload
    tenants = tenant_names(workload) if workload.served else [None]
    touches = []
    for tenant in tenants:
        for index in range(len(workload.statements)):
            started = time.perf_counter()
            try:
                result = system.request(index, tenant)
            except Exception:  # a failed request is counted, not a crash
                checker.error()
                continue
            touches.append(time.perf_counter() - started)
            checker.record(index, system.version, result)
    return touches


def cold_sample(
    system: System, checker: Checker, serial: int, samples: Samples
) -> None:
    """One request on the genuine miss → plan → populate path.

    Direct workloads clear the plan cache first (untimed); the request
    itself re-populates the entry the steady phase uses. Served
    workloads ask under a never-seen tenant instead, which misses by
    construction and leaves the steady phase's entries in place.
    """
    workload = system.workload
    if workload.served:
        index, tenant = serial % len(workload.statements), f"cold{serial}"
    else:
        index, tenant = 0, None
        system.session.executor.invalidate_cached_plans()
    started = time.perf_counter()
    try:
        result = system.request(index, tenant)
    except Exception:
        checker.error()
        return
    samples.cold.append(time.perf_counter() - started)
    checker.record(index, system.version, result)


def steady_round(
    system: System,
    checker: Checker,
    plans: list[list[tuple[int, str | None]]],
    first: int,
    count: int,
    samples: Samples,
) -> None:
    """Requests ``first .. first+count`` of every client's plan, closed loop.

    With one client the round's wall time is the sum of its timed
    segments (requests and churn loads), so result summarising between
    requests costs nothing; with several, clients run on threads behind
    a barrier, wall time is start-to-last-finish, and results are
    summarised after the round.
    """
    workload = system.workload
    latencies: list[float] = []
    if len(plans) == 1:
        wall = 0.0
        for k in range(first, first + count):
            if workload.churn_every and k % workload.churn_every == 0:
                seconds = system.load_batch()
                samples.loads.append(seconds)
                wall += seconds
            index, tenant = plans[0][k]
            started = time.perf_counter()
            try:
                result = system.request(index, tenant)
            except Exception:
                checker.error()
                continue
            elapsed = time.perf_counter() - started
            latencies.append(elapsed)
            wall += elapsed
            _account(samples, result, started, elapsed)
            checker.record(index, system.version, result)
    else:
        barrier = threading.Barrier(len(plans) + 1)
        served: list[list] = [[] for _ in plans]

        def client(c: int) -> None:
            barrier.wait()
            for index, tenant in plans[c][first : first + count]:
                started = time.perf_counter()
                try:
                    result = system.request(index, tenant)
                except Exception:
                    served[c].append((started, None, index, None))
                    continue
                served[c].append(
                    (started, time.perf_counter() - started, index, result)
                )

        threads = [
            threading.Thread(target=client, args=(c,)) for c in range(len(plans))
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        for sent, elapsed, index, result in (r for one in served for r in one):
            if result is None:
                checker.error()
                continue
            latencies.append(elapsed)
            _account(samples, result, sent, elapsed)
            checker.record(index, system.version, result)
    samples.rounds.append(latencies)
    samples.round_qps.append(len(latencies) / wall if wall else 0.0)


def _account(samples: Samples, result, started: float, elapsed: float) -> None:
    report = result.report
    samples.sim.append(report.execute_seconds)
    samples.misses += report.cache.get("status") == "miss"
    samples.last_result = result
    stamped = getattr(result, "_bench_span", None)
    if stamped is not None:
        entered, returned = stamped
        samples.queue_wait.append(entered - started)
        samples.backend.append(returned - entered)
        samples.overhead.append(started + elapsed - returned)


def run_protocol(
    system: System,
    checker: Checker,
    n_cold: int,
    n_steady: int,
    first_touches: list[float],
) -> Samples:
    """Cold samples interleaved with ``ROUNDS`` steady rounds, after
    :func:`warm_up` (whose latencies are ``first_touches``).

    A served workload whose warm-up alone made ``n_cold`` first-touch
    requests (``serve_mixed``: 4 tenants × 6 statements) reports those as
    its cold samples and takes no others — each costs a full plan, and the
    driver's time cap has no room to pay for the same path twice.
    """
    workload = system.workload
    plans = steady_plan(workload, system.seed, n_steady)
    per_round = n_steady // workload.clients // ROUNDS
    samples = Samples()
    if workload.served and len(first_touches) >= n_cold:
        samples.cold = list(first_touches)
        samples.cold_from_warm_up = True
        n_cold = 0
    cold_per_round = [
        len(part) for part in np.array_split(np.arange(n_cold), ROUNDS)
    ]
    serial = 0
    for r in range(ROUNDS):
        for _ in range(cold_per_round[r]):
            cold_sample(system, checker, serial, samples)
            serial += 1
        steady_round(
            system, checker, plans, r * per_round, per_round, samples
        )
    return samples


# ---------------------------------------------------------------- estimators


# Every timing is a quiet-machine estimate: see stats.quiet_median.


def cold_p50(samples: Samples) -> float:
    """Median first-touch latency."""
    return stats.quiet_median(samples.cold)


def round_medians(samples: Samples) -> list[float]:
    return [stats.median(one) for one in samples.rounds if one]


def steady_p50(samples: Samples) -> float:
    """Median request latency in the quietest rounds."""
    return stats.quiet_median(round_medians(samples))


def steady_qps(samples: Samples) -> float:
    """Requests per second in the fastest rounds."""
    return stats.quiet_median(samples.round_qps, fastest=False)


def steady_p90(samples: Samples) -> float:
    """``steady_p50`` × the tail ratio of the rounds without a burst.

    Per round, the p90 of its latencies ÷ its median; the median of the
    lower half of those ratios, times ``steady_p50``. A pooled p90 moved
    20-30 % between identical runs, because one burst of interference
    covering a tenth of the steady phase *is* its p90; a per-round ratio
    ignores how slow a round was overall, and the rounds a burst hit fall
    in the discarded half. What is left is the program's own tail —
    plan-cache misses, queueing, collector pauses. No single round can
    support a p90 (15 samples), so the pooled count is checked instead:
    the rule wants ≥ 10 samples beyond a reported percentile.
    """
    steady = samples.steady
    stats.percentile(steady, 0.90)  # raises when the sample is too small
    ratios = [
        stats.percentile(one, 0.90, min_beyond=0) / stats.median(one)
        for one in samples.rounds if one
    ]
    return steady_p50(samples) * stats.quiet_median(ratios, share=0.5)


# ------------------------------------------------------------ cleanliness


def shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def leaked_segments(before: set[str]) -> int:
    """New /dev/shm entries and live pool children after teardown.

    Call once every System of the run is closed and dropped.
    """
    gc.collect()
    shutdown_pools()
    children = multiprocessing.active_children()
    # Arena names carry their creator's pid: another process's segments
    # (a second benchmark on the same host) are not this run's leak.
    own = f"-{os.getpid()}-"
    names = (shm_entries() - before) | set(live_arena_names())
    return len([name for name in names if own in name]) + len(children)


# ------------------------------------------------------------- the e2e run


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload: Workload, seed: int, scale: Scale) -> dict:
    """Run one workload with tracing off; returns the result record."""
    before = shm_entries()
    n_cold, n_steady = scale.counts(workload)
    setups: list[float] = []
    system = None
    for _ in range(scale.setups):
        if system is not None:
            system.close()
            system = None
            gc.collect()
        started = time.perf_counter()
        system = set_up(workload, seed, scale)
        setups.append(time.perf_counter() - started)

    checker = Checker(workload)
    samples = run_protocol(
        system, checker, n_cold, n_steady, warm_up(system, checker)
    )
    rss = peak_rss_mb()

    drained = system.close()
    failed = checker.failed(system)
    attempted = checker.attempted
    system = None
    leaked = leaked_segments(before)

    steady = samples.steady
    metrics = {
        "setup_s": Metric(stats.quiet_median(setups), len(setups)),
        "cold_p50_s": Metric(cold_p50(samples), len(samples.cold)),
        "steady_p50_s": Metric(steady_p50(samples), len(steady)),
        "steady_p90_s": Metric(steady_p90(samples), len(steady)),
        "steady_qps": Metric(steady_qps(samples), len(samples.round_qps)),
        "failed_share": Metric(failed / attempted, attempted),
        "peak_rss_mb": Metric(rss),
        "sim_execute_s": Metric(stats.median(samples.sim), len(samples.sim)),
    }
    report = samples.last_result.report
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": False,
        "requests": {"cold": n_cold, "steady": n_steady, "setups": scale.setups},
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and leaked == 0 and drained,
        "metrics": metrics,
        #: raw latencies, so that another estimator can be tried offline
        "samples": {
            "setup": setups, "cold": samples.cold, "rounds": samples.rounds,
            "round_qps": samples.round_qps,
        },
        #: repeat bit-for-bit for a seed
        "exact": {
            "sim_execute_s": metrics["sim_execute_s"].value,
            "engine.output_cells": int(report.output_cells),
            "cluster.cells_moved": int(report.cells_moved),
            "serve.miss_share": samples.misses / max(len(samples.sim), 1),
            "engine.leaked_shm_segments": leaked,
        },
    }
