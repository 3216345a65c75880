"""Parallel execution of join units over a worker pool.

The physical planners balance *per-node* comparison work; this module
makes the engine exploit that balance for real wall-clock time, not just
simulated time. Join units are grouped by their assigned cluster node —
one logical worker per simulated node — and each node's batch runs as
one task on a ``concurrent.futures`` pool.

Within a batch, matching is a single vectorised pass: every unit's
composite keys are stacked — together with the unit id, so equal keys
only match inside their own join unit — into one 64-bit column. One
build/probe over that column covers all units the node owns.

When the key codec applies (see :mod:`repro.adm.keycodec`), the stacked
column is **exact**: the unit id occupies the bits above the packed
key, so equal column values are equal (unit, key) rows by construction
and no verification pass is needed. Structured keys — the fallback for
keys wider than 64 bits — are instead collapsed into a SplitMix64 hash
column, and the candidate pairs are verified against the true key
fields afterwards, which keeps the result exact under hash collisions.
Either way, plain-integer comparison replaces numpy's slow
structured-dtype kernels, which is why the batched path is faster than
the per-unit loop even on a single core.

Output parts are materialised by the workers without touching shared
builder state (:meth:`OutputBuilder.materialise_matches` is pure) and
merged by the coordinator in ascending node order, so results are
deterministic: repeated parallel runs, and serial runs, produce the
same multiset of cells.

Two execution paths feed the pool:

- the *classic* path pickles each :class:`UnitBatch` (cell sets, key
  columns) into the task and the materialised output part back out —
  the only option for structured keys and for thread pools (where
  "pickling" is free);
- the *shared-memory* path (:func:`run_shm_batches`) ships only an
  :class:`~repro.engine.shm.ArenaLayout` descriptor plus a unit-id
  array per task; workers attach the coordinator's arena zero-copy,
  match against the shared packed-key columns, and return nothing but
  global match-index arrays. The coordinator materialises output cells
  itself, straight from the (fork-inherited) side assemblies.

Worker pools are cached per ``(mode, size)`` and reused across
executions — forking a fresh process pool per query used to cost more
than the matching itself. :func:`shutdown_pools` tears the cache down
(also registered atexit).
"""

from __future__ import annotations

import atexit
import os
import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait as _conn_wait

import numpy as np

from repro.adm.cells import CellSet
from repro.core.slices import _HASH_MULT, _HASH_SEED, _mix
from repro.engine.joins import hash_join_match, match_pairs
from repro.engine.kernels import (
    packed_match,
    packed_match_sorted,
    probe_key_filter,
)
from repro.engine.output import OutputBuilder
from repro.engine.shm import ArenaLayout, SharedArena, split_row_range
from repro.errors import ExecutionError
from repro.obs.counters import CounterSet
from repro.obs.trace import NULL_TRACER, Tracer

#: Pool flavours: threads share memory (numpy releases the GIL in the
#: sort/searchsorted kernels that dominate matching); processes sidestep
#: the GIL entirely at the price of pickling batches and results — or,
#: on the shared-memory path, of one segment attach per worker.
PARALLEL_MODES = ("thread", "process")


def resolve_workers(n_workers: int | None) -> int:
    """Normalise a worker-count knob: ``None``/0/1 mean serial."""
    if n_workers is None:
        return 1
    if n_workers < 0:
        raise ExecutionError(f"n_workers must be >= 0, got {n_workers}")
    return max(int(n_workers), 1)


def resolve_mode(mode: str) -> str:
    """Validate a parallel-mode knob; unknown values fail loudly."""
    if mode not in PARALLEL_MODES:
        raise ExecutionError(
            f"unknown parallel mode {mode!r}; expected one of {PARALLEL_MODES}"
        )
    return mode


def available_cpus() -> int:
    """CPUs actually usable by this process (affinity-aware).

    ``os.process_cpu_count`` (3.13+) respects CPU affinity masks and
    cgroup-style pinning; ``sched_getaffinity`` is the pre-3.13
    equivalent; ``os.cpu_count`` is the portable fallback. Benchmarks
    record this number (not the host's raw core count) and the shm
    dispatcher uses it to avoid fanning out beyond real parallelism.
    """
    n: int | None
    if hasattr(os, "process_cpu_count"):  # pragma: no cover - 3.13+
        n = os.process_cpu_count()
    else:
        try:
            n = len(os.sched_getaffinity(0))
        except (AttributeError, OSError):  # pragma: no cover - non-Linux
            n = os.cpu_count()
    return max(int(n or 1), 1)


# --------------------------------------------------------------- worker pools

_POOLS: dict[tuple[str, int], ThreadPoolExecutor | ProcessPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def _get_pool(mode: str, workers: int):
    """The cached pool for ``(mode, workers)``, created on first use.

    Process pools fork lazily on first submit and stay warm afterwards,
    so repeated executions (the serving path, benchmarks) pay the fork
    cost once instead of per query.
    """
    key = (mode, workers)
    with _POOLS_LOCK:
        pool = _POOLS.get(key)
        if pool is None:
            if mode == "process":
                import multiprocessing as mp

                # Fork (where available) shares the parent's pages; spawn
                # would re-import and pickle everything per worker.
                context = (
                    mp.get_context("fork")
                    if "fork" in mp.get_all_start_methods()
                    else None
                )
                pool = ProcessPoolExecutor(
                    max_workers=workers, mp_context=context
                )
            else:
                pool = ThreadPoolExecutor(max_workers=workers)
            _POOLS[key] = pool
        return pool


def _discard_pool(mode: str, workers: int) -> None:
    """Drop (and shut down) one cached pool after it broke."""
    with _POOLS_LOCK:
        pool = _POOLS.pop((mode, workers), None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_pools() -> int:
    """Shut down every cached worker pool; returns how many were live.

    Called atexit, by the exception-teardown path, and by tests that
    need workers re-forked (a forked worker snapshots module state at
    pool creation, so monkeypatching requires a fresh pool).
    """
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
        fork_pools = list(_FORK_POOLS.values())
        _FORK_POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)
    for fork_pool in fork_pools:
        fork_pool.shutdown()
    return len(pools) + len(fork_pools)


atexit.register(shutdown_pools)


# ----------------------------------------------------------- fork pipe pool

try:
    import multiprocessing as _mp

    _FORK_AVAILABLE = "fork" in _mp.get_all_start_methods()
except (ImportError, ValueError):  # pragma: no cover - exotic platforms
    _FORK_AVAILABLE = False


def _fork_worker_main(conn) -> None:
    """Loop of one forked shm worker: recv task chunk, send result chunk.

    Tasks execute through the module-global :func:`execute_shm_batch`
    (resolved at call time, so a test that monkeypatches it *before*
    the pool forks injects faults into the children too). A worker
    never dies on a task error — it reports ``("err", message)`` per
    failed task and keeps serving, so one poisoned batch doesn't cost
    the pool. ``None`` is the shutdown sentinel.
    """
    while True:
        try:
            tasks = conn.recv()
        except (EOFError, OSError):
            break
        if tasks is None:
            break
        replies = []
        for task in tasks:
            try:
                replies.append(("ok", execute_shm_batch(task)))
            except Exception as exc:
                replies.append(("err", f"{type(exc).__name__}: {exc}"))
        try:
            conn.send(replies)
        except (EOFError, OSError):
            break
    try:
        conn.close()
    except OSError:  # pragma: no cover - already torn down
        pass


class _ForkPool:
    """Minimal fork pool: one duplex pipe per worker, chunked dispatch.

    ``ProcessPoolExecutor`` charges a management-thread round trip plus
    a wakeup-pipe write per submitted task — on the shm path that
    overhead exceeds the matching itself. This pool forks once, keeps
    one ``Connection`` per worker, and ships each worker its whole
    chunk of tasks in a single send/recv, so per-execution IPC is
    O(workers), not O(tasks). Workers inherit the parent's pages (fork)
    and attach arenas by name, never unpickling key material.
    """

    def __init__(self, workers: int):
        ctx = _mp.get_context("fork")
        self.workers = workers
        # One query at a time per pool: the pipes carry no request ids,
        # so two concurrent queries interleaving sends over the same
        # connections would cross-deliver results. The serving front
        # end runs many queries concurrently against one executor;
        # whichever reaches the pool second blocks here.
        self._lock = threading.Lock()
        self._conns = []
        self._procs = []
        for _ in range(workers):
            parent, child = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_fork_worker_main, args=(child,), daemon=True
            )
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)

    def alive(self) -> bool:
        return all(proc.is_alive() for proc in self._procs)

    def run(self, chunks: list[list]) -> list:
        """Dispatch one chunk of tasks per worker; collect all results.

        ``chunks`` must not exceed the worker count (the caller packs
        tasks — see :func:`_pack_chunks`). Task errors are collected
        (not raced): every healthy worker's chunk is drained before the
        first failure raises, which keeps the pipes empty and the pool
        reusable. A dead worker raises immediately — the caller
        discards the pool.
        """
        with self._lock:
            active = [
                (conn, chunk)
                for conn, chunk in zip(self._conns, chunks)
                if chunk
            ]
            for conn, chunk in active:
                conn.send(chunk)
            results: list = []
            failure: str | None = None
            for conn, _ in active:
                try:
                    replies = conn.recv()
                except (EOFError, OSError) as exc:
                    raise ExecutionError(
                        f"process worker died mid-execution: {exc!r}"
                    ) from exc
                for status, payload in replies:
                    if status == "err":
                        failure = failure if failure is not None else payload
                    else:
                        results.append(payload)
            if failure is not None:
                raise ExecutionError(
                    f"shared-memory worker failed: {failure}"
                )
            return results

    def shutdown(self) -> None:
        for conn in self._conns:
            try:
                conn.send(None)
            except (OSError, BrokenPipeError):
                pass
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass


_FORK_POOLS: dict[int, _ForkPool] = {}

#: Dispatch granularity floor: a chunk of shm tasks is only worth its
#: own worker message once it carries at least this many key rows.
#: Waking a sleeping worker costs a scheduling round trip whatever the
#: payload, so small workloads are packed into fewer, larger chunks
#: instead of fanning out one underfilled message per worker.
_MIN_CHUNK_ROWS = 131072


def _range_chunks(
    unit_rows: np.ndarray, max_chunks: int
) -> list[tuple[int, int]]:
    """Split units into at most ``max_chunks`` contiguous, row-balanced
    ranges.

    Contiguity is the point: the arena stores rows unit-major, so a
    contiguous unit range is a contiguous row slice — workers match
    views of the shared columns with zero gathering. The chunk count
    scales with total rows (one chunk per :data:`_MIN_CHUNK_ROWS`) up
    to the worker cap, and boundaries land where cumulative rows cross
    equal-share targets, so chunks carry near-equal work whatever the
    skew.
    """
    n_units = int(unit_rows.size)
    cum = np.concatenate(
        ([0], np.cumsum(np.asarray(unit_rows, dtype=np.int64)))
    )
    total = int(cum[-1])
    n_chunks = max(
        1, min(max_chunks, -(-total // _MIN_CHUNK_ROWS), max(n_units, 1))
    )
    if n_chunks <= 1:
        return [(0, n_units)]
    targets = (np.arange(1, n_chunks, dtype=np.int64) * total) // n_chunks
    splits = np.searchsorted(cum, targets, side="left")
    edges = np.unique(np.concatenate(([0], splits, [n_units])))
    return [
        (int(lo), int(hi)) for lo, hi in zip(edges[:-1], edges[1:])
    ]


def _get_fork_pool(workers: int) -> _ForkPool:
    """Cached fork pool of the given size; rebuilt if any worker died."""
    with _POOLS_LOCK:
        pool = _FORK_POOLS.get(workers)
        if pool is not None and not pool.alive():
            _FORK_POOLS.pop(workers, None)
            pool.shutdown()
            pool = None
        if pool is None:
            pool = _ForkPool(workers)
            _FORK_POOLS[workers] = pool
        return pool


def _discard_fork_pool(workers: int) -> None:
    with _POOLS_LOCK:
        pool = _FORK_POOLS.pop(workers, None)
    if pool is not None:
        pool.shutdown()


@dataclass
class UnitBatch:
    """All matchable join units assigned to one node, with cached keys.

    ``units[i]`` owns ``left_cells[i]``/``right_cells[i]`` and their
    precomputed key columns and composite keys (shared with the slice
    table's cache — building a batch never re-derives keys).
    ``key_width`` is the packed-key bit width when the keys are
    codec-packed ``uint64`` columns, and None for structured keys.
    """

    node: int
    key_width: int | None = None
    units: list[int] = field(default_factory=list)
    left_cells: list[CellSet] = field(default_factory=list)
    right_cells: list[CellSet] = field(default_factory=list)
    left_key_cols: list[list[np.ndarray]] = field(default_factory=list)
    left_keys: list[np.ndarray] = field(default_factory=list)
    right_keys: list[np.ndarray] = field(default_factory=list)

    def add_unit(
        self,
        unit: int,
        left_cells: CellSet,
        right_cells: CellSet,
        left_key_cols: list[np.ndarray],
        left_keys: np.ndarray,
        right_keys: np.ndarray,
    ) -> None:
        self.units.append(unit)
        self.left_cells.append(left_cells)
        self.right_cells.append(right_cells)
        self.left_key_cols.append(left_key_cols)
        self.left_keys.append(left_keys)
        self.right_keys.append(right_keys)


@dataclass
class BatchResult:
    """One executed batch: the output part plus bookkeeping counters.

    ``counters`` and ``spans`` are the worker's observability harvest —
    both plain picklable values, so they travel back from process-pool
    workers and merge at the coordinator (``CounterSet.merge`` /
    ``Tracer.extend``).
    """

    node: int
    produced: int
    part: tuple[np.ndarray, dict[str, np.ndarray]] | None
    meta: dict
    counters: CounterSet = field(default_factory=CounterSet)
    spans: list = field(default_factory=list)


def stack_unit_keys(
    units: list[int], keys_list: list[np.ndarray]
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Stack per-unit composite keys field-wise, with a unit-id column.

    Returns ``(unit_column, field_columns)``: plain int64 arrays covering
    the batch's concatenated rows. The unit id participates in matching
    like a most-significant key field, so a batch-wide equi-match can
    only pair rows from the same join unit — the batched match equals
    the union of the per-unit matches. (Unit ids are already a pure
    function of the key for both chunk units and hash buckets; the
    explicit column makes the batch correct by construction rather than
    by that invariant.)
    """
    lengths = np.array([len(keys) for keys in keys_list], dtype=np.int64)
    unit_column = np.repeat(np.asarray(units, dtype=np.int64), lengths)
    fields = {
        name: np.concatenate([keys[name] for keys in keys_list])
        for name in keys_list[0].dtype.names
    }
    return unit_column, fields


def stack_packed_keys(
    units: list[int], keys_list: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Stack per-unit packed keys, with a row-aligned unit-id column.

    Returns ``(unit_column, packed_column)``, both ``uint64``, covering
    the batch's concatenated rows.
    """
    lengths = np.array([len(keys) for keys in keys_list], dtype=np.int64)
    unit_column = np.repeat(np.asarray(units, dtype=np.uint64), lengths)
    return unit_column, np.concatenate(keys_list)


def hash_stacked_keys(
    unit_column: np.ndarray, fields: dict[str, np.ndarray]
) -> np.ndarray:
    """Collapse (unit id, key fields) rows into one uint64 hash column.

    Same SplitMix64 recipe the slice functions use. Equal rows always
    hash equal, so matching on the hash column finds every true match;
    the (vanishingly rare) collisions are removed afterwards by exact
    verification — see :func:`_match_batch`.
    """
    combined = np.full(len(unit_column), _HASH_SEED, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for column in (unit_column, *fields.values()):
            combined ^= _mix(np.ascontiguousarray(column).view(np.uint64))
            combined *= _HASH_MULT
    return combined


def match_packed_columns(
    left_units: np.ndarray,
    left_packed: np.ndarray,
    right_units: np.ndarray,
    right_packed: np.ndarray,
    key_width: int,
    max_unit: int,
    kernel: str = "numpy",
) -> tuple[np.ndarray, np.ndarray]:
    """Match stacked (unit id, packed key) uint64 columns exactly.

    The shared core of the classic batched path and the shared-memory
    worker. When the unit id fits the bits above the packed key the two
    columns fuse into one exact uint64 lane (no verification needed);
    otherwise the rows are hashed and candidates verified, which stays
    exact under collisions. Either single-column equi-match runs on the
    selected kernel (see :mod:`repro.engine.kernels`).
    """
    unit_bits = int(max_unit).bit_length()
    if unit_bits + key_width <= 64:
        # Exact composite: the unit id sits above the packed key, so
        # equal column values are equal (unit, key) rows — one
        # build/probe, no collisions, no verification pass.
        shift = np.uint64(key_width)
        return packed_match(
            (left_units << shift) | left_packed,
            (right_units << shift) | right_packed,
            kernel,
        )
    # Unit ids overflow the spare bits: hash the two columns and
    # verify candidates exactly (still only two comparisons per
    # candidate, against one per key field for structured keys).
    left_idx, right_idx = packed_match(
        hash_stacked_keys(left_units, {"packed": left_packed}),
        hash_stacked_keys(right_units, {"packed": right_packed}),
        kernel,
    )
    if len(left_idx):
        genuine = left_units[left_idx] == right_units[right_idx]
        genuine &= left_packed[left_idx] == right_packed[right_idx]
        left_idx, right_idx = left_idx[genuine], right_idx[genuine]
    return left_idx, right_idx


def _match_batch(
    batch: UnitBatch, algo: str, meta: dict, kernel: str = "numpy"
) -> tuple[np.ndarray, np.ndarray]:
    """Match every unit in a batch; indices address the concatenated cells.

    ``hash`` and ``merge`` produce identical match sets by definition, so
    the batch path computes both through the hashed build/probe — the
    simulated phase timing still reflects the planned algorithm, and the
    serial path remains the per-algorithm reference implementation.
    """
    if algo == "nested_loop":
        # The paper's never-profitable baseline has no batched form worth
        # building; run it per unit (with the oversize hash fallback) and
        # offset the local indices into the concatenated coordinate space.
        left_parts: list[np.ndarray] = []
        right_parts: list[np.ndarray] = []
        left_offset = right_offset = 0
        for left_keys, right_keys in zip(batch.left_keys, batch.right_keys):
            try:
                li, ri = match_pairs("nested_loop", left_keys, right_keys)
            except ExecutionError:
                li, ri = hash_join_match(left_keys, right_keys)
                meta["nested_loop_simulated"] = True
            left_parts.append(li + left_offset)
            right_parts.append(ri + right_offset)
            left_offset += len(left_keys)
            right_offset += len(right_keys)
        return (
            np.concatenate(left_parts).astype(np.int64),
            np.concatenate(right_parts).astype(np.int64),
        )

    if batch.key_width is not None:
        left_units, left_packed = stack_packed_keys(
            batch.units, batch.left_keys
        )
        right_units, right_packed = stack_packed_keys(
            batch.units, batch.right_keys
        )
        return match_packed_columns(
            left_units, left_packed, right_units, right_packed,
            batch.key_width, max(batch.units), kernel,
        )

    left_units, left_fields = stack_unit_keys(batch.units, batch.left_keys)
    right_units, right_fields = stack_unit_keys(batch.units, batch.right_keys)
    left_idx, right_idx = packed_match(
        hash_stacked_keys(left_units, left_fields),
        hash_stacked_keys(right_units, right_fields),
        kernel,
    )
    if len(left_idx):
        # Exact verification: drop hash-collision candidates by comparing
        # the true unit ids and key fields of each candidate pair.
        genuine = left_units[left_idx] == right_units[right_idx]
        for name, left_column in left_fields.items():
            genuine &= left_column[left_idx] == right_fields[name][right_idx]
        left_idx, right_idx = left_idx[genuine], right_idx[genuine]
    return left_idx, right_idx


def execute_batch(
    batch: UnitBatch,
    builder: OutputBuilder,
    algo: str,
    trace_epoch: float | None = None,
    kernel: str = "numpy",
) -> BatchResult:
    """Run one node's batch: vectorised match + output materialisation.

    Reads the builder's spec but never mutates it, so any number of
    batches may execute concurrently against the same builder; the
    coordinator merges the returned parts afterwards.

    ``trace_epoch`` (the coordinating tracer's epoch) switches on
    per-worker span collection: the worker records onto its own tracer
    — aligned to the coordinator's timeline — and ships the finished
    spans back in the :class:`BatchResult`.
    """
    tracer = (
        Tracer(epoch=trace_epoch, default_lane=f"worker:n{batch.node}")
        if trace_epoch is not None
        else NULL_TRACER
    )
    counters = CounterSet()
    meta: dict = {}
    rows_left = sum(len(keys) for keys in batch.left_keys)
    rows_right = sum(len(keys) for keys in batch.right_keys)
    with tracer.span(
        f"batch n{batch.node}",
        node=batch.node,
        units=len(batch.units),
        rows_left=rows_left,
        rows_right=rows_right,
    ) as batch_span:
        with tracer.span("match", kernel=kernel):
            left_idx, right_idx = _match_batch(batch, algo, meta, kernel)
        with tracer.span("materialise"):
            left_cells = CellSet.concat(batch.left_cells)
            right_cells = CellSet.concat(batch.right_cells)
            n_key_cols = len(batch.left_key_cols[0])
            left_key_cols = [
                np.concatenate([cols[i] for cols in batch.left_key_cols])
                for i in range(n_key_cols)
            ]
            part = builder.materialise_matches(
                left_cells, right_cells, left_idx, right_idx, left_key_cols
            )
        produced = 0 if part is None else len(part[0])
        batch_span.set(matched_pairs=len(left_idx), produced=produced)
    counters.add("batches", 1)
    counters.add("join_units_matched", len(batch.units))
    counters.add("cells_compared", rows_left + rows_right)
    counters.add("matched_pairs", len(left_idx))
    counters.add("cells_emitted", produced)
    return BatchResult(
        node=batch.node,
        produced=produced,
        part=part,
        meta=meta,
        counters=counters,
        spans=tracer.spans if tracer.enabled else [],
    )


def run_batches(
    batches: list[UnitBatch],
    builder: OutputBuilder,
    algo: str,
    n_workers: int,
    mode: str = "thread",
    tracer: Tracer | None = None,
    counters: CounterSet | None = None,
    kernel: str = "numpy",
) -> tuple[dict[int, int], dict]:
    """Execute batches on a worker pool and merge deterministically.

    Parts are appended to ``builder`` in ascending node order regardless
    of completion order, so the output is independent of scheduling.
    Returns per-node produced-cell counts and merged execution metadata.

    With an enabled ``tracer``, each worker collects spans onto its own
    epoch-aligned tracer and the finished spans merge here, in node
    order; per-worker counter sets likewise merge into ``counters``.
    """
    resolve_mode(mode)
    trace_epoch = (
        tracer.epoch if tracer is not None and tracer.enabled else None
    )
    batches = sorted(batches, key=lambda b: b.node)
    if n_workers <= 1 or len(batches) <= 1:
        results = [
            execute_batch(
                batch, builder, algo, trace_epoch=trace_epoch, kernel=kernel
            )
            for batch in batches
        ]
    else:
        results = _pool_map(
            batches, builder, algo, n_workers, mode, trace_epoch, kernel
        )

    node_output: dict[int, int] = {}
    meta: dict = {"kernel": kernel, "shm": False}
    for result in results:
        if result.part is not None:
            builder.add_part(*result.part)
        node_output[result.node] = (
            node_output.get(result.node, 0) + result.produced
        )
        meta.update(result.meta)
        if counters is not None:
            counters.merge(result.counters)
        if trace_epoch is not None:
            tracer.extend(result.spans)
    return node_output, meta


def _pool_map(
    batches: list[UnitBatch],
    builder: OutputBuilder,
    algo: str,
    n_workers: int,
    mode: str,
    trace_epoch: float | None = None,
    kernel: str = "numpy",
) -> list[BatchResult]:
    workers = min(n_workers, len(batches))
    pool = _get_pool(mode, workers)
    futures = [
        pool.submit(
            execute_batch, batch, builder, algo,
            trace_epoch=trace_epoch, kernel=kernel,
        )
        for batch in batches
    ]
    try:
        return [future.result() for future in futures]
    except BrokenProcessPool as exc:
        _discard_pool(mode, workers)
        raise ExecutionError(
            f"{mode} worker pool died mid-execution: {exc}"
        ) from exc


# ------------------------------------------------------- shared-memory path


@dataclass(frozen=True)
class ShmTask:
    """One dispatch chunk's work order on the shared-memory path.

    The whole pickled payload: a *contiguous* unit range ``[start,
    stop)``, where the shared key material lives, and how to match it.
    Compare :class:`UnitBatch`, which carries the cells themselves.
    Because the arena columns are unit-major sorted, a contiguous unit
    range is a contiguous *row* slice of the shared arrays — workers
    match pure views, no gather at all. Units with an empty side inside
    the range cost nothing (their fused keys cannot match the other
    side), so ranges cover every unit and per-node attribution happens
    at the coordinator from the returned global rows.

    The adaptive re-splitter (:func:`_run_dynamic`) narrows a
    single-unit task to a *row* sub-range via ``left_lo``..``right_hi``:
    the left rows partition exactly while the right range covers the
    left sub-range's key span (a key straddling the cut appears in both
    halves' right ranges — matches stay disjoint because the left rows
    are). ``order`` is the position in the split tree: halving a task
    appends 0/1, and the coordinator merges results in lexicographic
    ``order``, so output is deterministic whatever worker ran what.
    """

    chunk: int
    start: int
    stop: int
    layout: ArenaLayout
    kernel: str
    trace_epoch: float | None
    order: tuple[int, ...] = ()
    #: Row overrides (fused arenas, single-unit tasks only): when set,
    #: match rows ``[left_lo, left_hi)`` x ``[right_lo, right_hi)``
    #: instead of the unit range's full bounds.
    left_lo: int | None = None
    left_hi: int | None = None
    right_lo: int | None = None
    right_hi: int | None = None


@dataclass
class ShmBatchResult:
    """What a shared-memory worker ships back: match indices only.

    ``left_rows``/``right_rows`` are *global* row indices into the side
    assemblies (not batch-local like :class:`BatchResult` parts), so the
    coordinator materialises output cells with plain fancy indexing over
    arrays it already holds.
    """

    chunk: int
    left_rows: np.ndarray
    right_rows: np.ndarray
    meta: dict
    counters: CounterSet = field(default_factory=CounterSet)
    spans: list = field(default_factory=list)
    #: The task's split-tree position; the coordinator's merge key.
    order: tuple[int, ...] = ()


#: Worker-side arena cache: attach once per (worker process, segment),
#: evict least-recently-used beyond a small cap so long-lived workers
#: don't accumulate mappings across many prepared joins.
_ATTACHED_ARENAS: OrderedDict[str, SharedArena] = OrderedDict()
_ATTACH_CAP = 8


def _attached_arena(layout: ArenaLayout) -> SharedArena:
    arena = _ATTACHED_ARENAS.get(layout.name)
    if arena is None:
        arena = SharedArena.attach(layout)
        _ATTACHED_ARENAS[layout.name] = arena
        while len(_ATTACHED_ARENAS) > _ATTACH_CAP:
            _, evicted = _ATTACHED_ARENAS.popitem(last=False)
            evicted.release()
    else:
        _ATTACHED_ARENAS.move_to_end(layout.name)
    return arena


def execute_shm_batch(task: ShmTask) -> ShmBatchResult:
    """Match one chunk's unit range against the shared arena (worker).

    Attaches (cached per worker process), slices the range's rows
    straight out of the unit-major sorted columns — a contiguous unit
    range is a contiguous row slice, so there is no gather at all —
    matches in one pass, and maps the matched positions back to global
    assembly rows, the only payload that travels to the coordinator.
    """
    tracer = (
        Tracer(epoch=task.trace_epoch, default_lane=f"worker:c{task.chunk}")
        if task.trace_epoch is not None
        else NULL_TRACER
    )
    counters = CounterSet()
    meta: dict = {}
    with tracer.span(
        f"batch c{task.chunk}",
        chunk=task.chunk,
        units=task.stop - task.start,
        shm=True,
    ) as batch_span:
        with tracer.span(
            "shm_attach", segment=task.layout.name, nbytes=task.layout.nbytes
        ):
            arena = _attached_arena(task.layout)
        left_bounds = arena.left_bounds
        right_bounds = arena.right_bounds
        # A row-scoped task (adaptive re-split) narrows the unit range's
        # bounds to a sub-range of its rows; plain tasks span the full
        # bounds of [start, stop).
        scoped = task.left_lo is not None
        if scoped:
            left_lo, left_hi = int(task.left_lo), int(task.left_hi)
            right_lo, right_hi = int(task.right_lo), int(task.right_hi)
        else:
            left_lo = int(left_bounds[task.start])
            left_hi = int(left_bounds[task.stop])
            right_lo = int(right_bounds[task.start])
            right_hi = int(right_bounds[task.stop])
        with tracer.span("match", kernel=task.kernel):
            if task.layout.fused:
                # The arena stores fused (unit << key_width) | key
                # columns, globally sorted; a contiguous slice stays
                # sorted, so matching is a pure binary-search merge —
                # no argsort, no per-row transforms, per execution.
                left_slice = arena.left_keys[left_lo:left_hi]
                right_slice = arena.right_keys[right_lo:right_hi]
                candidates = None
                if task.layout.filter_log2:
                    # Low-selectivity fast path: the arena's membership
                    # bitmap rejects most left needles in one gather
                    # (~one cache miss each); only surviving candidates
                    # pay the exact binary-search match. When most
                    # needles survive (a selective filter buys nothing
                    # on merge-heavy data), match the full slice.
                    hits = probe_key_filter(
                        left_slice,
                        arena.right_filter,
                        task.layout.filter_log2,
                    )
                    candidates = np.nonzero(hits)[0]
                    if candidates.size > (left_slice.size >> 2):
                        candidates = None
                if candidates is not None:
                    left_idx, right_idx = packed_match_sorted(
                        left_slice[candidates], right_slice, task.kernel
                    )
                    left_idx = candidates[left_idx]
                else:
                    left_idx, right_idx = packed_match_sorted(
                        left_slice, right_slice, task.kernel
                    )
            else:
                left_counts = np.diff(left_bounds[task.start:task.stop + 1])
                right_counts = np.diff(right_bounds[task.start:task.stop + 1])
                units = np.arange(
                    task.start, task.stop, dtype=np.uint64
                )
                left_idx, right_idx = match_packed_columns(
                    np.repeat(units, left_counts),
                    arena.left_keys[left_lo:left_hi],
                    np.repeat(units, right_counts),
                    arena.right_keys[right_lo:right_hi],
                    task.layout.key_width,
                    task.stop - 1,
                    task.kernel,
                )
        # Sorted-arena positions -> original assembly rows: gather only
        # the matched positions through the shared order maps.
        left_rows = arena.left_order[left_lo + left_idx]
        right_rows = arena.right_order[right_lo + right_idx]
        # Counter parity with the serial oracle: count only matchable
        # units (both sides populated) and their rows — the slice also
        # spans units the serial loop would skip. A row-scoped task
        # counts neither: the coordinator credited its parent unit once
        # when it split the range (halves overlap on the straddling
        # key's right rows, so summing per-half counts would overcount).
        if scoped:
            n_matchable = 0
            compared = 0
        else:
            left_counts = np.diff(left_bounds[task.start:task.stop + 1])
            right_counts = np.diff(right_bounds[task.start:task.stop + 1])
            matchable = (left_counts > 0) & (right_counts > 0)
            n_matchable = int(np.count_nonzero(matchable))
            compared = int(
                left_counts[matchable].sum() + right_counts[matchable].sum()
            )
        batch_span.set(
            rows_left=left_hi - left_lo,
            rows_right=right_hi - right_lo,
            matched_pairs=len(left_idx),
        )
    counters.add("batches", 1)
    counters.add("join_units_matched", n_matchable)
    counters.add("cells_compared", compared)
    counters.add("matched_pairs", len(left_idx))
    return ShmBatchResult(
        chunk=task.chunk,
        left_rows=left_rows,
        right_rows=right_rows,
        meta=meta,
        counters=counters,
        spans=tracer.spans if tracer.enabled else [],
        order=task.order,
    )


#: Run-time re-split floor: a task is only worth halving while each half
#: keeps at least this many key rows. Far below the dispatch floor
#: (:data:`_MIN_CHUNK_ROWS`) on purpose — a re-split task goes to a
#: worker that is already awake, so the break-even payload is the
#: matching work itself, not a scheduling round trip.
_RESPLIT_MIN_ROWS = 16384


def _task_rows(
    task: ShmTask, left_bounds: np.ndarray, right_bounds: np.ndarray
) -> int:
    """Key rows (both sides) a task will touch — the load estimate."""
    if task.left_lo is not None:
        return (task.left_hi - task.left_lo) + (task.right_hi - task.right_lo)
    return int(
        (left_bounds[task.stop] - left_bounds[task.start])
        + (right_bounds[task.stop] - right_bounds[task.start])
    )


def split_shm_task(
    task: ShmTask, arena: SharedArena
) -> tuple[ShmTask, ShmTask] | None:
    """Halve one shm task in place — new bounds over the same arena.

    Zero-copy by construction: both halves reference the identical
    shared segment, only their ``[start, stop)`` unit range or
    ``left_lo``..``right_hi`` row windows differ. Three cases:

    - multi-unit range: cut at the interior *unit boundary* nearest half
      the cumulative rows — both halves stay plain tasks that count
      their own units;
    - single-unit plain task (fused arenas only): cut the unit's *rows*
      via :func:`repro.engine.shm.split_row_range`, producing row-scoped
      halves;
    - already row-scoped task: cut the row window again the same way.

    Returns ``None`` when the task cannot be cut (a sub-two-row left
    range, or a single structured-key unit — that path stays the
    oracle).
    """
    if task.left_lo is not None:
        halves = split_row_range(
            arena.left_keys, arena.right_keys,
            task.left_lo, task.left_hi, task.right_lo, task.right_hi,
        )
        if halves is None:
            return None
        (a_llo, a_lhi, a_rlo, a_rhi), (b_llo, b_lhi, b_rlo, b_rhi) = halves
        return (
            replace(
                task, order=task.order + (0,),
                left_lo=a_llo, left_hi=a_lhi,
                right_lo=a_rlo, right_hi=a_rhi,
            ),
            replace(
                task, order=task.order + (1,),
                left_lo=b_llo, left_hi=b_lhi,
                right_lo=b_rlo, right_hi=b_rhi,
            ),
        )
    if task.stop - task.start > 1:
        left_bounds = np.asarray(arena.left_bounds)
        right_bounds = np.asarray(arena.right_bounds)
        lb = left_bounds[task.start:task.stop + 1]
        rb = right_bounds[task.start:task.stop + 1]
        cum = (lb - lb[0]) + (rb - rb[0])
        mid = task.start + 1 + int(
            np.argmin(np.abs(cum[1:-1] * 2 - cum[-1]))
        )
        return (
            replace(task, stop=mid, order=task.order + (0,)),
            replace(task, start=mid, order=task.order + (1,)),
        )
    if not arena.layout.fused:
        return None
    left_bounds = arena.left_bounds
    right_bounds = arena.right_bounds
    halves = split_row_range(
        arena.left_keys, arena.right_keys,
        int(left_bounds[task.start]), int(left_bounds[task.stop]),
        int(right_bounds[task.start]), int(right_bounds[task.stop]),
    )
    if halves is None:
        return None
    (a_llo, a_lhi, a_rlo, a_rhi), (b_llo, b_lhi, b_rlo, b_rhi) = halves
    return (
        replace(
            task, order=task.order + (0,),
            left_lo=a_llo, left_hi=a_lhi, right_lo=a_rlo, right_hi=a_rhi,
        ),
        replace(
            task, order=task.order + (1,),
            left_lo=b_llo, left_hi=b_lhi, right_lo=b_rlo, right_hi=b_rhi,
        ),
    )


def _run_dynamic(
    pool: _ForkPool,
    tasks: list[ShmTask],
    arena: SharedArena,
    counters: CounterSet | None,
) -> tuple[list[ShmBatchResult], int, int]:
    """Per-task dispatch with straggler re-splitting (adaptive mode).

    Largest-pending-first dispatch over the fork pool's pipes, one task
    per message. Before a task ships, it is halved (repeatedly) while it
    dwarfs the fair share of the work still queued for the other
    workers — so no worker ever holds a range bigger than what the rest
    of the pool has left, which is exactly the straggler condition the
    static plan cannot see. Second halves go back into the queue and are
    re-examined at their own dispatch.

    Deterministic despite the timing-dependent completion order: the
    queue only changes at dispatch (pop largest, maybe push halves), so
    the k-th dispatch always sees the same queue state, the split tree
    is a pure function of the initial tasks, and the caller merges
    results by ``order`` tuple.

    Returns ``(results, resplits, steal_count)``; ``steal_count`` is how
    many split halves ran on a different worker than their sibling.
    """
    left_bounds = np.asarray(arena.left_bounds)
    right_bounds = np.asarray(arena.right_bounds)

    def rows_of(task: ShmTask) -> int:
        return _task_rows(task, left_bounds, right_bounds)

    def compensate(task: ShmTask) -> None:
        # The serial oracle counts a matchable unit and its rows exactly
        # once; a row-scoped half counts nothing (halves overlap on the
        # straddling key's right rows), so the parent unit is credited
        # here, at its first row-split.
        if counters is None:
            return
        l_rows = int(left_bounds[task.stop] - left_bounds[task.start])
        r_rows = int(right_bounds[task.stop] - right_bounds[task.start])
        if l_rows > 0 and r_rows > 0:
            counters.add("join_units_matched", 1)
            counters.add("cells_compared", l_rows + r_rows)

    pending = sorted(tasks, key=rows_of, reverse=True)
    # Same exclusivity as _ForkPool.run: the dynamic dispatcher owns
    # every pipe until the run drains, so concurrent queries serialise
    # at the pool instead of interleaving messages.
    with pool._lock:
        return _run_dynamic_locked(pool, pending, arena, counters, rows_of,
                                   compensate)


def _run_dynamic_locked(
    pool: _ForkPool,
    pending: list[ShmTask],
    arena: SharedArena,
    counters: CounterSet | None,
    rows_of,
    compensate,
) -> tuple[list[ShmBatchResult], int, int]:
    idle = list(pool._conns)
    n_workers = pool.workers
    inflight: dict = {}
    owner: dict[tuple[int, ...], object] = {}
    results: list[ShmBatchResult] = []
    failure: str | None = None
    resplits = 0
    steal_count = 0
    while pending or inflight:
        while idle and pending:
            task = pending.pop(0)
            while True:
                rows = rows_of(task)
                if rows < 2 * _RESPLIT_MIN_ROWS:
                    break
                remaining = sum(rows_of(t) for t in pending)
                fair_share = remaining / max(n_workers - 1, 1)
                if rows <= max(fair_share, 2 * _RESPLIT_MIN_ROWS):
                    break
                halves = split_shm_task(task, arena)
                if halves is None:
                    break
                first, second = halves
                if task.left_lo is None and first.left_lo is not None:
                    compensate(task)
                resplits += 1
                pending.append(second)
                pending.sort(key=rows_of, reverse=True)
                task = first
            conn = idle.pop()
            if len(task.order) >= 2:
                parent = task.order[:-1]
                sibling_conn = owner.get(parent)
                if sibling_conn is None:
                    owner[parent] = conn
                elif sibling_conn is not conn:
                    steal_count += 1
            try:
                conn.send([task])
            except (OSError, BrokenPipeError) as exc:
                raise ExecutionError(
                    f"process worker died mid-execution: {exc!r}"
                ) from exc
            inflight[conn] = task
        if not inflight:
            break
        for conn in _conn_wait(list(inflight)):
            try:
                replies = conn.recv()
            except (EOFError, OSError) as exc:
                raise ExecutionError(
                    f"process worker died mid-execution: {exc!r}"
                ) from exc
            del inflight[conn]
            idle.append(conn)
            for status, payload in replies:
                if status == "err":
                    failure = failure if failure is not None else payload
                else:
                    results.append(payload)
        if failure is not None:
            # Stop feeding work, but drain every in-flight pipe so the
            # pool stays clean (same contract as _ForkPool.run).
            pending.clear()
    if failure is not None:
        raise ExecutionError(f"shared-memory worker failed: {failure}")
    return results, resplits, steal_count


def run_shm_batches(
    arena: SharedArena,
    assignment: np.ndarray,
    builder: OutputBuilder,
    left_cells: CellSet,
    right_cells: CellSet,
    left_key_cols: list[np.ndarray],
    n_workers: int,
    kernel: str = "numpy",
    tracer: Tracer | None = None,
    counters: CounterSet | None = None,
    split_units: str = "off",
) -> tuple[dict[int, int], dict]:
    """Execute the shared-memory plan: index-only workers, local build.

    ``left_cells``/``right_cells``/``left_key_cols`` are the *whole*
    side assemblies; workers return global rows into them, so the
    coordinator materialises the output directly — no per-batch
    cell-set concatenation, no pickled parts. ``assignment`` (unit ->
    node) only attributes produced counts afterwards: dispatch ignores
    the node plan entirely and splits units into contiguous,
    row-balanced ranges that workers match as views.

    ``split_units="adaptive"`` (fused arenas, fork platforms) swaps the
    one-chunk-per-worker dispatch for :func:`_run_dynamic`: tasks ship
    one at a time, stragglers are halved zero-copy before they ship,
    and idle workers steal the halves. Output stays byte-identical —
    results merge by split-tree ``order``, not completion order.
    """
    trace_epoch = (
        tracer.epoch if tracer is not None and tracer.enabled else None
    )
    meta: dict = {
        "kernel": kernel,
        "shm": True,
        "shm_bytes": arena.nbytes,
    }
    n_units = arena.layout.n_units
    if n_units <= 0:
        return {}, meta
    left_bounds = np.asarray(arena.left_bounds)
    right_bounds = np.asarray(arena.right_bounds)
    unit_rows = np.diff(left_bounds) + np.diff(right_bounds)
    # Dispatch width: never more chunks than workers, never more than
    # the compute justifies (_range_chunks), and never beyond the CPUs
    # this process can actually use — oversubscribing a small host
    # turns fan-out into pure scheduling overhead. The floor of 2
    # keeps real process workers engaged whenever parallelism was
    # requested, whatever the affinity mask says.
    pool_size = min(n_workers, max(available_cpus(), 2))
    # Effective slots: parallelism the host can really deliver. The
    # pool-size floor of 2 above keeps process workers engaged for the
    # *static* path (isolation still pays for itself), but adaptive
    # re-splitting only converts stragglers into speedup when split
    # halves can run concurrently — on one effective slot every extra
    # dispatch round trip is pure loss, so adaptive falls back to the
    # static split there.
    effective_slots = min(n_workers, available_cpus())
    tasks = [
        ShmTask(
            chunk=index,
            start=start,
            stop=stop,
            layout=arena.layout,
            kernel=kernel,
            trace_epoch=trace_epoch,
            order=(index,),
        )
        for index, (start, stop) in enumerate(
            _range_chunks(unit_rows, pool_size)
        )
    ]
    adaptive = (
        split_units == "adaptive"
        and arena.layout.fused
        and _FORK_AVAILABLE
        and n_workers > 1
        and pool_size > 1
        and effective_slots > 1
    )
    if adaptive:
        pool = _get_fork_pool(pool_size)
        try:
            results, resplits, steals = _run_dynamic(
                pool, tasks, arena, counters
            )
        except ExecutionError:
            _discard_fork_pool(pool_size)
            raise
        meta["runtime_resplits"] = resplits
        meta["steal_count"] = steals
    elif n_workers <= 1 or len(tasks) <= 1:
        try:
            results = [execute_shm_batch(task) for task in tasks]
        except ExecutionError:
            raise
        except Exception as exc:
            # Same contract as the pooled paths: batch failures always
            # surface as ExecutionError so callers have one type to
            # trigger arena/pool teardown on.
            raise ExecutionError(
                f"shared-memory batch failed: {exc}"
            ) from exc
    elif _FORK_AVAILABLE:
        pool = _get_fork_pool(pool_size)
        try:
            results = pool.run([[task] for task in tasks])
        except ExecutionError:
            _discard_fork_pool(pool_size)
            raise
    else:  # pragma: no cover - spawn-only platforms
        workers = min(n_workers, len(tasks))
        pool = _get_pool("process", workers)
        futures = [pool.submit(execute_shm_batch, task) for task in tasks]
        try:
            results = [future.result() for future in futures]
        except BrokenProcessPool as exc:
            _discard_pool("process", workers)
            raise ExecutionError(
                f"process worker pool died mid-execution: {exc}"
            ) from exc

    # Deterministic merge: lexicographic split-tree order — plain runs
    # reduce to ascending chunk order, adaptive runs interleave halves
    # exactly where their parent range sat — whatever worker handled
    # each task; one concatenated materialise pass builds the whole
    # output at once (materialise_matches emits exactly one output row
    # per match pair). Per-node produced counts fall out of the matched
    # rows themselves: row -> unit via the bounds table, unit -> node
    # via the plan's assignment.
    results.sort(key=lambda result: result.order)
    left_parts = [result.left_rows for result in results]
    right_parts = [result.right_rows for result in results]
    for result in results:
        meta.update(result.meta)
        if counters is not None:
            counters.merge(result.counters)
            counters.add("cells_emitted", len(result.left_rows))
        if trace_epoch is not None:
            tracer.extend(result.spans)
    node_output: dict[int, int] = {}
    all_left = (
        np.concatenate(left_parts) if left_parts else
        np.empty(0, dtype=np.int64)
    )
    if all_left.size:
        pair_units = np.searchsorted(left_bounds, all_left, side="right") - 1
        produced = np.bincount(
            np.asarray(assignment, dtype=np.int64)[pair_units]
        )
        node_output = {
            int(node): int(count)
            for node, count in enumerate(produced)
            if count
        }
        part = builder.materialise_matches(
            left_cells,
            right_cells,
            all_left,
            np.concatenate(right_parts),
            left_key_cols,
        )
        if part is not None:
            builder.add_part(*part)
    return node_output, meta
