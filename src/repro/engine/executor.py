"""The shuffle join executor (Sections 3.3-3.4 end to end).

Pipeline: parse AQL → infer the join schema → logical planning
(Algorithm 1) → slice mapping on every node → physical planning →
data alignment over the simulated write-lock network schedule → per-unit
cell comparison → output construction in the destination schema.

The join is *really computed* (numpy cell matching, validated against a
brute-force cross join in the test suite); the phase durations are
*derived* from the simulated network schedule plus calibrated per-cell
CPU rates, while planning time is genuine wall-clock time of the planner
implementations.
"""

from __future__ import annotations

import threading
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.adm.array import LocalArray
from repro.adm.cells import CellSet, composite_key
from repro.adm.keycodec import KeyCodec, plan_codec
from repro.adm.schema import ArraySchema
from repro.adm.stats import Histogram
from repro.cluster.cluster import Cluster
from repro.cluster.network import TransferTable, schedule_shuffle
from repro.core.cost_model import AnalyticalCostModel, CostParams, PlanCost
from repro.core.join_schema import JoinSchema, infer_join_schema
from repro.core.logical import LogicalPlan, LogicalPlanner, PlanInputs
from repro.core.planners import PhysicalPlan, PhysicalPlanner, get_planner
from repro.core.slices import SliceStats, key_columns, unit_ids_for
from repro.core.splitting import SplitPlan, plan_unit_split
from repro.engine.joins import hash_join_match, match_pairs
from repro.engine.kernels import resolve_kernel
from repro.engine.output import OutputBuilder, derive_destination
from repro.engine.parallel import (
    UnitBatch,
    resolve_mode,
    resolve_workers,
    run_batches,
    run_shm_batches,
    shutdown_pools,
)
from repro.engine.kernels import probe_sorted
from repro.engine.shm import (
    SharedArena,
    _unit_sorted,
    fuse_unit_keys,
    fused_width_fits,
)
from repro.engine.simulation import SimulationParams
from repro.errors import ExecutionError, PlanningError
from repro.obs.counters import CounterSet
from repro.obs.explain_analyze import ExplainAnalyzeReport
from repro.obs.metrics import MetricsRegistry, record_execution
from repro.obs.timers import PhaseProfiler
from repro.obs.trace import Tracer
from repro.query.aql import FilterQuery, JoinQuery, MultiJoinQuery, parse_aql
from repro.query.afl import apply_filter
from repro.serve.cache import CachedPlan, PlanCache
from repro.serve.fingerprint import Fingerprint, plan_fingerprint


#: Rows (both sides) per block of consecutive join units on the
#: in-process fused matcher: large enough that a block's few numpy calls
#: amortise over thousands of small units, small enough that its
#: gathered key columns stay a few MiB.
FUSED_BLOCK_ROWS = 1 << 16

#: A hash join takes the in-process fused matcher only when its mean
#: matchable unit holds fewer rows (both sides) than this. Measured on
#: the two sides of the line: ``hash_skew`` and the served workloads
#: (≈ 500 rows per matchable unit) gain — steady requests 14 → 6 ms —
#: because the per-unit loop makes a Python-level match call and a
#: materialise call for each of the 395 matchable units per request;
#: ``dense_output`` (≈ 6.3k rows per unit) and ``chain4``'s replayed
#: stage (≈ 4.7k) ran 25–35 % slower when forced onto it, because the
#: per-unit hash join sorts only each unit's smaller side while the
#: fused path gathers both sides through the sort permutations. Merge
#: joins always gain: the per-unit loop sorts and checks both sides of
#: every unit.
FUSED_HASH_MAX_UNIT_ROWS = 1024


def _takes_fused_path(
    slice_table: "_SliceTable", algo: str, matchable: np.ndarray
) -> bool:
    """Whether a one-worker match runs on the in-process fused matcher.

    Needs packed single-sort keys whose fused ``(unit << width) | key``
    form fits 64 bits, and a merge join or a small-unit hash join (see
    :data:`FUSED_HASH_MAX_UNIT_ROWS`). Everything else — structured
    keys, the reference slice mapping, nested loops, big-unit hash
    joins — stays on :meth:`ShuffleJoinExecutor._match_serial`.
    """
    codec = slice_table.codec
    left, right = slice_table.left_assembly, slice_table.right_assembly
    if (
        codec is None
        or left is None
        or right is None
        or not matchable.size
        or algo not in ("merge", "hash")
        or not fused_width_fits(left.bounds.size - 1, codec.total_width)
    ):
        return False
    if algo == "merge":
        return True
    stats = slice_table.stats
    rows = int(
        stats.left_unit_totals[matchable].sum()
        + stats.right_unit_totals[matchable].sum()
    )
    return rows < FUSED_HASH_MAX_UNIT_ROWS * matchable.size


def _unit_blocks(row_bounds: np.ndarray, block_rows: int):
    """Yield ``(start, stop)`` ranges of consecutive units.

    ``row_bounds`` is the cumulative row count per unit boundary; each
    range holds at most ``block_rows`` rows unless one unit alone is
    bigger, which then forms its own range.
    """
    n_units = row_bounds.size - 1
    start = 0
    while start < n_units:
        stop = int(
            np.searchsorted(
                row_bounds, row_bounds[start] + block_rows, side="right"
            )
        ) - 1
        stop = min(max(stop, start + 1), n_units)
        yield start, stop
        start = stop


def _probe_block(
    probe: "_SideAssembly",
    probe_lo: int,
    probe_counts: np.ndarray,
    probes: np.ndarray,
    build_sorted: np.ndarray,
    start: int,
    key_width: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Probe one side's rows of a block's ``probes`` units, in row order.

    ``probe_counts``/``probes`` are per unit of the block starting at
    unit ``start`` (rows from ``probe_lo``); ``build_sorted`` is the
    other side's fused column of the same block, in sorted order.
    Returns the matched probe rows, the build positions and each
    pair's unit, probe-row-major with build positions ascending.
    """
    rows = probe_lo + np.flatnonzero(np.repeat(probes, probe_counts))
    needles = fuse_unit_keys(
        probe.keys[rows], np.where(probes, probe_counts, 0), start, key_width
    )
    hits, positions = probe_sorted(needles, build_sorted)
    return rows[hits], positions, needles[hits] >> np.uint64(key_width)


def _interleave_by_unit(first, second):
    """Merge two unit-ordered ``(left rows, right rows, units)`` triples.

    The two never share a unit, so each pair's output position is its
    own index plus the other triple's pair count in lower units: a
    position scatter, with no sort of either side or of the pairs.
    """
    if first is None or second is None:
        return first if second is None else second
    units_a, units_b = first[2], second[2]
    pos_a = np.arange(units_a.size) + np.searchsorted(units_b, units_a)
    pos_b = np.arange(units_b.size) + np.searchsorted(units_a, units_b)
    merged = []
    for a, b in zip(first, second):
        out = np.empty(a.size + b.size, dtype=np.result_type(a, b))
        out[pos_a] = a
        out[pos_b] = b
        merged.append(out)
    return tuple(merged)


def _stable_unit_order(units: np.ndarray, n_units: int) -> np.ndarray:
    """Stable argsort of join-unit ids in ``[0, n_units)``.

    Ids that fit 16 bits are sorted as ``uint16``, where NumPy's stable
    sort is a radix sort — about 10x faster on a 150k-row side than the
    ``int64`` merge sort, and the same permutation, since a stable sort
    of equal values has only one answer.
    """
    if n_units <= 1 << 16:
        units = units.astype(np.uint16)
    return np.argsort(units, kind="stable")


@dataclass
class ExecutionReport:
    """Timing and traffic breakdown of one shuffle join execution.

    ``plan_seconds`` is measured wall-clock planning time (logical +
    physical); ``align_seconds`` and ``compare_seconds`` are simulated
    phase durations.
    """

    planner: str
    join_algo: str
    unit_kind: str
    n_units: int
    logical_afl: str
    plan_seconds: float
    align_seconds: float
    compare_seconds: float
    cells_moved: int
    n_transfers: int
    output_cells: int
    #: bytes actually shipped (coordinates + only the attributes the query
    #: needs — the vertical-partitioning payoff of Section 2.1) and the
    #: bytes a row-store would have shipped (all attributes)
    bytes_moved: int = 0
    bytes_moved_full_width: int = 0
    analytic_cost: PlanCost | None = None
    per_node_compare: np.ndarray | None = None
    cells_sent: dict[int, int] = field(default_factory=dict)
    cells_received: dict[int, int] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    #: Wall-clock seconds per prepare stage (cache_lookup / logical_plan /
    #: stats / physical_assign / alignment / schedule), from the profiler.
    prepare_breakdown: dict[str, float] = field(default_factory=dict)
    #: Plan-cache outcome for this query: ``status`` (hit/miss) and
    #: fingerprint plus the cache's cumulative hit/miss/eviction counters.
    #: Empty when the executor runs without a plan cache.
    cache: dict = field(default_factory=dict)
    #: Cells each node's matching emitted (parallel to the cluster's
    #: node ids; ``per_node_compare`` carries the busy seconds).
    per_node_output: np.ndarray | None = None
    #: Per-node predicted (Eqs 5-8) and observed cost vectors, captured
    #: by ``analyze``/traced executions; feeds
    #: :class:`repro.obs.explain_analyze.ExplainAnalyzeReport`.
    node_profile: dict | None = None

    @property
    def execute_seconds(self) -> float:
        """Simulated execution time: data alignment + cell comparison."""
        return self.align_seconds + self.compare_seconds

    @property
    def total_seconds(self) -> float:
        """End-to-end latency: planning + alignment + comparison."""
        return self.plan_seconds + self.execute_seconds

    def describe(self) -> str:
        text = (
            f"[{self.planner}/{self.join_algo}] total={self.total_seconds:.3f}s "
            f"(plan={self.plan_seconds:.3f}s, align={self.align_seconds:.3f}s, "
            f"compare={self.compare_seconds:.3f}s) "
            f"moved={self.cells_moved} cells, out={self.output_cells} cells"
        )
        if self.prepare_breakdown:
            stages = ", ".join(
                f"{stage}={seconds * 1000:.1f}ms"
                for stage, seconds in self.prepare_breakdown.items()
            )
            text += f"\n  prepare: {stages}"
        if self.cache:
            counters = " ".join(
                f"{name}={self.cache[name]}"
                for name in ("hits", "misses", "evictions", "entries")
                if name in self.cache
            )
            text += (
                f"\n  plan cache: {self.cache.get('status', '?')} "
                f"[{self.cache.get('fingerprint', '?')}] {counters}"
            )
        return text


@dataclass
class JoinResult:
    """A completed join: the output array plus its execution report."""

    array: LocalArray
    report: ExecutionReport
    logical_plan: LogicalPlan
    physical_plan: PhysicalPlan | None
    join_schema: JoinSchema
    #: The per-query tracer when the query ran with ``trace=...``.
    trace: Tracer | None = None

    @property
    def cells(self) -> CellSet:
        return self.array.cells()


@dataclass
class ExplainReport:
    """Planning-only view of a join query (no execution).

    Lists every valid logical plan with its Algorithm-1 cost, the chosen
    plan, and — when a physical planner was requested — the join-unit
    assignment summary and its analytic cost.
    """

    query: str
    destination: str
    join_kind: str
    chosen_afl: str
    chosen: LogicalPlan
    candidates: list[tuple[str, float]]
    physical: PhysicalPlan | None = None
    n_units: int | None = None
    #: Plan-cache outcome of the lookup explain performed (``"hit"`` /
    #: ``"miss"``), or None when the executor runs without a plan cache.
    cache_status: str | None = None
    cache_fingerprint: str | None = None

    def describe(self) -> str:
        lines = [
            f"query:       {self.query}",
            f"destination: {self.destination}",
            f"join kind:   {self.join_kind}",
            f"chosen plan: {self.chosen_afl}",
            "candidate logical plans (cost ascending):",
        ]
        for description, cost in self.candidates:
            marker = "  *" if description == self.chosen.describe() else "   "
            lines.append(f"{marker} {description}")
        if self.physical is not None:
            lines.append(
                f"physical:    {self.physical.describe()} "
                f"over {self.n_units} join units"
            )
        if self.cache_status is not None:
            lines.append(
                f"plan cache:  {self.cache_status} "
                f"[{self.cache_fingerprint or '?'}]"
            )
        return "\n".join(lines)


@dataclass
class _SideAssembly:
    """One join side's cells in globally unit-major order.

    Built by the single-sort slice mapping: all nodes' cells (with their
    key columns and composite keys) are concatenated node-major, then one
    stable argsort by join-unit id puts them in unit-major order — within
    a unit, ascending node id; within a node, original arrival order.
    Every per-unit view (assembled cells, key columns, composite keys,
    per-node pieces) is then a contiguous slice of these arrays: no
    per-piece construction, no re-sorting, no per-unit key re-derivation.
    """

    cells: CellSet
    #: ``n_units + 1`` row boundaries: unit ``u`` spans
    #: ``[bounds[u], bounds[u + 1])``.
    bounds: np.ndarray
    key_cols: list[np.ndarray]
    keys: np.ndarray
    #: ``n_units * n_nodes + 1`` boundaries of per-(unit, node) pieces —
    #: contiguous because the stable unit sort keeps nodes in concat order.
    piece_offsets: np.ndarray
    n_nodes: int

    def slice_cells(self, lo: int, hi: int) -> CellSet:
        coords = self.cells.coords
        return CellSet._from_validated(
            coords[lo:hi],
            {name: col[lo:hi] for name, col in self.cells.attrs.items()},
        )


@dataclass
class _SliceTable:
    """Slice mapping output: per-(side, unit, node) cell sets + statistics.

    The single-sort mapping stores each side as one :class:`_SideAssembly`
    and serves units as slice views. The reference mapping (and slice
    tables built by hand in tests) stores explicit per-(unit, node) piece
    tables instead. Assembly and key derivation are memoised per
    (side, unit): a prepared join executed under several planners (or
    re-executed serial vs parallel) materialises each unit exactly once.
    The caches are safe because cell sets are immutable by convention and
    the slice tables themselves are never mutated after slice mapping.
    """

    stats: SliceStats
    left: list[list[CellSet | None]] | None = None
    right: list[list[CellSet | None]] | None = None
    left_assembly: _SideAssembly | None = None
    right_assembly: _SideAssembly | None = None
    #: The packed-key codec covering both assemblies' composite keys, or
    #: None when keys are structured (packing disabled, reference slice
    #: mapping, or a key wider than 64 bits).
    codec: KeyCodec | None = None
    #: The plan-time unit split applied to this table's assemblies, or
    #: None when splitting is off, declined (structured keys, no heavy
    #: units, single-hot-key units), or not applicable to the plan.
    split: SplitPlan | None = None
    _assembled: dict[tuple[str, int], CellSet | None] = field(
        default_factory=dict, repr=False
    )
    _keys: dict[tuple[str, int], tuple[list[np.ndarray], np.ndarray]] = field(
        default_factory=dict, repr=False
    )
    #: Merge-join sort orders per (side, unit): the serial merge path
    #: argsorts each unit's composite key once, not once per execution.
    _orders: dict[tuple[str, int], np.ndarray] = field(
        default_factory=dict, repr=False
    )
    #: Shuffle schedules keyed by (assignment bytes, policy): the network
    #: simulation is a deterministic function of the slice statistics and
    #: the unit assignment, so planner-comparison studies re-executing a
    #: prepared join under the same assignment reuse the schedule.
    _alignment: dict[tuple[bytes, str], tuple[float, object]] = field(
        default_factory=dict, repr=False
    )
    #: Physical plans keyed by (planner, join algo): like the shuffle
    #: schedule, a physical plan is a function of the slice statistics
    #: only, so re-executing a prepared join under the same planner
    #: reuses the assignment instead of re-solving it per execution.
    _physical_memo: dict[tuple[str, str], tuple[np.ndarray, object]] = field(
        default_factory=dict, repr=False
    )
    #: Shared-memory arena over both assemblies' packed keys and bounds,
    #: built lazily for process-mode execution and reused across
    #: executions of the same prepared join. ``None`` until built (or
    #: after release); ``_arena_failed`` latches allocation failures so
    #: one failed segment doesn't retry per execution.
    _arena: SharedArena | None = field(default=None, repr=False)
    _arena_failed: bool = field(default=False, repr=False)
    #: Serialises arena creation/release: two concurrent process-mode
    #: executions of one cached plan must share one segment, not race
    #: check-then-create and leak the loser's /dev/shm allocation.
    _arena_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False
    )
    #: Within-unit sort permutation per side (:meth:`sort_perm`), built
    #: on first use under its own lock: concurrent executions of one
    #: cached plan sort each side once, not once per request.
    _perms: dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    _perm_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False
    )

    def _side_assembly(self, side: str) -> _SideAssembly | None:
        return self.left_assembly if side == "left" else self.right_assembly

    def shm_arena(self) -> SharedArena | None:
        """Create-or-get the shared arena (packed single-sort joins only).

        Returns None when the layout cannot be shared — structured keys,
        reference slice mapping, or a shared-memory allocation failure —
        and the caller falls back to the classic pickling path.
        """
        with self._arena_lock:
            if self._arena is not None and not self._arena.closed:
                return self._arena
            if self._arena_failed or self.codec is None:
                return None
            left, right = self.left_assembly, self.right_assembly
            if left is None or right is None:
                return None
            try:
                self._arena = SharedArena.create(
                    left.keys, right.keys, left.bounds, right.bounds,
                    self.codec.total_width,
                    self.sort_perm("left"), self.sort_perm("right"),
                )
            except (OSError, ValueError):
                self._arena_failed = True
                return None
            return self._arena

    def sort_perm(self, side: str) -> np.ndarray:
        """One side's within-unit stable sort permutation (packed keys).

        ``perm[p]`` is the assembly row at sorted position ``p``; a
        unit's sorted rows are ``perm[bounds[u]:bounds[u + 1]]``, with
        equal keys in row order. Shared by the in-process fused matcher
        and the shared-memory arena, so neither sorts a side twice.
        """
        with self._perm_lock:
            perm = self._perms.get(side)
            if perm is None:
                assembly = self._side_assembly(side)
                perm = _unit_sorted(
                    assembly.keys, assembly.bounds, self.codec.total_width
                )
                self._perms[side] = perm
            return perm

    def release_arena(self) -> None:
        """Tear down the shared arena now (idempotent; GC also covers it)."""
        with self._arena_lock:
            arena, self._arena = self._arena, None
        if arena is not None:
            arena.release()

    def assembled(self, side: str, unit: int) -> CellSet | None:
        cache_key = (side, unit)
        if cache_key in self._assembled:
            return self._assembled[cache_key]
        assembly = self._side_assembly(side)
        if assembly is not None:
            lo = int(assembly.bounds[unit])
            hi = int(assembly.bounds[unit + 1])
            result = assembly.slice_cells(lo, hi) if hi > lo else None
        else:
            table = self.left if side == "left" else self.right
            parts = (
                [c for c in table[unit] if c is not None and len(c)]
                if table is not None
                else []
            )
            result = CellSet.concat(parts) if parts else None
        self._assembled[cache_key] = result
        return result

    def piece(self, side: str, unit: int, node: int) -> CellSet | None:
        """One node's contribution to one unit (view or stored piece)."""
        assembly = self._side_assembly(side)
        if assembly is not None:
            offset = unit * assembly.n_nodes + node
            lo = int(assembly.piece_offsets[offset])
            hi = int(assembly.piece_offsets[offset + 1])
            return assembly.slice_cells(lo, hi) if hi > lo else None
        table = self.left if side == "left" else self.right
        return table[unit][node] if table is not None else None

    def unit_keys(
        self, side: str, unit: int, join_schema: JoinSchema
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """Cached (key columns, composite keys) of one assembled unit side.

        The keys are packed ``uint64`` when :attr:`codec` is set (the
        assemblies were built with packed keys) and structured otherwise;
        every matcher accepts both representations.
        """
        cache_key = (side, unit)
        if cache_key in self._keys:
            return self._keys[cache_key]
        assembly = self._side_assembly(side)
        if assembly is not None:
            lo = int(assembly.bounds[unit])
            hi = int(assembly.bounds[unit + 1])
            # Row-aligned with assembled() by construction: the same
            # global sort ordered the cells and the key material.
            cols = [col[lo:hi] for col in assembly.key_cols]
            keys = assembly.keys[lo:hi]
            self._keys[cache_key] = (cols, keys)
            return cols, keys
        cells = self.assembled(side, unit)
        source = (
            join_schema.left_schema if side == "left" else join_schema.right_schema
        )
        cols = key_columns(join_schema, side, cells, source)
        keys = composite_key(cols)
        self._keys[cache_key] = (cols, keys)
        return cols, keys

    def unit_order(
        self, side: str, unit: int, join_schema: JoinSchema
    ) -> np.ndarray:
        """Cached stable argsort of one unit side's composite key."""
        cache_key = (side, unit)
        order = self._orders.get(cache_key)
        if order is None:
            _, keys = self.unit_keys(side, unit, join_schema)
            order = np.argsort(keys, kind="stable")
            self._orders[cache_key] = order
        return order

    def shipped_bytes_per_cell(self, side: str) -> int:
        """Bytes per cell of one side's (projected) slices.

        Every slice of a side carries the same columns (the slice mapping
        projects to the ship fields first), so one sample piece fixes the
        whole side's width.
        """
        assembly = self._side_assembly(side)
        if assembly is not None:
            cells = assembly.cells
            if not len(cells):
                return 0
            return 8 * cells.ndims + sum(
                column.dtype.itemsize for column in cells.attrs.values()
            )
        table = self.left if side == "left" else self.right
        for row in table or []:
            for piece in row:
                if piece is not None and len(piece):
                    return 8 * piece.ndims + sum(
                        column.dtype.itemsize for column in piece.attrs.values()
                    )
        return 0


class ShuffleJoinExecutor:
    """Plans and executes shuffle joins against a cluster."""

    def __init__(
        self,
        cluster: Cluster,
        cost_params: CostParams | None = None,
        sim_params: SimulationParams | None = None,
        n_buckets: int | None = None,
        selectivity_hint: float | None = None,
        ilp_time_budget_s: float = 5.0,
        tabu_max_rounds: int = 64,
        shuffle_policy: str = "greedy_lock",
        n_workers: int | None = None,
        parallel_mode: str = "thread",
        shm: bool | None = None,
        kernel: str = "auto",
        split_units: str = "off",
        split_threshold: float = 4.0,
        split_factor: int = 8,
        profiler: PhaseProfiler | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        single_sort: bool = True,
        packed_keys: bool = True,
        plan_cache: PlanCache | None = None,
        plan_cache_size: int = 0,
    ):
        self.cluster = cluster
        self.shuffle_policy = shuffle_policy
        # Warm-path serving: a bounded LRU of prepared plans keyed by
        # content fingerprints (see repro.serve). Off by default at the
        # executor level so benchmark/experiment harnesses measuring
        # planning cost keep measuring it; Session turns it on.
        if plan_cache is not None:
            self.plan_cache: PlanCache | None = plan_cache
        else:
            self.plan_cache = PlanCache(plan_cache_size) if plan_cache_size else None
        # ``single_sort=False`` replays the pre-vectorization slice
        # mapping (one partition sort per structure, per-unit key
        # re-derivation at match time). Kept as the reference arm for
        # the prepare benchmark and as an ablation/debug switch.
        self.single_sort = single_sort
        # ``packed_keys=False`` keeps structured composite keys even when
        # the join key would fit one packed uint64 lane — the reference
        # oracle for the key codec (see repro.adm.keycodec). Packing only
        # applies on the single-sort pipeline; the reference slice
        # mapping always uses structured keys.
        self.packed_keys = packed_keys
        # Enabled by default: the executor enters a handful of coarse
        # phases per query, so every report can carry the prepare
        # breakdown at negligible cost. Pass a disabled profiler to
        # switch the spans into shared no-op context managers.
        self.profiler = profiler if profiler is not None else PhaseProfiler()
        # Span tracing is *off* by default (a disabled tracer's span()
        # returns one shared no-op context manager); pass an enabled
        # Tracer — or trace=... on execute — to record execution spans.
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        # The metrics registry is always on: it only aggregates a few
        # per-execution totals and skew gauges, negligible against the
        # matching work, and gives the serving path standing telemetry.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Worker-pool knobs for the cell-comparison phase: None/0/1 run
        # the serial per-unit path; >1 batches units per assigned node
        # and executes the batches on a pool (see repro.engine.parallel).
        self.n_workers = resolve_workers(n_workers)
        self.parallel_mode = resolve_mode(parallel_mode)
        # Zero-copy process workers: on by default in process mode (the
        # whole point of the mode), meaningless for threads — which
        # already share every array — so shm=True there is a warned
        # no-op rather than a crash.
        if shm is None:
            shm = self.parallel_mode == "process"
        elif shm and self.parallel_mode != "process":
            warnings.warn(
                "shm=True has no effect with parallel_mode="
                f"{self.parallel_mode!r}: threads already share memory; "
                "ignoring",
                stacklevel=2,
            )
            shm = False
        self.shm = bool(shm)
        # The packed-key match kernel: resolved once ("auto" → numba
        # when installed, numpy otherwise) so every batch and report
        # sees the implementation that actually runs.
        self.kernel = resolve_kernel(kernel)
        # Skew splitting: "static" subdivides heavy units at plan time
        # (key-boundary cuts through repro.core.splitting); "adaptive"
        # additionally re-splits straggler ranges at run time on the
        # shared-memory process path. Splitting needs packed keys on the
        # single-sort pipeline; the structured fallback declines and
        # stays the byte-exact oracle.
        if split_units not in ("off", "static", "adaptive"):
            raise ExecutionError(
                f"unknown split_units {split_units!r}; expected 'off', "
                "'static', or 'adaptive'"
            )
        if split_threshold <= 0:
            raise ExecutionError(
                f"split_threshold must be positive, got {split_threshold}"
            )
        if split_factor < 2:
            raise ExecutionError(
                f"split_factor must be at least 2, got {split_factor}"
            )
        self.split_units = split_units
        self.split_threshold = float(split_threshold)
        self.split_factor = int(split_factor)
        self.cost = (
            cost_params
            if cost_params is not None
            else CostParams().with_bandwidth(cluster.network.bandwidth_cells_per_s)
        )
        self.sim = sim_params or SimulationParams()
        self.n_buckets = n_buckets
        self.selectivity_hint = selectivity_hint
        self.ilp_time_budget_s = ilp_time_budget_s
        self.tabu_max_rounds = tabu_max_rounds

    # ------------------------------------------------------------ public API

    def execute(
        self,
        query: str | JoinQuery,
        planner: str = "tabu",
        join_algo: str | None = None,
        store_result: bool = False,
        n_workers: int | None = None,
        use_cache: bool | None = None,
        analyze: bool = False,
        trace: "str | bool | None" = None,
        tenant: str | None = None,
    ) -> JoinResult:
        """Run a join query end to end.

        ``planner`` selects the physical planner (baseline, mbh, tabu,
        ilp, ilp_coarse). ``join_algo`` optionally pins the logical plan
        to one join algorithm (as the Figure 5/6 experiments do);
        otherwise Algorithm 1 picks the cheapest. ``n_workers`` overrides
        the executor's worker-pool size for this query only.
        ``use_cache=False`` bypasses the plan cache for this query
        (both lookup and population); the default uses the cache
        whenever the executor has one.

        ``analyze=True`` captures the per-node predicted-vs-actual cost
        profile (``report.node_profile``) for explain-analyze.
        ``trace`` records execution spans for this query onto a fresh
        tracer attached to the result (``result.trace``); a string
        value additionally writes the Chrome trace JSON to that path.

        ``tenant`` namespaces the plan-cache entry: the token is folded
        into the content fingerprint, so tenants never share cached
        plans (the LRU budget stays shared) and the metrics registry
        accumulates per-tenant ``tenant_cache_hits.<t>`` /
        ``tenant_cache_misses.<t>`` counters.
        """
        if tenant is not None and (
            not isinstance(tenant, str) or not tenant
        ):
            raise ExecutionError(
                f"tenant must be a non-empty string or None, got {tenant!r}"
            )
        if isinstance(query, str):
            parsed = parse_aql(query)
        else:
            parsed = query
        if isinstance(parsed, FilterQuery):
            raise ExecutionError(
                "ShuffleJoinExecutor.execute handles join queries; use "
                "execute_filter for single-array queries"
            )
        query_tracer = Tracer() if trace else None
        saved_tracer = self.tracer
        if query_tracer is not None:
            self.tracer = query_tracer
        try:
            result = self._execute_parsed(
                parsed, planner, join_algo, store_result, n_workers,
                use_cache, analyze, tenant,
            )
        finally:
            self.tracer = saved_tracer
        if query_tracer is not None:
            if isinstance(trace, (str, bytes)) or hasattr(trace, "__fspath__"):
                query_tracer.write_chrome(trace)
            result.trace = query_tracer
        return result

    def _execute_parsed(
        self,
        parsed: JoinQuery | MultiJoinQuery,
        planner: str,
        join_algo: str | None,
        store_result: bool,
        n_workers: int | None,
        use_cache: bool | None,
        analyze: bool,
        tenant: str | None = None,
    ) -> JoinResult:
        if isinstance(parsed, MultiJoinQuery):
            from repro.engine.multijoin import execute_multi_join

            if join_algo is not None:
                raise ExecutionError(
                    "multi-join stages choose their own join algorithms; "
                    "join_algo cannot be pinned"
                )
            result = execute_multi_join(
                self, parsed, planner=planner, n_workers=n_workers,
                use_cache=use_cache, analyze=analyze, tenant=tenant,
            )
            if store_result and not self.cluster.catalog.exists(
                result.array.schema.name
            ):
                self.cluster.load_array(result.array)
            return result
        result = self._execute_join(
            parsed, planner, join_algo, n_workers, use_cache=use_cache,
            analyze=analyze, tenant=tenant,
        )
        if store_result and not self.cluster.catalog.exists(result.array.schema.name):
            self.cluster.load_array(result.array)
        return result

    def explain_analyze(
        self,
        query: str | JoinQuery,
        planner: str = "tabu",
        join_algo: str | None = None,
        n_workers: int | None = None,
        use_cache: bool | None = None,
        trace: "str | bool | None" = None,
    ) -> ExplainAnalyzeReport:
        """Execute a join and report per-node predicted-vs-actual costs.

        The query *really runs* (EXPLAIN ANALYZE semantics): the report
        lines the physical cost model's per-node alignment/comparison
        predictions (Equations 5-8) up against what the execution
        observed, with skew statistics over the actual per-node loads.
        The underlying :class:`JoinResult` rides along as
        ``report.result``.
        """
        text = query if isinstance(query, str) else str(query)
        result = self.execute(
            query, planner=planner, join_algo=join_algo,
            n_workers=n_workers, use_cache=use_cache,
            analyze=True, trace=trace,
        )
        from repro.engine.multijoin import MultiJoinResult

        if isinstance(result, MultiJoinResult):
            from repro.obs.explain_analyze import MultiJoinExplainAnalyzeReport

            return MultiJoinExplainAnalyzeReport.from_result(
                result, query=text
            )
        return ExplainAnalyzeReport.from_result(result, query=text)

    def explain(
        self,
        query: str | JoinQuery,
        planner: str | None = None,
        join_algo: str | None = None,
    ) -> ExplainReport:
        """Plan a join query without executing it.

        With ``planner`` given, slice mapping and physical planning run
        too (they read only statistics and never move data), so the
        report includes the join-unit-to-node assignment summary.
        """
        parsed = parse_aql(query) if isinstance(query, str) else query
        if isinstance(parsed, FilterQuery):
            raise ExecutionError("explain covers join queries")
        if isinstance(parsed, MultiJoinQuery):
            from repro.engine.multijoin import explain_multi_join

            if join_algo is not None:
                raise ExecutionError(
                    "multi-join stages choose their own join algorithms; "
                    "join_algo cannot be pinned"
                )
            return explain_multi_join(
                self, parsed, planner=planner,
                text=query if isinstance(query, str) else str(query),
            )
        alpha = self.cluster.schema(parsed.left)
        beta = self.cluster.schema(parsed.right)
        destination = derive_destination(parsed, alpha, beta)
        join_schema = infer_join_schema(
            parsed, alpha, beta,
            histograms=self._histograms_for(parsed, alpha, beta),
            destination=destination,
        )
        inputs = PlanInputs(
            n_alpha=self.cluster.array_cell_count(parsed.left),
            n_beta=self.cluster.array_cell_count(parsed.right),
            c_alpha=max(self.cluster.catalog_entry(parsed.left).n_chunks, 1),
            c_beta=max(self.cluster.catalog_entry(parsed.right).n_chunks, 1),
            selectivity=self._selectivity(parsed, join_schema),
            n_nodes=self.cluster.n_nodes,
        )
        logical_planner = LogicalPlanner(join_schema, inputs)
        candidates = [
            (plan.describe(), plan.cost)
            for plan in logical_planner.enumerate_plans(include_nested_loop=False)
        ]
        if join_algo is None:
            chosen = logical_planner.best_plan(include_nested_loop=False)
        else:
            chosen = logical_planner.plan_named(join_algo)

        physical_plan = None
        n_units = None
        cache_status = None
        cache_fingerprint = None
        if planner is not None and self.cluster.n_nodes > 1:
            entry = None
            if self.plan_cache is not None:
                with self.profiler.phase("cache_lookup"):
                    fingerprint = self._plan_fingerprint(
                        parsed, planner, join_algo
                    )
                    entry = self.plan_cache.get(fingerprint)
                # Read-only consult: explain never populates the cache
                # (its logical phase ignores pushdown-filtered counts,
                # so a stored plan could diverge from an executed one),
                # and a hit must agree with the plan shown above.
                if entry is not None and (
                    entry.logical_plan.join_algo != chosen.join_algo
                ):
                    entry = None
                cache_status = "hit" if entry is not None else "miss"
                cache_fingerprint = fingerprint.short
            if entry is not None:
                n_units = entry.n_units
                physical_plan = entry.physical_plan
            else:
                n_units, slice_table = self._slice_mapping(
                    parsed, join_schema, chosen
                )
                _, physical_plan, _ = self._physical_plan(
                    slice_table.stats, chosen, planner,
                    split=slice_table.split,
                )
        return ExplainReport(
            query=query if isinstance(query, str) else str(query),
            destination=destination.to_literal(),
            join_kind=str(join_schema.kind),
            chosen_afl=chosen.afl(join_schema),
            chosen=chosen,
            candidates=candidates,
            physical=physical_plan,
            n_units=n_units,
            cache_status=cache_status,
            cache_fingerprint=cache_fingerprint,
        )

    def execute_filter(self, query: str | FilterQuery) -> LocalArray:
        """Run a single-array query: scan → filter → aggregate/project."""
        parsed = parse_aql(query) if isinstance(query, str) else query
        if not isinstance(parsed, FilterQuery):
            raise ExecutionError("execute_filter expects a single-array query")
        array = self.cluster.gather_array(parsed.array)
        if parsed.predicate is not None:
            array = apply_filter(array, parsed.predicate)
        if parsed.has_aggregates:
            from repro.engine.aggregate import aggregate

            output_name = (
                parsed.into_schema.name
                if parsed.into_schema is not None
                else parsed.into_name
            )
            return aggregate(
                array,
                parsed.select,
                group_by=parsed.group_by,
                output_name=output_name,
            )
        return array

    # ------------------------------------------------------------- internals

    def prepare(
        self,
        query: str | JoinQuery,
        join_algo: str | None = None,
        selectivity_hint: float | None = None,
    ) -> "PreparedJoin":
        """Run the planner-independent phases once and keep the result.

        Logical planning and slice mapping do not depend on the physical
        planner, so a prepared join can be executed under several
        planners (:meth:`PreparedJoin.execute`,
        :meth:`PreparedJoin.compare`) without repeating them — the shape
        planner-comparison studies take. ``selectivity_hint`` overrides
        the sampling estimator for this query only (the multi-join
        pipeline hands each stage the ordering DP's output estimate).
        """
        parsed = parse_aql(query) if isinstance(query, str) else query
        if not isinstance(parsed, JoinQuery):
            raise ExecutionError("prepare expects a two-array join query")
        snapshot = self.profiler.snapshot()
        plan_started = time.perf_counter()
        with self.profiler.phase("logical_plan"):
            join_schema, logical_plan = self._logical_phase(
                parsed, join_algo, selectivity_hint=selectivity_hint
            )
        logical_seconds = time.perf_counter() - plan_started
        with self.profiler.phase("stats"):
            n_units, slice_table = self._slice_mapping(
                parsed, join_schema, logical_plan
            )
        return PreparedJoin(
            executor=self,
            query=parsed,
            join_schema=join_schema,
            logical_plan=logical_plan,
            logical_seconds=logical_seconds,
            n_units=n_units,
            slice_table=slice_table,
            prepare_breakdown=self.profiler.since(snapshot),
        )

    def _logical_phase(
        self,
        query: JoinQuery,
        join_algo: str | None,
        selectivity_hint: float | None = None,
    ) -> tuple[JoinSchema, LogicalPlan]:
        cluster = self.cluster
        alpha = cluster.schema(query.left)
        beta = cluster.schema(query.right)
        destination = derive_destination(query, alpha, beta)
        histograms = self._histograms_for(query, alpha, beta)
        join_schema = infer_join_schema(
            query, alpha, beta, histograms=histograms, destination=destination
        )
        inputs = PlanInputs(
            n_alpha=self._filtered_count(query, query.left),
            n_beta=self._filtered_count(query, query.right),
            c_alpha=max(cluster.catalog_entry(query.left).n_chunks, 1),
            c_beta=max(cluster.catalog_entry(query.right).n_chunks, 1),
            selectivity=self._selectivity(
                query, join_schema, hint=selectivity_hint
            ),
            n_nodes=cluster.n_nodes,
        )
        logical_planner = LogicalPlanner(join_schema, inputs)
        if join_algo is None:
            logical_plan = logical_planner.best_plan(include_nested_loop=False)
        else:
            logical_plan = logical_planner.plan_named(join_algo)
        return join_schema, logical_plan

    def _fingerprint_options(self, tenant: str | None) -> dict:
        """Every planner-relevant executor knob, for plan fingerprints."""
        return {
            # Per-tenant cache namespacing: the tenant token changes the
            # fingerprint, so tenants never hit each other's entries —
            # one shared LRU budget, disjoint key spaces.
            "tenant": tenant,
            "n_buckets": self.n_buckets,
            "selectivity_hint": self.selectivity_hint,
            "shuffle_policy": self.shuffle_policy,
            "single_sort": self.single_sort,
            "packed_keys": self.packed_keys,
            # The split configuration changes the slice table's unit
            # granularity, so cached plans must never cross it. (The
            # runtime-only knobs — kernel, shm, parallel_mode — stay
            # fingerprint-neutral: they don't change the plan.)
            "split_units": self.split_units,
            "split_threshold": self.split_threshold,
            "split_factor": self.split_factor,
            "tabu_max_rounds": self.tabu_max_rounds,
            "ilp_time_budget_s": self.ilp_time_budget_s,
            "cost": self.cost,
            "sim": self.sim,
        }

    def _plan_fingerprint(
        self,
        query: JoinQuery,
        planner: str,
        join_algo: str | None,
        tenant: str | None = None,
    ) -> Fingerprint:
        """Content fingerprint of one (query, data, cluster, options)."""
        return plan_fingerprint(
            query, self.cluster, planner, join_algo,
            self._fingerprint_options(tenant),
        )

    def _pipeline_fingerprint(
        self,
        query: MultiJoinQuery,
        planner: str,
        tenant: str | None = None,
    ) -> Fingerprint:
        """Whole-pipeline fingerprint for a multi-join query.

        Embeds one ``uid.version.epoch@schema`` token per *base* array
        (intermediates are ephemeral and derived), the cluster shape,
        and the same option set as binary plans — the ordering DP reads
        those knobs through each stage's planner. A version or epoch
        bump on any base array changes the key, so stale pipelines can
        never be replayed.
        """
        return plan_fingerprint(
            query, self.cluster, planner, None,
            self._fingerprint_options(tenant),
        )

    def invalidate_cached_plans(self, array_name: str | None = None) -> int:
        """Purge cached plans reading one array (or all); returns count.

        Fingerprint versioning already prevents stale hits; eager
        purging (used by DROP ARRAY) just frees the LRU slots early.
        """
        if self.plan_cache is None:
            return 0
        if array_name is None:
            dropped = len(self.plan_cache)
            self.plan_cache.clear()
            return dropped
        return self.plan_cache.invalidate_array(array_name)

    def _execute_join(
        self,
        query: JoinQuery,
        planner_name: str,
        join_algo: str | None,
        n_workers: int | None = None,
        use_cache: bool | None = None,
        analyze: bool = False,
        tenant: str | None = None,
    ) -> JoinResult:
        # ---- plan-cache lookup (timed) ----
        cache = self.plan_cache if use_cache is not False else None
        cache_info: dict = {}
        entry = None
        fingerprint = None
        lookup_seconds = 0.0
        if cache is not None:
            lookup_started = time.perf_counter()
            with self.tracer.span("cache_lookup") as lookup_span:
                with self.profiler.phase("cache_lookup"):
                    fingerprint = self._plan_fingerprint(
                        query, planner_name, join_algo, tenant
                    )
                    entry = cache.get(fingerprint)
                lookup_span.set(
                    status="hit" if entry is not None else "miss",
                    fingerprint=fingerprint.short,
                )
            lookup_seconds = time.perf_counter() - lookup_started
            cache_info = {
                "status": "hit" if entry is not None else "miss",
                "fingerprint": fingerprint.short,
                **cache.stats(),
            }
            if tenant is not None:
                suffix = "hits" if entry is not None else "misses"
                self.metrics.counter(f"tenant_cache_{suffix}.{tenant}").inc()

        if entry is not None:
            # Warm path: every prepare artifact — logical plan, slice
            # statistics and assemblies, physical assignment, shuffle
            # schedule (in the slice table's alignment cache) — is
            # served from the entry; only cell comparison re-runs.
            return self._run_physical(
                query, entry.join_schema, entry.logical_plan,
                entry.n_units, entry.slice_table, planner_name,
                lookup_seconds, n_workers=n_workers,
                prepare_breakdown={"cache_lookup": lookup_seconds},
                physical=(entry.assignment, entry.physical_plan),
                cache_info=cache_info,
                analyze=analyze,
            )

        # ---- logical planning (timed) ----
        snapshot = self.profiler.snapshot()
        plan_started = time.perf_counter()
        with self.tracer.span("logical_plan"):
            with self.profiler.phase("logical_plan"):
                join_schema, logical_plan = self._logical_phase(
                    query, join_algo
                )
        logical_seconds = time.perf_counter() - plan_started

        # ---- slice mapping ----
        with self.tracer.span("slice_mapping"):
            with self.profiler.phase("stats"):
                n_units, slice_table = self._slice_mapping(
                    query, join_schema, logical_plan
                )

        breakdown = self.profiler.since(snapshot)
        if cache is not None:
            breakdown = {"cache_lookup": lookup_seconds, **breakdown}
        result = self._run_physical(
            query, join_schema, logical_plan, n_units, slice_table,
            planner_name, logical_seconds + lookup_seconds,
            n_workers=n_workers, prepare_breakdown=breakdown,
            cache_info=cache_info, analyze=analyze,
        )
        if cache is not None:
            assignment = (
                result.physical_plan.assignment
                if result.physical_plan is not None
                else np.zeros(n_units, dtype=np.int64)
            )
            cache.put(CachedPlan(
                join_schema=join_schema,
                logical_plan=logical_plan,
                n_units=n_units,
                slice_table=slice_table,
                assignment=assignment,
                physical_plan=result.physical_plan,
                arrays=(query.left, query.right),
                fingerprint=fingerprint,
                prepare_breakdown=dict(result.report.prepare_breakdown),
            ))
        return result

    def _run_physical(
        self,
        query: JoinQuery,
        join_schema: JoinSchema,
        logical_plan: LogicalPlan,
        n_units: int,
        slice_table: "_SliceTable",
        planner_name: str,
        logical_seconds: float,
        n_workers: int | None = None,
        prepare_breakdown: dict[str, float] | None = None,
        physical: tuple[np.ndarray, PhysicalPlan | None] | None = None,
        cache_info: dict | None = None,
        analyze: bool = False,
    ) -> JoinResult:
        tracer = self.tracer
        # The per-node profile is only assembled when someone will read
        # it: an analyze execution or a traced one.
        profile_nodes = analyze or tracer.enabled
        snapshot = self.profiler.snapshot()
        # ---- physical planning (timed; skipped when a cached plan's
        # assignment is handed in) ----
        model: AnalyticalCostModel | None = None
        memo_key = (planner_name, logical_plan.join_algo)
        if physical is not None:
            assignment, physical_plan = physical
            physical_seconds = 0.0
        elif memo_key in slice_table._physical_memo:
            # Re-execution of a prepared join under a planner it already
            # ran: the plan is a pure function of the slice statistics,
            # so reuse the solved assignment (the model, when needed for
            # profiling, is recomputed below).
            with tracer.span(
                "physical_assign", planner=planner_name, memoized=True
            ):
                assignment, physical_plan = slice_table._physical_memo[
                    memo_key
                ]
            physical_seconds = 0.0
        else:
            # Constructed before the clock starts: an ILP planner loads
            # scipy.optimize when built, a once-per-process import that
            # is not planning work.
            planner = (
                self._make_planner(planner_name)
                if self.cluster.n_nodes > 1
                else None
            )
            physical_started = time.perf_counter()
            with tracer.span("physical_assign", planner=planner_name):
                with self.profiler.phase("physical_assign"):
                    assignment, physical_plan, model = self._physical_plan(
                        slice_table.stats, logical_plan, planner_name,
                        split=slice_table.split, planner=planner,
                    )
            physical_seconds = time.perf_counter() - physical_started
            slice_table._physical_memo[memo_key] = (assignment, physical_plan)
        if (
            profile_nodes
            and model is None
            and logical_plan.join_algo in ("merge", "hash")
        ):
            # Cache hits hand in (assignment, plan) with no model, and
            # single-node runs skip planning; the model is a pure
            # function of the slice statistics, so recompute it here.
            model = AnalyticalCostModel(
                slice_table.stats, logical_plan.join_algo, self.cost
            )

        # ---- data alignment (simulated) ----
        align_offset = tracer.now()
        with tracer.span(
            "data_alignment", policy=self.shuffle_policy
        ) as align_span:
            align_seconds, shuffle = self._data_alignment(
                query, slice_table, assignment
            )
            align_span.set(
                cells_moved=shuffle.total_cells_moved,
                n_transfers=shuffle.n_transfers,
                simulated_seconds=align_seconds,
            )
        # Transfer events land on per-destination network lanes, re-based
        # from simulated time onto the tracer's timeline.
        shuffle.export_spans(tracer, offset=align_offset)
        bytes_moved, bytes_full_width = self._traffic_bytes(
            query, slice_table, assignment
        )

        # ---- cell comparison (real matching, simulated timing) ----
        with tracer.span(
            "cell_comparison", algo=logical_plan.join_algo
        ) as compare_span:
            (
                compare_seconds,
                per_node_compare,
                node_output,
                output_cells,
                meta,
                match_counters,
            ) = self._cell_comparison(
                query, join_schema, logical_plan, slice_table, assignment,
                n_workers=n_workers,
            )
            compare_span.set(
                output_cells=len(output_cells),
                simulated_seconds=compare_seconds,
            )

        node_profile = None
        if profile_nodes and model is not None:
            node_profile = self._node_profile(
                model, assignment, shuffle, per_node_compare, node_output
            )

        report = ExecutionReport(
            planner=physical_plan.planner if physical_plan else "single-node",
            join_algo=logical_plan.join_algo,
            unit_kind=logical_plan.join_unit_kind,
            n_units=n_units,
            logical_afl=logical_plan.afl(join_schema),
            plan_seconds=logical_seconds + physical_seconds,
            align_seconds=align_seconds,
            compare_seconds=compare_seconds,
            cells_moved=shuffle.total_cells_moved,
            n_transfers=shuffle.n_transfers,
            output_cells=len(output_cells),
            bytes_moved=bytes_moved,
            bytes_moved_full_width=bytes_full_width,
            analytic_cost=physical_plan.cost if physical_plan else None,
            per_node_compare=per_node_compare,
            cells_sent=shuffle.cells_sent,
            cells_received=shuffle.cells_received,
            meta=meta,
            prepare_breakdown={
                **(prepare_breakdown or {}),
                **self.profiler.since(snapshot),
            },
            cache=dict(cache_info or {}),
            per_node_output=node_output,
            node_profile=node_profile,
        )
        # Standing telemetry: fold the match-path counters and the
        # per-execution totals/skew gauges into the registry.
        for name, count in match_counters.snapshot().items():
            self.metrics.counter(name).inc(count)
        record_execution(self.metrics, report)
        output_array = LocalArray.from_cells(join_schema.destination, output_cells)
        return JoinResult(
            array=output_array,
            report=report,
            logical_plan=logical_plan,
            physical_plan=physical_plan,
            join_schema=join_schema,
        )

    def _node_profile(
        self,
        model: AnalyticalCostModel,
        assignment: np.ndarray,
        shuffle,
        per_node_compare: np.ndarray,
        node_output: np.ndarray,
    ) -> dict:
        """Per-node predicted (Eqs 5-8) vs observed cost vectors.

        Predicted alignment per node is ``max(send, recv) × t`` — the
        Equation-8 alignment term "considering a single j at a time".
        The observed counterpart is the node's busy time in the shuffle
        schedule, which by construction excludes the lock waiting the
        model ignores (the residual shows up in explain-analyze as
        schedule wait).
        """
        send_pred, recv_pred, compare_pred = model.node_totals(assignment)
        send_busy, recv_busy = shuffle.busy_seconds()
        t = self.cost.t
        k = self.cluster.n_nodes
        return {
            "pred_send_cells": send_pred.tolist(),
            "pred_recv_cells": recv_pred.tolist(),
            "pred_align_seconds": [
                max(int(s), int(r)) * t
                for s, r in zip(send_pred, recv_pred)
            ],
            "pred_compare_seconds": [float(c) for c in compare_pred],
            "actual_sent_cells": [
                int(shuffle.cells_sent.get(node, 0)) for node in range(k)
            ],
            "actual_recv_cells": [
                int(shuffle.cells_received.get(node, 0)) for node in range(k)
            ],
            "actual_align_seconds": [
                max(send_busy.get(node, 0.0), recv_busy.get(node, 0.0))
                for node in range(k)
            ],
            "actual_compare_seconds": per_node_compare.tolist(),
            "output_cells": node_output.tolist(),
        }

    # ---------------------------------------------------------------- pieces

    def _histograms_for(
        self, query: JoinQuery, alpha: ArraySchema, beta: ArraySchema
    ) -> dict[str, Histogram]:
        """Histograms over attribute join keys, for dimension inference.

        Served from the catalog's cached ANALYZE statistics (computed on
        demand, invalidated by loads) — the statistics the paper assumes
        the engine keeps in its catalog.
        """
        histograms: dict[str, Histogram] = {}
        for pred in query.predicates:
            for array_name, schema, field_name in (
                (query.left, alpha, pred.left.field),
                (query.right, beta, pred.right.field),
            ):
                if not schema.has_attr(field_name):
                    continue
                key = f"{schema.name}.{field_name}"
                if key in histograms:
                    continue
                stats = self.cluster.statistics(array_name)
                if field_name in stats.histograms:
                    histograms[key] = stats.histograms[field_name]
        return histograms

    def _selectivity(
        self,
        query: JoinQuery,
        join_schema: JoinSchema,
        hint: float | None = None,
    ) -> float:
        """The output-cardinality knob for the logical cost model.

        An explicit hint wins — a per-call one (pipeline stages pass the
        ordering DP's estimate) over the executor-level knob; otherwise
        a sampling estimate is taken (see :mod:`repro.engine.estimate`).
        The planner only needs the estimate's order of magnitude — it
        decides whether the output or the inputs are cheaper to sort.
        """
        if hint is not None:
            return hint
        if self.selectivity_hint is not None:
            return self.selectivity_hint
        from repro.engine.estimate import estimate_selectivity

        return estimate_selectivity(
            self.cluster, query.left, query.right, join_schema
        )

    def _node_cells(self, query: JoinQuery, array_name: str, node):
        """One node's local cells with the query's pushdown filter applied.

        Filtering happens *before* slice mapping, so filtered-out cells
        are never shipped or compared — classic predicate pushdown.
        """
        if not node.has_array(array_name):
            return None
        cells = node.store(array_name).cells()
        if not len(cells):
            return None
        predicate = query.filters.get(array_name)
        if predicate is not None:
            from repro.query.afl import cells_environment

            schema = self.cluster.schema(array_name)
            mask = np.asarray(
                predicate.evaluate(cells_environment(schema, cells)),
                dtype=bool,
            )
            cells = cells.take(mask)
            if not len(cells):
                return None
        return cells

    def _filtered_count(self, query: JoinQuery, array_name: str) -> int:
        """Post-pushdown cell count (feeds the logical cost model)."""
        if array_name not in query.filters:
            return self.cluster.array_cell_count(array_name)
        total = 0
        for node in self.cluster.nodes:
            cells = self._node_cells(query, array_name, node)
            total += len(cells) if cells is not None else 0
        return total

    def _ship_fields(self, join_schema: JoinSchema, side: str) -> list[str]:
        """Attribute columns one side must ship: carried fields plus any
        join keys stored as attributes (coordinates always travel)."""
        schema = (
            join_schema.left_schema if side == "left" else join_schema.right_schema
        )
        carry = (
            join_schema.left_carry if side == "left" else join_schema.right_carry
        )
        fields = [name for name in carry if schema.has_attr(name)]
        for jfield in join_schema.fields:
            name = jfield.left_field if side == "left" else jfield.right_field
            if schema.has_attr(name) and name not in fields:
                fields.append(name)
        return fields

    def _slice_mapping(
        self,
        query: JoinQuery,
        join_schema: JoinSchema,
        logical_plan: LogicalPlan,
    ) -> tuple[int, _SliceTable]:
        """Apply the slice function to every node's local cells."""
        if logical_plan.join_unit_kind == "chunk":
            n_units = join_schema.n_chunks
            n_buckets = None
        else:
            n_units = self.n_buckets or max(join_schema.n_chunks, 64)
            n_buckets = n_units

        k = self.cluster.n_nodes
        s_left = np.zeros((n_units, k), dtype=np.int64)
        s_right = np.zeros((n_units, k), dtype=np.int64)
        assemblies: dict[str, _SideAssembly | None] = {"left": None, "right": None}
        left_table: list[list[CellSet | None]] | None = None
        right_table: list[list[CellSet | None]] | None = None
        if not self.single_sort:
            left_table = [[None] * k for _ in range(n_units)]
            right_table = [[None] * k for _ in range(n_units)]

        # First pass: extract every node's local cells and key columns.
        # Key derivation is deferred so the packed-key codec can be
        # planned over the *union* of both sides' observed ranges — equal
        # values must pack equal across the whole join.
        side_chunks: dict[str, list[tuple[int, CellSet, list[np.ndarray]]]] = {
            "left": [],
            "right": [],
        }
        for side, array_name, matrix, table in (
            ("left", query.left, s_left, left_table),
            ("right", query.right, s_right, right_table),
        ):
            source_schema = (
                join_schema.left_schema if side == "left" else join_schema.right_schema
            )
            ship = self._ship_fields(join_schema, side)
            for node in self.cluster.nodes:
                cells = self._node_cells(query, array_name, node)
                if cells is None:
                    continue
                cells = cells.with_attrs(ship)
                node_id = node.node_id
                if not self.single_sort:
                    # Reference pipeline: partition re-derives the key
                    # columns internally and sorts once per structure;
                    # composite keys are rebuilt per unit at match time.
                    unit_ids = unit_ids_for(
                        join_schema, side, cells, source_schema,
                        logical_plan.join_unit_kind, n_buckets=n_buckets,
                    )
                    for unit, piece in enumerate(
                        cells.partition(unit_ids, n_units)
                    ):
                        if len(piece):
                            table[unit][node_id] = piece
                            matrix[unit, node_id] = len(piece)
                    continue
                # One key-column extraction per (side, node); the sort is
                # deferred to a single global pass over the whole side.
                cols = key_columns(join_schema, side, cells, source_schema)
                side_chunks[side].append((node_id, cells, cols))

        codec: KeyCodec | None = None
        if self.single_sort and self.packed_keys:
            column_sets = [
                cols
                for chunks in side_chunks.values()
                for _, _, cols in chunks
            ]
            if column_sets:
                codec = plan_codec(
                    column_sets, dims=[f.dim for f in join_schema.fields]
                )

        split: SplitPlan | None = None
        if self.single_sort:
            # Second pass: derive keys (packed when the codec applies,
            # structured otherwise) and slice each side. Assembly is
            # deferred until after the split decision — the splitter
            # reads both sides' (unit id, key) columns, and a split
            # refines the ids before anything is sorted.
            derived: dict[
                str,
                list[tuple[int, CellSet, list[np.ndarray], np.ndarray, np.ndarray]],
            ] = {"left": [], "right": []}
            for side in ("left", "right"):
                source_schema = (
                    join_schema.left_schema
                    if side == "left"
                    else join_schema.right_schema
                )
                for node_id, cells, cols in side_chunks[side]:
                    if codec is not None:
                        keys = codec.pack(cols)
                        packed = keys
                    else:
                        keys = composite_key(cols)
                        packed = None
                    unit_ids = unit_ids_for(
                        join_schema, side, cells, source_schema,
                        logical_plan.join_unit_kind, n_buckets=n_buckets,
                        columns=cols, packed=packed,
                    )
                    derived[side].append((node_id, cells, cols, keys, unit_ids))

            split = self._plan_split(logical_plan, codec, derived, n_units)
            if split is not None:
                n_units = split.n_units
                s_left = np.zeros((n_units, k), dtype=np.int64)
                s_right = np.zeros((n_units, k), dtype=np.int64)
                derived = {
                    side: [
                        (node_id, cells, cols, keys, split.remap(unit_ids, keys))
                        for node_id, cells, cols, keys, unit_ids in chunks
                    ]
                    for side, chunks in derived.items()
                }

            for side, matrix in (("left", s_left), ("right", s_right)):
                chunks: list[
                    tuple[CellSet, list[np.ndarray], np.ndarray, np.ndarray]
                ] = []
                for node_id, cells, cols, keys, unit_ids in derived[side]:
                    matrix[:, node_id] = np.bincount(
                        unit_ids, minlength=n_units
                    )
                    chunks.append((cells, cols, keys, unit_ids))
                assemblies[side] = self._assemble_side(
                    chunks, matrix, n_units, k
                )

        return n_units, _SliceTable(
            stats=SliceStats(s_left, s_right),
            left=left_table,
            right=right_table,
            left_assembly=assemblies["left"],
            right_assembly=assemblies["right"],
            codec=codec,
            split=split,
        )

    def _plan_split(
        self,
        logical_plan: LogicalPlan,
        codec: KeyCodec | None,
        derived: dict,
        n_units: int,
    ) -> SplitPlan | None:
        """Decide the plan-time unit split for this slice mapping.

        Splitting needs packed ``uint64`` keys (sub-units are key-range
        cuts of the globally sorted packed column) and a costable join
        algorithm; the structured-key fallback and nested-loop plans
        decline and keep exact parent-unit granularity.
        """
        if (
            self.split_units == "off"
            or codec is None
            or logical_plan.join_algo not in ("merge", "hash")
        ):
            return None
        totals = {
            side: np.zeros(n_units, dtype=np.int64)
            for side in ("left", "right")
        }
        key_chunks: list[tuple[np.ndarray, np.ndarray]] = []
        for side in ("left", "right"):
            for _, _, _, keys, unit_ids in derived[side]:
                totals[side] += np.bincount(unit_ids, minlength=n_units)
                key_chunks.append((unit_ids, keys))
        # The splitter only reads per-unit totals, so a single-column
        # stats view is enough — the real (n_units, k) matrices are
        # rebuilt after the remap.
        provisional = SliceStats(
            totals["left"][:, None], totals["right"][:, None]
        )
        return plan_unit_split(
            provisional, logical_plan.join_algo, self.cost, key_chunks,
            threshold=self.split_threshold, factor=self.split_factor,
        )

    @staticmethod
    def _assemble_side(
        chunks: list[tuple[CellSet, list[np.ndarray], np.ndarray, np.ndarray]],
        counts: np.ndarray,
        n_units: int,
        n_nodes: int,
    ) -> _SideAssembly | None:
        """Collapse one side's per-node chunks into unit-major arrays.

        One concatenate plus one stable argsort by unit id orders the
        cells, key columns, and composite keys together; every per-unit
        and per-(unit, node) structure is then a contiguous slice.
        Node-major concatenation + a stable sort reproduces exactly the
        order the per-piece path assembled: ascending node id within a
        unit, original arrival order within a node.
        """
        if not chunks:
            return None
        if len(chunks) == 1:
            all_cells, all_cols, all_keys, all_units = chunks[0]
        else:
            all_cells = CellSet.concat([chunk[0] for chunk in chunks])
            all_cols = [
                np.concatenate([chunk[1][i] for chunk in chunks])
                for i in range(len(chunks[0][1]))
            ]
            all_keys = np.concatenate([chunk[2] for chunk in chunks])
            all_units = np.concatenate([chunk[3] for chunk in chunks])
        order = _stable_unit_order(all_units, n_units)
        sorted_units = all_units[order]
        bounds = np.searchsorted(sorted_units, np.arange(n_units + 1))
        piece_offsets = np.zeros(n_units * n_nodes + 1, dtype=np.int64)
        np.cumsum(counts.ravel(), out=piece_offsets[1:])
        return _SideAssembly(
            cells=all_cells.take(order),
            bounds=bounds,
            key_cols=[col[order] for col in all_cols],
            keys=all_keys[order],
            piece_offsets=piece_offsets,
            n_nodes=n_nodes,
        )

    def _physical_plan(
        self,
        stats: SliceStats,
        logical_plan: LogicalPlan,
        planner_name: str,
        split: SplitPlan | None = None,
        planner: PhysicalPlanner | None = None,
    ) -> tuple[np.ndarray, PhysicalPlan | None, AnalyticalCostModel | None]:
        if self.cluster.n_nodes == 1:
            assignment = np.zeros(stats.n_units, dtype=np.int64)
            return assignment, None, None
        if logical_plan.join_algo == "nested_loop":
            raise PlanningError(
                "the nested loop join is never profitable and is not "
                "modelled by the physical planners; pin hash or merge, or "
                "run on a single node"
            )
        model = AnalyticalCostModel(stats, logical_plan.join_algo, self.cost)
        if planner is None:
            planner = self._make_planner(planner_name)
        plan = planner.plan(model)
        if split is not None:
            # Placement saw the refined granularity; record how much of
            # it came from the skew splitter.
            plan.meta.setdefault("units_split", split.units_split)
            plan.meta.setdefault("subunits_created", split.subunits_created)
        return plan.assignment, plan, model

    def _make_planner(self, name: str):
        if name in ("ilp", "ilp_coarse"):
            return get_planner(name, time_budget_s=self.ilp_time_budget_s)
        if name == "tabu":
            return get_planner(name, max_rounds=self.tabu_max_rounds)
        return get_planner(name)

    def _traffic_bytes(
        self,
        query: JoinQuery,
        slice_table: "_SliceTable",
        assignment: np.ndarray,
    ) -> tuple[int, int]:
        """Bytes shipped vs the bytes a full-width (row-store) shuffle
        would ship — slices are already projected to the needed columns,
        so the difference is the vertical-partitioning saving.

        Works entirely on the slice statistics matrices: every cell on a
        side has the same byte width, so the moved-cell counts (slices
        whose node is not the unit's destination) fix both totals without
        touching a single cell set.
        """
        stats = slice_table.stats
        off_destination = np.ones((stats.n_units, stats.n_nodes), dtype=bool)
        off_destination[np.arange(stats.n_units), assignment] = False
        moved = 0
        full = 0
        for side, name, matrix in (
            ("left", query.left, stats.s_left),
            ("right", query.right, stats.s_right),
        ):
            schema = self.cluster.schema(name)
            cells_moved = int(matrix[off_destination].sum())
            moved += cells_moved * slice_table.shipped_bytes_per_cell(side)
            full += cells_moved * 8 * (schema.ndims + len(schema.attrs))
        return moved, full

    def _data_alignment(
        self,
        query: JoinQuery,
        slice_table: _SliceTable,
        assignment: np.ndarray,
    ):
        """Simulate slice mapping CPU plus the write-lock shuffle.

        The simulation is deterministic in (statistics, assignment,
        policy), so its result is cached on the slice table — repeated
        executions of a prepared join under the same assignment skip the
        discrete-event run entirely.
        """
        cache_key = (assignment.tobytes(), self.shuffle_policy)
        cached = slice_table._alignment.get(cache_key)
        if cached is not None:
            return cached
        stats = slice_table.stats
        with self.profiler.phase("alignment"):
            s_total = stats.s_total
            moved = s_total != 0
            moved[np.arange(stats.n_units), assignment] = False
            units, nodes = np.nonzero(moved)
            transfers = TransferTable(
                src=nodes,
                dst=assignment[units],
                n_cells=s_total[units, nodes],
                tag=units,
            )
        with self.profiler.phase("schedule"):
            shuffle = schedule_shuffle(
                transfers, self.cluster.network, policy=self.shuffle_policy
            )
        map_times = [
            self.sim.slice_map_per_cell
            * (
                node.local_cell_count(query.left)
                + node.local_cell_count(query.right)
            )
            for node in self.cluster.nodes
        ]
        align_seconds = max(map_times, default=0.0) + shuffle.total_time
        slice_table._alignment[cache_key] = (align_seconds, shuffle)
        return align_seconds, shuffle

    def _cell_comparison(
        self,
        query: JoinQuery,
        join_schema: JoinSchema,
        logical_plan: LogicalPlan,
        slice_table: _SliceTable,
        assignment: np.ndarray,
        n_workers: int | None = None,
    ):
        """Per-unit matching on each node, with simulated timing.

        The simulated per-node durations derive purely from the slice
        statistics, so they are identical whichever real execution path
        (serial per-unit loop or batched worker pool) does the matching.
        Returns the match-path :class:`CounterSet` alongside the result —
        both paths count units matched, cells compared, and cells
        emitted, so metrics agree serial vs parallel.
        """
        k = self.cluster.n_nodes
        stats = slice_table.stats
        builder = OutputBuilder(query, join_schema)
        node_seconds = np.zeros(k, dtype=np.float64)
        node_output = np.zeros(k, dtype=np.int64)
        counters = CounterSet()
        meta: dict = {}
        if slice_table.codec is not None:
            meta["packed_keys"] = True
            meta["key_width"] = slice_table.codec.total_width
        if self.split_units != "off":
            split = slice_table.split
            meta["split_units"] = self.split_units
            meta["units_split"] = split.units_split if split else 0
            meta["subunits_created"] = split.subunits_created if split else 0
        algo = logical_plan.join_algo
        sort_inputs = logical_plan.join_algo == "merge" and (
            logical_plan.alpha_align == "redim" or logical_plan.beta_align == "redim"
        )

        left_totals = stats.left_unit_totals
        right_totals = stats.right_unit_totals
        # The timing model is evaluated vectorised over the whole unit
        # population: per-unit scalar calls used to dominate the real
        # wall-clock of small executions (hundreds of Python-level
        # ``compare_time`` calls per query). ``np.add.at`` accumulates
        # in ascending unit order, matching the old loop's traversal.
        s_total = stats.s_total
        active = np.nonzero((left_totals > 0) | (right_totals > 0))[0]
        matchable: list[int] = []
        if active.size:
            nodes = assignment[active].astype(np.int64)
            n_left = left_totals[active]
            n_right = right_totals[active]
            contrib = np.full(
                active.size, self.sim.per_unit_overhead_s, dtype=np.float64
            )
            contrib += self.sim.local_read_per_cell * s_total[active, nodes]
            if sort_inputs:
                contrib += self.sim.sort_time_vec(n_left)
                contrib += self.sim.sort_time_vec(n_right)
            contrib += self.sim.compare_time_vec(
                algo, n_left, n_right, self.cost
            )
            np.add.at(node_seconds, nodes, contrib)
            matchable = active[(n_left > 0) & (n_right > 0)]
        else:
            matchable = active

        workers = (
            self.n_workers if n_workers is None else resolve_workers(n_workers)
        )
        if workers > 1 and matchable.size:
            produced_by_node, match_meta = self._match_parallel(
                matchable.tolist(), assignment, slice_table, join_schema,
                builder, algo, workers, counters,
            )
            for node, produced in produced_by_node.items():
                node_output[node] += produced
            meta.update(match_meta)
        else:
            # One worker matches in-process through the portable numpy
            # kernels: blocks of units over the fused sorted columns
            # when the plan allows, else the per-unit reference loop —
            # the oracle everything else is byte-compared against. Both
            # emit the same pairs in the same order.
            meta["kernel"] = "numpy"
            if _takes_fused_path(slice_table, algo, matchable):
                self._match_fused(
                    matchable, assignment, slice_table, builder, algo,
                    node_output, counters,
                )
            else:
                self._match_serial(
                    matchable.tolist(), assignment, slice_table,
                    join_schema, builder, algo, meta, node_output, counters,
                )
        if self.split_units == "adaptive":
            # The shm coordinator fills these in; every other path
            # (serial, threads, classic process) has no runtime splitter.
            meta.setdefault("runtime_resplits", 0)
            meta.setdefault("steal_count", 0)

        # Output alignment and chunk management, per producing node.
        dest_chunks = join_schema.destination.n_chunks
        for node in range(k):
            n_out = int(node_output[node])
            if not n_out:
                continue
            if logical_plan.out_align == "sort":
                node_seconds[node] += self.sim.sort_time(n_out, dest_chunks)
            elif logical_plan.out_align == "redim":
                node_seconds[node] += self.sim.slice_map_per_cell * n_out
                node_seconds[node] += self.sim.sort_time(n_out, dest_chunks)
            node_seconds[node] += self.sim.output_time(n_out, dest_chunks)

        output_cells = builder.finish()
        compare_seconds = float(node_seconds.max(initial=0.0))
        return (
            compare_seconds, node_seconds, node_output, output_cells,
            meta, counters,
        )

    def _match_serial(
        self,
        matchable: list[int],
        assignment: np.ndarray,
        slice_table: _SliceTable,
        join_schema: JoinSchema,
        builder: OutputBuilder,
        algo: str,
        meta: dict,
        node_output: np.ndarray,
        counters: CounterSet,
    ) -> None:
        """The reference path: match join units one at a time, in order."""
        for unit in matchable:
            node = int(assignment[unit])
            left_cells = slice_table.assembled("left", unit)
            right_cells = slice_table.assembled("right", unit)
            left_key_cols, left_keys = slice_table.unit_keys(
                "left", unit, join_schema
            )
            _, right_keys = slice_table.unit_keys("right", unit, join_schema)
            if algo == "merge":
                left_order = slice_table.unit_order("left", unit, join_schema)
                right_order = slice_table.unit_order("right", unit, join_schema)
                li, ri = match_pairs(
                    "merge", left_keys[left_order], right_keys[right_order]
                )
                li, ri = left_order[li], right_order[ri]
            elif algo == "nested_loop":
                try:
                    li, ri = match_pairs("nested_loop", left_keys, right_keys)
                except ExecutionError:
                    li, ri = hash_join_match(left_keys, right_keys)
                    meta["nested_loop_simulated"] = True
            else:
                li, ri = match_pairs("hash", left_keys, right_keys)

            produced = builder.add_matches(
                left_cells, right_cells, li, ri, left_key_cols
            )
            node_output[node] += produced
            counters.add("join_units_matched", 1)
            counters.add("cells_compared", len(left_keys) + len(right_keys))
            counters.add("matched_pairs", len(li))
            counters.add("cells_emitted", produced)
            counters.add("match_kernel_calls", 1)

    def _match_fused(
        self,
        matchable: np.ndarray,
        assignment: np.ndarray,
        slice_table: _SliceTable,
        builder: OutputBuilder,
        algo: str,
        node_output: np.ndarray,
        counters: CounterSet,
    ) -> None:
        """Match blocks of consecutive units over fused sorted keys.

        Each block of about :data:`FUSED_BLOCK_ROWS` rows is matched on
        its ``(unit << key_width) | key`` columns, sorted through the
        slice table's within-unit permutations, and materialised before
        the next block starts. The pairs and their order are exactly
        :meth:`_match_serial`'s, because later pipeline stages inherit
        the output order:

        - units come out in ascending order;
        - a merge unit is key-major, left rows then right rows
          ascending — what sorted-vs-sorted :func:`probe_sorted` yields;
        - a hash unit's larger side probes (ties: the right side) in row
          order against the other side's sorted keys, build rows
          ascending per probe row — :func:`hash_join_match`'s order.
          The probe-left and probe-right units of a block are matched
          by one call each and interleaved back into unit order by a
          position scatter.
        """
        left, right = slice_table.left_assembly, slice_table.right_assembly
        key_width = slice_table.codec.total_width
        shift = np.uint64(key_width)
        left_perm = slice_table.sort_perm("left")
        right_perm = slice_table.sort_perm("right")
        left_counts = np.diff(left.bounds)
        right_counts = np.diff(right.bounds)
        kernel_calls = 0
        produced_total = 0
        pairs_total = 0
        for start, stop in _unit_blocks(
            left.bounds + right.bounds, FUSED_BLOCK_ROWS
        ):
            lc = left_counts[start:stop]
            rc = right_counts[start:stop]
            both = (lc > 0) & (rc > 0)
            if not both.any():
                continue
            llo, lhi = int(left.bounds[start]), int(left.bounds[stop])
            rlo, rhi = int(right.bounds[start]), int(right.bounds[stop])
            lperm = left_perm[llo:lhi]
            rperm = right_perm[rlo:rhi]
            if algo == "merge":
                left_sorted = fuse_unit_keys(
                    left.keys[lperm], lc, start, key_width
                )
                li, ri = probe_sorted(
                    left_sorted,
                    fuse_unit_keys(right.keys[rperm], rc, start, key_width),
                )
                kernel_calls += 1
                left_rows, right_rows = lperm[li], rperm[ri]
                pair_units = left_sorted[li] >> shift
            else:
                left_probes = both & (rc < lc)
                right_probes = both & (rc >= lc)
                by_left = by_right = None
                if left_probes.any():
                    build = fuse_unit_keys(
                        right.keys[rperm], rc, start, key_width
                    )
                    rows, pos, units = _probe_block(
                        left, llo, lc, left_probes, build, start, key_width
                    )
                    by_left = (rows, rperm[pos], units)
                    kernel_calls += 1
                if right_probes.any():
                    build = fuse_unit_keys(
                        left.keys[lperm], lc, start, key_width
                    )
                    rows, pos, units = _probe_block(
                        right, rlo, rc, right_probes, build, start, key_width
                    )
                    by_right = (lperm[pos], rows, units)
                    kernel_calls += 1
                left_rows, right_rows, pair_units = _interleave_by_unit(
                    by_left, by_right
                )
            n_pairs = len(left_rows)
            if not n_pairs:
                continue
            node_output += np.bincount(
                assignment[pair_units.astype(np.int64)],
                minlength=node_output.size,
            )
            produced_total += builder.add_matches(
                left.cells, right.cells, left_rows, right_rows,
                left.key_cols,
            )
            pairs_total += n_pairs
        counters.add("join_units_matched", int(matchable.size))
        counters.add(
            "cells_compared",
            int(left_counts[matchable].sum() + right_counts[matchable].sum()),
        )
        counters.add("matched_pairs", pairs_total)
        counters.add("cells_emitted", produced_total)
        counters.add("match_kernel_calls", kernel_calls)

    def _match_parallel(
        self,
        matchable: list[int],
        assignment: np.ndarray,
        slice_table: _SliceTable,
        join_schema: JoinSchema,
        builder: OutputBuilder,
        algo: str,
        workers: int,
        counters: CounterSet,
    ) -> tuple[dict[int, int], dict]:
        """Batch matchable units per assigned node and run on the pool.

        Process-mode executions with packed keys take the zero-copy
        shared-memory path when an arena is available: workers attach
        the slice table's arena and return only match indices, and any
        mid-batch failure tears the arena and the pools down before the
        error propagates (no leaked ``/dev/shm`` segments). Structured
        keys, nested-loop plans, and arena allocation failures fall back
        to the classic pickling path.
        """
        codec = slice_table.codec
        if (
            self.shm
            and self.parallel_mode == "process"
            and codec is not None
            and algo != "nested_loop"
        ):
            arena = slice_table.shm_arena()
            if arena is not None:
                left = slice_table.left_assembly
                right = slice_table.right_assembly
                self.metrics.gauge("shm_bytes_shared").set(arena.nbytes)
                try:
                    node_output, meta = run_shm_batches(
                        arena, assignment, builder,
                        left.cells, right.cells, left.key_cols,
                        workers, kernel=self.kernel,
                        tracer=self.tracer, counters=counters,
                        split_units=self.split_units,
                    )
                except Exception:
                    # Exception-safe teardown: unlink the segment and
                    # recycle the pools before the error surfaces, so a
                    # killed batch leaves nothing in /dev/shm.
                    slice_table.release_arena()
                    shutdown_pools()
                    raise
                meta["parallel_mode"] = self.parallel_mode
                return node_output, meta

        key_width = codec.total_width if codec is not None else None
        by_node: dict[int, UnitBatch] = {}
        for unit in matchable:
            node = int(assignment[unit])
            batch = by_node.get(node)
            if batch is None:
                batch = by_node[node] = UnitBatch(node=node, key_width=key_width)
            left_key_cols, left_keys = slice_table.unit_keys(
                "left", unit, join_schema
            )
            _, right_keys = slice_table.unit_keys("right", unit, join_schema)
            batch.add_unit(
                unit,
                slice_table.assembled("left", unit),
                slice_table.assembled("right", unit),
                left_key_cols,
                left_keys,
                right_keys,
            )
        node_output, meta = run_batches(
            list(by_node.values()), builder, algo, workers,
            mode=self.parallel_mode, tracer=self.tracer, counters=counters,
            kernel=self.kernel,
        )
        meta["parallel_mode"] = self.parallel_mode
        return node_output, meta


@dataclass
class PreparedJoin:
    """A join with its planner-independent phases already done.

    Produced by :meth:`ShuffleJoinExecutor.prepare`; execute it under any
    number of physical planners without re-running logical planning or
    slice mapping. Each execution is independent (the join really runs
    each time), only the preparation is shared.
    """

    executor: ShuffleJoinExecutor
    query: JoinQuery
    join_schema: JoinSchema
    logical_plan: LogicalPlan
    logical_seconds: float
    n_units: int
    slice_table: _SliceTable
    #: Seconds the planner-independent phases took (logical_plan / stats),
    #: merged into every execution's report breakdown.
    prepare_breakdown: dict[str, float] = field(default_factory=dict)

    @property
    def stats(self) -> SliceStats:
        """The slice statistics every physical planner consumes."""
        return self.slice_table.stats

    def execute(
        self,
        planner: str = "tabu",
        n_workers: int | None = None,
        analyze: bool = False,
    ) -> JoinResult:
        """Run the physical phases under one planner.

        ``n_workers`` overrides the executor's pool size for this run —
        the knob the wall-clock benchmarks use to time serial vs
        parallel execution of one identically prepared join.
        ``analyze=True`` captures the per-node predicted-vs-actual
        profile, as on :meth:`ShuffleJoinExecutor.execute`.
        """
        return self.executor._run_physical(
            self.query,
            self.join_schema,
            self.logical_plan,
            self.n_units,
            self.slice_table,
            planner,
            self.logical_seconds,
            n_workers=n_workers,
            prepare_breakdown=self.prepare_breakdown,
            analyze=analyze,
        )

    def compare(self, planners) -> dict[str, JoinResult]:
        """Execute under each planner; returns results keyed by name."""
        return {name: self.execute(planner=name) for name in planners}
