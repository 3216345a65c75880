"""The high-level session facade: statements in, arrays and results out.

A :class:`Session` bundles a cluster and an executor behind one
SciDB-flavoured entry point::

    session = Session(n_nodes=4)
    session.execute("CREATE ARRAY A<v:int64>[i=1,64,8, j=1,64,8]")
    session.load("A", cells)
    result = session.execute(
        "SELECT A.v, B.w FROM A JOIN B ON A.i = B.i AND A.j = B.j",
        planner="tabu",
    )
    session.afl("filter(A, v > 5)")         # AFL surface
    print(session.explain("SELECT ...").describe())
"""

from __future__ import annotations

from repro.adm.array import LocalArray
from repro.adm.cells import CellSet
from repro.adm.schema import ArraySchema
from repro.cluster.cluster import Cluster, PlacementPolicy
from repro.cluster.network import NetworkParams
from repro.engine.afl_runner import AflRunner
from repro.engine.executor import ExplainReport, JoinResult, ShuffleJoinExecutor
from repro.errors import ExecutionError
from repro.query.aql import FilterQuery, JoinQuery, MultiJoinQuery
from repro.query.ddl import (
    AnalyzeArray,
    CreateArray,
    DropArray,
    parse_statement,
)

#: Options Session.execute accepts for join queries — everything else is
#: rejected loudly instead of being silently dropped.
JOIN_QUERY_OPTIONS = frozenset(
    {
        "planner", "join_algo", "store_result", "n_workers", "use_cache",
        "analyze", "trace", "tenant",
    }
)


class Session:
    """One user's connection to a (simulated) array database cluster."""

    def __init__(
        self,
        n_nodes: int = 4,
        network: NetworkParams | None = None,
        n_workers: int | None = None,
        **executor_options,
    ):
        """``n_workers`` > 1 runs the cell-comparison phase on a worker
        pool (one logical worker per cluster node, batched vectorised
        matching); None/0/1 keep the serial reference path. Sessions
        serve repeated queries from a plan cache by default
        (``plan_cache_size=64``); pass ``plan_cache_size=0`` to disable
        it. Further ``executor_options`` pass straight to the executor —
        e.g. ``packed_keys=False`` keeps structured composite keys
        instead of the packed 64-bit codec, and
        ``split_units="static"``/``"adaptive"`` turns on skew splitting
        of heavy join units (plan-time key-range cuts; ``adaptive``
        additionally re-splits straggler ranges at run time on the
        shared-memory process path)."""
        executor_options.setdefault("plan_cache_size", 64)
        self.cluster = Cluster(n_nodes=n_nodes, network=network)
        self.executor = ShuffleJoinExecutor(
            self.cluster, n_workers=n_workers, **executor_options
        )
        self._afl = AflRunner(self.executor)

    @property
    def plan_cache(self):
        """The executor's plan cache (None when disabled)."""
        return self.executor.plan_cache

    # ------------------------------------------------------------ statements

    def execute(self, statement: str, **query_options):
        """Run any statement: DDL, a join query, or a filter query.

        Returns the created :class:`ArraySchema` for CREATE ARRAY, None
        for DROP ARRAY, a :class:`JoinResult` (or
        :class:`~repro.engine.multijoin.MultiJoinResult` for N-way
        ``FROM A, B, C`` pipelines) for join queries, and a
        :class:`LocalArray` for single-array queries. ``query_options``
        (``planner``, ``join_algo``, ``store_result``, ``n_workers``,
        ``use_cache``, ``analyze``, ``trace``, ``tenant``) apply to both
        2-way and multiway join queries — multiway pipelines thread
        ``n_workers`` through every stage, cache the whole pipeline
        behind one fingerprint, and honour ``tenant`` namespaces
        (``join_algo`` alone stays 2-way-only: pipeline stages pick
        their own algorithms) —``trace="out.json"`` records execution spans onto
        ``result.trace`` and writes Chrome trace JSON, ``analyze=True``
        captures the per-node profile, ``tenant="name"`` namespaces the
        plan-cache entry per tenant (shared LRU budget, per-tenant
        hit/miss counters in ``session.metrics``); unknown option names
        — and any option on a statement that cannot honour it — raise
        :class:`~repro.errors.ExecutionError` instead of being silently
        dropped.
        """
        parsed = parse_statement(statement)
        if isinstance(parsed, (JoinQuery, MultiJoinQuery)):
            unknown = sorted(set(query_options) - JOIN_QUERY_OPTIONS)
            if unknown:
                raise ExecutionError(
                    f"unknown query option(s) {unknown}; join queries "
                    f"accept {sorted(JOIN_QUERY_OPTIONS)}"
                )
            return self.executor.execute(parsed, **query_options)
        if query_options:
            kind = type(parsed).__name__
            raise ExecutionError(
                f"query options {sorted(query_options)} do not apply to "
                f"{kind} statements; they are accepted for join queries only"
            )
        if isinstance(parsed, CreateArray):
            return self.cluster.create_empty_array(parsed.schema)
        if isinstance(parsed, DropArray):
            self.executor.invalidate_cached_plans(parsed.name)
            self.cluster.drop_array(parsed.name)
            return None
        if isinstance(parsed, AnalyzeArray):
            return self.cluster.analyze(parsed.name)
        if isinstance(parsed, FilterQuery):
            return self.executor.execute_filter(parsed)
        raise AssertionError(f"unhandled statement {parsed!r}")

    def afl(self, expression: str) -> LocalArray:
        """Evaluate an AFL operator expression."""
        return self._afl.run(expression)

    def explain(self, query: str, **options) -> ExplainReport:
        """Plan a join query without executing it."""
        return self.executor.explain(query, **options)

    def explain_analyze(self, query: str, **options):
        """Execute a join and report per-node predicted-vs-actual costs.

        Accepts the executor's options (``planner``, ``join_algo``,
        ``n_workers``, ``use_cache``, ``trace``); returns a
        :class:`repro.obs.explain_analyze.ExplainAnalyzeReport` with the
        underlying :class:`JoinResult` attached as ``report.result``.
        Multiway ``FROM A, B, C`` statements return a
        :class:`~repro.obs.explain_analyze.MultiJoinExplainAnalyzeReport`
        with one per-stage section per executed stage (a warm pipeline
        cache hit executes — and therefore profiles — only the final
        stage, and says so).
        """
        return self.executor.explain_analyze(query, **options)

    @property
    def metrics(self):
        """The executor's always-on metrics registry."""
        return self.executor.metrics

    # ------------------------------------------------------------------ data

    def load(
        self,
        name: str,
        cells: CellSet,
        placement: PlacementPolicy = "round_robin",
    ) -> int:
        """Insert cells into a declared array; returns cells loaded.

        The load bumps the array's version, so no cached plan over the
        old version can hit again: purge them now rather than leave them
        to LRU pressure.
        """
        loaded = self.cluster.insert_cells(name, cells, placement=placement)
        self.executor.invalidate_cached_plans(name)
        return loaded

    def create_and_load(
        self,
        schema: ArraySchema | str,
        cells: CellSet,
        placement: PlacementPolicy = "round_robin",
    ) -> ArraySchema:
        """CREATE ARRAY + load in one step."""
        return self.cluster.create_array(schema, cells, placement=placement)

    def array(self, name: str) -> LocalArray:
        """Materialise a stored array (gathered from all nodes)."""
        return self.cluster.gather_array(name)

    def arrays(self) -> list[str]:
        return self.cluster.catalog.array_names()

    def rebalance(self, name: str):
        """Re-level one array's storage; returns the simulated schedule.

        Like :meth:`load`, purges the plans superseded by the new version.
        """
        schedule = self.cluster.rebalance(name)
        self.executor.invalidate_cached_plans(name)
        return schedule

    def validate(self, name: str) -> list[str]:
        """Catalog ↔ storage integrity check; empty list means healthy."""
        return self.cluster.validate_integrity(name)

    def describe(self, name: str) -> str:
        """Human-readable summary of one array: schema, layout, skew."""
        schema = self.cluster.schema(name)
        stats = self.cluster.statistics(name)
        counts = self.cluster.node_cell_counts(name)
        lines = [
            schema.to_literal(),
            f"  cells:        {stats.cell_count}",
            f"  chunks:       {self.cluster.catalog.entry(name).n_chunks} "
            f"stored / {schema.n_chunks} logical",
            f"  per node:     {counts.tolist()}",
            f"  top-5% share: {stats.top_share:.1%} "
            f"(max chunk {stats.max_chunk_cells} cells)",
        ]
        for attr_name, histogram in sorted(stats.histograms.items()):
            lines.append(
                f"  {attr_name}: range [{histogram.low}, {histogram.high}]"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------ persistence

    def save(self, name: str, path) -> int:
        """Export a stored array to an ADM file; returns bytes written."""
        from repro.adm.persist import save_array

        return save_array(self.array(name), path)

    def restore(
        self,
        path,
        name: str | None = None,
        placement: PlacementPolicy = "round_robin",
    ) -> str:
        """Import an ADM file as a (possibly renamed) cluster array."""
        from repro.adm.persist import load_array

        array = load_array(path)
        if name is not None:
            array = LocalArray(
                array.schema.with_name(name), dict(array.chunks)
            )
        self.cluster.load_array(array, placement=placement)
        return array.schema.name


__all__ = ["Session", "JoinResult"]
