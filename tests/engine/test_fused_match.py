"""The in-process fused matcher against the per-unit reference loop.

One-worker executions of merge joins and small-unit hash joins match
blocks of consecutive units over fused ``(unit << width) | key`` columns
instead of one ``match_pairs`` call per unit. The pairs *and their
order* must be exactly the per-unit loop's: later pipeline stages
inherit the output order, so the comparisons here are over the raw,
unsorted output bytes. The reference is forced by patching the path
choice, not through any executor option.
"""

import os

import numpy as np
import pytest

import repro.engine.executor as executor_module
from repro.adm import CellSet
from repro.bench.experiments import HASH_QUERY, MERGE_QUERY, make_cluster
from repro.cluster import Cluster
from repro.engine import ShuffleJoinExecutor
from repro.engine.executor import (
    FUSED_BLOCK_ROWS,
    FUSED_HASH_MAX_UNIT_ROWS,
    _takes_fused_path,
    _unit_blocks,
)
from repro.engine.shm import ARENA_PREFIX, live_arena_names
from repro.workloads import chain_arrays, chain_query
from repro.workloads.synthetic import (
    selectivity_pair,
    skewed_hash_pair,
    skewed_merge_pair,
)

PARITY_COUNTERS = (
    "join_units_matched",
    "cells_compared",
    "matched_pairs",
    "cells_emitted",
)

AD_QUERY = "SELECT A.v, B.j, B.w FROM A, B WHERE A.i = B.w"
DENSE_QUERY = "SELECT A.v, B.w FROM A, B WHERE A.v = B.w"


def own_arenas() -> list[str]:
    """This process's shared-memory segments (others may run beside)."""
    prefix = f"{ARENA_PREFIX}{os.getpid()}-"
    return [name for name in live_arena_names() if name.startswith(prefix)]


def raw_bytes(result) -> bytes:
    """Output coordinates plus every attribute, in emitted order."""
    cells = result.cells
    parts = [cells.coords.tobytes()]
    parts += [cells.attrs[name].tobytes() for name in sorted(cells.attrs)]
    return b"".join(parts)


def ad_cluster(n_dups: int = 1) -> Cluster:
    """A:D join: A's dimension ``i`` against B's attribute ``w``;
    ``n_dups`` > 1 stacks B cells on each key (duplicate-heavy)."""
    rng = np.random.default_rng(21)
    cluster = Cluster(n_nodes=3)
    n = 2_000
    cluster.create_array(
        f"A<v:int64>[i=1,{n},100]",
        CellSet(np.arange(1, n + 1).reshape(-1, 1),
                {"v": rng.integers(0, 100, n)}),
    )
    m = 1_500
    keys = rng.integers(1, n // n_dups + 1, m)
    cluster.create_array(
        f"B<w:int64>[j=1,{m},100]",
        CellSet(np.arange(1, m + 1).reshape(-1, 1), {"w": keys}),
        placement="block",
    )
    return cluster


def dup_cluster() -> Cluster:
    """A:A join over 40 distinct values: every key fans out ~50 x 50."""
    rng = np.random.default_rng(8)
    cluster = Cluster(n_nodes=4)
    for name, attr, n in (("A", "v", 2_000), ("B", "w", 1_600)):
        cluster.create_array(
            f"{name}<{attr}:int64>[i=1,{n},200]",
            CellSet(np.arange(1, n + 1).reshape(-1, 1),
                    {attr: rng.integers(0, 40, n)}),
        )
    return cluster


#: name -> (cluster factory, query, join_algo, executor options)
CASES = {
    "hash_small_a0": (
        lambda: make_cluster(
            list(skewed_hash_pair(0.0, cells_per_array=12_000, seed=3)),
            4, seed=0, placement="block",
        ),
        HASH_QUERY, "hash", {"n_buckets": 256},
    ),
    "hash_small_a15": (
        lambda: make_cluster(
            list(skewed_hash_pair(1.5, cells_per_array=12_000, seed=3)),
            4, seed=0, placement="block",
        ),
        HASH_QUERY, "hash", {"n_buckets": 256},
    ),
    "hash_big_units": (
        lambda: make_cluster(
            list(selectivity_pair(2.0, n_cells=16_000, n_chunks=8, seed=1)),
            4, seed=0,
        ),
        DENSE_QUERY, "hash", {"n_buckets": 16},
    ),
    "merge_dd_a0": (
        lambda: make_cluster(
            list(skewed_merge_pair(0.0, cells_per_array=15_000, seed=5)),
            4, seed=0,
        ),
        MERGE_QUERY, "merge", {},
    ),
    "merge_dd_a15": (
        lambda: make_cluster(
            list(skewed_merge_pair(1.5, cells_per_array=15_000, seed=5)),
            4, seed=0,
        ),
        MERGE_QUERY, "merge", {},
    ),
    "merge_aa_dups": (dup_cluster, DENSE_QUERY, "merge", {}),
    "hash_aa_dups": (dup_cluster, DENSE_QUERY, "hash", {}),
    "hash_ad": (ad_cluster, AD_QUERY, "hash", {}),
    "merge_ad_dups": (lambda: ad_cluster(n_dups=8), AD_QUERY, "merge", {}),
}


def run_path(monkeypatch, case, split, fused):
    """Cold and warm executions with the path choice forced one way."""
    make, query, algo, options = case
    monkeypatch.setattr(
        executor_module, "_takes_fused_path", lambda *args: fused
    )
    executor = ShuffleJoinExecutor(
        make(), selectivity_hint=0.1, split_units=split, plan_cache_size=4,
        **options,
    )
    runs = []
    for _ in range(2):  # cold (plan-cache miss), then warm (hit)
        result = executor.execute(query, planner="tabu", join_algo=algo)
        runs.append((
            raw_bytes(result),
            result.report.output_cells,
            result.report.per_node_output.tolist(),
            result.report.meta,
        ))
    assert executor.plan_cache.stats()["hits"] == 1
    counters = executor.metrics.snapshot()["counters"]
    return runs, {name: counters[name] for name in PARITY_COUNTERS}, counters


class TestByteOrderDifferential:
    @pytest.mark.parametrize("split", ["off", "static"])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_fused_equals_per_unit_loop(self, monkeypatch, name, split):
        case = CASES[name]
        before = own_arenas()
        reference, ref_counts, ref_all = run_path(
            monkeypatch, case, split, fused=False
        )
        fused, fused_counts, fused_all = run_path(
            monkeypatch, case, split, fused=True
        )
        assert reference[0][1] > 0, "the case must produce output"
        for ref_run, fused_run in zip(reference, fused):
            assert fused_run == ref_run
        assert fused_counts == ref_counts
        assert "batches" not in fused_all
        # Both kernel paths ran in-process: no shared-memory segment.
        assert own_arenas() == before
        assert ref_all["match_kernel_calls"] == ref_counts[
            "join_units_matched"
        ]

    def test_cases_straddle_the_unit_size_rule(self):
        """The natural path choice: small-unit hash and merge joins take
        the fused matcher, big-unit hash joins the per-unit loop."""
        chosen = {}
        for name in ("hash_small_a15", "hash_big_units", "merge_dd_a15"):
            make, query, algo, options = CASES[name]
            executor = ShuffleJoinExecutor(
                make(), selectivity_hint=0.1, **options
            )
            prepared = executor.prepare(query, join_algo=algo)
            stats = prepared.stats
            matchable = np.flatnonzero(
                (stats.left_unit_totals > 0) & (stats.right_unit_totals > 0)
            )
            chosen[name] = _takes_fused_path(
                prepared.slice_table, algo, matchable
            )
            mean_rows = (
                stats.left_unit_totals[matchable].sum()
                + stats.right_unit_totals[matchable].sum()
            ) / matchable.size
            if algo == "hash":
                assert (mean_rows < FUSED_HASH_MAX_UNIT_ROWS) == chosen[name]
        assert chosen == {
            "hash_small_a15": True,
            "hash_big_units": False,
            "merge_dd_a15": True,
        }

    def test_structured_keys_stay_on_the_reference_loop(self):
        make, query, algo, options = CASES["merge_dd_a0"]
        executor = ShuffleJoinExecutor(
            make(), selectivity_hint=0.1, packed_keys=False
        )
        prepared = executor.prepare(query, join_algo=algo)
        assert not _takes_fused_path(
            prepared.slice_table, algo, np.arange(prepared.n_units)
        )


class TestChainOrder:
    def test_stage_reports_identical(self, monkeypatch):
        """A 3-array chain: the second stage's inputs are the first
        stage's output in emitted order, so its simulated execution
        seconds move if the fused matcher reorders anything."""
        results = {}
        for fused in (False, True):
            monkeypatch.setattr(
                executor_module, "_takes_fused_path",
                (lambda *args: False) if not fused else _takes_fused_path,
            )
            arrays = chain_arrays(3, 1.5, cells_per_array=6_000, rng=4)
            cluster = make_cluster(arrays, 4, seed=4, placement="block")
            executor = ShuffleJoinExecutor(cluster)
            result = executor.execute(
                chain_query(3), planner="tabu", use_cache=False
            )
            results[fused] = (
                [r.report.execute_seconds for r in result.stage_results],
                [raw_bytes(r) for r in result.stage_results],
                executor.metrics.snapshot()["counters"],
            )
        (ref_sim, ref_bytes, ref_counts) = results[False]
        (fused_sim, fused_bytes, fused_counts) = results[True]
        assert len(ref_sim) == 2
        assert fused_sim == ref_sim
        assert fused_bytes == ref_bytes
        # The natural path choice took the fused matcher.
        assert fused_counts["match_kernel_calls"] < ref_counts[
            "match_kernel_calls"
        ]


class TestKernelCallCounter:
    def test_small_unit_hash_join_calls_per_block(self, monkeypatch):
        """1,024 populated hash buckets of ~16 rows a side: the per-unit loop
        makes one kernel call per unit, the fused matcher at most two
        (one per probing side) per block."""
        rng = np.random.default_rng(6)
        cluster = Cluster(n_nodes=4)
        for name, attr in (("A", "v"), ("B", "w")):
            cluster.create_array(
                f"{name}<{attr}:int64>[i=1,16384,1024]",
                CellSet(np.arange(1, 16385).reshape(-1, 1),
                        {attr: rng.integers(0, 1 << 16, 16384)}),
            )
        counts = {}
        for fused in (True, False):
            if not fused:
                monkeypatch.setattr(
                    executor_module, "_takes_fused_path", lambda *args: False
                )
            executor = ShuffleJoinExecutor(
                cluster, selectivity_hint=0.1, n_buckets=1024
            )
            executor.execute(DENSE_QUERY, planner="tabu", join_algo="hash")
            counts[fused] = executor.metrics.snapshot()["counters"]
        table = executor.prepare(DENSE_QUERY, join_algo="hash").slice_table
        rows = table.left_assembly.bounds + table.right_assembly.bounds
        n_blocks = len(list(_unit_blocks(rows, FUSED_BLOCK_ROWS)))
        assert counts[True]["join_units_matched"] == 1024
        assert counts[True]["match_kernel_calls"] <= 2 * n_blocks
        assert counts[False]["match_kernel_calls"] == 1024
        assert "batches" not in counts[True]


class TestUnitBlocks:
    def test_blocks_cover_units_in_order(self):
        rows = np.concatenate(
            ([0], np.cumsum([10, 0, 70, 5, 5, 200, 0, 1]))
        )
        blocks = list(_unit_blocks(rows, 80))
        assert blocks == [(0, 3), (3, 5), (5, 6), (6, 8)]

    def test_no_units(self):
        assert list(_unit_blocks(np.zeros(1, dtype=np.int64), 8)) == []
