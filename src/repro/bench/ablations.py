"""Ablation studies for the framework's design choices.

The paper argues for several design decisions without dedicated
experiments; these runners isolate each one:

- :func:`run_ablation_shuffle_policy` — the greedy write-lock schedule
  (Section 3.4) against head-of-line blocking and uncoordinated fan-in;
- :func:`run_ablation_tabu_list` — Algorithm 2's assignment-level tabu
  list against an unrestricted local search;
- :func:`run_ablation_bucket_count` — join-unit granularity ("join units
  are designed to be of moderate size ... without overwhelming the
  physical planner", Section 3.3);
- :func:`run_ablation_coarse_bins` — the Coarse ILP's bin budget
  (75 in the paper, Section 5.2).
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.experiments import (
    ExperimentResult,
    HASH_QUERY,
    MERGE_QUERY,
    make_cluster,
)
from repro.bench.harness import ExperimentRow
from repro.core.cost_model import AnalyticalCostModel, CostParams
from repro.core.planners.tabu import TabuPlanner
from repro.cluster.cluster import Cluster
from repro.core.slices import SliceStats
from repro.engine.executor import ShuffleJoinExecutor
from repro.workloads.synthetic import skewed_hash_pair, skewed_merge_pair


def run_ablation_shuffle_policy(
    cells_per_array: int = 120_000,
    n_nodes: int = 12,
    alpha: float = 1.0,
    seed: int = 0,
) -> ExperimentResult:
    """Data-alignment time under the three shuffle scheduling policies.

    Expected shape: the greedy write-lock schedule at least matches
    head-of-line blocking (skipping locked destinations keeps senders
    busy) and avoids the fan-in congestion of the uncoordinated policy.
    """
    array_a, array_b = skewed_merge_pair(
        alpha, cells_per_array=cells_per_array, seed=seed
    )
    rows = []
    for policy in ("greedy_lock", "head_of_line", "uncoordinated"):
        cluster = make_cluster([array_a, array_b], n_nodes, seed=seed)
        executor = ShuffleJoinExecutor(
            cluster, selectivity_hint=0.25, shuffle_policy=policy
        )
        report = executor.execute(MERGE_QUERY, planner="mbh").report
        rows.append(
            ExperimentRow(
                {"policy": policy},
                {
                    "align_s": report.align_seconds,
                    "cells_moved": float(report.cells_moved),
                    "n_transfers": float(report.n_transfers),
                },
            )
        )
    return ExperimentResult(
        name="Ablation: shuffle scheduling policy (Section 3.4)",
        rows=rows,
        label_keys=["policy"],
        value_keys=["align_s", "cells_moved", "n_transfers"],
    )


def _tabu_stats(n_units: int, n_nodes: int, seed: int) -> SliceStats:
    """A comparison-imbalanced instance where the search has real work."""
    gen = np.random.default_rng(seed)
    sizes = (400_000 / np.arange(1, n_units + 1) ** 0.8).astype(np.int64) + 1
    left = np.zeros((n_units, n_nodes), dtype=np.int64)
    right = np.zeros((n_units, n_nodes), dtype=np.int64)
    hot = gen.integers(0, max(n_nodes // 3, 1), size=n_units)
    for i in range(n_units):
        spread = gen.dirichlet(np.ones(n_nodes) * 0.3)
        spread[hot[i]] += 1.0
        spread /= spread.sum()
        left[i] = gen.multinomial(sizes[i], spread)
        right[i] = gen.multinomial(max(sizes[i] // 2, 1), spread)
    return SliceStats(left, right)


def run_ablation_tabu_list(
    n_units: int = 512,
    n_nodes: int = 12,
    seed: int = 0,
) -> ExperimentResult:
    """Tabu search with and without its assignment-level tabu list.

    Expected shape — a negative result worth recording: under Algorithm
    2's *strict-improvement* acceptance the search cannot cycle even
    without the list, so both variants converge to the same plan with
    nearly identical effort. The list is cheap insurance (it would
    matter under plateau moves or noisy cost models) rather than a
    measurable win here; the paper's tractability argument concerns the
    search-space bound, which the acceptance rule already enforces.
    """
    stats = _tabu_stats(n_units, n_nodes, seed)
    model = AnalyticalCostModel(stats, "hash", CostParams())
    rows = []
    for label, use_list in (("with_list", True), ("without_list", False)):
        planner = TabuPlanner(use_tabu_list=use_list)
        started = time.perf_counter()
        assignment, meta = planner.assign(model)
        elapsed = time.perf_counter() - started
        cost = model.plan_cost(assignment)
        rows.append(
            ExperimentRow(
                {"variant": label},
                {
                    "plan_cost_s": cost.total_seconds,
                    "plan_time_s": elapsed,
                    "moves": float(meta["moves"]),
                    "evaluations": float(meta["evaluations"]),
                },
            )
        )
    return ExperimentResult(
        name="Ablation: Algorithm 2's tabu list",
        rows=rows,
        label_keys=["variant"],
        value_keys=["plan_cost_s", "plan_time_s", "moves", "evaluations"],
    )


def run_ablation_bucket_count(
    cells_per_array: int = 120_000,
    n_nodes: int = 12,
    alpha: float = 1.0,
    bucket_counts: tuple[int, ...] = (64, 256, 1024, 4096),
    seed: int = 0,
) -> ExperimentResult:
    """Hash-join performance across join-unit granularities.

    Expected shape: very coarse units limit the planner's ability to
    balance (worse compare max); very fine units pay per-unit overheads
    and per-transfer latency; the paper's moderate sizing sits in the
    sweet spot.
    """
    array_a, array_b = skewed_hash_pair(
        alpha, cells_per_array=cells_per_array, seed=seed
    )
    rows = []
    for n_buckets in bucket_counts:
        cluster = make_cluster(
            [array_a, array_b], n_nodes, seed=seed, placement="block"
        )
        executor = ShuffleJoinExecutor(
            cluster, selectivity_hint=0.0001, n_buckets=n_buckets
        )
        report = executor.execute(
            HASH_QUERY, planner="tabu", join_algo="hash"
        ).report
        rows.append(
            ExperimentRow(
                {"n_buckets": n_buckets},
                {
                    "plan_s": report.plan_seconds,
                    "align_s": report.align_seconds,
                    "compare_s": report.compare_seconds,
                    "execute_s": report.execute_seconds,
                },
            )
        )
    return ExperimentResult(
        name="Ablation: join-unit granularity (hash bucket count)",
        rows=rows,
        label_keys=["n_buckets"],
        value_keys=["plan_s", "align_s", "compare_s", "execute_s"],
    )


def run_ablation_coarse_bins(
    cells_per_array: int = 120_000,
    n_nodes: int = 12,
    alpha: float = 1.5,
    bin_counts: tuple[int, ...] = (12, 75, 300),
    time_budget_s: float = 2.0,
    seed: int = 0,
) -> ExperimentResult:
    """The Coarse ILP's bin budget: solver tractability vs plan quality.

    Expected shape: fewer bins solve faster but plan in larger segments;
    more bins approach the full ILP's decision space (and its budget
    problems). The paper packs 1024 join units into 75 bins.
    """
    array_a, array_b = skewed_hash_pair(
        alpha, cells_per_array=cells_per_array, seed=seed
    )
    rows = []
    for n_bins in bin_counts:
        cluster = make_cluster(
            [array_a, array_b], n_nodes, seed=seed, placement="block"
        )
        executor = ShuffleJoinExecutor(
            cluster,
            selectivity_hint=0.0001,
            n_buckets=1024,
            ilp_time_budget_s=time_budget_s,
        )
        executor._make_planner = (  # pin the bin count for this run
            lambda name, bins=n_bins, ex=executor: _coarse_with_bins(ex, bins)
        )
        report = executor.execute(
            HASH_QUERY, planner="ilp_coarse", join_algo="hash"
        ).report
        rows.append(
            ExperimentRow(
                {"n_bins": n_bins},
                {
                    "plan_s": report.plan_seconds,
                    "execute_s": report.execute_seconds,
                    "model_cost_s": report.analytic_cost.total_seconds,
                },
            )
        )
    return ExperimentResult(
        name="Ablation: Coarse ILP bin budget",
        rows=rows,
        label_keys=["n_bins"],
        value_keys=["plan_s", "execute_s", "model_cost_s"],
    )


def _coarse_with_bins(executor: ShuffleJoinExecutor, n_bins: int):
    from repro.core.planners.coarse import CoarseIlpPlanner

    return CoarseIlpPlanner(
        n_bins=n_bins, time_budget_s=executor.ilp_time_budget_s
    )


def run_ablation_join_order(
    n_nodes: int = 8,
    seed: int = 0,
) -> ExperimentResult:
    """Multi-join ordering: the DP-chosen order vs the worst valid order.

    A 3-array chain where the middle array is tiny and selective: joining
    through it first keeps the intermediate small. (The paper lists
    multi-join ordering as future work; this extension implements the
    Selinger-style DP of :mod:`repro.core.multijoin`.)
    Expected shape: the chosen order's total execution time beats the
    worst order's, tracking its smaller intermediate.
    """
    from repro.adm.cells import CellSet
    from repro.core.multijoin import MultiJoinPlanner
    from repro.engine.multijoin import (
        estimate_pair_selectivities,
        execute_multi_join,
    )
    from repro.query.aql import parse_aql

    rng = np.random.default_rng(seed)
    cluster = Cluster(n_nodes=n_nodes)

    def load(name: str, n: int, k1_range: int, k2_range: int):
        coords = np.unique(rng.integers(1, 129, size=(n, 2)), axis=0)
        cluster.create_array(
            f"{name}<k1:int64, k2:int64>[i=1,128,16, j=1,128,16]",
            CellSet(
                coords,
                {
                    "k1": rng.integers(0, k1_range, len(coords)),
                    "k2": rng.integers(0, k2_range, len(coords)),
                },
            ),
        )

    # A-B matches on k1 are rare (sparse key domain); B-C matches on k2
    # fan out heavily (tiny key domain): joining A ⋈ B first keeps the
    # intermediate tiny, while B ⋈ C first materialises a huge one.
    load("A", 25_000, 500_000, 25)
    load("B", 400, 500_000, 25)
    load("C", 25_000, 500_000, 25)
    query = parse_aql(
        "SELECT A.k1, C.k2 FROM A, B, C WHERE A.k1 = B.k1 AND B.k2 = C.k2"
    )
    executor = ShuffleJoinExecutor(cluster)
    sizes = {n: cluster.array_cell_count(n) for n in query.arrays}
    selectivities = estimate_pair_selectivities(executor, query)
    planner = MultiJoinPlanner(sizes, selectivities)

    chosen = planner.plan(query)
    candidates = [
        ["A", "B", "C"], ["B", "A", "C"], ["B", "C", "A"], ["C", "B", "A"],
    ]
    worst = max(
        (planner.plan_fixed_order(query, order) for order in candidates),
        key=lambda p: p.total_cost,
    )

    rows = []
    for label, plan in (("dp_chosen", chosen), ("worst_order", worst)):
        result = execute_multi_join(
            executor, query, planner="mbh", plan=plan
        )
        rows.append(
            ExperimentRow(
                {"variant": label, "order": ">> ".join(plan.order)},
                {
                    "model_cost": plan.total_cost,
                    "execute_s": sum(
                        r.report.execute_seconds for r in result.stage_results
                    ),
                    "intermediate_cells": float(
                        result.stage_results[0].report.output_cells
                    ),
                    "output_cells": float(result.array.n_cells),
                },
            )
        )
    return ExperimentResult(
        name="Ablation: multi-join ordering (future-work extension)",
        rows=rows,
        label_keys=["variant", "order"],
        value_keys=[
            "model_cost", "execute_s", "intermediate_cells", "output_cells",
        ],
    )
