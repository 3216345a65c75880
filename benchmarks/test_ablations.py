"""Ablations of the framework's design choices (no paper counterpart).

Each test isolates one design decision the paper argues for in prose:
the greedy write-lock shuffle schedule, Algorithm 2's tabu list, the
join-unit granularity, and the Coarse ILP's bin budget.
"""

from benchmarks.conftest import run_once
from repro.bench.ablations import (
    run_ablation_bucket_count,
    run_ablation_coarse_bins,
    run_ablation_join_order,
    run_ablation_shuffle_policy,
    run_ablation_tabu_list,
)


def test_ablation_shuffle_policy(benchmark):
    result = run_once(benchmark, run_ablation_shuffle_policy)
    greedy = result.value("align_s", policy="greedy_lock")
    head_of_line = result.value("align_s", policy="head_of_line")
    uncoordinated = result.value("align_s", policy="uncoordinated")
    # The greedy skip rule beats head-of-line blocking and congested
    # fan-in; all policies move identical data.
    assert greedy <= head_of_line * 1.02
    assert greedy <= uncoordinated * 1.02
    moved = [row.values["cells_moved"] for row in result.rows]
    assert len(set(moved)) == 1


def test_ablation_tabu_list(benchmark):
    result = run_once(benchmark, run_ablation_tabu_list)
    with_list = result.select(variant="with_list")[0].values
    without = result.select(variant="without_list")[0].values
    # Negative result, documented: strict-improvement acceptance already
    # precludes cycling, so both variants reach the same plan quality.
    assert with_list["plan_cost_s"] <= without["plan_cost_s"] * 1.05
    # The list never *increases* the search effort.
    assert with_list["evaluations"] <= without["evaluations"] * 1.05


def test_ablation_bucket_count(benchmark):
    result = run_once(benchmark, run_ablation_bucket_count)
    execute = {
        int(row.labels["n_buckets"]): row.values["execute_s"]
        for row in result.rows
    }
    evaluations = {
        int(row.labels["n_buckets"]): row.values["evaluations"]
        for row in result.rows
    }
    # Finer units let the planner balance comparison better than the
    # coarsest setting...
    assert execute[1024] < execute[64]
    # ...but planning effort grows with the unit count. Effort is Tabu's
    # count of candidate moves evaluated: real plan_s at 64 buckets can
    # lose to interpreter warm-up.
    assert evaluations[4096] > evaluations[64]


def test_ablation_join_order(benchmark):
    result = run_once(benchmark, run_ablation_join_order)
    chosen = result.select(variant="dp_chosen")[0].values
    worst = result.select(variant="worst_order")[0].values
    # Both orders compute the same join...
    assert chosen["output_cells"] == worst["output_cells"]
    # ...but the DP-chosen order keeps the intermediate small and wins
    # decisively on execution time.
    assert chosen["intermediate_cells"] < 0.1 * worst["intermediate_cells"]
    assert chosen["execute_s"] < 0.5 * worst["execute_s"]
    assert chosen["model_cost"] <= worst["model_cost"]


def test_ablation_coarse_bins(benchmark):
    result = run_once(benchmark, run_ablation_coarse_bins)
    execute = {
        int(row.labels["n_bins"]): row.values["execute_s"]
        for row in result.rows
    }
    # The paper's 75-bin budget beats planning in 12 huge segments.
    assert execute[75] <= execute[12] * 1.05
