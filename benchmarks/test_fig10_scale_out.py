"""Figure 10: merge join scale-out, 2-12 nodes at α = 1.0 (§6.4).

Paper's findings: the skew-aware planners on just two nodes execute
faster than the baseline plan on twelve; at two nodes the join is
network-bound (most time in data alignment over the single pair of
links); the ILPs converge quickly at small scale but burn their whole
budget as the decision space grows; the simple MBH performs best overall
at scale.
"""

from benchmarks.conftest import run_once
from repro.bench import run_fig10_scale_out


def test_fig10_scale_out(benchmark):
    result = run_once(benchmark, run_fig10_scale_out, ilp_budget_s=2.0)

    def execute(planner, nodes):
        return result.value("execute_s", planner=planner, nodes=nodes)

    # Headline: skew-aware execution on 2 nodes beats baseline on 12.
    assert execute("mbh", 2) < execute("baseline", 12)
    assert execute("tabu", 2) < execute("baseline", 12)

    # At 2 nodes the join is network-bound: alignment dominates.
    assert result.value("align_s", planner="mbh", nodes=2) > result.value(
        "compare_s", planner="mbh", nodes=2
    )

    # Execution improves with cluster size for the skew-aware planners.
    assert execute("mbh", 12) < execute("mbh", 2)

    # MBH is the best end-to-end planner at full scale (planning is
    # free): of the plans that execute within 2 % of the best one, MBH's
    # is the only one found without a search. Tabu searches on from
    # MBH's plan (Algorithm 2 is seeded with it) and the ILPs run a
    # solver. Both quantities are host-independent; real plan_s is not,
    # and MBH's and Tabu's differ by about as much as their execution.
    planners = ("baseline", "ilp", "ilp_coarse", "mbh", "tabu")
    execute_12 = {p: execute(p, 12) for p in planners}

    def searched(planner):
        if planner in ("ilp", "ilp_coarse"):
            return True
        meta = result.select(planner=planner, nodes=12)[0].meta["plan"]
        return meta.get("evaluations", 0) > 0

    near_best = {
        p for p in planners if execute_12[p] <= 1.02 * min(execute_12.values())
    }
    assert {p for p in near_best if not searched(p)} == {"mbh"}

    # The ILP's planning time exceeds its execution time at scale —
    # "their plans are not high-quality enough to justify this wait".
    assert result.value("plan_s", planner="ilp", nodes=12) > execute("ilp", 12)
