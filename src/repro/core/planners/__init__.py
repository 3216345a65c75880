"""Physical shuffle-join planners (Section 5.2).

Every planner consumes slice statistics (via the analytical cost model)
and produces a join-unit-to-node assignment:

- ``baseline`` — the skew-agnostic planner relational optimizers use:
  move the smaller array (merge joins) or deal buckets out in equal
  blocks (hash joins);
- ``mbh`` — Minimum Bandwidth Heuristic: each unit goes to its center of
  gravity, provably minimising cells transmitted;
- ``tabu`` — Tabu search seeded by MBH, rebalancing overloaded nodes;
- ``ilp`` — the exact cost model as an integer linear program, solved
  by HiGHS to a fixed gap, with a time budget as a safety cap;
- ``ilp_coarse`` — the ILP over center-of-gravity bins (default 75) to
  shrink the decision space.
"""

from repro.core.planners.base import PhysicalPlan, PhysicalPlanner
from repro.core.planners.baseline import BaselinePlanner
from repro.core.planners.coarse import CoarseIlpPlanner
from repro.core.planners.ilp import IlpPlanner
from repro.core.planners.mbh import MinimumBandwidthPlanner
from repro.core.planners.tabu import TabuPlanner
from repro.errors import PlanningError

_PLANNERS = {
    "baseline": BaselinePlanner,
    "mbh": MinimumBandwidthPlanner,
    "tabu": TabuPlanner,
    "ilp": IlpPlanner,
    "ilp_coarse": CoarseIlpPlanner,
}

PLANNER_NAMES = tuple(sorted(_PLANNERS))


def get_planner(name: str, **kwargs) -> PhysicalPlanner:
    """Instantiate a physical planner by its registry name."""
    try:
        cls = _PLANNERS[name]
    except KeyError:
        raise PlanningError(
            f"unknown physical planner {name!r}; choose from {PLANNER_NAMES}"
        ) from None
    return cls(**kwargs)


__all__ = [
    "BaselinePlanner",
    "CoarseIlpPlanner",
    "IlpPlanner",
    "MinimumBandwidthPlanner",
    "PLANNER_NAMES",
    "PhysicalPlan",
    "PhysicalPlanner",
    "TabuPlanner",
    "get_planner",
]
