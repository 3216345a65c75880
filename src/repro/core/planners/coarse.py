"""The Coarse ILP planner (Section 5.2, "Coarse Solver").

The full ILP struggles to converge at moderate problem sizes (1024 join
units), so this planner first *packs* join units into a bounded number of
bins — grouping units that share a center of gravity, so bins do not
"conflict" by having equal cell concentrations on multiple hosts — and
then solves the much smaller bin-to-node ILP. The coarser granularity
speeds up the solver at a possible cost in plan quality, since the join
is now placed in larger segments.
"""

from __future__ import annotations

import numpy as np

from repro.core.cost_model import AnalyticalCostModel
from repro.core.planners.base import PhysicalPlanner
from repro.core.planners.ilp import IlpPlanner, load_solver
from repro.core.slices import SliceStats


def pack_bins(stats: SliceStats, n_bins: int) -> tuple[np.ndarray, int]:
    """Group join units into at most ``n_bins`` center-of-gravity bins.

    Bins are allotted to each center-of-gravity group proportionally to
    its unit count (every non-empty group keeps at least one bin), and
    units are dealt into their group's bins largest-first round-robin so
    bin sizes stay balanced. Returns (bin label per unit, bin count).
    """
    centers = stats.center_of_gravity()
    sizes = stats.unit_totals
    groups = [np.flatnonzero(centers == node) for node in range(stats.n_nodes)]
    groups = [g for g in groups if len(g)]
    n_bins = max(n_bins, len(groups))

    counts = np.array([len(g) for g in groups], dtype=np.float64)
    allotment = np.maximum(1, np.floor(counts / counts.sum() * n_bins)).astype(int)
    # Distribute any remaining bins to the largest groups.
    while allotment.sum() < n_bins:
        allotment[int(np.argmax(counts / allotment))] += 1
    while allotment.sum() > n_bins:
        eligible = np.flatnonzero(allotment > 1)
        if not len(eligible):
            break
        shrink = eligible[int(np.argmin(counts[eligible] / allotment[eligible]))]
        allotment[shrink] -= 1

    labels = np.zeros(stats.n_units, dtype=np.int64)
    next_bin = 0
    for group, bins_here in zip(groups, allotment):
        order = group[np.argsort(-sizes[group], kind="stable")]
        labels[order] = next_bin + (np.arange(len(order)) % bins_here)
        next_bin += bins_here
    return labels, int(next_bin)


class CoarseIlpPlanner(PhysicalPlanner):
    name = "ilp_coarse"

    def __init__(self, n_bins: int = 75, time_budget_s: float = 5.0):
        self.n_bins = n_bins
        self.time_budget_s = time_budget_s
        load_solver()

    def assign(self, model: AnalyticalCostModel) -> tuple[np.ndarray, dict]:
        stats = model.stats
        labels, n_bins = pack_bins(stats, self.n_bins)
        merged = stats.merged(labels, n_bins)
        coarse_model = AnalyticalCostModel(merged, model.algorithm, model.params)
        bin_assignment, inner_meta = IlpPlanner(
            time_budget_s=self.time_budget_s
        ).assign(coarse_model)
        assignment = bin_assignment[labels]
        meta = {"n_bins": n_bins, **{f"ilp_{k}": v for k, v in inner_meta.items()}}
        return assignment, meta
