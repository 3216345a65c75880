"""Plan-time unit splitting for skewed joins (SharesSkew-style).

The paper's planners *place* join units but never *resize* them, so one
heavy-hitter unit — a hot hash bucket or a dense chunk — dominates the
Eq 5-8 compare term no matter where it lands. Following SharesSkew and
Metwally's equi-join load balancing, the splitter subdivides any unit
whose predicted compare cost exceeds a threshold multiple of the mean
into K sub-units by cutting the unit's *key range* at sample quantiles
of the combined (left + right) key population. Because the cuts are key
values, both sides partition identically: every matching pair stays
inside one sub-unit and the split plan's output is byte-identical to
the unsplit plan's.

Cut points come from the codec-packed ``uint64`` composite keys, so
sub-units are contiguous ranges of the globally sorted packed-key
column — the single-sort assemblies and the :class:`SharedArena`
unit-bounds tables extend to them with no new machinery. The
structured-key (>64-bit) fallback has no packed column to cut and
declines to split; it stays the byte-exact oracle.

A unit whose weight is one single hot key cannot be subdivided by key
boundaries at all (``np.unique`` collapses every candidate cut). The
splitter declines, and the *run-time* re-split in
:mod:`repro.engine.parallel` — which partitions the larger side's rows
and replicates the smaller side's covering key range — picks up the
slack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.cost_model import CostParams, unit_compare_costs
from repro.core.slices import SliceStats, refine_unit_ids

#: Units below this many total rows are never split: the per-unit
#: bookkeeping (extra bounds rows, planner variables) would outweigh any
#: balance gain on ranges this small.
MIN_SPLIT_ROWS = 1024


@dataclass
class SplitPlan:
    """The unit-id refinement produced by :func:`plan_unit_split`.

    ``parent[s]`` maps refined unit ``s`` back to its original unit;
    ``offsets[u]`` is the first refined id of original unit ``u`` (the
    refined ids of ``u`` are the contiguous run ``offsets[u] ..
    offsets[u] + count(u)``); ``thresholds`` holds each split unit's
    sorted key cut points.
    """

    parent: np.ndarray
    offsets: np.ndarray
    thresholds: dict[int, np.ndarray] = field(repr=False)
    n_units: int = 0

    @property
    def units_split(self) -> int:
        return len(self.thresholds)

    @property
    def subunits_created(self) -> int:
        """Total sub-units carved out of the split parents."""
        return sum(len(cuts) + 1 for cuts in self.thresholds.values())

    def remap(self, unit_ids: np.ndarray, keys: np.ndarray) -> np.ndarray:
        return refine_unit_ids(unit_ids, keys, self.offsets, self.thresholds)


def plan_unit_split(
    stats: SliceStats,
    algorithm: str,
    params: CostParams,
    key_chunks: list[tuple[np.ndarray, np.ndarray]],
    threshold: float = 4.0,
    factor: int = 8,
    min_rows: int = MIN_SPLIT_ROWS,
) -> SplitPlan | None:
    """Decide which units to split and where to cut their key ranges.

    ``key_chunks`` is the slice mapping's per-chunk ``(unit_ids,
    packed_keys)`` pairs over *both* sides — the same arrays the
    assemblies are built from, so no extra pass over the data. A unit is
    heavy when its Eq 5-8 compare cost ``C_i`` exceeds ``threshold``
    times the mean over non-empty units and it holds at least
    ``min_rows`` rows. Each heavy unit is cut at the ``factor``-quantile
    positions of its sorted combined key population; duplicate and
    degenerate cuts collapse, so a single-hot-key unit yields no cuts
    and is left whole. Returns ``None`` when nothing splits.
    """
    costs = unit_compare_costs(stats, algorithm, params)
    totals = stats.unit_totals
    active = costs > 0
    if not np.any(active):
        return None
    mean_cost = float(costs[active].mean())
    heavy = np.nonzero(
        (costs > threshold * mean_cost) & (totals >= min_rows)
    )[0]
    if heavy.size == 0:
        return None

    gathered: dict[int, list[np.ndarray]] = {int(u): [] for u in heavy}
    for unit_ids, keys in key_chunks:
        for unit in gathered:
            mask = unit_ids == unit
            if np.any(mask):
                gathered[unit].append(keys[mask])

    thresholds: dict[int, np.ndarray] = {}
    for unit, pieces in gathered.items():
        if not pieces:
            continue
        keys = np.sort(np.concatenate(pieces))
        # Quantile cut candidates over the combined population; a cut at
        # (or below) the minimum key would leave sub-unit 0 empty.
        positions = (np.arange(1, factor) * keys.size) // factor
        cuts = np.unique(keys[positions])
        cuts = cuts[cuts > keys[0]]
        if cuts.size:
            thresholds[unit] = cuts
    if not thresholds:
        return None

    n_parents = stats.n_units
    counts = np.ones(n_parents, dtype=np.int64)
    for unit, cuts in thresholds.items():
        counts[unit] = len(cuts) + 1
    bounds = np.concatenate(([0], np.cumsum(counts)))
    return SplitPlan(
        parent=np.repeat(np.arange(n_parents, dtype=np.int64), counts),
        offsets=bounds[:-1],
        thresholds=thresholds,
        n_units=int(bounds[-1]),
    )
