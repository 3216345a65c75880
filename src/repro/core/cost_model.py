"""The analytical physical cost model (Section 5.1, Equations 4-8).

A physical plan assigns every join unit to exactly one node. Its cost is::

    c = max(send, recv) × t + compare

where ``send``/``recv`` are the worst per-node cell counts shipped during
data alignment and ``compare`` is the worst per-node cell-comparison time.
The model deliberately ignores network congestion — the executor's
write-lock schedule bounds it — and secondary effects like per-slice
latency, which is what the Table-2 experiment measures the residual of.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.slices import SliceStats
from repro.errors import PlanningError


@dataclass(frozen=True)
class CostParams:
    """Empirically derived per-cell cost parameters (seconds per cell).

    ``m``: merge-join comparison; ``b``: hash-map build; ``p``: hash-map
    probe; ``t``: network transmission. The paper derives these from runs
    of the heuristics-based planner; :mod:`repro.engine.calibrate`
    implements that procedure against the simulator.
    """

    m: float = 1.0e-6
    b: float = 1.6e-5
    p: float = 1.0e-6
    t: float = 5.0e-6

    def __post_init__(self) -> None:
        for name in ("m", "b", "p", "t"):
            if getattr(self, name) <= 0:
                raise PlanningError(f"cost parameter {name} must be positive")

    def with_bandwidth(self, cells_per_second: float) -> "CostParams":
        """Derive the transmit cost from a link bandwidth."""
        return replace(self, t=1.0 / cells_per_second)


def unit_compare_costs(
    stats: SliceStats, algorithm: str, params: CostParams
) -> np.ndarray:
    """C_i per join unit, in seconds (Section 5.1).

    Merge join: ``C_i = m × S_i``. Hash join: ``C_i = b×t_i + p×u_i``
    with ``t_i`` the smaller (build) side and ``u_i`` the larger (probe)
    side — building a hash map costs much more per cell than probing
    one. Shared between :class:`AnalyticalCostModel` and the plan-time
    unit splitter (:mod:`repro.core.splitting`), which flags units whose
    C_i dominates the mean.
    """
    if algorithm not in ("merge", "hash"):
        raise PlanningError(
            f"physical cost model supports merge and hash joins, "
            f"got {algorithm!r}"
        )
    left = stats.left_unit_totals.astype(np.float64)
    right = stats.right_unit_totals.astype(np.float64)
    if algorithm == "merge":
        return params.m * (left + right)
    build = np.minimum(left, right)
    probe = np.maximum(left, right)
    return params.b * build + params.p * probe


@dataclass(frozen=True)
class PlanCost:
    """The cost model's decomposition of one candidate physical plan."""

    send_cells: int
    recv_cells: int
    compare_seconds: float
    transmit_cost: float

    @property
    def align_seconds(self) -> float:
        """max(s, r) × t — Equation 8's data-alignment term."""
        return max(self.send_cells, self.recv_cells) * self.transmit_cost

    @property
    def total_seconds(self) -> float:
        return self.align_seconds + self.compare_seconds


class AnalyticalCostModel:
    """Costs join-unit-to-node assignments for one logical plan.

    The model is evaluated thousands of times inside Tabu search, so the
    per-assignment entry points are fully vectorised and an incremental
    per-node view (:meth:`node_totals`, :meth:`apply_move`) is provided.
    """

    def __init__(self, stats: SliceStats, algorithm: str, params: CostParams):
        # The nested loop join is never profitable (Sections 4, 6.1), so
        # the physical model does not include it; unit_compare_costs
        # rejects anything but merge/hash.
        self.stats = stats
        self.algorithm = algorithm
        self.params = params
        self._unit_costs = unit_compare_costs(stats, algorithm, params)

    @property
    def unit_costs(self) -> np.ndarray:
        return self._unit_costs

    # ------------------------------------------------------- full evaluation

    def _validate_assignment(self, assignment: np.ndarray) -> np.ndarray:
        assignment = np.asarray(assignment, dtype=np.int64)
        if assignment.shape != (self.stats.n_units,):
            raise PlanningError(
                f"assignment must cover all {self.stats.n_units} join units"
            )
        if len(assignment) and (
            assignment.min() < 0 or assignment.max() >= self.stats.n_nodes
        ):
            raise PlanningError("assignment names a node outside the cluster")
        return assignment

    def node_totals(
        self, assignment: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-node (send_cells, recv_cells, compare_seconds) vectors.

        send_j: cells stored on j belonging to units assigned elsewhere
        (Equation 5). recv_j: cells of units assigned to j stored
        elsewhere (Equation 6). comp_j: Σ C_i over units assigned to j
        (Equation 7).
        """
        assignment = self._validate_assignment(assignment)
        k = self.stats.n_nodes
        s_total = self.stats.s_total
        unit_totals = self.stats.unit_totals
        rows = np.arange(self.stats.n_units)
        local = s_total[rows, assignment]

        col_totals = s_total.sum(axis=0)
        kept = np.bincount(assignment, weights=local, minlength=k)
        send = col_totals - kept

        recv = np.bincount(
            assignment, weights=unit_totals - local, minlength=k
        )
        compare = np.bincount(assignment, weights=self._unit_costs, minlength=k)
        return send.astype(np.int64), recv.astype(np.int64), compare

    def plan_cost(self, assignment: np.ndarray) -> PlanCost:
        """Equation 8: the full analytic cost of one assignment."""
        send, recv, compare = self.node_totals(assignment)
        return PlanCost(
            send_cells=int(send.max(initial=0)),
            recv_cells=int(recv.max(initial=0)),
            compare_seconds=float(compare.max(initial=0.0)),
            transmit_cost=self.params.t,
        )

    # ------------------------------------------------- incremental evaluation

    def move_delta(
        self,
        send: np.ndarray,
        recv: np.ndarray,
        compare: np.ndarray,
        unit: int,
        source: int,
        target: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-node totals after moving one unit, without a full rebuild.

        Returns *new copies*; callers keep the originals for rollback.
        Moving unit i from node N to node j: N must now send its local
        slice of i (send_N += s_iN) and stops receiving the rest
        (recv_N -= S_i - s_iN); j keeps its local slice (send_j -= s_ij)
        and receives the rest (recv_j += S_i - s_ij); C_i migrates.
        """
        s_total = self.stats.s_total
        total_i = int(self.stats.unit_totals[unit])
        send = send.copy()
        recv = recv.copy()
        compare = compare.copy()
        send[source] += s_total[unit, source]
        recv[source] -= total_i - s_total[unit, source]
        send[target] -= s_total[unit, target]
        recv[target] += total_i - s_total[unit, target]
        compare[source] -= self._unit_costs[unit]
        compare[target] += self._unit_costs[unit]
        return send, recv, compare

    def cost_from_totals(
        self, send: np.ndarray, recv: np.ndarray, compare: np.ndarray
    ) -> float:
        """Equation 8 evaluated on precomputed per-node totals."""
        align = max(float(send.max(initial=0)), float(recv.max(initial=0)))
        return align * self.params.t + float(compare.max(initial=0.0))
