"""The ILP physical planner (Section 5.2, Equations 10-12).

Formulates the analytical cost model as an integer linear program:
binary assignment variables ``x_{i,j}``, plus structural variables ``d``
(data alignment time) and ``g`` (cell comparison time) that implement the
cost model's max() through one-sided constraints. The objective is
``min(d + g)``.

The paper hands this program to SCIP under a time budget; here it goes
to HiGHS through one ``scipy.optimize.milp`` call. The search is bounded
by work — a fixed relative gap and a fixed branch-and-bound node limit —
so the plan is a pure function of the slice statistics. The time budget
stays only as a safety cap; when it binds (the full ILP at paper scale),
the plan is the cheaper of HiGHS's incumbent and the rounded root LP,
and the meta reports ``budget_hit``.

``scipy`` is imported when an ILP planner is constructed
(:func:`load_solver`), so a process that never plans with an ILP never
loads it, and the first ILP plan's ``plan_s`` does not include the
import.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from repro.core.cost_model import AnalyticalCostModel
from repro.core.planners.base import PhysicalPlanner
from repro.errors import SolverError

#: HiGHS stops once the incumbent is within this relative gap of its bound.
MIP_REL_GAP = 1e-4
#: Branch-and-bound nodes HiGHS may explore before returning its incumbent.
NODE_LIMIT = 500


def load_solver() -> None:
    """Import ``scipy.optimize`` (≈ 0.4 s, once per process).

    Called from the ILP planners' constructors: the executor builds a
    planner before it starts the planning clock, so the import never
    lands in the first ILP plan's ``plan_s``.
    """
    import scipy.optimize  # noqa: F401


class IlpForm(NamedTuple):
    """``min c·x`` s.t. ``a_ub x ≤ b_ub``, ``a_eq x = b_eq``, ``0 ≤ x ≤ ub``."""

    c: np.ndarray
    a_ub: object  # scipy.sparse CSR matrix, one row per Equation 10-12 term
    b_ub: np.ndarray
    a_eq: object  # scipy.sparse CSR matrix, one row per unit (Equation 4)
    b_eq: np.ndarray
    ub: np.ndarray
    #: 1 for the x_ij assignment variables, 0 for d and g
    integrality: np.ndarray


def build_ilp(model: AnalyticalCostModel) -> IlpForm:
    """Construct the Equation 10-12 MILP for the given slice statistics."""
    from scipy import sparse

    stats = model.stats
    n, k = stats.n_units, stats.n_nodes
    s_total = stats.s_total.astype(np.float64)
    unit_totals = stats.unit_totals.astype(np.float64)
    unit_costs = model.unit_costs
    t = model.params.t
    n_x = n * k
    d_idx, g_idx = n_x, n_x + 1
    n_vars = n_x + 2

    # Σ_j x_ij = 1 for every unit (Equation 4).
    eq_rows = np.repeat(np.arange(n), k)
    eq_cols = np.arange(n_x)
    a_eq = sparse.csr_matrix(
        (np.ones(n_x), (eq_rows, eq_cols)), shape=(n, n_vars)
    )
    b_eq = np.ones(n)

    # Three rows per node j — 3j, 3j + 1, 3j + 2 — whose (i, j) terms
    # sit in column x_ij = i·k + j; zero coefficients are left out.
    #   Send (Equation 10): t·(colsum_j − Σ_i s_ij x_ij) ≤ d
    #     ⇔  −t·Σ_i s_ij x_ij − d ≤ −t·colsum_j
    #   Receive (Equation 11): t·Σ_i (S_i − s_ij) x_ij − d ≤ 0
    #   Comparison (Equation 12): Σ_i C_i x_ij − g ≤ 0
    x_cols = np.arange(n_x).reshape(n, k)
    node_rows = 3 * np.arange(k)
    compare = np.broadcast_to(
        np.asarray(unit_costs, dtype=np.float64)[:, None], (n, k)
    )
    rows, cols, vals = [], [], []
    for offset, coefficients in enumerate(
        (-t * s_total, t * (unit_totals[:, None] - s_total), compare)
    ):
        nonzero = coefficients != 0
        rows.append(np.broadcast_to(node_rows + offset, (n, k))[nonzero])
        cols.append(x_cols[nonzero])
        vals.append(coefficients[nonzero])
    # Each row's structural term: −d for send and receive, −g for
    # comparison.
    rows.append(np.arange(3 * k))
    cols.append(np.tile([d_idx, d_idx, g_idx], k))
    vals.append(np.full(3 * k, -1.0))
    b_ub = np.zeros(3 * k)
    b_ub[node_rows] = -t * s_total.sum(axis=0)

    a_ub = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(3 * k, n_vars),
    )
    c = np.zeros(n_vars)
    c[d_idx] = 1.0
    c[g_idx] = 1.0
    ub = np.concatenate([np.ones(n_x), [np.inf, np.inf]])
    integrality = np.concatenate([np.ones(n_x), [0.0, 0.0]])
    return IlpForm(c, a_ub, b_ub, a_eq, b_eq, ub, integrality)


def assignment_to_vector(
    model: AnalyticalCostModel, assignment: np.ndarray
) -> np.ndarray:
    """Lift an assignment into a feasible full MILP variable vector."""
    stats = model.stats
    n, k = stats.n_units, stats.n_nodes
    x = np.zeros(n * k + 2)
    x[np.arange(n) * k + assignment] = 1.0
    send, recv, compare = model.node_totals(assignment)
    x[n * k] = max(int(send.max(initial=0)), int(recv.max(initial=0))) * model.params.t
    x[n * k + 1] = float(compare.max(initial=0.0))
    return x


class IlpPlanner(PhysicalPlanner):
    name = "ilp"

    def __init__(self, time_budget_s: float = 5.0):
        if time_budget_s <= 0:
            raise SolverError(f"time budget must be positive, got {time_budget_s}")
        self.time_budget_s = time_budget_s
        load_solver()

    def assign(self, model: AnalyticalCostModel) -> tuple[np.ndarray, dict]:
        from scipy.optimize import Bounds, LinearConstraint, linprog, milp

        stats = model.stats
        n, k = stats.n_units, stats.n_nodes
        form = build_ilp(model)
        start = time.monotonic()

        # The root LP, rounded unit by unit to its argmax node, is the
        # incumbent of last resort when HiGHS stops at a limit. It runs
        # to completion (on 4,050 units it alone takes about 2 s) and
        # counts against the budget, so planning ends within the budget
        # plus one LP solve.
        root = linprog(
            form.c,
            A_ub=form.a_ub,
            b_ub=form.b_ub,
            A_eq=form.a_eq,
            b_eq=form.b_eq,
            bounds=np.column_stack([np.zeros_like(form.ub), form.ub]),
            method="highs",
        )
        remaining = self.time_budget_s - (time.monotonic() - start)
        result = milp(
            form.c,
            integrality=form.integrality,
            bounds=Bounds(0.0, form.ub),
            constraints=[
                LinearConstraint(form.a_ub, -np.inf, form.b_ub),
                LinearConstraint(form.a_eq, form.b_eq, form.b_eq),
            ],
            options={
                "mip_rel_gap": MIP_REL_GAP,
                "node_limit": NODE_LIMIT,
                "time_limit": max(remaining, 0.0),
            },
        )

        candidates = []
        if result.x is not None:
            candidates.append(_round_to_nodes(result.x, n, k))
        if result.status != 0 and root.x is not None:
            candidates.append(_round_to_nodes(root.x, n, k))
        meta = {
            "status": "optimal" if result.status == 0 else "feasible",
            "budget_hit": result.status == 1,
            "nodes_explored": int(result.mip_node_count or 0),
            "solver_seconds": time.monotonic() - start,
        }
        if not candidates:
            # Budget expired before any incumbent: the paper's α=0.5 case.
            # Fall back to the trivially feasible block assignment so the
            # query can still run.
            block = -(-n // k)
            assignment = np.minimum(np.arange(n) // block, k - 1).astype(np.int64)
            meta.update(status="no_solution", gap=float("inf"), fallback="block")
            return assignment, meta
        costs = [model.plan_cost(a).total_seconds for a in candidates]
        best = int(np.argmin(costs))
        bound = max(
            (b for b in (root.fun, result.mip_dual_bound) if b is not None),
            default=-np.inf,
        )
        meta["gap"] = max(costs[best] - bound, 0.0) / max(costs[best], 1e-12)
        return candidates[best], meta


def _round_to_nodes(x: np.ndarray, n: int, k: int) -> np.ndarray:
    """Each unit's node: the argmax of its x_ij row."""
    return np.argmax(x[: n * k].reshape(n, k), axis=1).astype(np.int64)
