"""Tests for the Equation 10-12 MILP construction."""

import numpy as np
import pytest

from repro.core.cost_model import AnalyticalCostModel, CostParams
from repro.core.planners.ilp import assignment_to_vector, build_ilp
from repro.core.slices import SliceStats

PARAMS = CostParams(m=1e-6, b=4e-6, p=1e-6, t=5e-6)


def check_feasible(problem, x, tol=1e-6):
    """Verify a candidate vector against every constraint and integrality."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != problem.c.shape:
        return False
    if (problem.a_ub @ x > problem.b_ub + tol).any():
        return False
    if (np.abs(problem.a_eq @ x - problem.b_eq) > tol).any():
        return False
    if (x < -tol).any() or (x > problem.ub + tol).any():
        return False
    integral = problem.integrality.astype(bool)
    return bool((np.abs(x[integral] - np.round(x[integral])) <= tol).all())


def small_stats(seed=0, n=10, k=3):
    gen = np.random.default_rng(seed)
    return SliceStats(
        gen.integers(0, 30, size=(n, k)), gen.integers(0, 30, size=(n, k))
    )


class TestBuildIlp:
    def test_dimensions(self):
        stats = small_stats()
        model = AnalyticalCostModel(stats, "merge", PARAMS)
        problem = build_ilp(model)
        n, k = stats.n_units, stats.n_nodes
        n_vars = len(problem.c)
        assert n_vars == n * k + 2  # x variables plus d and g
        assert problem.a_eq.shape == (n, n_vars)  # Equation 4
        assert problem.a_ub.shape == (3 * k, n_vars)  # Eqs 10-12
        # The integrality vector marks exactly the n*k x variables.
        np.testing.assert_array_equal(problem.integrality[: n * k], 1.0)
        np.testing.assert_array_equal(problem.integrality[n * k :], 0.0)

    def test_objective_is_d_plus_g(self):
        stats = small_stats()
        problem = build_ilp(AnalyticalCostModel(stats, "hash", PARAMS))
        n_x = stats.n_units * stats.n_nodes
        np.testing.assert_array_equal(problem.c[:n_x], 0.0)
        np.testing.assert_array_equal(problem.c[n_x:], 1.0)

    @pytest.mark.parametrize("algorithm", ["merge", "hash"])
    def test_assignment_vector_is_feasible(self, algorithm, rng):
        stats = small_stats(seed=2)
        model = AnalyticalCostModel(stats, algorithm, PARAMS)
        problem = build_ilp(model)
        for _ in range(10):
            assignment = rng.integers(0, stats.n_nodes, stats.n_units)
            vector = assignment_to_vector(model, assignment)
            assert check_feasible(problem, vector)

    def test_vector_objective_matches_cost_model(self, rng):
        """d + g of the lifted vector equals the Equation-8 plan cost."""
        stats = small_stats(seed=3)
        model = AnalyticalCostModel(stats, "hash", PARAMS)
        problem = build_ilp(model)
        assignment = rng.integers(0, stats.n_nodes, stats.n_units)
        vector = assignment_to_vector(model, assignment)
        objective = float(problem.c @ vector)
        assert objective == pytest.approx(
            model.plan_cost(assignment).total_seconds
        )

    def test_tightened_d_g_infeasible(self, rng):
        """Shrinking d below the true alignment cost violates Eq 10/11."""
        stats = small_stats(seed=4)
        model = AnalyticalCostModel(stats, "merge", PARAMS)
        problem = build_ilp(model)
        assignment = rng.integers(0, stats.n_nodes, stats.n_units)
        vector = assignment_to_vector(model, assignment)
        d_index = stats.n_units * stats.n_nodes
        if vector[d_index] > 0:
            vector[d_index] *= 0.5
            assert not check_feasible(problem, vector)

    def test_lp_bound_below_any_assignment(self, rng):
        from scipy.optimize import linprog

        stats = small_stats(seed=5)
        model = AnalyticalCostModel(stats, "hash", PARAMS)
        problem = build_ilp(model)
        relaxed = linprog(
            problem.c,
            A_ub=problem.a_ub,
            b_ub=problem.b_ub,
            A_eq=problem.a_eq,
            b_eq=problem.b_eq,
            bounds=np.column_stack([np.zeros_like(problem.ub), problem.ub]),
            method="highs",
        )
        assert relaxed.success
        for _ in range(20):
            assignment = rng.integers(0, stats.n_nodes, stats.n_units)
            assert (
                relaxed.fun
                <= model.plan_cost(assignment).total_seconds + 1e-9
            )
