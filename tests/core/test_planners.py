"""Unit tests for the five physical planners (Section 5.2)."""

import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.cost_model import AnalyticalCostModel, CostParams
from repro.core.planners import PLANNER_NAMES, get_planner
from repro.core.planners.coarse import pack_bins
from repro.core.planners.ilp import MIP_REL_GAP
from repro.core.slices import SliceStats
from repro.errors import PlanningError, SolverError

REPO_ROOT = Path(__file__).resolve().parents[2]

PARAMS = CostParams(m=1e-6, b=4e-6, p=1e-6, t=5e-6)


def skewed_stats(n_units=48, n_nodes=4, alpha=1.2, seed=0):
    gen = np.random.default_rng(seed)
    sizes = (20_000 / np.arange(1, n_units + 1) ** alpha).astype(np.int64) + 1
    left = np.zeros((n_units, n_nodes), dtype=np.int64)
    right = np.zeros((n_units, n_nodes), dtype=np.int64)
    for i in range(n_units):
        left[i] = gen.multinomial(sizes[i], gen.dirichlet(np.ones(n_nodes)))
        right[i] = gen.multinomial(
            max(sizes[i] // 3, 1), gen.dirichlet(np.ones(n_nodes))
        )
    return SliceStats(left, right)


@pytest.fixture(scope="module")
def model():
    return AnalyticalCostModel(skewed_stats(), "hash", PARAMS)


class TestRegistry:
    def test_all_names(self):
        assert set(PLANNER_NAMES) == {
            "baseline", "ilp", "ilp_coarse", "mbh", "tabu",
        }

    def test_unknown_rejected(self):
        with pytest.raises(PlanningError):
            get_planner("quantum")


class TestAssignmentsAreValid:
    @pytest.mark.parametrize("name", PLANNER_NAMES)
    def test_every_unit_assigned_once(self, name, model):
        kwargs = {"time_budget_s": 2.0} if "ilp" in name else {}
        plan = get_planner(name, **kwargs).plan(model)
        assert plan.assignment.shape == (model.stats.n_units,)
        assert plan.assignment.min() >= 0
        assert plan.assignment.max() < model.stats.n_nodes
        assert plan.plan_seconds >= 0.0


class TestMbh:
    def test_minimises_cells_moved(self, model):
        """No planner can move fewer cells than center-of-gravity
        assignment (Equation 9's optimality claim)."""
        stats = model.stats
        mbh_plan = get_planner("mbh").plan(model)

        def moved(assignment):
            rows = np.arange(stats.n_units)
            local = stats.s_total[rows, assignment]
            return int((stats.unit_totals - local).sum())

        mbh_moved = moved(mbh_plan.assignment)
        gen = np.random.default_rng(0)
        for _ in range(25):
            other = gen.integers(0, stats.n_nodes, stats.n_units)
            assert moved(other) >= mbh_moved

    def test_single_unit_reassignment_never_reduces_movement(self, model):
        stats = model.stats
        assignment = get_planner("mbh").plan(model).assignment
        rows = np.arange(stats.n_units)
        local = stats.s_total[rows, assignment]
        best_possible = stats.s_total.max(axis=1)
        np.testing.assert_array_equal(local, best_possible)


class TestTabu:
    def test_never_worse_than_mbh(self, model):
        mbh_cost = get_planner("mbh").plan(model).cost.total_seconds
        tabu_cost = get_planner("tabu").plan(model).cost.total_seconds
        assert tabu_cost <= mbh_cost + 1e-12

    def test_improves_under_comp_imbalance(self):
        """All units pile on node 0's storage: MBH sends everything to
        node 0; Tabu must spread the comparison load."""
        left = np.zeros((24, 4), dtype=np.int64)
        left[:, 0] = 1000
        left[:, 1:] = 10
        stats = SliceStats(left, left // 2)
        model = AnalyticalCostModel(stats, "hash", PARAMS)
        mbh = get_planner("mbh").plan(model)
        tabu = get_planner("tabu").plan(model)
        assert tabu.cost.compare_seconds < mbh.cost.compare_seconds
        assert tabu.cost.total_seconds < mbh.cost.total_seconds
        assert len(set(tabu.assignment)) > 1

    def test_moves_recorded(self, model):
        plan = get_planner("tabu").plan(model)
        assert plan.meta["moves"] >= 0
        assert plan.meta["final_cost"] == pytest.approx(
            plan.cost.total_seconds
        )


class TestBaseline:
    def test_merge_anchors_to_larger_array(self):
        left = np.diag([100, 200]).astype(np.int64)
        right = np.array([[0, 5], [5, 0]], dtype=np.int64)
        stats = SliceStats(left, right)
        model = AnalyticalCostModel(stats, "merge", PARAMS)
        plan = get_planner("baseline").plan(model)
        # Left is larger: units stay where the left chunks are.
        np.testing.assert_array_equal(plan.assignment, [0, 1])
        assert plan.meta["anchor_side"] == "left"

    def test_merge_falls_back_for_missing_units(self):
        left = np.array([[50, 0], [0, 0]], dtype=np.int64)
        right = np.array([[0, 5], [0, 7]], dtype=np.int64)
        stats = SliceStats(left, right)
        model = AnalyticalCostModel(stats, "merge", PARAMS)
        plan = get_planner("baseline").plan(model)
        assert plan.assignment[1] == 1  # right side's location

    def test_hash_blocks(self):
        stats = skewed_stats(n_units=10, n_nodes=3)
        model = AnalyticalCostModel(stats, "hash", PARAMS)
        plan = get_planner("baseline").plan(model)
        np.testing.assert_array_equal(
            plan.assignment, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]
        )


class TestCoarsePacking:
    def test_pack_respects_bin_budget(self):
        stats = skewed_stats(n_units=100, n_nodes=4, seed=2)
        labels, n_bins = pack_bins(stats, 20)
        assert n_bins <= 20
        assert labels.min() >= 0
        assert labels.max() < n_bins

    def test_bins_share_center_of_gravity(self):
        stats = skewed_stats(n_units=100, n_nodes=4, seed=3)
        labels, n_bins = pack_bins(stats, 20)
        centers = stats.center_of_gravity()
        for bin_id in range(n_bins):
            members = np.flatnonzero(labels == bin_id)
            assert len(set(centers[members])) <= 1

    def test_more_bins_than_units(self):
        stats = skewed_stats(n_units=10, n_nodes=4)
        labels, n_bins = pack_bins(stats, 75)
        assert n_bins <= 75
        assert len(np.unique(labels)) <= n_bins


class TestIlpPlanners:
    def test_ilp_beats_or_matches_baseline(self, model):
        baseline = get_planner("baseline").plan(model).cost.total_seconds
        ilp = get_planner("ilp", time_budget_s=3.0).plan(model)
        assert ilp.cost.total_seconds <= baseline + 1e-9
        assert ilp.meta["status"] in ("optimal", "feasible")

    def test_coarse_runs_within_budget_and_is_sane(self, model):
        plan = get_planner("ilp_coarse", n_bins=20, time_budget_s=2.0).plan(model)
        assert plan.meta["n_bins"] <= 20
        baseline = get_planner("baseline").plan(model).cost.total_seconds
        assert plan.cost.total_seconds <= baseline * 1.5

    def test_invalid_budget(self):
        with pytest.raises(SolverError):
            get_planner("ilp", time_budget_s=0.0)


def assignment_digest(assignment) -> str:
    """md5 of the assignment bytes: stable across processes, unlike hash()."""
    return hashlib.md5(np.asarray(assignment, dtype=np.int64).tobytes()).hexdigest()


_DIGEST_SCRIPT = """
from repro.core.cost_model import AnalyticalCostModel
from repro.core.planners import get_planner
from tests.core.test_planners import PARAMS, assignment_digest, skewed_stats
model = AnalyticalCostModel(skewed_stats(), "hash", PARAMS)
print(assignment_digest(get_planner("ilp", time_budget_s=5.0).plan(model).assignment))
"""


class TestIlpSolver:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("algorithm", ["merge", "hash"])
    def test_matches_brute_force_optimum(self, algorithm, seed):
        """Enumerate all 3^9 assignments: the ILP plan is optimal to its gap."""
        n, k = 9, 3
        model = AnalyticalCostModel(
            skewed_stats(n_units=n, n_nodes=k, seed=seed), algorithm, PARAMS
        )
        optimum = min(
            model.plan_cost(np.array(assignment)).total_seconds
            for assignment in itertools.product(range(k), repeat=n)
        )
        plan = get_planner("ilp").plan(model)
        assert plan.cost.total_seconds <= optimum * (1 + MIP_REL_GAP)

    def test_plan_is_deterministic(self, model):
        """Solved by work, not by the clock: the same plan in every process."""
        plans = [get_planner("ilp", time_budget_s=5.0).plan(model) for _ in range(2)]
        for plan in plans:
            assert plan.meta["status"] == "optimal"
            assert plan.meta["budget_hit"] is False
        digests = {assignment_digest(plan.assignment) for plan in plans}
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT), env.get("PYTHONPATH", "")]
        )
        for _ in range(2):
            out = subprocess.run(
                [sys.executable, "-c", _DIGEST_SCRIPT],
                env=env, cwd=REPO_ROOT, capture_output=True, text=True,
                check=True, timeout=120,
            )
            digests.add(out.stdout.strip())
        assert len(digests) == 1


def loop_built_ilp_rows(model):
    """Equations 10-12 built one coefficient at a time (dense reference)."""
    stats = model.stats
    n, k = stats.n_units, stats.n_nodes
    s_total = stats.s_total.astype(np.float64)
    unit_totals = stats.unit_totals.astype(np.float64)
    t = model.params.t
    d_idx, g_idx = n * k, n * k + 1
    a_ub = np.zeros((3 * k, n * k + 2))
    b_ub = np.zeros(3 * k)
    for j in range(k):
        send, recv, compare = 3 * j, 3 * j + 1, 3 * j + 2
        for i in range(n):
            a_ub[send, i * k + j] = -t * s_total[i, j]
            a_ub[recv, i * k + j] = t * (unit_totals[i] - s_total[i, j])
            a_ub[compare, i * k + j] = model.unit_costs[i]
        a_ub[send, d_idx] = a_ub[recv, d_idx] = a_ub[compare, g_idx] = -1.0
        b_ub[send] = -t * s_total[:, j].sum()
    return a_ub, b_ub


class TestIlpFormulation:
    @pytest.mark.parametrize("algorithm", ["merge", "hash"])
    def test_rows_equal_loop_reference(self, algorithm):
        from repro.core.planners.ilp import build_ilp

        model = AnalyticalCostModel(skewed_stats(), algorithm, PARAMS)
        form = build_ilp(model)
        a_ub, b_ub = loop_built_ilp_rows(model)
        np.testing.assert_array_equal(form.a_ub.toarray(), a_ub)
        np.testing.assert_array_equal(form.b_ub, b_ub)
        # Zero coefficients stay out of the sparse rows.
        assert form.a_ub.nnz == np.count_nonzero(a_ub)


_CONSTRUCT_SCRIPT = """
import sys
from repro.core.planners import get_planner
assert "scipy.optimize" not in sys.modules
get_planner({name!r})
print("scipy.optimize" in sys.modules)
"""


@pytest.mark.parametrize("name", ["ilp", "ilp_coarse"])
def test_constructing_an_ilp_planner_loads_the_solver(name):
    """The import happens at construction, outside any plan's timer."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
    )
    out = subprocess.run(
        [sys.executable, "-c", _CONSTRUCT_SCRIPT.format(name=name)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "True"
