"""Tests for AFL parsing and execution."""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.engine import ShuffleJoinExecutor
from repro.engine.afl_runner import AflRunner
from repro.errors import ExecutionError, ParseError, PlanningError
from repro.query.afl import parse_afl


class TestParseAfl:
    def test_bare_name_is_scan(self):
        node = parse_afl("A")
        assert node.op == "scan"
        assert node.args == ("A",)

    def test_paper_merge_redim(self):
        node = parse_afl(
            "merge(A, redim(B, <v1:int64, v2:float64>[i=1,6,3, j=1,6,3]))"
        )
        assert node.op == "mergeJoin"
        assert node.args[0] == "A"  # bare operand: implicit scan
        redim = node.args[1]
        assert redim.op == "redim"
        assert redim.args[1].dim_names == ("i", "j")

    def test_filter_expression(self):
        node = parse_afl("filter(A, v1 > 5)")
        assert node.op == "filter"
        assert node.args[1].render() == "(v1 > 5)"

    def test_hash_join_with_fields(self):
        node = parse_afl("hashJoin(hash(A, v1, v2), hash(B, v1, v2))")
        assert node.args[0].op == "hash"
        assert node.args[0].args[1:] == ("v1", "v2")

    def test_case_insensitive_aliases(self):
        assert parse_afl("MERGE(A, B)").op == "mergeJoin"
        assert parse_afl("redimension(A, <v:int64>[i=1,4,2])").op == "redim"

    def test_render_parse_roundtrip(self):
        text = "sort(rechunk(scan(A), <v:int64>[k=1,4,2]))"
        assert parse_afl(text).render() == text

    def test_unknown_operator(self):
        with pytest.raises(ParseError):
            parse_afl("teleport(A)")

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            parse_afl("merge(A, B")


@pytest.fixture
def runner(small_cluster):
    executor = ShuffleJoinExecutor(small_cluster, selectivity_hint=0.5)
    return AflRunner(executor)


class TestRunnerUnaryOps:
    def test_scan(self, runner, small_cluster):
        result = runner.run("scan(A)")
        assert result.n_cells == small_cluster.array_cell_count("A")

    def test_paper_filter(self, runner):
        result = runner.run("filter(A, v1 > 5)")
        assert (result.cells().attrs["v1"] > 5).all()

    def test_project(self, runner):
        result = runner.run("project(A, v1)")
        assert result.schema.attr_names == ("v1",)

    def test_project_unknown(self, runner):
        with pytest.raises(ExecutionError):
            runner.run("project(A, nope)")

    def test_redim_composition(self, runner, small_cluster):
        result = runner.run(
            "redim(filter(A, v1 > 40), <v1:int64, i:int64, j:int64>[v2=0,49,10])"
        )
        assert result.schema.dim_names == ("v2",)
        assert result.n_cells > 0

    def test_sort(self, runner):
        result = runner.run("sort(A)")
        for chunk in result.chunks.values():
            assert chunk.cells.is_c_ordered()


class TestRunnerJoins:
    def test_merge_join_matches_aql(self, runner, small_cluster):
        afl_result = runner.run("merge(A, B)")
        executor = ShuffleJoinExecutor(small_cluster, selectivity_hint=0.5)
        aql_result = executor.execute(
            "SELECT * FROM A, B WHERE A.i = B.i AND A.j = B.j",
            join_algo="merge",
        )
        assert afl_result.n_cells == aql_result.array.n_cells

    @staticmethod
    def _attribute_join_cells(cluster) -> int:
        from collections import Counter

        count_a = Counter(cluster.array_cells("A").attrs["v1"].tolist())
        count_b = Counter(cluster.array_cells("B").attrs["v1"].tolist())
        return sum(count_a[v] * count_b[v] for v in count_a)

    def test_hash_join_on_attributes(self, runner, small_cluster):
        result = runner.run("hashJoin(hash(A, v1), hash(B, v1))")
        assert result.n_cells == self._attribute_join_cells(small_cluster)

    def test_nested_loop_join_on_attributes(self, runner, dd_pair):
        statement = "nestedLoopJoin(hash(A, v1), hash(B, v1))"
        # The physical planners do not model the nested loop join, so the
        # executor refuses it across nodes and runs it on a single node.
        with pytest.raises(PlanningError, match="nested loop"):
            runner.run(statement)
        single = Cluster(n_nodes=1)
        for array in dd_pair:
            single.load_array(array)
        result = AflRunner(ShuffleJoinExecutor(single)).run(statement)
        assert result.n_cells == self._attribute_join_cells(single)

    def test_temporaries_cleaned_up(self, runner, small_cluster):
        before = set(small_cluster.catalog.array_names())
        runner.run("merge(A, B)")
        assert set(small_cluster.catalog.array_names()) == before

    def test_mismatched_fields_rejected(self, runner):
        with pytest.raises(ExecutionError):
            runner.run("hashJoin(hash(A, v1, v2), hash(B, v1))")


class TestCross:
    def test_cartesian_product(self, runner, small_cluster):
        result = runner.run("cross(filter(A, v1 = 0), filter(B, v1 = 0))")
        n_a = runner.run("filter(A, v1 = 0)").n_cells
        n_b = runner.run("filter(B, v1 = 0)").n_cells
        assert result.n_cells == n_a * n_b
        assert result.schema.is_dimensionless()
        assert "A_i" in result.schema.attr_names
        assert "B_v1" in result.schema.attr_names

    def test_guard_trips(self, runner):
        with pytest.raises(ExecutionError):
            runner.run("cross(A, cross(A, B))")
