"""Integration tests: traced execution, explain-analyze, and metrics.

These run real joins through the executor with tracing/analyze enabled
and check that the observability layer sees the whole pipeline — plan
phases, the simulated shuffle's transfer events, worker batches — and
that the counters agree between the serial and parallel match paths.
"""

import json

import pytest

from repro.engine import ShuffleJoinExecutor
from repro.errors import ExecutionError
from repro.obs.trace import validate_chrome_trace

DD_QUERY = (
    "SELECT A.v1 - B.v1 AS d1 FROM A, B WHERE A.i = B.i AND A.j = B.j"
)


@pytest.fixture
def executor(small_cluster):
    # plan_cache_size > 0 so the serving-layer cache_lookup span fires.
    return ShuffleJoinExecutor(
        small_cluster, selectivity_hint=0.5, plan_cache_size=4
    )


class TestTracedExecution:
    def test_trace_attaches_spans_for_every_phase(self, executor):
        result = executor.execute(DD_QUERY, planner="baseline", trace=True)
        assert result.trace is not None
        names = {span.name for span in result.trace.spans}
        for expected in (
            "cache_lookup",
            "logical_plan",
            "slice_mapping",
            "physical_assign",
            "data_alignment",
            "cell_comparison",
        ):
            assert expected in names, f"missing span {expected}"
        # The shuffle schedule exports per-transfer spans onto per-
        # destination receive lanes.
        xfers = [s for s in result.trace.spans if s.name.startswith("xfer ")]
        assert xfers
        assert all(s.lane.startswith("net:recv n") for s in xfers)
        assert all(s.attrs.get("simulated") for s in xfers)

    def test_transfer_lanes_respect_write_lock(self, executor):
        """On one receive lane, spans never overlap (one writer per node)."""
        result = executor.execute(DD_QUERY, planner="baseline", trace=True)
        by_lane = {}
        for span in result.trace.spans:
            if span.name.startswith("xfer "):
                by_lane.setdefault(span.lane, []).append(span)
        assert by_lane
        for spans in by_lane.values():
            spans.sort(key=lambda s: s.start)
            for prev, cur in zip(spans, spans[1:]):
                assert cur.start >= prev.end - 1e-12

    def test_trace_path_writes_valid_chrome_json(self, executor, tmp_path):
        path = tmp_path / "query.trace.json"
        result = executor.execute(DD_QUERY, planner="baseline", trace=str(path))
        payload = json.loads(path.read_text())
        assert validate_chrome_trace(payload) == []
        n_complete = sum(
            1 for e in payload["traceEvents"] if e["ph"] == "X"
        )
        assert n_complete == len(result.trace)
        lanes = {
            e["args"]["name"] for e in payload["traceEvents"] if e["ph"] == "M"
        }
        assert any(lane.startswith("net:recv n") for lane in lanes)

    def test_parallel_execution_records_worker_batches(self, executor):
        result = executor.execute(
            DD_QUERY, planner="baseline", n_workers=2, trace=True
        )
        batches = [
            s for s in result.trace.spans if s.name.startswith("batch n")
        ]
        assert batches
        assert all(s.lane.startswith("worker:n") for s in batches)
        exported = result.trace.chrome_trace()["traceEvents"]
        lanes = {e["args"]["name"] for e in exported if e["ph"] == "M"}
        assert any(lane.startswith("worker:n") for lane in lanes)
        nested = {s.name for s in result.trace.spans if "/" in s.path}
        assert "match" in nested and "materialise" in nested

    def test_cache_lookup_span_reports_hit_and_miss(self, executor):
        cold = executor.execute(DD_QUERY, planner="baseline", trace=True)
        warm = executor.execute(DD_QUERY, planner="baseline", trace=True)

        def lookup_status(result):
            (span,) = [
                s for s in result.trace.spans if s.name == "cache_lookup"
            ]
            return span.attrs["status"]

        assert lookup_status(cold) == "miss"
        assert lookup_status(warm) == "hit"

    def test_tracer_off_by_default(self, executor):
        result = executor.execute(DD_QUERY, planner="baseline")
        assert result.trace is None
        assert not executor.tracer.enabled


class TestExplainAnalyze:
    def test_report_per_node_shapes(self, executor, small_cluster):
        report = executor.explain_analyze(DD_QUERY, planner="baseline")
        assert report.n_nodes == small_cluster.n_nodes
        assert len(report.nodes) == small_cluster.n_nodes
        assert report.predicted_total_seconds > 0
        assert report.actual_total_seconds > 0
        assert sum(n.output_cells for n in report.nodes) == (
            report.result.array.n_cells
        )
        text = report.describe()
        assert "EXPLAIN ANALYZE" in text
        assert "totals: predicted=" in text

    def test_predictions_match_cost_model_totals(self, executor):
        report = executor.explain_analyze(DD_QUERY, planner="baseline")
        # Actual cells sent/received over the simulated network must
        # agree with the plan's assignment-level totals: the model and
        # the shuffle walk the same assignment.
        assert sum(n.pred_send_cells for n in report.nodes) == sum(
            n.actual_sent_cells for n in report.nodes
        )
        assert sum(n.pred_recv_cells for n in report.nodes) == sum(
            n.actual_recv_cells for n in report.nodes
        )

    def test_analyze_without_flag_has_no_profile(self, executor):
        result = executor.execute(DD_QUERY, planner="baseline")
        assert result.report.node_profile is None
        with pytest.raises(ExecutionError):
            from repro.obs.explain_analyze import ExplainAnalyzeReport

            ExplainAnalyzeReport.from_result(result)

    def test_analyze_works_on_cache_hit(self, executor):
        executor.execute(DD_QUERY, planner="baseline")
        report = executor.explain_analyze(DD_QUERY, planner="baseline")
        assert report.nodes
        assert report.predicted_total_seconds > 0


class TestMetricsCounters:
    def test_execution_populates_registry(self, executor):
        result = executor.execute(DD_QUERY, planner="baseline")
        snap = executor.metrics.snapshot()
        counters = snap["counters"]
        assert counters["queries_executed"] == 1
        assert counters["matches_emitted"] == result.array.n_cells
        assert counters["cells_shuffled"] == result.report.cells_moved
        assert counters["join_units_matched"] == result.report.n_units

    def test_serial_and_parallel_counters_agree(self, small_cluster):
        serial = ShuffleJoinExecutor(small_cluster, selectivity_hint=0.5)
        parallel = ShuffleJoinExecutor(small_cluster, selectivity_hint=0.5)
        serial.execute(DD_QUERY, planner="baseline")
        parallel.execute(DD_QUERY, planner="baseline", n_workers=2)
        keys = (
            "join_units_matched",
            "cells_compared",
            "matched_pairs",
            "cells_emitted",
        )
        s = serial.metrics.snapshot()["counters"]
        p = parallel.metrics.snapshot()["counters"]
        for key in keys:
            assert s[key] == p[key], key
        assert "batches" in p and "batches" not in s
