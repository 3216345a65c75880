"""Whole-pipeline plan caching: fingerprints, warm replay, invalidation.

A multi-join statement is fingerprinted over its canonical text plus
every base array's ``uid.version.epoch@schema`` token. A warm hit must
replay only the final cached stage, byte-identical to the cold run; any
write to any base array — a catalog-level load *or* a storage-level
``put_chunk`` — must flip the next execution back to a miss.
"""

import numpy as np
import pytest

from repro.adm.cells import CellSet
from repro.adm.chunk import Chunk
from repro.query.aql import parse_aql
from repro.serve.fingerprint import canonical_query, plan_fingerprint
from repro.session import Session

PLANNERS = ("baseline", "mbh", "tabu", "ilp_coarse")

CHAIN_QUERY = (
    "SELECT A.k1, C.k2 FROM A, B, C WHERE A.k1 = B.k1 AND B.k2 = C.k2"
)


def sample_cells(rng, n, k_range=20):
    coords = np.unique(rng.integers(1, 33, size=(n, 2)), axis=0)
    return CellSet(
        coords,
        {
            "k1": rng.integers(0, k_range, len(coords)),
            "k2": rng.integers(0, k_range, len(coords)),
        },
    )


@pytest.fixture
def session():
    rng = np.random.default_rng(13)
    session = Session(n_nodes=3)
    for name, n in (("A", 250), ("B", 120), ("C", 300)):
        session.create_and_load(
            f"{name}<k1:int64, k2:int64>[i=1,32,8, j=1,32,8]",
            sample_cells(rng, n),
        )
    return session


def sorted_cell_bytes(result):
    packed = result.cells.to_structured(sorted(result.cells.attrs))
    return np.sort(packed).tobytes()


class TestWarmEqualsCold:
    @pytest.mark.parametrize("planner", PLANNERS)
    def test_warm_byte_identical_and_final_stage_only(self, session, planner):
        cold = session.execute(CHAIN_QUERY, planner=planner)
        warm = session.execute(CHAIN_QUERY, planner=planner)
        replan = session.execute(CHAIN_QUERY, planner=planner, use_cache=False)

        assert cold.report.cache.get("status") == "miss"
        assert warm.report.cache.get("status") == "hit"
        assert replan.report.cache == {}

        # Cold runs every stage; warm replays only the final cached stage.
        assert len(cold.stage_results) == len(cold.plan.steps)
        assert len(warm.stage_results) == 1
        assert warm.report.meta["stages_cached"] == len(cold.plan.steps)
        stats = session.plan_cache.stats()
        assert (stats["misses"], stats["hits"], stats["entries"]) == (1, 1, 1)

        cold_bytes = sorted_cell_bytes(cold)
        assert sorted_cell_bytes(warm) == cold_bytes
        assert sorted_cell_bytes(replan) == cold_bytes

    def test_use_cache_false_never_populates(self, session):
        session.execute(CHAIN_QUERY, planner="mbh", use_cache=False)
        assert session.executor.plan_cache.stats()["entries"] == 0
        # The next cached execution is still a genuine miss.
        cold = session.execute(CHAIN_QUERY, planner="mbh")
        assert cold.report.cache.get("status") == "miss"

    def test_planner_is_part_of_the_fingerprint(self, session):
        session.execute(CHAIN_QUERY, planner="mbh")
        other = session.execute(CHAIN_QUERY, planner="tabu")
        assert other.report.cache.get("status") == "miss"


class TestInvalidation:
    def test_load_on_base_array_invalidates(self, session):
        session.execute(CHAIN_QUERY, planner="mbh")
        rng = np.random.default_rng(99)
        session.load("B", sample_cells(rng, 40))
        again = session.execute(CHAIN_QUERY, planner="mbh")
        assert again.report.cache.get("status") == "miss"

    def test_storage_epoch_bump_invalidates(self, session):
        session.execute(CHAIN_QUERY, planner="mbh")
        # A storage-level write that bypasses the catalog version counter:
        # the fingerprint's epoch component must still catch it.
        node = session.cluster.nodes[0]
        schema = session.cluster.schema("C")
        chunk_id = next(iter(node.local_chunk_sizes("C")))
        corner = schema.chunk_corner(chunk_id)
        node.put_chunk(
            "C",
            Chunk(
                chunk_id=chunk_id,
                corner=corner,
                cells=CellSet(
                    np.array([corner], dtype=np.int64) + 1,
                    {
                        "k1": np.array([5], dtype=np.int64),
                        "k2": np.array([5], dtype=np.int64),
                    },
                ),
            ),
        )
        again = session.execute(CHAIN_QUERY, planner="mbh")
        assert again.report.cache.get("status") == "miss"

    def test_unrelated_array_load_keeps_hit(self, session):
        rng = np.random.default_rng(7)
        session.create_and_load(
            "Z<k1:int64, k2:int64>[i=1,32,8, j=1,32,8]",
            sample_cells(rng, 50),
        )
        session.execute(CHAIN_QUERY, planner="mbh")
        session.load("Z", sample_cells(rng, 10))
        warm = session.execute(CHAIN_QUERY, planner="mbh")
        assert warm.report.cache.get("status") == "hit"


class TestFingerprintGrammar:
    def test_canonical_multiway_statement(self):
        query = parse_aql(CHAIN_QUERY)
        text = canonical_query(query)
        assert "FROM A, B, C" in text

    def test_fingerprint_covers_every_base_array(self, session):
        query = parse_aql(CHAIN_QUERY)
        fingerprint = plan_fingerprint(
            query, session.cluster, "tabu", None, {}
        )
        for index, name in enumerate(("A", "B", "C")):
            assert f"array{index}={name}#" in fingerprint.text

    def test_distinct_statements_distinct_fingerprints(self, session):
        base = parse_aql(CHAIN_QUERY)
        reordered = parse_aql(
            "SELECT C.k2, A.k1 FROM A, B, C "
            "WHERE A.k1 = B.k1 AND B.k2 = C.k2"
        )
        fp = plan_fingerprint(base, session.cluster, "tabu", None, {})
        fp2 = plan_fingerprint(reordered, session.cluster, "tabu", None, {})
        assert fp.key != fp2.key


class TestExplainPaths:
    def test_explain_reports_dp_order_and_cache_state(self, session):
        report = session.explain(CHAIN_QUERY, planner="mbh")
        text = report.describe()
        assert "join order" in text
        assert "pipeline plan cache: miss" in text
        session.execute(CHAIN_QUERY, planner="mbh")
        warmed = session.explain(CHAIN_QUERY, planner="mbh")
        assert "pipeline plan cache: hit" in warmed.describe()
        # EXPLAIN itself must never populate the cache.
        assert session.executor.plan_cache.stats()["entries"] == 1

    def test_explain_analyze_per_stage_predictions(self, session):
        report = session.explain_analyze(CHAIN_QUERY, planner="mbh")
        text = report.describe()
        assert "EXPLAIN ANALYZE [multi-join" in text
        assert "estimated" in text and "observed" in text
        assert len(report.stages) == len(report.plan.steps)
        # Warm rerun: only the final stage re-executes, and the report
        # says so.
        warmed = session.explain_analyze(CHAIN_QUERY, planner="mbh")
        assert warmed.stages_cached == len(report.plan.steps)
        assert len(warmed.stages) == 1
        assert "pipeline cache hit" in warmed.describe()
