"""Session-level plan-cache behaviour: warm hits, stale-data misses."""

import numpy as np
import pytest

from repro.adm.cells import CellSet
from repro.errors import ExecutionError
from repro.session import Session

QUERY = "SELECT A.v, B.v FROM A JOIN B ON A.i = B.i AND A.j = B.j"


def sample_cells(seed, n=300, extent=64):
    gen = np.random.default_rng(seed)
    coords = np.unique(gen.integers(1, extent + 1, size=(n, 2)), axis=0)
    return CellSet(coords, {"v": gen.integers(0, 20, len(coords))})


def sorted_cell_bytes(result):
    packed = result.cells.to_structured(sorted(result.cells.attrs))
    return np.sort(packed).tobytes()


@pytest.fixture
def session():
    session = Session(n_nodes=3, selectivity_hint=0.3)
    session.create_and_load("A<v:int64>[i=1,64,8, j=1,64,8]", sample_cells(1))
    session.create_and_load("B<v:int64>[i=1,64,8, j=1,64,8]", sample_cells(2))
    return session


def run(session, **options):
    return session.execute(QUERY, planner="tabu", **options)


def cache_status(result):
    return result.report.cache.get("status")


class TestWarmPath:
    def test_first_miss_then_hits(self, session):
        assert cache_status(run(session)) == "miss"
        second = run(session)
        third = run(session)
        assert cache_status(second) == "hit"
        assert cache_status(third) == "hit"
        stats = session.plan_cache.stats()
        assert (stats["misses"], stats["hits"], stats["entries"]) == (1, 2, 1)

    def test_noop_statements_keep_hit(self, session):
        cold = run(session)
        session.execute("ANALYZE A")  # stats refresh reads, never writes
        session.validate("A")
        session.describe("A")
        warm = run(session)
        assert cache_status(warm) == "hit"
        assert sorted_cell_bytes(warm) == sorted_cell_bytes(cold)

    def test_warm_hit_skips_planning_phases(self, session):
        run(session)
        warm = run(session)
        assert set(warm.report.prepare_breakdown) == {"cache_lookup"}

    def test_use_cache_false_bypasses(self, session):
        cold = run(session)
        bypass = run(session, use_cache=False)
        assert bypass.report.cache == {}
        assert sorted_cell_bytes(bypass) == sorted_cell_bytes(cold)
        # ... and did not disturb the cached entry
        assert cache_status(run(session)) == "hit"

    def test_cache_disabled_session(self):
        session = Session(n_nodes=3, plan_cache_size=0)
        session.create_and_load(
            "A<v:int64>[i=1,64,8, j=1,64,8]", sample_cells(1)
        )
        session.create_and_load(
            "B<v:int64>[i=1,64,8, j=1,64,8]", sample_cells(2)
        )
        assert session.plan_cache is None
        assert run(session).report.cache == {}


class TestInvalidation:
    @pytest.mark.parametrize("target", ["A", "B"])
    def test_load_either_input_misses_and_recomputes(self, session, target):
        run(session)
        session.load(target, sample_cells(7, n=120))
        stale_aware = run(session)
        assert cache_status(stale_aware) == "miss"
        # the recomputed plan must reflect the new data, not the old plan:
        fresh = run(session, use_cache=False)
        assert sorted_cell_bytes(stale_aware) == sorted_cell_bytes(fresh)

    def test_rebalance_misses(self, session):
        run(session)
        session.rebalance("A")
        assert session.plan_cache.stats()["entries"] == 0  # eager purge
        assert cache_status(run(session)) == "miss"

    def test_loads_purge_superseded_plans(self, session):
        """Every load bumps A's version, so the plans over older versions
        can never hit again: only current-version entries may remain,
        and a plan that does not read A keeps hitting."""
        session.create_and_load(
            "C<v:int64>[i=1,64,8, j=1,64,8]", sample_cells(5)
        )
        other = "SELECT B.v, C.v FROM B JOIN C ON B.i = C.i AND B.j = C.j"
        session.execute(other, planner="tabu")
        for seed in range(7, 12):
            run(session)
            session.load("A", sample_cells(seed, n=120))
        assert cache_status(run(session)) == "miss"
        assert session.plan_cache.stats()["entries"] == 2
        assert cache_status(session.execute(other, planner="tabu")) == "hit"

    def test_drop_restore_misses(self, session, tmp_path):
        cold = run(session)
        path = tmp_path / "a.adm"
        session.save("A", path)
        session.execute("DROP ARRAY A")
        assert session.plan_cache.stats()["entries"] == 0  # eager purge
        session.restore(path, name="A")
        revived = run(session)
        assert cache_status(revived) == "miss"
        assert sorted_cell_bytes(revived) == sorted_cell_bytes(cold)

    def test_direct_storage_write_misses(self, session):
        run(session)
        # a write that bypasses the catalog still flips the storage epoch
        node = next(
            node for node in session.cluster.nodes if node.has_array("A")
        )
        chunk = next(iter(node.store("A").chunks.values()))
        node.put_chunk("A", chunk)
        assert cache_status(run(session)) == "miss"

    def test_unrelated_array_does_not_invalidate(self, session):
        run(session)
        session.create_and_load(
            "C<v:int64>[i=1,64,8, j=1,64,8]", sample_cells(5)
        )
        assert cache_status(run(session)) == "hit"

    def test_invalidate_cached_plans_api(self, session):
        run(session)
        assert session.executor.invalidate_cached_plans("A") == 1
        assert cache_status(run(session)) == "miss"


class TestOptionValidation:
    def test_unknown_join_option_raises(self, session):
        with pytest.raises(ExecutionError, match="unknown query option"):
            run(session, plannner="tabu")  # typo must not be dropped

    def test_error_lists_accepted_options(self, session):
        with pytest.raises(ExecutionError, match="use_cache"):
            run(session, bogus=True)

    def test_options_on_ddl_raise(self, session):
        with pytest.raises(ExecutionError, match="do not apply"):
            session.execute("ANALYZE A", planner="tabu")
        with pytest.raises(ExecutionError, match="do not apply"):
            session.execute(
                "CREATE ARRAY D<v:int64>[i=1,8,8]", store_result=True
            )

    def test_valid_options_accepted(self, session):
        result = session.execute(
            QUERY, planner="mbh", join_algo="hash", n_workers=None,
            use_cache=True, store_result=False,
        )
        assert result.report.planner == "mbh"
