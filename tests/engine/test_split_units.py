"""Skew splitting end to end: split plans never change results.

The ``split_units`` knob subdivides heavy join units — at plan time by
key-range cuts (``static``), plus at run time by zero-copy row-range
halving on the shared-memory path (``adaptive``). Whatever it decides,
the output must stay byte-identical to the unsplit serial reference
across join algorithms, planners, and execution backends; the knob is
plan-affecting, so it must separate plan-cache fingerprints.
"""

import numpy as np
import pytest

from repro.bench.experiments import HASH_QUERY, MERGE_QUERY, make_cluster
from repro.engine import ShuffleJoinExecutor
from repro.engine.parallel import shutdown_pools
from repro.errors import ExecutionError
from repro.workloads.synthetic import skewed_hash_pair, skewed_merge_pair

PLANNERS = ["baseline", "mbh", "tabu", "ilp_coarse"]

#: (split_units, parallel_mode, n_workers) execution backends to pit
#: against the unsplit serial reference.
CONFIGS = [
    ("static", "thread", 1),
    ("adaptive", "thread", 1),
    ("static", "thread", 4),
    ("static", "process", 4),
    ("adaptive", "process", 4),
]


def sorted_cell_bytes(result) -> bytes:
    packed = result.cells.to_structured(sorted(result.cells.attrs))
    return np.sort(packed).tobytes()


@pytest.fixture(scope="module")
def merge_cluster():
    """Chunk-unit workload: hot chunks hold many distinct keys, so the
    plan-time splitter has interior key boundaries to cut at."""
    array_a, array_b = skewed_merge_pair(1.5, cells_per_array=25_000, seed=5)
    return make_cluster([array_a, array_b], 4, seed=0)


@pytest.fixture(scope="module")
def hash_cluster():
    """Hash-bucket workload: each heavy bucket is one hot key, so the
    plan-time splitter declines and only the run-time re-splitter can
    break the straggler up."""
    array_a, array_b = skewed_hash_pair(1.5, cells_per_array=25_000, seed=5)
    return make_cluster([array_a, array_b], 4, seed=0, placement="block")


def _executor(cluster, selectivity, mode="thread", workers=1, **kwargs):
    kwargs.setdefault("packed_keys", True)
    return ShuffleJoinExecutor(
        cluster,
        selectivity_hint=selectivity,
        n_workers=workers,
        parallel_mode=mode,
        **kwargs,
    )


class TestSplitUnsplitEquivalence:
    @pytest.mark.parametrize("planner", PLANNERS)
    def test_merge_workload_all_backends(self, merge_cluster, planner):
        reference = _executor(merge_cluster, 0.25).execute(
            MERGE_QUERY, planner=planner, join_algo="merge"
        )
        expected = sorted_cell_bytes(reference)
        split_seen = 0
        for split, mode, workers in CONFIGS:
            executor = _executor(
                merge_cluster, 0.25, mode=mode, workers=workers,
                split_units=split,
            )
            result = executor.execute(
                MERGE_QUERY, planner=planner, join_algo="merge"
            )
            assert sorted_cell_bytes(result) == expected, (split, mode, workers)
            split_seen = max(
                split_seen, result.report.meta.get("units_split", 0)
            )
        # The hot chunks are multi-key: plan-time splitting must have
        # actually fired, or this test proved nothing.
        assert split_seen > 0

    @pytest.mark.parametrize("planner", PLANNERS)
    def test_hash_workload_all_backends(self, hash_cluster, planner):
        reference = _executor(hash_cluster, 0.0001, n_buckets=1024).execute(
            HASH_QUERY, planner=planner, join_algo="hash"
        )
        # The codec must engage on the skewed hash keys, or the run-time
        # re-splitter (packed columns only) has nothing to work on.
        assert reference.report.meta.get("packed_keys") is True
        expected = sorted_cell_bytes(reference)
        for split, mode, workers in CONFIGS:
            executor = _executor(
                hash_cluster, 0.0001, mode=mode, workers=workers,
                split_units=split, n_buckets=1024,
            )
            result = executor.execute(
                HASH_QUERY, planner=planner, join_algo="hash"
            )
            assert sorted_cell_bytes(result) == expected, (split, mode, workers)

    def test_adaptive_resplits_the_hot_bucket(self, hash_cluster, monkeypatch):
        """The single-hot-key straggler defeats key-range cuts; the
        run-time row-halving must pick it up on the shm path."""
        import repro.engine.parallel as parallel

        # Adaptive dispatch gates itself off when the host grants a
        # single effective slot; pretend the CPUs are there so the
        # resplitter is exercised on any machine.
        monkeypatch.setattr(parallel, "available_cpus", lambda: 4)
        serial = _executor(hash_cluster, 0.0001, n_buckets=1024).execute(
            HASH_QUERY, planner="tabu", join_algo="hash"
        )
        adaptive = _executor(
            hash_cluster, 0.0001, mode="process", workers=4,
            split_units="adaptive", n_buckets=1024,
        ).execute(HASH_QUERY, planner="tabu", join_algo="hash")
        meta = adaptive.report.meta
        assert meta["runtime_resplits"] >= 1
        assert meta["steal_count"] >= 0
        assert sorted_cell_bytes(adaptive) == sorted_cell_bytes(serial)

    def test_single_slot_gates_adaptive_to_static(
        self, hash_cluster, monkeypatch
    ):
        """One effective worker slot cannot run split halves
        concurrently, so adaptive dispatch must fall back to the static
        split: zero re-splits, byte-identical output."""
        import repro.engine.parallel as parallel

        monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
        serial = _executor(hash_cluster, 0.0001, n_buckets=1024).execute(
            HASH_QUERY, planner="tabu", join_algo="hash"
        )
        gated = _executor(
            hash_cluster, 0.0001, mode="process", workers=4,
            split_units="adaptive", n_buckets=1024,
        ).execute(HASH_QUERY, planner="tabu", join_algo="hash")
        meta = gated.report.meta
        assert meta["runtime_resplits"] == 0
        assert meta["steal_count"] == 0
        assert sorted_cell_bytes(gated) == sorted_cell_bytes(serial)

    def test_deep_resplit_tree_stays_byte_identical(
        self, hash_cluster, monkeypatch
    ):
        """Shrinking the re-split floor forces a many-level split tree;
        the order-tuple merge must still reassemble the exact output."""
        import repro.engine.parallel as parallel

        monkeypatch.setattr(parallel, "_RESPLIT_MIN_ROWS", 64)
        monkeypatch.setattr(parallel, "available_cpus", lambda: 4)
        serial = _executor(hash_cluster, 0.0001, n_buckets=1024).execute(
            HASH_QUERY, planner="tabu", join_algo="hash"
        )
        adaptive = _executor(
            hash_cluster, 0.0001, mode="process", workers=4,
            split_units="adaptive", n_buckets=1024,
        ).execute(HASH_QUERY, planner="tabu", join_algo="hash")
        assert adaptive.report.meta["runtime_resplits"] >= 3
        assert sorted_cell_bytes(adaptive) == sorted_cell_bytes(serial)

    def test_structured_fallback_declines_to_split(self, merge_cluster):
        """No packed key column means no key-range cuts: the structured
        path stays the byte-exact oracle with zero units split."""
        reference = _executor(merge_cluster, 0.25, packed_keys=False).execute(
            MERGE_QUERY, planner="tabu", join_algo="merge"
        )
        split = _executor(
            merge_cluster, 0.25, packed_keys=False, split_units="static"
        ).execute(MERGE_QUERY, planner="tabu", join_algo="merge")
        assert split.report.meta["units_split"] == 0
        assert sorted_cell_bytes(split) == sorted_cell_bytes(reference)


class TestKnobPlumbing:
    def test_invalid_split_knobs_rejected(self, merge_cluster):
        with pytest.raises(ExecutionError):
            _executor(merge_cluster, 0.25, split_units="sometimes")
        with pytest.raises(ExecutionError):
            _executor(merge_cluster, 0.25, split_threshold=0.0)
        with pytest.raises(ExecutionError):
            _executor(merge_cluster, 0.25, split_factor=1)

    def test_split_knobs_separate_fingerprints(self, merge_cluster):
        """split_units changes the physical plan, so unlike the pure
        execution-backend knobs it must NOT be fingerprint-neutral."""
        base = _executor(merge_cluster, 0.25)
        static = _executor(merge_cluster, 0.25, split_units="static")
        tuned = _executor(
            merge_cluster, 0.25, split_units="static", split_threshold=2.0
        )
        same = _executor(merge_cluster, 0.25)
        from repro.query.aql import parse_aql

        query = parse_aql(MERGE_QUERY)
        fp = {
            name: executor._plan_fingerprint(query, "tabu", "merge").key
            for name, executor in (
                ("base", base), ("static", static),
                ("tuned", tuned), ("same", same),
            )
        }
        assert fp["base"] == fp["same"]
        assert len({fp["base"], fp["static"], fp["tuned"]}) == 3

    def test_split_reported_in_plan_description(self, merge_cluster):
        executor = _executor(merge_cluster, 0.25, split_units="static")
        explained = executor.explain(
            MERGE_QUERY, planner="tabu", join_algo="merge"
        )
        assert explained.physical is not None
        assert "sub-units" in explained.physical.describe()


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    yield
    shutdown_pools()
