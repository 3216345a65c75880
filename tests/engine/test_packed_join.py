"""Packed-key execution equivalence: the codec must never change results.

The structured composite key is the correctness oracle (the executor's
``packed_keys=False`` arm). Every combination of join algorithm,
physical planner, and serial/parallel execution must produce the same
multiset of output cells packed or structured — including workloads
that force the codec to decline (key wider than 64 bits) and the float
``-0.0`` edge case the bit-pattern keys exist for.
"""

import numpy as np
import pytest

from repro.adm import CellSet, LocalArray, parse_schema
from repro.cluster import Cluster
from repro.engine import ShuffleJoinExecutor

PLANNERS = ("baseline", "mbh", "tabu", "ilp_coarse")

MERGE_QUERY = (
    "SELECT A.v1 - B.v1 AS d1 FROM A, B WHERE A.i = B.i AND A.j = B.j"
)
HASH_QUERY = "SELECT A.v1, B.v2 FROM A, B WHERE A.v1 = B.v1"


def sorted_cell_bytes(result):
    cells = result.cells
    return np.sort(cells.to_structured(sorted(cells.attrs))).tobytes()


def make_executor(cluster, packed, workers=None):
    return ShuffleJoinExecutor(
        cluster,
        selectivity_hint=0.3,
        packed_keys=packed,
        n_workers=workers,
    )


class TestPackedEquivalence:
    @pytest.mark.parametrize("planner", PLANNERS)
    @pytest.mark.parametrize(
        "query,join_algo", [(MERGE_QUERY, "merge"), (HASH_QUERY, "hash")]
    )
    def test_serial_parallel_packed_agree(
        self, small_cluster, planner, query, join_algo
    ):
        reference = make_executor(small_cluster, packed=False).execute(
            query, planner=planner, join_algo=join_algo
        )
        expected = sorted_cell_bytes(reference)
        for workers in (None, 3):
            executor = make_executor(small_cluster, packed=True, workers=workers)
            prepared = executor.prepare(query, join_algo=join_algo)
            assert prepared.slice_table.codec is not None
            result = prepared.execute(planner=planner)
            assert sorted_cell_bytes(result) == expected

    def test_nested_loop_single_node(self, dd_pair):
        cluster = Cluster(n_nodes=1)
        for array in dd_pair:
            cluster.load_array(array)
        expected = sorted_cell_bytes(
            make_executor(cluster, packed=False).execute(
                MERGE_QUERY, join_algo="nested_loop"
            )
        )
        result = make_executor(cluster, packed=True).execute(
            MERGE_QUERY, join_algo="nested_loop"
        )
        assert sorted_cell_bytes(result) == expected

    def test_packed_meta_reported(self, small_cluster):
        executor = make_executor(small_cluster, packed=True)
        result = executor.execute(HASH_QUERY, join_algo="hash")
        assert result.report.meta.get("packed_keys") is True
        assert 0 < result.report.meta.get("key_width", 0) <= 64
        structured = make_executor(small_cluster, packed=False).execute(
            HASH_QUERY, join_algo="hash"
        )
        assert "packed_keys" not in structured.report.meta


class TestWidthOverflowFallback:
    WIDE_QUERY = (
        "SELECT A.v1, B.v2 FROM A, B "
        "WHERE A.v1 = B.v1 AND A.v2 = B.v2"
    )

    def _load_wide_pair(self, cluster):
        """Two arrays joining on (full-int64-range, small) attributes —
        64 + 4 bits cannot fit one lane, so plan_codec declines."""
        gen = np.random.default_rng(7)
        coords = np.unique(gen.integers(1, 17, size=(60, 2)), axis=0)
        extremes = np.array(
            [np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1, 1]
        )
        v1 = np.concatenate(
            [extremes, gen.integers(-5, 5, len(coords) - len(extremes))]
        )
        v2 = gen.integers(0, 4, len(coords))
        schema_text = "<v1:int64, v2:int64>[i=1,16,4, j=1,16,4]"
        for name in ("A", "B"):
            cluster.load_array(
                LocalArray.from_cells(
                    parse_schema(name + schema_text),
                    CellSet(coords, {"v1": v1, "v2": v2}),
                ),
                placement="round_robin",
            )

    @pytest.mark.parametrize("workers", [None, 2])
    def test_fallback_is_byte_identical(self, workers):
        cluster = Cluster(n_nodes=3)
        self._load_wide_pair(cluster)
        packed_on = make_executor(cluster, packed=True, workers=workers)
        prepared = packed_on.prepare(self.WIDE_QUERY, join_algo="hash")
        # The knob is on, but the layout does not fit: structured keys.
        assert prepared.slice_table.codec is None
        result = prepared.execute(planner="tabu")
        assert result.array.n_cells > 0
        on_bytes = sorted_cell_bytes(result)
        packed_off = make_executor(cluster, packed=False, workers=workers)
        off_bytes = sorted_cell_bytes(
            packed_off.execute(
                self.WIDE_QUERY, planner="tabu", join_algo="hash"
            )
        )
        assert on_bytes == off_bytes


class TestFloatKeys:
    def _load_float_pair(self, cluster):
        schema_a = parse_schema("A<f:float64, v1:int64>[i=1,16,4]")
        schema_b = parse_schema("B<f:float64, v2:int64>[i=1,16,4]")
        values_a = np.array([-0.0, 1.5, 2.5, -3.5, 9.0, 0.0])
        values_b = np.array([0.0, 1.5, -2.5, -3.5, 8.0, -0.0])
        for schema, name, values in (
            (schema_a, "v1", values_a),
            (schema_b, "v2", values_b),
        ):
            coords = np.arange(1, len(values) + 1).reshape(-1, 1)
            cluster.load_array(
                LocalArray.from_cells(
                    schema,
                    CellSet(
                        coords,
                        {
                            "f": values,
                            name: np.arange(len(values), dtype=np.int64),
                        },
                    ),
                ),
                placement="round_robin",
            )

    @pytest.mark.parametrize("packed", [True, False])
    def test_negative_zero_matches_positive_zero(self, packed):
        """Regression: ±0.0 must join under both key representations."""
        cluster = Cluster(n_nodes=2)
        self._load_float_pair(cluster)
        executor = make_executor(cluster, packed=packed)
        result = executor.execute(
            "SELECT A.v1, B.v2 FROM A, B WHERE A.f = B.f",
            join_algo="hash",
        )
        pairs = set(
            zip(
                result.cells.attrs["v1"].tolist(),
                result.cells.attrs["v2"].tolist(),
            )
        )
        # -0.0 == 0.0 (both directions), 1.5 == 1.5, -3.5 == -3.5;
        # 2.5 != -2.5, 9.0 != 8.0.
        assert pairs == {(0, 0), (0, 5), (5, 0), (5, 5), (1, 1), (3, 3)}

    def test_packed_and_structured_agree_on_floats(self):
        cluster = Cluster(n_nodes=2)
        self._load_float_pair(cluster)
        query = "SELECT A.v1, B.v2 FROM A, B WHERE A.f = B.f"
        outputs = {
            packed: sorted_cell_bytes(
                make_executor(cluster, packed=packed).execute(
                    query, join_algo="hash", planner="baseline"
                )
            )
            for packed in (True, False)
        }
        assert outputs[True] == outputs[False]
