"""The one-sort chunk build against a per-chunk reference build.

``build_chunks`` sorts a whole cell set once and slices every chunk out
of the sorted copy. The reference below partitions by chunk id first and
then sorts each chunk on its own — the layout every stored array had
before — and the two must agree byte for byte: chunk ids and their
order, corners, ``sorted_cells``, and the coordinate and attribute
buffers.
"""

import numpy as np
import pytest

from repro.adm.array import LocalArray
from repro.adm.cells import CellSet
from repro.adm.chunk import Chunk, build_chunks
from repro.adm.parser import parse_schema
from repro.cluster.cluster import Cluster
from repro.errors import SchemaError
from repro.workloads.synthetic import (
    chain_arrays,
    selectivity_pair,
    skewed_hash_pair,
    skewed_merge_pair,
)


def per_chunk_build(schema, cells, sort=True):
    """Partition by chunk id, then sort each chunk's cells separately."""
    ids = schema.chunk_ids(cells.coords)
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    bounds = np.flatnonzero(
        np.r_[True, sorted_ids[1:] != sorted_ids[:-1], True]
    )
    chunks = {}
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        chunk_id = int(sorted_ids[lo])
        part = cells.take(order[lo:hi])
        if sort:
            part = part.sorted_c_order()
        chunks[chunk_id] = Chunk(
            chunk_id=chunk_id,
            corner=schema.chunk_corner(chunk_id),
            cells=part,
            sorted_cells=sort,
        )
    return chunks


def assert_same_chunks(actual, expected):
    assert list(actual) == list(expected)
    for chunk_id, want in expected.items():
        got = actual[chunk_id]
        assert got.chunk_id == want.chunk_id
        assert got.corner == want.corner
        assert all(type(v) is int for v in got.corner)
        assert got.sorted_cells == want.sorted_cells
        assert got.cells.coords.dtype == want.cells.coords.dtype
        assert got.cells.coords.tobytes() == want.cells.coords.tobytes()
        assert list(got.cells.attrs) == list(want.cells.attrs)
        for name, column in want.cells.attrs.items():
            assert got.cells.attrs[name].dtype == column.dtype
            assert got.cells.attrs[name].tobytes() == column.tobytes()


def generated_arrays():
    yield from skewed_hash_pair(1.0, cells_per_array=6_000, grid=8, seed=3)
    yield from skewed_merge_pair(1.0, cells_per_array=6_000, grid=8, seed=4)
    yield from selectivity_pair(2.0, n_cells=6_000, n_chunks=16, seed=5)
    yield from chain_arrays(3, 1.0, cells_per_array=3_000, rng=6)


@pytest.mark.parametrize("sort", [True, False])
def test_generators_match_per_chunk_build(sort):
    rng = np.random.default_rng(11)
    for array in generated_arrays():
        cells = array.cells()
        # Arrival order scrambled, so the within-chunk sort has work and
        # ``sort=False`` keeps a visible arrival order.
        cells = cells.take(rng.permutation(len(cells)))
        assert_same_chunks(
            build_chunks(array.schema, cells, sort=sort),
            per_chunk_build(array.schema, cells, sort=sort),
        )


def test_duplicate_coordinates_keep_arrival_order():
    schema = parse_schema("A<v:int64>[i=0,9,5, j=0,9,5]")
    coords = np.array([[7, 1], [1, 1], [7, 1], [1, 1], [0, 9], [7, 1]])
    cells = CellSet(coords, {"v": np.arange(6)})
    chunks = build_chunks(schema, cells)
    assert_same_chunks(chunks, per_chunk_build(schema, cells))
    assert chunks[2].cells.attrs["v"].tolist() == [0, 2, 5]


def test_three_dimensional_partial_edge_chunks():
    schema = parse_schema("A<v:float64>[i=-3,10,4, j=0,6,3, k=5,9,2]")
    rng = np.random.default_rng(2)
    coords = np.stack(
        [
            rng.integers(-3, 11, 900),
            rng.integers(0, 7, 900),
            rng.integers(5, 10, 900),
        ],
        axis=1,
    )
    cells = CellSet(coords, {"v": rng.uniform(size=900)})
    assert_same_chunks(
        build_chunks(schema, cells), per_chunk_build(schema, cells)
    )


def test_insert_cells_batch_matches_per_chunk_puts():
    """A churn-style load: a small batch scattered over a loaded array."""
    (array, _) = skewed_hash_pair(1.0, cells_per_array=8_000, grid=8, seed=9)
    schema = array.schema
    reference = Cluster(n_nodes=4)
    batched = Cluster(n_nodes=4)
    for cluster in (reference, batched):
        cluster.load_array(array, placement="block")

    rng = np.random.default_rng(5)
    for _ in range(3):
        chunk = rng.integers(0, schema.n_chunks, 50)
        corners = schema.chunk_corners(chunk)
        steps = [d.chunk_interval for d in schema.dims]
        offsets = rng.integers(0, steps, size=(50, len(steps)))
        keys = rng.integers(0, 1024, 50)
        batch = CellSet(corners + offsets, {"v1": keys, "v2": keys * 7 + 1})

        assert batched.insert_cells(schema.name, batch) == 50
        entry = reference.catalog.entry(schema.name)
        for chunk_id, piece in per_chunk_build(schema, batch).items():
            node = entry.chunk_locations[chunk_id]
            reference.nodes[node].put_chunk(schema.name, piece)
        entry.bump_version()

    for ref_node, new_node in zip(reference.nodes, batched.nodes):
        ref_store = ref_node.store(schema.name)
        new_store = new_node.store(schema.name)
        assert new_store.mutation_count == ref_store.mutation_count
        assert_same_chunks(new_store.chunks, ref_store.chunks)


def test_chunk_corners_match_scalar_corners():
    schema = parse_schema("A<v:int64>[i=-3,10,4, j=0,6,3, k=5,9,2]")
    ids = np.arange(schema.n_chunks)
    assert schema.chunk_corners(ids).tolist() == [
        list(schema.chunk_corner(int(c))) for c in ids
    ]


class TestOnePassValidation:
    def schema(self):
        return parse_schema("A<v:int64>[i=0,9,5, j=0,9,5]")

    def chunk(self, chunk_id, coords):
        coords = np.array(coords)
        return Chunk(
            chunk_id,
            (0, 0),
            CellSet(coords, {"v": np.zeros(len(coords), dtype=np.int64)}),
        )

    def test_names_first_stray_of_first_bad_chunk(self):
        chunks = {
            0: self.chunk(0, [[1, 1], [2, 2]]),
            3: self.chunk(3, [[6, 6], [1, 8], [9, 9], [0, 0]]),
            1: self.chunk(1, [[0, 0]]),
        }
        with pytest.raises(SchemaError, match=r"cell \(1, 8\) does not belong "
                           r"to chunk 3 of schema 'A'"):
            LocalArray(self.schema(), chunks)

    def test_put_chunks_validates_before_writing(self):
        store = LocalArray(self.schema(), {})
        with pytest.raises(SchemaError, match=r"cell \(0, 0\)"):
            store.put_chunks(
                [self.chunk(0, [[1, 1]]), self.chunk(1, [[0, 0]])]
            )
        assert store.chunks == {}
        assert store.mutation_count == 0
