"""Inputs: the seed changes the contents, never the shape; and the
registry, the metric list and BENCHMARK.json say the same thing."""

import json
from pathlib import Path

import numpy as np
import pytest

from benchmarks.e2e.metrics import DRIVER_END_TO_END, END_TO_END, PER_LAYER
from benchmarks.e2e.workloads import (
    ROUNDS,
    RUN_SECONDS,
    WORKLOADS,
    Scale,
    churn_batch,
    config_hash,
    generate,
    steady_plan,
)

ROOT = Path(__file__).resolve().parents[3]
SMOKE = Scale.smoke()


def _same(a, b) -> bool:
    return all(
        np.array_equal(a.tables[name][col], b.tables[name][col])
        for name in a.tables
        for col in a.tables[name]
    )


@pytest.mark.parametrize("name", ["hash_skew", "merge_skew", "dense_output", "chain4"])
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    workload = WORKLOADS[name]
    first, again = generate(workload, 3, SMOKE), generate(workload, 3, SMOKE)
    other = generate(workload, 4, SMOKE)
    assert _same(first, again)
    assert not _same(first, other)


@pytest.mark.parametrize("name", ["hash_skew", "merge_skew", "dense_output", "chain4"])
def test_the_seed_leaves_the_shape_alone(name):
    """Chunk sizes and per-chunk join-key multisets — what slice
    statistics are made of — do not depend on the seed."""
    workload = WORKLOADS[name]
    key_fields = {
        "hash": ("v1", "v2"), "merge": (), "dense": ("v", "w"),
        "chain": ("k1", "k2", "k3"),
    }[workload.family]
    shapes = []
    for seed in (1, 2):
        shape = {}
        for array, _ in generate(workload, seed, SMOKE).arrays:
            for chunk_id, chunk in sorted(array.chunks.items()):
                keys = tuple(
                    tuple(np.sort(chunk.cells.column(f)).tolist())
                    for f in key_fields
                    if f in chunk.cells.attr_names
                )
                shape[array.schema.name, chunk_id] = (chunk.n_cells, keys)
        shapes.append(shape)
    assert shapes[0] == shapes[1]


def test_merge_inputs_stay_functions_of_their_coordinates():
    for array, _ in generate(WORKLOADS["merge_skew"], 9, SMOKE).arrays:
        coords = array.cells().coords
        assert len(np.unique(coords, axis=0)) == len(coords)


def test_churn_batches_share_keys_across_seeds_and_carry_the_shared_key():
    workload = WORKLOADS["serve_churn"]
    schema = generate(workload, 1, SMOKE).arrays[0][0].schema
    one = churn_batch(workload, 0, 1, SMOKE, schema)
    two = churn_batch(workload, 0, 2, SMOKE, schema)
    assert np.array_equal(one.column("v1"), two.column("v1"))
    assert np.array_equal(schema.chunk_ids(one.coords), schema.chunk_ids(two.coords))
    assert not np.array_equal(one.coords, two.coords)
    assert (one.column("v1") == 3 * 1024).sum() == 2


def test_request_counts_keep_their_floors_at_every_scale():
    for seconds in (1, RUN_SECONDS, 20, 60):
        scale = Scale.for_seconds(seconds)
        for workload in WORKLOADS.values():
            cold, steady = scale.counts(workload)
            assert cold >= 12 and steady >= 120
            assert steady % (ROUNDS * workload.clients) == 0
    cold, steady = Scale.for_seconds(20).counts(WORKLOADS["hash_skew"])
    assert (cold, steady) == (24, 400)


def test_two_clients_never_share_a_statement():
    plans = steady_plan(WORKLOADS["serve_mixed"], 1, 64)
    assert len(plans) == 2
    used = [{index for index, _ in plan} for plan in plans]
    assert used[0] <= {0, 2, 4} and used[1] <= {1, 3, 5}


def test_config_hash_is_stable_within_a_process():
    assert config_hash() == config_hash()


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["run_seconds"] == RUN_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == [tuple(m) for m in DRIVER_END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == [tuple(m) for m in PER_LAYER]
    assert len(END_TO_END) == 8 and len(WORKLOADS) == 7
