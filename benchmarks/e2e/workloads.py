"""The seven named workloads: configuration, inputs, statements, traffic.

Every workload's *shape* — which chunks and join keys are heavy, where
chunks live — is part of its definition and comes from the repo's own
generators under one fixed :data:`SHAPE_SEED`. The ``--seed`` argument
re-draws everything that does not move a cell between (join unit, node)
slices: positions inside a chunk, payload columns, which cell of a chunk
carries which value. Inputs and outputs therefore differ by seed while
the slice statistics the planners consume do not.

Why not re-draw the shape too: the Tabu planner is chaotic in its input
(dropping two cells of 150,000 changes the plan's simulated cost by up
to 5 % and its wall-clock search time by 2x), so a shape that moved with
the seed put a 15-30 % seed-to-seed spread on ``cold_p50_s`` and 20 % on
``sim_execute_s`` — wider than any bound the benchmark could then hold a
later change to (measured on the seed commit; see README.md).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable

import numpy as np

from repro.adm.array import LocalArray
from repro.adm.cells import CellSet
from repro.workloads.synthetic import (
    chain_arrays,
    chain_query,
    selectivity_pair,
    skewed_hash_pair,
    skewed_merge_pair,
    zipf_weights,
)

from benchmarks.e2e import oracle

#: Fixes every workload's shape (see the module docstring).
SHAPE_SEED = 0

#: ``--seconds`` that maps to the request counts written below.
REFERENCE_SECONDS = 20

#: ``run_seconds`` of BENCHMARK.json and the suite's default: every
#: workload then sits at the 120-steady / 12-cold sample floors, which
#: is what fits the driver's time cap (see README.md).
RUN_SECONDS = 6

#: Rounds the steady phase is cut into.
ROUNDS = 8

HASH_KEYS = 1024
SHARED_KEY = 3 * HASH_KEYS


# ---------------------------------------------------------------- statements


@dataclass(frozen=True)
class Statement:
    """One statement text plus the oracle that computes its reference
    from (tables, a memo dict shared by the statements over those tables)."""

    text: str
    reference: Callable[
        [dict[str, oracle.Columns], dict], oracle.Columns
    ] = field(compare=False)


def _hash_statement(*select: tuple[str, str, str]) -> Statement:
    """A select-list variant of the fig8 hash query; ``select`` lists
    (output name, array, field)."""
    fields = ", ".join(f"{array}.{name}" for _, array, name in select)
    outputs = ", ".join(f"{out}:int64" for out, _, _ in select)
    return Statement(
        text=(
            f"SELECT {fields} INTO T<{outputs}>[] "
            "FROM A, B WHERE A.v1 = B.v1 AND A.v2 = B.v2"
        ),
        reference=partial(oracle.hash_reference, select=select),
    )


_AI, _AJ = ("ai", "A", "i"), ("aj", "A", "j")
_BI, _BJ = ("bi", "B", "i"), ("bj", "B", "j")

#: The fig8 query and five select-list variants of it (the first three
#: are the serving mix earlier harnesses used).
HASH_STATEMENTS = (
    _hash_statement(_AI, _AJ, _BI, _BJ),
    _hash_statement(_BI, _BJ, _AI, _AJ),
    _hash_statement(_AI, _BJ),
    _hash_statement(_AJ, _BI),
    _hash_statement(_BJ, _AI, _AJ),
    _hash_statement(_AI, _AJ, _BI),
)

MERGE_STATEMENT = Statement(
    text=(
        "SELECT A.v1 - B.v1 AS d1, A.v2 - B.v2 AS d2 "
        "FROM A, B WHERE A.i = B.i AND A.j = B.j"
    ),
    reference=oracle.merge_reference,
)

DENSE_STATEMENT = Statement(
    text="SELECT A.v, B.w FROM A, B WHERE A.v = B.w",
    reference=oracle.dense_reference,
)

CHAIN_STATEMENT = Statement(
    text=chain_query(4),
    reference=partial(oracle.chain_reference, n_arrays=4),
)


# ----------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: which generator / seed transformation / oracle family applies
    family: str
    n_nodes: int
    cells: int
    statements: tuple[Statement, ...]
    query_options: dict
    #: request counts at ``--seconds`` = REFERENCE_SECONDS
    cold: int
    steady: int
    session_options: dict = field(default_factory=dict)
    #: behind a JoinServer (max_in_flight=2, queue_depth=8, block)
    served: bool = False
    clients: int = 1
    tenants: int = 1
    #: the client loads one churn batch before every Nth steady request
    churn_every: int = 0


_HASH_SESSION = {"n_buckets": 1024, "selectivity_hint": 1e-4}  # see Scale.units
_HASH_QUERY = {"planner": "tabu", "join_algo": "hash"}

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="hash_skew",
            why="cold is planner and scheduler work, steady is per-unit "
            "dispatch over 1,024 tiny units; output does nothing",
            family="hash", n_nodes=12, cells=150_000,
            statements=HASH_STATEMENTS[:1], query_options=_HASH_QUERY,
            cold=24, steady=400, session_options=_HASH_SESSION,
        ),
        Workload(
            name="merge_skew",
            why="chunk units and the merge kernel: match work dominates "
            "even cold, physical planning is a few ms",
            family="merge", n_nodes=12, cells=100_000,
            statements=(MERGE_STATEMENT,),
            query_options={"planner": "tabu", "join_algo": "merge"},
            cold=16, steady=120,
            session_options={"selectivity_hint": 0.25},
        ),
        Workload(
            name="dense_output",
            why="800k output cells from 400k input: materialisation and "
            "memory do the steady work (product skew)",
            family="dense", n_nodes=8, cells=200_000,
            statements=(DENSE_STATEMENT,), query_options=_HASH_QUERY,
            cold=16, steady=160,
        ),
        Workload(
            name="chain4",
            why="multiway: cold pays ordering plus three stage prepares, "
            "steady replays only the cached last stage",
            family="chain", n_nodes=8, cells=60_000,
            statements=(CHAIN_STATEMENT,),
            query_options={"planner": "tabu"},
            cold=16, steady=240,
        ),
        Workload(
            name="hash_skew_shm",
            why="hash_skew inputs through 2 process workers over shared "
            "memory: fused sorted columns instead of the per-unit loop",
            family="hash", n_nodes=12, cells=150_000,
            statements=HASH_STATEMENTS[:1], query_options=_HASH_QUERY,
            # Its requests are 6x shorter than any other workload's and
            # wander between two scheduling modes (2.6 / 3.7 ms) for
            # half a second at a time; 240 of them gave a 20 % run-to-run
            # spread, 1,200 (at run_seconds) give 9 %.
            cold=16, steady=4000,
            session_options={
                **_HASH_SESSION, "n_workers": 2,
                "parallel_mode": "process", "split_units": "static",
            },
        ),
        Workload(
            name="serve_mixed",
            why="reads under concurrency: 2 clients with disjoint "
            "statement sets, queue wait and GIL contention, no coalescing",
            family="hash", n_nodes=12, cells=150_000,
            statements=HASH_STATEMENTS, query_options=_HASH_QUERY,
            cold=16, steady=400, session_options=_HASH_SESSION,
            served=True, clients=2, tenants=4,
        ),
        Workload(
            name="serve_churn",
            why="writes beside reads: a load before every 10th request "
            "makes about 3 in 10 requests rebuild their plan",
            family="hash", n_nodes=12, cells=150_000,
            statements=HASH_STATEMENTS[:3], query_options=_HASH_QUERY,
            cold=16, steady=150, session_options=_HASH_SESSION,
            served=True, churn_every=10,
        ),
    )
}


@dataclass(frozen=True)
class Scale:
    """How much of a workload one run executes."""

    #: multiplies every workload's request counts (one common factor)
    requests: float
    #: multiplies every workload's cell counts (1.0 except for --smoke)
    data: float = 1.0
    min_steady: int = 120
    min_cold: int = 12
    #: timed set-ups per run; ``setup_s`` is the fastest
    setups: int = 3
    #: join units of the 1,024-unit workloads (smaller only for --smoke,
    #: where per-unit overhead would otherwise set the run time)
    units: int = 1024

    @classmethod
    def for_seconds(cls, seconds: float) -> "Scale":
        return cls(requests=seconds / REFERENCE_SECONDS)

    @classmethod
    def smoke(cls) -> "Scale":
        # 104 steady samples is the least that supports a p90.
        return cls(
            requests=0.0, data=0.1, min_steady=104, min_cold=2, setups=1,
            units=64,
        )

    def counts(self, workload: Workload) -> tuple[int, int]:
        """(cold, steady) requests; steady divides evenly over the rounds
        and clients, and every round of a churn workload holds the same
        number of writes (else rounds with one write and rounds with two
        alternate, and only half of them can be the fastest)."""
        cold = max(self.min_cold, round(workload.cold * self.requests))
        steady = max(self.min_steady, round(workload.steady * self.requests))
        step = ROUNDS * workload.clients * max(workload.churn_every, 1)
        return cold, -(-steady // step) * step

    def cells(self, workload: Workload) -> int:
        return max(1_000, round(workload.cells * self.data))

    def session_options(self, workload: Workload) -> dict:
        options = dict(workload.session_options)
        if "n_buckets" in options:
            options["n_buckets"] = self.units
        return options


def config_hash() -> str:
    """Digest of everything that defines the workloads (not the scale)."""
    spec = {
        "shape_seed": SHAPE_SEED,
        "rounds": ROUNDS,
        "reference_seconds": REFERENCE_SECONDS,
        "workloads": [
            {
                **{
                    f.name: getattr(w, f.name)
                    for f in fields(w) if f.name != "statements"
                },
                "statements": [s.text for s in w.statements],
            }
            for w in WORKLOADS.values()
        ],
    }
    text = json.dumps(spec, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -------------------------------------------------------------------- inputs


@dataclass
class Inputs:
    """One run's generated arrays, ready to load, plus oracle tables."""

    #: (array, placement policy) in load order
    arrays: list[tuple[LocalArray, object]]
    #: array name -> column table, the oracle's view of the same cells
    tables: dict[str, oracle.Columns]


def columns_of(cells: CellSet, schema) -> oracle.Columns:
    table = {
        dim.name: cells.coords[:, axis] for axis, dim in enumerate(schema.dims)
    }
    table.update({name: cells.column(name) for name in cells.attr_names})
    return table


def _seeded_placement(seed: int):
    """A fixed random chunk→node layout (SciDB-style hashed distribution)."""

    def place(chunk_ids, n_nodes):
        rng = np.random.default_rng(seed)
        return rng.integers(0, n_nodes, size=len(chunk_ids)).tolist()

    return place


def _chunk_corners(schema, coords: np.ndarray) -> np.ndarray:
    starts = np.array([d.start for d in schema.dims], dtype=np.int64)
    steps = np.array([d.chunk_interval for d in schema.dims], dtype=np.int64)
    return starts + (coords - starts) // steps * steps


def _redraw_positions(
    array: LocalArray, rng: np.random.Generator, distinct: bool
) -> CellSet:
    """Move every cell to a fresh position inside its own chunk.

    ``distinct`` keeps positions unique per chunk (D:D joins need every
    array to stay a function of its coordinates).
    """
    schema = array.schema
    cells = array.cells()
    steps = np.array([d.chunk_interval for d in schema.dims], dtype=np.int64)
    corners = _chunk_corners(schema, cells.coords)
    if not distinct:
        offsets = rng.integers(0, steps, size=cells.coords.shape)
        return CellSet(corners + offsets, dict(cells.attrs))
    chunk = schema.chunk_ids(cells.coords)
    order = np.argsort(chunk, kind="stable")
    bounds = np.flatnonzero(np.diff(chunk[order])) + 1
    capacity = int(np.prod(steps))
    flat = np.empty(len(cells), dtype=np.int64)
    for rows in np.split(order, bounds):
        flat[rows] = rng.choice(capacity, size=len(rows), replace=False)
    offsets = np.stack(np.unravel_index(flat, tuple(steps)), axis=1)
    return CellSet(corners + offsets, dict(cells.attrs))


def _shuffle_within_chunks(
    array: LocalArray, column: str, rng: np.random.Generator
) -> CellSet:
    """Permute one attribute among the cells of each chunk."""
    cells = array.cells()
    chunk = array.schema.chunk_ids(cells.coords)
    by_chunk = np.argsort(chunk, kind="stable")
    shuffled = np.lexsort((rng.random(len(cells)), chunk))
    values = cells.column(column).copy()
    values[by_chunk] = cells.column(column)[shuffled]
    return CellSet(cells.coords, {**cells.attrs, column: values})


def _reseed(family: str, array: LocalArray, rng: np.random.Generator) -> CellSet:
    """The seed's share of one array (see the module docstring)."""
    name = array.schema.name
    if family == "hash":
        # A:A join on (v1, v2): coordinates are carried payload.
        return _redraw_positions(array, rng, distinct=False)
    if family == "merge":
        # D:D join on (i, j): chunk sizes stay, coordinate collisions
        # between A and B (the matches) and the payload move.
        cells = _redraw_positions(array, rng, distinct=True)
        return CellSet(
            cells.coords,
            {
                attr: rng.integers(0, 1_000_000, len(cells))
                for attr in cells.attr_names
            },
        )
    if family == "dense":
        return _shuffle_within_chunks(
            array, "v" if name == "A" else "w", rng
        )
    if family == "chain":
        cells = array.cells()
        if name == "T0":  # k0 is selected, never joined on
            return _shuffle_within_chunks(array, "k0", rng)
        if "payload" in cells.attr_names:
            return CellSet(
                cells.coords,
                {
                    **cells.attrs,
                    "payload": rng.integers(0, 1_000_000, len(cells)),
                },
            )
        return cells
    raise ValueError(f"unknown workload family {family!r}")


def generate(workload: Workload, seed: int, scale: Scale) -> Inputs:
    """Build one run's inputs: fixed shape, seed-drawn contents."""
    cells = scale.cells(workload)
    family = workload.family
    if family == "hash":
        shaped = skewed_hash_pair(
            1.0, cells_per_array=cells, n_keys=HASH_KEYS, seed=SHAPE_SEED
        )
        placements = ["block", "block"]
    elif family == "merge":
        shaped = skewed_merge_pair(
            1.0, cells_per_array=cells, grid=math.isqrt(scale.units),
            seed=SHAPE_SEED,
        )
        placements = [
            _seeded_placement(SHAPE_SEED), _seeded_placement(SHAPE_SEED + 17)
        ]
    elif family == "dense":
        shaped = selectivity_pair(
            2.0, n_cells=cells, n_chunks=64, seed=SHAPE_SEED
        )
        placements = ["round_robin", "round_robin"]
    elif family == "chain":
        shaped = chain_arrays(4, 1.0, cells_per_array=cells, rng=SHAPE_SEED)
        placements = ["round_robin"] * 4
    else:
        raise ValueError(f"unknown workload family {family!r}")
    rng = np.random.default_rng([seed, 1])
    arrays = []
    tables = {}
    for array, placement in zip(shaped, placements):
        reseeded = LocalArray.from_cells(
            array.schema, _reseed(family, array, rng)
        )
        arrays.append((reseeded, placement))
        tables[array.schema.name] = columns_of(
            reseeded.cells(), array.schema
        )
    return Inputs(arrays=arrays, tables=tables)


def churn_batch(
    workload: Workload, index: int, seed: int, scale: Scale, schema
) -> CellSet:
    """The ``index``-th batch ``serve_churn`` loads into A.

    Keys and chunks come from the shape seed; positions inside the
    chunks from ``seed``. Two cells carry the shared join key, so every
    statement's output grows by 2 × (B's shared-key cells) per batch.
    """
    size = max(10, round(500 * scale.data))
    shape = np.random.default_rng([SHAPE_SEED, 2, index])
    keys = shape.integers(0, HASH_KEYS, size)
    keys[:2] = SHARED_KEY
    chunk = shape.integers(0, schema.n_chunks, size)
    corners = np.array(
        [schema.chunk_corner(int(c)) for c in chunk], dtype=np.int64
    )
    steps = [d.chunk_interval for d in schema.dims]
    offsets = np.random.default_rng([seed, 2, index]).integers(
        0, steps, size=(size, len(steps))
    )
    return CellSet(corners + offsets, {"v1": keys, "v2": keys * 7 + 1})


# ------------------------------------------------------------------- traffic


def tenant_names(workload: Workload) -> list[str]:
    return [f"tenant{t}" for t in range(workload.tenants)]


def steady_plan(
    workload: Workload, seed: int, n_requests: int
) -> list[list[tuple[int, str | None]]]:
    """Per client, the steady phase's (statement index, tenant) sequence.

    Client ``c`` of a multi-client workload draws only statements whose
    index ≡ c (mod clients): coalescing stays on in the server but two
    clients can never ask for the same statement at once, so throughput
    is engine + server, not coalescing luck. Tenants are Zipf(1.2).
    """
    n_statements = len(workload.statements)
    per_client = n_requests // workload.clients
    if not workload.served:
        return [[(k % n_statements, None) for k in range(per_client)]]
    tenants = tenant_names(workload)
    if workload.clients == 1:
        return [[(k % n_statements, tenants[0]) for k in range(per_client)]]
    weights = zipf_weights(len(tenants), 1.2, rng=SHAPE_SEED)
    plans = []
    for client in range(workload.clients):
        rng = np.random.default_rng([seed, 3, client])
        own = np.arange(client, n_statements, workload.clients)
        plans.append(
            [
                (int(rng.choice(own)), tenants[int(rng.choice(len(tenants), p=weights))])
                for _ in range(per_client)
            ]
        )
    return plans
