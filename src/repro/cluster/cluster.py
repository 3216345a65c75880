"""The cluster facade: nodes, catalog, placement, and data access."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from repro.adm.array import LocalArray
from repro.adm.cells import CellSet
from repro.adm.chunk import build_chunks
from repro.adm.parser import parse_schema
from repro.adm.schema import ArraySchema
from repro.cluster.catalog import ArrayEntry, SystemCatalog
from repro.cluster.network import NetworkParams
from repro.cluster.node import Node
from repro.errors import CatalogError, SchemaError

#: A placement policy maps a sorted list of stored chunk ids to node ids.
PlacementPolicy = Union[str, Mapping[int, int], Callable[[Sequence[int], int], list[int]]]


@dataclass(frozen=True)
class ClusterParams:
    """Cluster-wide configuration."""

    n_nodes: int = 4
    network: NetworkParams = NetworkParams()

    def __post_init__(self) -> None:
        if self.n_nodes <= 0:
            raise ValueError(f"cluster needs at least one node, got {self.n_nodes}")


class Cluster:
    """A simulated shared-nothing array database cluster.

    >>> cluster = Cluster(n_nodes=4)
    >>> arr = cluster.create_array("A<v:int64>[i=1,100,10]", cells)
    """

    def __init__(self, n_nodes: int = 4, network: NetworkParams | None = None):
        self.params = ClusterParams(
            n_nodes=n_nodes, network=network or NetworkParams()
        )
        self.nodes = [Node(node_id) for node_id in range(n_nodes)]
        self.catalog = SystemCatalog()
        #: ephemeral (pipeline-intermediate) arrays: resolved before the
        #: catalog by ``catalog_entry`` but invisible to ``array_names``,
        #: version counters, and plan fingerprints
        self._ephemeral: dict[str, ArrayEntry] = {}

    @property
    def n_nodes(self) -> int:
        return self.params.n_nodes

    @property
    def network(self) -> NetworkParams:
        return self.params.network

    def node(self, node_id: int) -> Node:
        if not 0 <= node_id < self.n_nodes:
            raise CatalogError(f"no node {node_id} in a {self.n_nodes}-node cluster")
        return self.nodes[node_id]

    # -------------------------------------------------------------- creation

    def create_array(
        self,
        schema: ArraySchema | str,
        cells: CellSet,
        placement: PlacementPolicy = "round_robin",
    ) -> ArraySchema:
        """Register an array and scatter its chunks across the cluster.

        ``placement`` selects the base storage layout:

        - ``"round_robin"`` (default, mimicking SciDB's hashed chunk
          distribution): the i-th stored chunk goes to node ``i mod k``;
        - ``"block"``: contiguous runs of chunks per node;
        - a ``{chunk_id: node_id}`` mapping, or a callable
          ``(chunk_ids, n_nodes) -> [node_id, ...]`` for custom layouts.
        """
        if isinstance(schema, str):
            schema = parse_schema(schema)
        local = LocalArray.from_cells(schema, cells)
        return self.load_array(local, placement=placement)

    def load_array(
        self,
        array: LocalArray,
        placement: PlacementPolicy = "round_robin",
    ) -> ArraySchema:
        """Register a pre-chunked array and scatter it across the cluster."""
        schema = array.schema
        self.catalog.register(schema)
        for node in self.nodes:
            node.create_store(schema)
        chunk_ids = sorted(array.chunks)
        if placement == "balanced":
            targets = self._balanced_placement(array, chunk_ids)
        else:
            targets = self._resolve_placement(chunk_ids, placement)
        by_node: dict[int, list] = {}
        for chunk_id, node_id in zip(chunk_ids, targets):
            by_node.setdefault(node_id, []).append(array.chunks[chunk_id])
            self.catalog.record_chunk(schema.name, chunk_id, node_id)
        for node_id, chunks in by_node.items():
            self.nodes[node_id].put_chunks(schema.name, chunks)
        self.catalog.entry(schema.name).bump_version()
        return schema

    def _balanced_placement(
        self, array: LocalArray, chunk_ids: Sequence[int]
    ) -> list[int]:
        """Greedy size-balanced layout: largest chunk to least-loaded node.

        Models a loader that levels storage across instances; under skew
        this spreads the hot chunks so no node starts the query
        overloaded.
        """
        loads = [0] * self.n_nodes
        targets = {}
        by_size = sorted(
            chunk_ids, key=lambda cid: (-array.chunks[cid].n_cells, cid)
        )
        for chunk_id in by_size:
            node_id = min(range(self.n_nodes), key=lambda j: (loads[j], j))
            targets[chunk_id] = node_id
            loads[node_id] += array.chunks[chunk_id].n_cells
        return [targets[cid] for cid in chunk_ids]

    def _resolve_placement(
        self,
        chunk_ids: Sequence[int],
        placement: PlacementPolicy,
    ) -> list[int]:
        if callable(placement):
            targets = list(placement(chunk_ids, self.n_nodes))
        elif isinstance(placement, Mapping):
            missing = [cid for cid in chunk_ids if cid not in placement]
            if missing:
                raise SchemaError(f"placement mapping misses chunks {missing[:5]}")
            targets = [placement[cid] for cid in chunk_ids]
        elif placement == "round_robin":
            targets = [rank % self.n_nodes for rank in range(len(chunk_ids))]
        elif placement == "block":
            per_node = -(-len(chunk_ids) // self.n_nodes)
            targets = [min(rank // per_node, self.n_nodes - 1) for rank in range(len(chunk_ids))]
        else:
            raise SchemaError(f"unknown placement policy {placement!r}")
        bad = [t for t in targets if not 0 <= t < self.n_nodes]
        if bad:
            raise SchemaError(f"placement produced invalid node ids {bad[:5]}")
        return targets

    def create_empty_array(self, schema: ArraySchema | str) -> ArraySchema:
        """Register an array with no cells (the CREATE ARRAY semantics)."""
        if isinstance(schema, str):
            schema = parse_schema(schema)
        self.catalog.register(schema)
        for node in self.nodes:
            node.create_store(schema)
        return schema

    def insert_cells(
        self,
        name: str,
        cells: CellSet,
        placement: PlacementPolicy = "round_robin",
    ) -> int:
        """Load cells into an existing array.

        Chunks that already have a home receive the new cells there;
        chunks new to the array are placed by ``placement`` (offset by
        the number of chunks already stored, so successive round-robin
        loads keep spreading). Returns the number of cells inserted.
        """
        schema = self.catalog.schema(name)
        chunks = build_chunks(schema, cells)
        entry = self.catalog.entry(name)
        new_ids = sorted(
            cid for cid in chunks if cid not in entry.chunk_locations
        )
        if new_ids:
            offset = entry.n_chunks
            if placement == "round_robin":
                targets = [
                    (offset + rank) % self.n_nodes
                    for rank in range(len(new_ids))
                ]
            else:
                targets = self._resolve_placement(new_ids, placement)
            for chunk_id, node_id in zip(new_ids, targets):
                self.catalog.record_chunk(name, chunk_id, node_id)
        inserted = 0
        by_node: dict[int, list] = {}
        for chunk_id, chunk in chunks.items():
            node_id = entry.chunk_locations[chunk_id]
            by_node.setdefault(node_id, []).append(chunk)
            inserted += chunk.n_cells
        for node_id, node_chunks in by_node.items():
            self.nodes[node_id].put_chunks(name, node_chunks)
        entry.bump_version()
        return inserted

    def drop_array(self, name: str) -> None:
        self.catalog.drop(name)
        for node in self.nodes:
            node.drop_array(name)

    # ------------------------------------------- ephemeral (pipeline) arrays

    def attach_ephemeral(
        self, schema: ArraySchema, node_cells: Sequence[CellSet]
    ) -> ArrayEntry:
        """Attach a pipeline-intermediate array already partitioned per node.

        Ephemeral arrays back materialised multi-join intermediates: each
        node receives its piece as one dimensionless chunk, and the entry
        lives in a side registry rather than the system catalog — so
        attaching/detaching intermediates never mints catalog uids, never
        bumps version counters, and can never invalidate cached plans over
        unrelated arrays. ``node_cells`` must have one CellSet per node
        (empty pieces allowed).
        """
        from repro.adm.chunk import Chunk

        name = schema.name
        if name in self._ephemeral or self.catalog.exists(name):
            raise CatalogError(f"array {name!r} already exists")
        if len(node_cells) != self.n_nodes:
            raise SchemaError(
                f"ephemeral array {name!r} needs one cell piece per node "
                f"({self.n_nodes}), got {len(node_cells)}"
            )
        chunk_locations: dict[int, int] = {}
        for node, piece in zip(self.nodes, node_cells):
            node.create_store(schema)
            if len(piece):
                node.put_chunk(
                    name, Chunk(chunk_id=node.node_id, corner=(), cells=piece)
                )
                chunk_locations[node.node_id] = node.node_id
        entry = ArrayEntry(schema=schema, chunk_locations=chunk_locations)
        self._ephemeral[name] = entry
        return entry

    def detach_ephemeral(self, name: str) -> None:
        """Drop an ephemeral array's entry and node partitions (idempotent)."""
        if self._ephemeral.pop(name, None) is not None:
            for node in self.nodes:
                node.drop_array(name)

    def catalog_entry(self, name: str) -> ArrayEntry:
        """Resolve an array entry: ephemeral registry first, then catalog."""
        entry = self._ephemeral.get(name)
        if entry is not None:
            return entry
        return self.catalog.entry(name)

    # ------------------------------------------------------------ inspection

    def schema(self, name: str) -> ArraySchema:
        return self.catalog_entry(name).schema

    def array_cells(self, name: str) -> CellSet:
        """Gather every cell of an array from all nodes (for tests/results)."""
        schema = self.catalog_entry(name).schema
        parts = [
            node.store(name).cells()
            for node in self.nodes
            if node.has_array(name) and node.store(name).n_cells
        ]
        if not parts:
            return CellSet.empty(
                schema.ndims, {a.name: a.dtype for a in schema.attrs}
            )
        return CellSet.concat(parts)

    def gather_array(self, name: str) -> LocalArray:
        """Materialise a distributed array as a single LocalArray."""
        schema = self.catalog_entry(name).schema
        return LocalArray(schema, build_chunks(schema, self.array_cells(name)))

    def array_cell_count(self, name: str) -> int:
        return sum(node.local_cell_count(name) for node in self.nodes)

    def storage_epoch(self, name: str) -> int:
        """Summed storage-level write counters across all node partitions.

        Complements the catalog version: a write that reaches a node's
        local store without going through the catalog (direct
        ``node.put_chunk`` in tests or tooling) still advances the
        epoch, so plan fingerprints embedding it can never serve a
        cached plan over silently mutated storage.
        """
        return sum(node.local_mutation_count(name) for node in self.nodes)

    def node_cell_counts(self, name: str) -> np.ndarray:
        """Cells of one array per node, as a length-k vector."""
        return np.array(
            [node.local_cell_count(name) for node in self.nodes], dtype=np.int64
        )

    def rebalance(self, name: str) -> "ShuffleSchedule":
        """Re-level one array's storage (largest chunk → least-loaded node).

        Moves chunks, updates the catalog, bumps the data version, and
        returns the simulated transfer schedule — so operators can see
        what the rebalance would cost on the wire.
        """
        from repro.cluster.network import TransferTable, schedule_shuffle

        entry = self.catalog.entry(name)
        chunks: dict[int, tuple[int, object]] = {}
        for node in self.nodes:
            if not node.has_array(name):
                continue
            for chunk_id, chunk in node.store(name).chunks.items():
                chunks[chunk_id] = (node.node_id, chunk)

        loads = [0] * self.n_nodes
        targets: dict[int, int] = {}
        for chunk_id in sorted(
            chunks, key=lambda cid: (-chunks[cid][1].n_cells, cid)
        ):
            node_id = min(range(self.n_nodes), key=lambda j: (loads[j], j))
            targets[chunk_id] = node_id
            loads[node_id] += chunks[chunk_id][1].n_cells

        rows: list[tuple[int, int, int, int]] = []
        for chunk_id, (source, chunk) in chunks.items():
            destination = targets[chunk_id]
            if destination == source:
                continue
            rows.append((source, destination, chunk.n_cells, chunk_id))
            self.nodes[source].store(name).chunks.pop(chunk_id)
            self.nodes[destination].put_chunk(name, chunk)
            self.catalog.record_chunk(name, chunk_id, destination)
        entry.bump_version()
        columns = np.array(rows, dtype=np.int64).reshape(-1, 4).T
        return schedule_shuffle(TransferTable(*columns), self.network)

    def validate_integrity(self, name: str) -> list[str]:
        """Cross-check one array's catalog record against node storage.

        Returns a list of human-readable problems (empty = healthy):
        catalog entries pointing at the wrong node, chunks stored without
        a catalog record, cells outside their chunk's rectangle.
        """
        problems: list[str] = []
        entry = self.catalog.entry(name)
        stored: dict[int, int] = {}
        for node in self.nodes:
            if not node.has_array(name):
                continue
            for chunk_id, chunk in node.store(name).chunks.items():
                if chunk_id in stored:
                    problems.append(
                        f"chunk {chunk_id} stored on both node "
                        f"{stored[chunk_id]} and node {node.node_id}"
                    )
                stored[chunk_id] = node.node_id
                try:
                    chunk.validate_against(entry.schema)
                except SchemaError as error:
                    problems.append(str(error))
        for chunk_id, node_id in entry.chunk_locations.items():
            actual = stored.get(chunk_id)
            if actual is None:
                problems.append(
                    f"catalog places chunk {chunk_id} on node {node_id} "
                    f"but no node stores it"
                )
            elif actual != node_id:
                problems.append(
                    f"catalog places chunk {chunk_id} on node {node_id} "
                    f"but node {actual} stores it"
                )
        for chunk_id in stored:
            if chunk_id not in entry.chunk_locations:
                problems.append(
                    f"chunk {chunk_id} stored on node {stored[chunk_id]} "
                    f"without a catalog record"
                )
        return problems

    def analyze(self, name: str) -> "ArrayStatistics":
        """Compute and cache statistics for one array (the ANALYZE verb).

        Histograms are built per node and merged — the distributed
        statistics-collection pattern of Section 4 — and cached in the
        catalog until the next load invalidates them.
        """
        from repro.adm.stats import Histogram
        from repro.cluster.catalog import ArrayStatistics

        entry = self.catalog_entry(name)
        schema = entry.schema
        histograms: dict[str, Histogram] = {}
        for attr in schema.attrs:
            merged: Histogram | None = None
            for node in self.nodes:
                if not node.has_array(name):
                    continue
                cells = node.store(name).cells()
                if not len(cells):
                    continue
                local = Histogram.from_values(cells.column(attr.name))
                merged = local if merged is None else merged.merge(local)
            if merged is not None:
                histograms[attr.name] = merged

        sizes = sorted(
            (
                size
                for node in self.nodes
                for size in node.local_chunk_sizes(name).values()
            ),
            reverse=True,
        )
        total = sum(sizes)
        top_n = max(1, int(round(0.05 * len(sizes)))) if sizes else 0
        stats = ArrayStatistics(
            version=entry.version,
            cell_count=total,
            histograms=histograms,
            top_share=(sum(sizes[:top_n]) / total) if total else 0.0,
            max_chunk_cells=sizes[0] if sizes else 0,
        )
        entry.statistics = stats
        return stats

    def statistics(self, name: str) -> "ArrayStatistics":
        """Fresh statistics for an array, analyzing on demand."""
        entry = self.catalog_entry(name)
        if entry.statistics_fresh:
            return entry.statistics
        return self.analyze(name)

    def chunk_node_matrix(self, name: str) -> np.ndarray:
        """Per-chunk, per-node cell counts: an (n_logical_chunks, k) matrix.

        This is the slice-statistics input for chunk-grained join units: in
        the base storage layout each chunk lives wholly on one node, so each
        row has a single non-zero entry.
        """
        schema = self.catalog.schema(name)
        matrix = np.zeros((schema.n_chunks, self.n_nodes), dtype=np.int64)
        for node in self.nodes:
            for chunk_id, size in node.local_chunk_sizes(name).items():
                matrix[chunk_id, node.node_id] += size
        return matrix
