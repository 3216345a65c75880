"""A single database instance with its local data partition."""

from __future__ import annotations

from repro.adm.array import LocalArray
from repro.adm.chunk import Chunk
from repro.adm.schema import ArraySchema
from repro.errors import CatalogError


class Node:
    """One cluster node: an id plus per-array local chunk stores."""

    def __init__(self, node_id: int):
        self.node_id = node_id
        self._stores: dict[str, LocalArray] = {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Node({self.node_id}, arrays={sorted(self._stores)})"

    # --------------------------------------------------------------- storage

    def create_store(self, schema: ArraySchema) -> LocalArray:
        """Create (or reset) the local partition for an array."""
        store = LocalArray.empty(schema)
        self._stores[schema.name] = store
        return store

    def has_array(self, name: str) -> bool:
        return name in self._stores

    def store(self, name: str) -> LocalArray:
        try:
            return self._stores[name]
        except KeyError:
            raise CatalogError(
                f"node {self.node_id} holds no partition of array {name!r}"
            ) from None

    def put_chunk(self, array_name: str, chunk: Chunk) -> None:
        self.store(array_name).put_chunk(chunk)

    def put_chunks(self, array_name: str, chunks: list[Chunk]) -> None:
        self.store(array_name).put_chunks(chunks)

    def drop_array(self, name: str) -> None:
        self._stores.pop(name, None)

    # ------------------------------------------------------------ statistics

    def local_cell_count(self, array_name: str) -> int:
        """Occupied cells of one array stored on this node."""
        if not self.has_array(array_name):
            return 0
        return self.store(array_name).n_cells

    def local_mutation_count(self, array_name: str) -> int:
        """Storage-level write counter of this node's partition (0 if none)."""
        if not self.has_array(array_name):
            return 0
        return self.store(array_name).mutation_count

    def local_chunk_sizes(self, array_name: str) -> dict[int, int]:
        """Chunk-id → cell-count map for this node's partition."""
        if not self.has_array(array_name):
            return {}
        return self.store(array_name).chunk_sizes()
