"""The centralised system catalog.

The coordinator node hosts shared state describing the cluster: array
schemas and the chunk-to-node placement of every stored array
(Section 2.1). Planners consult the catalog for slice statistics; the
executor updates it when shuffles move data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.adm.schema import ArraySchema
from repro.adm.stats import Histogram
from repro.errors import CatalogError


@dataclass
class ArrayStatistics:
    """ANALYZE output cached in the catalog.

    ``version`` records the entry's data version at analysis time;
    statistics are stale (and recomputed on demand) once loads bump it.
    """

    version: int
    cell_count: int
    histograms: dict[str, Histogram] = field(default_factory=dict)
    top_share: float = 0.0
    max_chunk_cells: int = 0


@dataclass
class ArrayEntry:
    """Catalog record for one distributed array."""

    schema: ArraySchema
    #: chunk_id -> node_id of the node storing that chunk. A chunk lives on
    #: exactly one node in the base storage layout; join-time slices are a
    #: temporary reorganisation and are not recorded here.
    chunk_locations: dict[int, int] = field(default_factory=dict)
    #: bumped on every data load; invalidates cached statistics and, via
    #: the plan fingerprint, cached query plans
    version: int = 0
    #: catalog-unique incarnation id, fresh per CREATE — so dropping and
    #: recreating an array under the same name can never alias the old
    #: incarnation's (name, version) in a plan fingerprint
    uid: int = 0
    statistics: ArrayStatistics | None = None

    @property
    def n_chunks(self) -> int:
        return len(self.chunk_locations)

    def bump_version(self) -> None:
        self.version += 1

    @property
    def statistics_fresh(self) -> bool:
        return (
            self.statistics is not None
            and self.statistics.version == self.version
        )


class SystemCatalog:
    """Schema and placement registry shared by all nodes."""

    def __init__(self) -> None:
        self._arrays: dict[str, ArrayEntry] = {}
        self._uid_clock = 0

    def register(self, schema: ArraySchema) -> ArrayEntry:
        if schema.name in self._arrays:
            raise CatalogError(f"array {schema.name!r} already exists")
        self._uid_clock += 1
        entry = ArrayEntry(schema=schema, uid=self._uid_clock)
        self._arrays[schema.name] = entry
        return entry

    def drop(self, name: str) -> None:
        if name not in self._arrays:
            raise CatalogError(f"array {name!r} does not exist")
        del self._arrays[name]

    def entry(self, name: str) -> ArrayEntry:
        try:
            return self._arrays[name]
        except KeyError:
            raise CatalogError(f"array {name!r} does not exist") from None

    def schema(self, name: str) -> ArraySchema:
        return self.entry(name).schema

    def exists(self, name: str) -> bool:
        return name in self._arrays

    def array_names(self) -> list[str]:
        return sorted(self._arrays)

    def record_chunk(self, array_name: str, chunk_id: int, node_id: int) -> None:
        self.entry(array_name).chunk_locations[chunk_id] = node_id

    def chunk_location(self, array_name: str, chunk_id: int) -> int:
        locations = self.entry(array_name).chunk_locations
        try:
            return locations[chunk_id]
        except KeyError:
            raise CatalogError(
                f"array {array_name!r} has no stored chunk {chunk_id}"
            ) from None
