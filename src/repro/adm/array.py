"""Local (single-instance) chunked arrays.

A :class:`LocalArray` pairs a schema with the chunks this instance stores.
In the distributed setting each cluster node holds a ``LocalArray`` per
array name — its local data partition — while the system catalog records
which node owns which chunk.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.adm.cells import CellSet
from repro.adm.chunk import Chunk, build_chunks, validate_chunks
from repro.adm.schema import ArraySchema
from repro.errors import SchemaError


class LocalArray:
    """A schema plus the chunks stored by one database instance."""

    def __init__(self, schema: ArraySchema, chunks: Mapping[int, Chunk] | None = None):
        self.schema = schema
        self.chunks: dict[int, Chunk] = dict(chunks or {})
        #: storage-level write counter: bumped on every chunk insertion,
        #: so higher layers (plan fingerprints, integrity checks) can
        #: detect writes that bypass the catalog's version bookkeeping
        self.mutation_count = 0
        validate_chunks(schema, list(self.chunks.values()))

    # ---------------------------------------------------------- constructors

    @classmethod
    def from_cells(
        cls,
        schema: ArraySchema,
        cells: CellSet,
        sort: bool = True,
    ) -> "LocalArray":
        """Build an array by chunking a flat cell set."""
        expected = set(schema.attr_names)
        got = set(cells.attr_names)
        if expected != got:
            raise SchemaError(
                f"cells have attributes {sorted(got)} but schema "
                f"{schema.name!r} declares {sorted(expected)}"
            )
        if cells.ndims != schema.ndims:
            raise SchemaError(
                f"cells are {cells.ndims}-D but schema {schema.name!r} "
                f"has {schema.ndims} dimensions"
            )
        return cls(schema, build_chunks(schema, cells, sort=sort))

    @classmethod
    def empty(cls, schema: ArraySchema) -> "LocalArray":
        return cls(schema, {})

    # -------------------------------------------------------------- contents

    @property
    def n_cells(self) -> int:
        return sum(chunk.n_cells for chunk in self.chunks.values())

    @property
    def n_chunks(self) -> int:
        """Number of *stored* (occupied) chunks."""
        return len(self.chunks)

    @property
    def nbytes(self) -> int:
        return sum(chunk.nbytes for chunk in self.chunks.values())

    def chunk_sizes(self) -> dict[int, int]:
        """Occupied-cell count per stored chunk."""
        return {cid: chunk.n_cells for cid, chunk in self.chunks.items()}

    def cells(self) -> CellSet:
        """All cells, concatenated in chunk-id order."""
        if not self.chunks:
            return CellSet.empty(
                self.schema.ndims,
                {a.name: a.dtype for a in self.schema.attrs},
            )
        ordered = [self.chunks[cid].cells for cid in sorted(self.chunks)]
        return CellSet.concat(ordered)

    def __iter__(self) -> Iterator[Chunk]:
        for cid in sorted(self.chunks):
            yield self.chunks[cid]

    def __len__(self) -> int:
        return self.n_chunks

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LocalArray({self.schema.to_literal()}, chunks={self.n_chunks}, "
            f"cells={self.n_cells})"
        )

    # ------------------------------------------------------------- mutation

    def put_chunk(self, chunk: Chunk) -> None:
        """Insert or merge a chunk into this instance's store."""
        self.put_chunks([chunk])

    def put_chunks(self, chunks: Sequence[Chunk]) -> None:
        """Insert or merge chunks in order, validated in one pass."""
        validate_chunks(self.schema, chunks)
        for chunk in chunks:
            self.mutation_count += 1
            existing = self.chunks.get(chunk.chunk_id)
            if existing is None:
                self.chunks[chunk.chunk_id] = chunk
                continue
            merged = CellSet.concat([existing.cells, chunk.cells])
            self.chunks[chunk.chunk_id] = Chunk(
                chunk_id=chunk.chunk_id,
                corner=chunk.corner,
                cells=merged,
                sorted_cells=False,
            )

    # -------------------------------------------------------------- density

    def to_dense(
        self,
        attribute: str,
        fill_value: float = 0.0,
        low: tuple[int, ...] | None = None,
        high: tuple[int, ...] | None = None,
    ) -> np.ndarray:
        """Materialise one attribute as a dense numpy window.

        Empty positions take ``fill_value``. By default the window covers
        the full dimension space; explicit corners carve out a region
        (useful for handing array data to numpy/scipy analytics).
        """
        self.schema.attr(attribute)  # validates the name
        if self.schema.is_dimensionless():
            raise SchemaError(
                "dimensionless arrays have no dense representation"
            )
        low = tuple(low) if low is not None else tuple(
            d.start for d in self.schema.dims
        )
        high = tuple(high) if high is not None else tuple(
            d.end for d in self.schema.dims
        )
        if len(low) != self.schema.ndims or len(high) != self.schema.ndims:
            raise SchemaError(
                f"window corners need {self.schema.ndims} coordinates"
            )
        shape = tuple(h - l + 1 for l, h in zip(low, high))
        if any(extent <= 0 for extent in shape):
            raise SchemaError(f"empty window {low}..{high}")
        dtype = self.schema.attr(attribute).dtype
        dense = np.full(shape, fill_value, dtype=np.result_type(dtype, type(fill_value)))
        cells = self.cells()
        if not len(cells):
            return dense
        mask = np.ones(len(cells), dtype=bool)
        for axis, (lo, hi) in enumerate(zip(low, high)):
            column = cells.dim_column(axis)
            mask &= (column >= lo) & (column <= hi)
        kept = cells.take(mask)
        index = tuple(
            kept.dim_column(axis) - low[axis]
            for axis in range(self.schema.ndims)
        )
        dense[index] = kept.column(attribute)
        return dense

    def rows(self):
        """Iterate cells as dicts: dimension and attribute name → value."""
        cells = self.cells()
        dim_names = self.schema.dim_names
        attr_names = self.schema.attr_names
        for position in range(len(cells)):
            row = {
                name: int(cells.coords[position, axis])
                for axis, name in enumerate(dim_names)
            }
            for name in attr_names:
                value = cells.attrs[name][position]
                row[name] = value.item() if hasattr(value, "item") else value
            yield row

    def density(self) -> float:
        """Fraction of logical cell positions that are occupied."""
        logical = self.schema.logical_cells
        return self.n_cells / logical if logical else float("nan")

    def skew_summary(self, top_fraction: float = 0.05) -> dict[str, float]:
        """Storage-skew statistics used throughout Section 6.3.

        Returns the share of cells held by the densest ``top_fraction`` of
        *stored* chunks, plus mean/max chunk sizes.
        """
        sizes = np.array(sorted(self.chunk_sizes().values(), reverse=True))
        if not len(sizes):
            return {"top_share": 0.0, "mean": 0.0, "max": 0.0}
        top_n = max(1, int(round(top_fraction * len(sizes))))
        total = sizes.sum()
        return {
            "top_share": float(sizes[:top_n].sum() / total) if total else 0.0,
            "mean": float(sizes.mean()),
            "max": float(sizes.max()),
        }
