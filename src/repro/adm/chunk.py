"""Chunks: the unit of storage, memory, I/O, and network transmission.

Each chunk covers a fixed rectangle of the array's dimension space
(Section 2.1). Only occupied cells are stored, so a chunk's physical size
is proportional to its occupied-cell count; with storage skew this varies
widely between chunks of the same array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.adm.cells import CellSet
from repro.adm.schema import ArraySchema
from repro.errors import SchemaError


@dataclass
class Chunk:
    """One stored chunk: its grid position plus its occupied cells.

    ``chunk_id`` is the flat C-order index into the schema's chunk grid and
    ``corner`` is the lowest coordinate the chunk covers. ``sorted_cells``
    records whether ``cells`` are in C-style dimension order; the merge join
    requires sorted chunks, while rechunked or hashed data is unordered.
    """

    chunk_id: int
    corner: tuple[int, ...]
    cells: CellSet
    sorted_cells: bool = field(default=True)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def nbytes(self) -> int:
        return self.cells.nbytes

    def sort(self) -> "Chunk":
        """Return this chunk with cells in C-style order."""
        if self.sorted_cells:
            return self
        return Chunk(
            chunk_id=self.chunk_id,
            corner=self.corner,
            cells=self.cells.sorted_c_order(),
            sorted_cells=True,
        )

    def validate_against(self, schema: ArraySchema) -> None:
        """Check that every cell falls inside this chunk's rectangle."""
        validate_chunks(schema, [self])


def validate_chunks(schema: ArraySchema, chunks: Sequence[Chunk]) -> None:
    """Check every chunk's cells against its rectangle in one pass.

    One :meth:`ArraySchema.chunk_ids` call over all the chunks' cells;
    raises :class:`SchemaError` naming the first stray cell of the first
    chunk (in the given order) that holds one.
    """
    if schema.is_dimensionless() or not chunks:
        return
    sizes = [chunk.n_cells for chunk in chunks]
    if len(chunks) == 1:
        coords = chunks[0].cells.coords
    else:
        coords = np.concatenate([chunk.cells.coords for chunk in chunks])
    owner = np.repeat([chunk.chunk_id for chunk in chunks], sizes)
    stray = np.flatnonzero(schema.chunk_ids(coords) != owner)
    if stray.size:
        row = int(stray[0])
        chunk_id = int(owner[row])
        raise SchemaError(
            f"cell {tuple(int(v) for v in coords[row])} does not belong to "
            f"chunk {chunk_id} of schema {schema.name!r}"
        )


def build_chunks(
    schema: ArraySchema,
    cells: CellSet,
    sort: bool = True,
) -> dict[int, Chunk]:
    """Partition a cell set into the schema's chunk grid.

    Empty chunks are not materialised (the engine only stores occupied
    cells). With ``sort=True`` each chunk's cells are placed in C-style
    order, matching the on-disk layout of Figure 1.

    One stable sort orders the whole cell set by chunk id (and, with
    ``sort``, by C-order coordinates within a chunk); every chunk is then
    a slice view of that sorted copy.
    """
    schema.validate_coords(cells.coords)
    if schema.is_dimensionless():
        chunk = Chunk(chunk_id=0, corner=(), cells=cells, sorted_cells=True)
        return {0: chunk} if len(cells) else {}
    if not len(cells):
        return {}

    ids = schema.chunk_ids(cells.coords)
    if sort:
        # np.lexsort sorts by the *last* key first: chunk id, then the
        # coordinate axes outermost first, then arrival order.
        axes = [cells.coords[:, axis] for axis in range(schema.ndims)]
        order = np.lexsort(axes[::-1] + [ids])
    else:
        order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
    chunk_ids = sorted_ids[starts]
    parts = cells.take(order).split_sorted(np.r_[starts, len(order)])
    corners = schema.chunk_corners(chunk_ids)
    return {
        chunk_id: Chunk(
            chunk_id=chunk_id,
            corner=tuple(corner),
            cells=part,
            sorted_cells=sort,
        )
        for chunk_id, corner, part in zip(
            chunk_ids.tolist(), corners.tolist(), parts
        )
    }
