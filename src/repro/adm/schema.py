"""Logical array schemas: dimensions, attributes, and chunking.

An array schema follows the SciDB convention used throughout the paper::

    A<v1:int64, v2:float64>[i=1,6,3, j=1,6,3]

Dimensions are ranges of contiguous integers with a chunk interval; the
chunk grid they induce is the unit of storage, I/O, and network transfer.
Attributes are typed scalar values stored in each occupied cell.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from repro.errors import SchemaError

#: Canonical attribute types and their numpy dtypes.
ATTRIBUTE_DTYPES = {
    "int64": np.dtype(np.int64),
    "float64": np.dtype(np.float64),
}

#: Accepted aliases in schema literals, normalised to canonical names.
TYPE_ALIASES = {
    "int": "int64",
    "int32": "int64",
    "int64": "int64",
    "long": "int64",
    "float": "float64",
    "double": "float64",
    "float32": "float64",
    "float64": "float64",
}


@dataclass(frozen=True)
class Dimension:
    """One named dimension: a contiguous integer range plus chunk interval.

    ``start`` and ``end`` are inclusive, matching the paper's
    ``i=1,6,3`` notation (values 1..6, chunk interval 3).
    """

    name: str
    start: int
    end: int
    chunk_interval: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise SchemaError(
                f"dimension {self.name!r}: end {self.end} < start {self.start}"
            )
        if self.chunk_interval <= 0:
            raise SchemaError(
                f"dimension {self.name!r}: chunk interval must be positive, "
                f"got {self.chunk_interval}"
            )

    @property
    def extent(self) -> int:
        """Number of potential values along this dimension."""
        return self.end - self.start + 1

    @property
    def chunk_count(self) -> int:
        """Number of logical chunks along this dimension."""
        return -(-self.extent // self.chunk_interval)

    def chunk_index_of(self, values: np.ndarray) -> np.ndarray:
        """Map dimension values to per-dimension chunk indices (vectorised)."""
        return (np.asarray(values, dtype=np.int64) - self.start) // self.chunk_interval

    def chunk_start(self, index: int) -> int:
        """Lowest dimension value covered by chunk ``index``."""
        return self.start + index * self.chunk_interval

    def contains(self, values: np.ndarray) -> np.ndarray:
        """Boolean mask of which values fall inside this dimension's range."""
        values = np.asarray(values)
        return (values >= self.start) & (values <= self.end)

    def same_shape(self, other: "Dimension") -> bool:
        """True if ranges and chunk intervals match (names may differ)."""
        return (
            self.start == other.start
            and self.end == other.end
            and self.chunk_interval == other.chunk_interval
        )

    def to_literal(self) -> str:
        """Render as it appears inside a schema literal."""
        return f"{self.name}={self.start},{self.end},{self.chunk_interval}"


@dataclass(frozen=True)
class Attribute:
    """One named, typed attribute stored in occupied cells."""

    name: str
    type_name: str

    def __post_init__(self) -> None:
        if self.type_name not in ATTRIBUTE_DTYPES:
            raise SchemaError(
                f"attribute {self.name!r}: unknown type {self.type_name!r}; "
                f"expected one of {sorted(ATTRIBUTE_DTYPES)}"
            )

    @property
    def dtype(self) -> np.dtype:
        return ATTRIBUTE_DTYPES[self.type_name]

    def to_literal(self) -> str:
        return f"{self.name}:{self.type_name}"


@dataclass(frozen=True)
class ArraySchema:
    """A named array schema: ordered dimensions plus typed attributes.

    A schema with no dimensions (``dims == ()``) describes an *unordered*
    collection of cells; the paper uses these as A:A join outputs
    (``INTO T<i:int64, j:int64>[]``).
    """

    name: str
    dims: tuple[Dimension, ...]
    attrs: tuple[Attribute, ...]

    def __post_init__(self) -> None:
        names = [d.name for d in self.dims] + [a.name for a in self.attrs]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise SchemaError(
                f"schema {self.name!r}: duplicate field names {sorted(dupes)}"
            )

    # ------------------------------------------------------------------ shape

    @property
    def ndims(self) -> int:
        return len(self.dims)

    @property
    def dim_names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.dims)

    @property
    def attr_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attrs)

    @property
    def field_names(self) -> tuple[str, ...]:
        return self.dim_names + self.attr_names

    @property
    def chunk_grid(self) -> tuple[int, ...]:
        """Per-dimension chunk counts."""
        return tuple(d.chunk_count for d in self.dims)

    @property
    def n_chunks(self) -> int:
        """Total number of logical chunks (1 for dimensionless schemas)."""
        return int(np.prod(self.chunk_grid, dtype=np.int64)) if self.dims else 1

    @property
    def logical_cells(self) -> int:
        """Total number of potential cell positions."""
        return int(np.prod([d.extent for d in self.dims], dtype=np.int64)) if self.dims else 0

    def is_dimensionless(self) -> bool:
        return not self.dims

    # ---------------------------------------------------------------- lookups

    def dim(self, name: str) -> Dimension:
        for d in self.dims:
            if d.name == name:
                return d
        raise SchemaError(f"schema {self.name!r} has no dimension {name!r}")

    def attr(self, name: str) -> Attribute:
        for a in self.attrs:
            if a.name == name:
                return a
        raise SchemaError(f"schema {self.name!r} has no attribute {name!r}")

    def has_dim(self, name: str) -> bool:
        return name in self.dim_names

    def has_attr(self, name: str) -> bool:
        return name in self.attr_names

    def field_kind(self, name: str) -> str:
        """Return ``"dimension"`` or ``"attribute"`` for a field name."""
        if self.has_dim(name):
            return "dimension"
        if self.has_attr(name):
            return "attribute"
        raise SchemaError(f"schema {self.name!r} has no field {name!r}")

    # --------------------------------------------------------------- chunking

    def chunk_ids(self, coords: np.ndarray) -> np.ndarray:
        """Map an ``(n, ndims)`` coordinate matrix to flat chunk ids.

        Flat ids follow C-style (row-major) order over the chunk grid, the
        same order in which the executor iterates the array space.
        """
        coords = np.asarray(coords, dtype=np.int64)
        if self.is_dimensionless():
            return np.zeros(len(coords), dtype=np.int64)
        if coords.ndim != 2 or coords.shape[1] != self.ndims:
            raise SchemaError(
                f"expected (n, {self.ndims}) coordinates, got shape {coords.shape}"
            )
        flat = np.zeros(len(coords), dtype=np.int64)
        for axis, dim in enumerate(self.dims):
            flat = flat * dim.chunk_count + dim.chunk_index_of(coords[:, axis])
        return flat

    def chunk_corner(self, chunk_id: int) -> tuple[int, ...]:
        """Lowest coordinate covered by chunk ``chunk_id``."""
        if self.is_dimensionless():
            return ()
        if not 0 <= chunk_id < self.n_chunks:
            raise SchemaError(
                f"chunk id {chunk_id} out of range [0, {self.n_chunks})"
            )
        corner = []
        remaining = int(chunk_id)
        for count in reversed(self.chunk_grid):
            corner.append(remaining % count)
            remaining //= count
        corner.reverse()
        return tuple(
            d.chunk_start(idx) for d, idx in zip(self.dims, corner)
        )

    def validate_coords(self, coords: np.ndarray) -> None:
        """Raise :class:`SchemaError` if any coordinate is out of range."""
        coords = np.asarray(coords, dtype=np.int64)
        if self.is_dimensionless():
            return
        for axis, dim in enumerate(self.dims):
            inside = dim.contains(coords[:, axis])
            if not inside.all():
                bad = coords[~inside][0]
                raise SchemaError(
                    f"coordinate {tuple(int(v) for v in bad)} outside schema "
                    f"{self.name!r} along dimension {dim.name!r}"
                )

    # ------------------------------------------------------------ comparisons

    def same_shape(self, other: "ArraySchema") -> bool:
        """True if dimension ranges and chunk intervals match positionally.

        This is the merge-join compatibility test from Section 2.3.1: same
        dimension count, extents, and chunk intervals (names may differ).
        """
        if self.ndims != other.ndims:
            return False
        return all(a.same_shape(b) for a, b in zip(self.dims, other.dims))

    # ------------------------------------------------------------- derivation

    def with_name(self, name: str) -> "ArraySchema":
        return replace(self, name=name)

    def with_attrs(self, attrs: Iterable[Attribute]) -> "ArraySchema":
        return replace(self, attrs=tuple(attrs))

    def to_literal(self) -> str:
        """Render the SciDB-style schema literal."""
        attrs = ", ".join(a.to_literal() for a in self.attrs)
        dims = ", ".join(d.to_literal() for d in self.dims)
        return f"{self.name}<{attrs}>[{dims}]"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.to_literal()
