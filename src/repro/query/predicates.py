"""Join predicates and their D:D / A:A / A:D taxonomy (Section 2.2).

An equi-join predicate is a conjunction of ``(l_i, r_i)`` pairs where each
side names a dimension or attribute of its source array. The pair's *kind*
(Dimension:Dimension, Attribute:Attribute, Attribute:Dimension) drives the
logical planner: D:D joins can reuse the arrays' spatial organisation,
while A:A and A:D joins force a schema reorganisation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.adm.schema import ArraySchema
from repro.errors import SchemaError


class PredicateKind(enum.Enum):
    """Taxonomy of one predicate pair."""

    DIM_DIM = "D:D"
    ATTR_ATTR = "A:A"
    ATTR_DIM = "A:D"
    DIM_ATTR = "D:A"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class FieldRef:
    """A reference to a dimension or attribute of a named array."""

    array: str | None
    field: str

    @classmethod
    def parse(cls, text: str) -> "FieldRef":
        parts = text.split(".")
        if len(parts) == 1:
            return cls(array=None, field=parts[0])
        if len(parts) == 2:
            return cls(array=parts[0], field=parts[1])
        raise SchemaError(f"malformed field reference {text!r}")

    def qualified(self) -> str:
        return f"{self.array}.{self.field}" if self.array else self.field

    def resolve_kind(self, schema: ArraySchema) -> str:
        """``"dimension"`` or ``"attribute"`` within ``schema``."""
        return schema.field_kind(self.field)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.qualified()


@dataclass(frozen=True)
class JoinPredicate:
    """One equi-join pair: ``left`` from the left array, ``right`` from the right."""

    left: FieldRef
    right: FieldRef

    def kind(self, left_schema: ArraySchema, right_schema: ArraySchema) -> PredicateKind:
        lkind = self.left.resolve_kind(left_schema)
        rkind = self.right.resolve_kind(right_schema)
        if lkind == "dimension" and rkind == "dimension":
            return PredicateKind.DIM_DIM
        if lkind == "attribute" and rkind == "attribute":
            return PredicateKind.ATTR_ATTR
        if lkind == "attribute":
            return PredicateKind.ATTR_DIM
        return PredicateKind.DIM_ATTR

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.left} = {self.right}"


def classify_predicates(
    predicates: list[JoinPredicate],
    left_schema: ArraySchema,
    right_schema: ArraySchema,
) -> dict[JoinPredicate, PredicateKind]:
    """Classify each predicate pair against the source schemas."""
    if not predicates:
        raise SchemaError("a join requires at least one predicate")
    return {
        pred: pred.kind(left_schema, right_schema) for pred in predicates
    }


def dominant_kind(kinds: dict[JoinPredicate, PredicateKind]) -> PredicateKind:
    """The join's overall character, used to headline plans.

    A join is D:D only if *every* pair is D:D (then the spatial layout can
    be reused outright); any attribute comparison forces reorganisation, so
    A:A dominates A:D which dominates D:D.
    """
    values = set(kinds.values())
    if values == {PredicateKind.DIM_DIM}:
        return PredicateKind.DIM_DIM
    if PredicateKind.ATTR_ATTR in values:
        return PredicateKind.ATTR_ATTR
    return PredicateKind.ATTR_DIM
