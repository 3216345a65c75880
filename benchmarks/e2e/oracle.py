"""Independent oracle: a brute-force numpy equi-join and result digests.

Imports nothing from ``repro.engine`` / ``repro.core`` — only numpy and
hashlib — so an engine bug cannot hide behind a shared helper. Inputs
and outputs are plain *column tables*: ``{field name: int64 column}``
with dimensions and attributes side by side.

Two digests identify a result irrespective of row order:

- :func:`sorted_digest` — SHA-256 over the rows' sorted structured
  bytes (the byte-identity the issue asks for); O(n log n), taken once
  per distinct (statement, data version);
- :func:`multiset_hash` — row count plus two 64-bit sums over per-row
  codes; O(n), taken on *every* served result so 800k-cell outputs can
  be checked between requests without a sort each time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

Columns = dict[str, np.ndarray]


# ------------------------------------------------------------------ the join


def equi_join(
    left_keys: list[np.ndarray], right_keys: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """All (left row, right row) pairs whose key columns are equal.

    Lexsorts the union of both sides once, numbers the runs of equal
    keys, and expands each run's left × right cross product by
    run-length arithmetic.
    """
    n_left = len(left_keys[0])
    n_total = n_left + len(right_keys[0])
    if n_left == 0 or n_total == n_left:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    union = [
        np.concatenate([np.asarray(l, np.int64), np.asarray(r, np.int64)])
        for l, r in zip(left_keys, right_keys)
    ]
    order = np.lexsort(union[::-1])
    starts_run = np.zeros(n_total, dtype=bool)
    starts_run[0] = True
    for column in union:
        ordered = column[order]
        starts_run[1:] |= ordered[1:] != ordered[:-1]
    run_of_sorted = np.cumsum(starts_run) - 1
    run = np.empty(n_total, dtype=np.int64)
    run[order] = run_of_sorted
    left_run, right_run = run[:n_left], run[n_left:]

    right_by_run = np.argsort(right_run, kind="stable")
    right_count = np.bincount(right_run, minlength=int(run_of_sorted[-1]) + 1)
    right_start = np.cumsum(right_count) - right_count
    fan_out = right_count[left_run]
    left_idx = np.repeat(np.arange(n_left, dtype=np.int64), fan_out)
    within = np.arange(len(left_idx)) - np.repeat(
        np.cumsum(fan_out) - fan_out, fan_out
    )
    right_idx = right_by_run[np.repeat(right_start[left_run], fan_out) + within]
    return left_idx, right_idx


# ------------------------------------------- per-statement reference outputs


def hash_reference(
    tables: dict[str, Columns],
    memo: dict,
    select: tuple[tuple[str, str, str], ...],
) -> Columns:
    """``SELECT <select> FROM A, B WHERE A.v1 = B.v1 AND A.v2 = B.v2``.

    ``select`` lists ``(output name, array, field)``. Every select-list
    variant projects the same join, so the matched row pairs are kept in
    ``memo`` (one dict per set of tables).
    """
    a, b = tables["A"], tables["B"]
    if "hash_rows" not in memo:
        memo["hash_rows"] = equi_join([a["v1"], a["v2"]], [b["v1"], b["v2"]])
    index = dict(zip("AB", memo["hash_rows"]))
    return {
        out: tables[array][field][index[array]]
        for out, array, field in select
    }


def merge_reference(tables: dict[str, Columns], memo: dict) -> Columns:
    """``SELECT A.v1 - B.v1 AS d1, A.v2 - B.v2 AS d2 FROM A, B
    WHERE A.i = B.i AND A.j = B.j`` (output keeps dimensions i, j)."""
    a, b = tables["A"], tables["B"]
    li, ri = equi_join([a["i"], a["j"]], [b["i"], b["j"]])
    return {
        "i": a["i"][li],
        "j": a["j"][li],
        "d1": a["v1"][li] - b["v1"][ri],
        "d2": a["v2"][li] - b["v2"][ri],
    }


def dense_reference(tables: dict[str, Columns], memo: dict) -> Columns:
    """``SELECT A.v, B.w FROM A, B WHERE A.v = B.w``."""
    a, b = tables["A"], tables["B"]
    li, ri = equi_join([a["v"]], [b["w"]])
    return {"v": a["v"][li], "w": b["w"][ri]}


def chain_reference(
    tables: dict[str, Columns], memo: dict, n_arrays: int
) -> Columns:
    """``SELECT T0.k0, T{n-1}.payload FROM T0, .., T{n-1}
    WHERE T0.k1 = T1.k1 AND T1.k2 = T2.k2 AND ...``, joined left to right."""
    first_rows = np.arange(len(tables["T0"]["k0"]), dtype=np.int64)
    last_rows = first_rows
    for m in range(1, n_arrays):
        key = f"k{m}"
        carried = tables[f"T{m - 1}"][key][last_rows]
        li, ri = equi_join([carried], [tables[f"T{m}"][key]])
        first_rows, last_rows = first_rows[li], ri
    return {
        "k0": tables["T0"]["k0"][first_rows],
        "payload": tables[f"T{n_arrays - 1}"]["payload"][last_rows],
    }


# ------------------------------------------------------------------- digests

_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def _ordered(columns: Columns) -> tuple[list[str], list[np.ndarray]]:
    names = sorted(columns)
    return names, [
        np.ascontiguousarray(columns[name], dtype=np.int64) for name in names
    ]


def multiset_hash(columns: Columns) -> tuple[int, int, int]:
    """(row count, Σ r, Σ mix(r)) over per-row codes r — equal iff the row
    multisets are, up to a hash collision; independent of row order.

    A row's code is a wrap-around linear combination of its fields under
    fixed odd 64-bit multipliers (fields sorted by name); ``mix`` is the
    splitmix64 finaliser. Runs in place over two scratch columns: it is
    taken on every served result, between requests.
    """
    _, cols = _ordered(columns)
    n_rows = len(cols[0]) if cols else 0
    row = np.zeros(n_rows, dtype=np.uint64)
    scratch = np.empty(n_rows, dtype=np.uint64)
    for position, column in enumerate(cols):
        multiplier = np.uint64(((_GOLDEN * (2 * position + 1)) & _MASK) | 1)
        np.multiply(column.view(np.uint64), multiplier, out=scratch)
        row += scratch
    linear = int(np.add.reduce(row, dtype=np.uint64))
    for shift, multiplier in ((30, _MIX_1), (27, _MIX_2), (31, None)):
        np.right_shift(row, np.uint64(shift), out=scratch)
        row ^= scratch
        if multiplier is not None:
            row *= multiplier
    return n_rows, linear, int(np.add.reduce(row, dtype=np.uint64))


def sorted_digest(columns: Columns) -> str:
    """SHA-256 of the field names plus the rows' bytes in sorted row order
    (fields by name, rows lexicographically, little-endian int64)."""
    names, cols = _ordered(columns)
    digest = hashlib.sha256(",".join(names).encode())
    if cols and len(cols[0]):
        order = np.lexsort(cols[::-1])
        rows = np.stack([column[order] for column in cols], axis=1)
        digest.update(rows.astype("<i8", copy=False).tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class Summary:
    """What is kept of one result: enough to compare, nothing to hold."""

    multiset: tuple[int, int, int]
    #: None when only the O(n) hash was taken
    digest: str | None = None

    @classmethod
    def of(cls, columns: Columns, with_digest: bool) -> "Summary":
        return cls(
            multiset=multiset_hash(columns),
            digest=sorted_digest(columns) if with_digest else None,
        )

    def matches(self, reference: "Summary") -> bool:
        """True when this served result equals the oracle's reference."""
        if self.multiset != reference.multiset:
            return False
        return self.digest is None or self.digest == reference.digest
