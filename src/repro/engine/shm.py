"""Shared-memory arenas for zero-copy process-pool matching.

The slice mapping already assembles each join side into one contiguous,
unit-major block (``_SideAssembly``): packed ``uint64`` composite keys
plus an ``n_units + 1`` bounds table whose slice ``[bounds[u],
bounds[u+1])`` is unit ``u``'s rows. That layout is exactly what a
process worker needs to match any subset of units — so instead of
pickling per-unit cell sets into every pool task, the coordinator copies
the four arrays once into a :class:`multiprocessing.shared_memory`
segment and ships workers only the tiny :class:`ArenaLayout` descriptor.
Workers attach read-only, gather their units' key rows straight out of
the mapping, and return nothing but match index arrays; the coordinator
materialises output cells from its own (already shared, fork-inherited)
assembly arrays using those global indices.

The key columns are stored **sorted within each unit** (units stay in
ascending order, so the whole column is ascending once the unit id is
prepended as high bits), with an ``order`` map from sorted position
back to the original assembly row. That permutation is computed once
per prepared join by :func:`_unit_sorted` — the slice table keeps it
and shares it with the in-process fused matcher — so arena creation
only gathers through it; every execution's match then runs on
pre-sorted runs — a binary-search merge instead of an argsort per
batch — and workers map matched positions through ``order`` before
shipping indices back.

Segment layout, all 8-byte aligned by construction::

    [left keys   : uint64 x n_left ]   (sorted within units)
    [left order  : int64  x n_left ]   (sorted position -> assembly row)
    [right keys  : uint64 x n_right]   (sorted within units)
    [right order : int64  x n_right]
    [left bounds : int64 x (n_units + 1)]
    [right bounds: int64 x (n_units + 1)]

Lifecycle: the *owner* (coordinator) creates the segment and is the only
party that unlinks it; workers attach and close. Every arena registers a
:func:`weakref.finalize` callback, so a dropped reference — including a
mid-execution exception unwinding the coordinator — still closes and
unlinks the segment (``weakref.finalize`` also runs at interpreter
exit). Segment names carry :data:`ARENA_PREFIX`, which is what the leak
check in the test suite scans ``/dev/shm`` for.
"""

from __future__ import annotations

import os
import secrets
import weakref
from dataclasses import dataclass

import numpy as np
from multiprocessing import shared_memory

from repro.engine.kernels import build_key_filter, filter_log2_for

#: Every arena segment name starts with this; tests scan /dev/shm for it
#: to prove exception paths leak nothing.
ARENA_PREFIX = "repro-arena-"

_UINT64 = np.dtype(np.uint64)
_INT64 = np.dtype(np.int64)


@dataclass(frozen=True)
class ArenaLayout:
    """Everything a worker needs to attach: name plus array extents.

    Small and picklable — this is the whole per-task payload for the
    key material (the unit id array rides alongside it).
    """

    name: str
    n_left: int
    n_right: int
    n_units: int
    key_width: int
    #: True when the unit id fits the bits above the packed key and the
    #: stored key columns are the *fused* ``(unit << key_width) | key``
    #: values — globally sorted, matchable with zero per-execution
    #: transforms. False falls back to raw per-unit-sorted keys (the
    #: hash+verify path).
    fused: bool = True
    #: log2 bit-size of the right-side membership filter region (0 =
    #: no filter; only fused arenas carry one). Workers prefilter left
    #: needles against it before the exact binary-search match, which
    #: collapses low-selectivity matching to a candidate handful.
    filter_log2: int = 0

    @property
    def filter_bytes(self) -> int:
        return (1 << (self.filter_log2 - 3)) if self.filter_log2 >= 3 else 0

    @property
    def nbytes(self) -> int:
        return (
            8 * (2 * (self.n_left + self.n_right) + 2 * (self.n_units + 1))
            + self.filter_bytes
        )


def _region_offsets(
    layout: ArenaLayout,
) -> tuple[int, int, int, int, int, int, int]:
    left_keys = 0
    left_order = left_keys + 8 * layout.n_left
    right_keys = left_order + 8 * layout.n_left
    right_order = right_keys + 8 * layout.n_right
    left_bounds = right_order + 8 * layout.n_right
    right_bounds = left_bounds + 8 * (layout.n_units + 1)
    right_filter = right_bounds + 8 * (layout.n_units + 1)
    return (
        left_keys, left_order, right_keys, right_order,
        left_bounds, right_bounds, right_filter,
    )


def fused_width_fits(n_units: int, key_width: int) -> bool:
    """True when unit ids fit the bits above a ``key_width``-bit key."""
    return max(n_units - 1, 0).bit_length() + int(key_width) <= 64


def fuse_unit_keys(
    keys: np.ndarray, counts: np.ndarray, first_unit: int, key_width: int
) -> np.ndarray:
    """The fused ``(unit << key_width) | key`` column of a unit range.

    ``keys`` are the range's rows in unit-major order (original or
    within-unit sorted: either keeps every row inside its unit) and
    ``counts`` its per-unit row counts, starting at unit ``first_unit``.
    Callers check :func:`fused_width_fits` first.
    """
    units = np.arange(
        first_unit, first_unit + counts.size, dtype=np.uint64
    )
    prefix = np.repeat(units << np.uint64(key_width), counts)
    return prefix | keys


def _unit_sorted(
    keys: np.ndarray, bounds: np.ndarray, key_width: int
) -> np.ndarray:
    """Stable within-unit sort permutation of a unit-major key column.

    ``order[p]`` is the row holding sorted position ``p``: units stay in
    ascending order, keys ascend within a unit, and equal keys keep row
    order. ``int32`` while the column has fewer than 2³¹ rows, ``int64``
    beyond. One sort buys every later match a sort-free merge; the
    slice table computes it once per side and hands it to both the
    in-process matcher and :meth:`SharedArena.create`.
    """
    bounds = np.asarray(bounds, dtype=np.int64)
    counts = np.diff(bounds)
    if fused_width_fits(counts.size, key_width):
        order = np.argsort(
            fuse_unit_keys(keys, counts, 0, key_width), kind="stable"
        )
    else:
        unit_col = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
        order = np.lexsort((keys, unit_col))
    return order.astype(np.int32 if keys.size < 2**31 else np.int64)


def _release_segment(segment: shared_memory.SharedMemory, owner: bool) -> None:
    """Idempotent close (+ unlink for the owner); never raises.

    Runs from ``release()``, from the GC finalizer, and at interpreter
    exit — any of which may find the segment already gone (another path
    won the race, or the test deleted it out from under us).
    """
    try:
        segment.close()
    except BufferError:  # pragma: no cover - a live view still exports
        # the buffer (GC finalizer ordering). Drop the handles so
        # SharedMemory.__del__ doesn't retry-and-warn; the mmap unmaps
        # once the last view dies, and the fd can go now.
        segment._buf = None
        segment._mmap = None
        fd = getattr(segment, "_fd", -1)
        if fd >= 0:
            try:
                os.close(fd)
            except OSError:
                pass
            segment._fd = -1
    except OSError:  # pragma: no cover - platform quirks
        pass
    if owner:
        try:
            segment.unlink()
        except FileNotFoundError:
            pass
        except OSError:  # pragma: no cover - platform quirks
            pass


class SharedArena:
    """One join's key material in a shared-memory segment.

    Create on the coordinator with :meth:`create`, attach in workers
    with :meth:`attach`; the four array properties are zero-copy views
    into the segment. ``release()`` tears the mapping down (and unlinks
    when owning) and is safe to call any number of times.
    """

    def __init__(
        self,
        segment: shared_memory.SharedMemory,
        layout: ArenaLayout,
        owner: bool,
    ):
        self._segment = segment
        self.layout = layout
        self.owner = owner
        self._closed = False
        self._finalizer = weakref.finalize(
            self, _release_segment, segment, owner
        )

    def _view(self, offset: int, count: int, dtype: np.dtype) -> np.ndarray:
        # Views are constructed per access, never stored: a stored view
        # would export the segment's buffer past the arena's lifetime
        # and make close() fail under GC's unspecified finalizer order.
        # Construction is a few microseconds; callers fancy-index the
        # view immediately (producing plain copies), so nothing keeps
        # the buffer exported between calls.
        return np.frombuffer(
            self._segment.buf, dtype=dtype, count=count, offset=offset
        )

    @property
    def left_keys(self) -> np.ndarray:
        """Left key column, per-unit sorted (fused with unit ids when
        :attr:`ArenaLayout.fused`)."""
        return self._view(
            _region_offsets(self.layout)[0], self.layout.n_left, _UINT64
        )

    @property
    def left_order(self) -> np.ndarray:
        """Left sorted position -> original assembly row."""
        return self._view(
            _region_offsets(self.layout)[1], self.layout.n_left, _INT64
        )

    @property
    def right_keys(self) -> np.ndarray:
        """Right key column, per-unit sorted (fused with unit ids when
        :attr:`ArenaLayout.fused`)."""
        return self._view(
            _region_offsets(self.layout)[2], self.layout.n_right, _UINT64
        )

    @property
    def right_order(self) -> np.ndarray:
        """Right sorted position -> original assembly row."""
        return self._view(
            _region_offsets(self.layout)[3], self.layout.n_right, _INT64
        )

    @property
    def left_bounds(self) -> np.ndarray:
        return self._view(
            _region_offsets(self.layout)[4], self.layout.n_units + 1, _INT64
        )

    @property
    def right_bounds(self) -> np.ndarray:
        return self._view(
            _region_offsets(self.layout)[5], self.layout.n_units + 1, _INT64
        )

    @property
    def right_filter(self) -> np.ndarray:
        """Membership bitmap over the right fused keys (uint8 bytes)."""
        return self._view(
            _region_offsets(self.layout)[6],
            self.layout.filter_bytes,
            np.dtype(np.uint8),
        )

    # ------------------------------------------------------------- lifecycle

    @classmethod
    def create(
        cls,
        left_keys: np.ndarray,
        right_keys: np.ndarray,
        left_bounds: np.ndarray,
        right_bounds: np.ndarray,
        key_width: int,
        left_order: np.ndarray | None = None,
        right_order: np.ndarray | None = None,
    ) -> "SharedArena":
        """Allocate a segment; copy the assembly arrays in, unit-sorted.

        ``left_order``/``right_order`` are the sides' within-unit sort
        permutations (:func:`_unit_sorted`) when the caller already
        holds them; missing ones are computed here.
        """
        if left_bounds.shape != right_bounds.shape:
            raise ValueError(
                "left/right bounds must cover the same unit count, got "
                f"{left_bounds.shape} vs {right_bounds.shape}"
            )
        n_units = int(left_bounds.size) - 1
        fused = fused_width_fits(n_units, key_width)
        layout = ArenaLayout(
            name=f"{ARENA_PREFIX}{os.getpid()}-{secrets.token_hex(4)}",
            n_left=int(left_keys.size),
            n_right=int(right_keys.size),
            n_units=n_units,
            key_width=int(key_width),
            fused=fused,
            filter_log2=filter_log2_for(int(right_keys.size)) if fused else 0,
        )

        def stored(keys, bounds, order):
            keys = keys.view(np.uint64)
            if order is None:
                order = _unit_sorted(keys, bounds, layout.key_width)
            if fused:
                keys = fuse_unit_keys(
                    keys, np.diff(np.asarray(bounds, dtype=np.int64)), 0,
                    layout.key_width,
                )
            return keys[order], order

        sorted_left, order_left = stored(left_keys, left_bounds, left_order)
        sorted_right, order_right = stored(
            right_keys, right_bounds, right_order
        )
        segment = shared_memory.SharedMemory(
            name=layout.name, create=True, size=max(layout.nbytes, 1)
        )
        arena = cls(segment, layout, owner=True)
        np.copyto(arena.left_keys, sorted_left, casting="no")
        np.copyto(arena.left_order, order_left, casting="safe")
        np.copyto(arena.right_keys, sorted_right, casting="no")
        np.copyto(arena.right_order, order_right, casting="safe")
        np.copyto(
            arena.left_bounds,
            np.ascontiguousarray(left_bounds, dtype=np.int64),
            casting="no",
        )
        np.copyto(
            arena.right_bounds,
            np.ascontiguousarray(right_bounds, dtype=np.int64),
            casting="no",
        )
        if layout.filter_log2:
            np.copyto(
                arena.right_filter,
                build_key_filter(sorted_right, layout.filter_log2),
                casting="no",
            )
        return arena

    @classmethod
    def attach(cls, layout: ArenaLayout) -> "SharedArena":
        """Map an existing segment (worker side); views are read-shared."""
        segment = shared_memory.SharedMemory(name=layout.name, create=False)
        return cls(segment, layout, owner=False)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def nbytes(self) -> int:
        return self.layout.nbytes

    def release(self) -> None:
        """Tear the segment down now (idempotent; GC also covers it)."""
        if self._closed:
            return
        self._closed = True
        self._finalizer()

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


def split_row_range(
    left_keys: np.ndarray,
    right_keys: np.ndarray,
    left_lo: int,
    left_hi: int,
    right_lo: int,
    right_hi: int,
) -> tuple[tuple[int, int, int, int], tuple[int, int, int, int]] | None:
    """Halve one sorted key row range, zero-copy (adaptive re-split).

    The *left* rows partition exactly at their midpoint; each half's
    *right* range is the sub-range of the (sorted) right rows covering
    that half's key span, found with two binary searches. A key
    straddling the midpoint appears in **both** halves' right ranges —
    the replication side of SharesSkew's split — which keeps every match
    reachable while the disjoint left rows keep matches disjoint.

    Operates on the arena's fused key columns (the unit bits above the
    packed key are equal across sides within one unit, so cross-side
    comparisons stay exact). Returns two ``(left_lo, left_hi, right_lo,
    right_hi)`` row windows, or None when the left range has fewer than
    two rows and cannot be cut.
    """
    if left_hi - left_lo < 2:
        return None
    mid = (left_lo + left_hi) // 2
    cut_low = left_keys[mid - 1]
    cut_high = left_keys[mid]
    right_slice = right_keys[right_lo:right_hi]
    first_hi = right_lo + int(
        np.searchsorted(right_slice, cut_low, side="right")
    )
    second_lo = right_lo + int(
        np.searchsorted(right_slice, cut_high, side="left")
    )
    return (
        (left_lo, mid, right_lo, first_hi),
        (mid, left_hi, second_lo, right_hi),
    )


def live_arena_names() -> list[str]:
    """Arena segments currently present on this host (leak check).

    On Linux every shared-memory segment is a file under ``/dev/shm``;
    scanning for :data:`ARENA_PREFIX` names is how tests assert that an
    execution — including one that died mid-batch — left nothing behind.
    """
    base = "/dev/shm"
    try:
        entries = os.listdir(base)
    except OSError:  # pragma: no cover - non-Linux platforms
        return []
    return sorted(name for name in entries if name.startswith(ARENA_PREFIX))


__all__ = [
    "ARENA_PREFIX",
    "ArenaLayout",
    "SharedArena",
    "fuse_unit_keys",
    "fused_width_fits",
    "live_arena_names",
    "split_row_range",
]
