"""Compiled match kernels for the packed-uint64 key path.

The PR 4 key codec collapses a composite join key into one ``uint64``
lane, so the innermost matching operation the whole engine runs is
"find all equal pairs between two uint64 columns". This module owns
that operation behind one entry point, :func:`packed_match`, with two
interchangeable implementations:

- ``numpy`` — the portable reference: stable argsort of the build side
  plus a binary-search probe (:func:`repro.engine.joins.hash_join_match`
  on the raw columns). Always available.
- ``numba`` — an ``@njit(cache=True)`` kernel that radix-partitions both
  columns by their shared high bits into cache-sized buckets, sorts each
  bucket, and emits matches with a sorted-run compare (two passes: count,
  then fill — no growable output buffers inside the jitted code).

numba is an *optional* extra (``pip install repro[fast]``): when the
import fails, :data:`HAVE_NUMBA` is False, ``kernel="auto"`` silently
resolves to ``numpy``, and only an explicit ``kernel="numba"`` request
raises. Both kernels return the same match *multiset*; pair order may
differ, which is fine because every consumer treats the output as a set
(the engine's byte-identical guarantee is over sorted cells).

Kernel choice is recorded per execution in ``ExecutionReport.meta``
(``kernel: "numba" | "numpy"``) and is deliberately excluded from plan
fingerprints — it changes how matches are computed, never what the plan
or the output is.
"""

from __future__ import annotations

import numpy as np

from repro.engine.joins import hash_join_match
from repro.errors import ExecutionError

try:  # pragma: no cover - exercised only when numba is installed
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - the container default
    njit = None
    HAVE_NUMBA = False

#: Accepted values of the ``kernel=`` knob. ``auto`` resolves at
#: executor construction: numba when importable, numpy otherwise.
KERNELS = ("auto", "numba", "numpy")

#: Radix bucket count for the numba kernel: 256 buckets keeps the
#: per-bucket sort inside L2 for the batch sizes the engine produces.
_RADIX_BITS = 8


def resolve_kernel(kernel: str | None) -> str:
    """Normalise a kernel knob to the implementation that will run.

    ``None``/``"auto"`` pick numba when available and fall back to numpy
    silently; asking for ``"numba"`` explicitly when it is not installed
    is an error (the caller wanted the compiled kernel and would
    otherwise benchmark the wrong thing).
    """
    if kernel is None:
        kernel = "auto"
    if kernel not in KERNELS:
        raise ExecutionError(
            f"unknown kernel {kernel!r}; expected one of {KERNELS}"
        )
    if kernel == "auto":
        return "numba" if HAVE_NUMBA else "numpy"
    if kernel == "numba" and not HAVE_NUMBA:
        raise ExecutionError(
            "kernel='numba' requested but numba is not installed; "
            "install the [fast] extra or use kernel='auto' to fall back "
            "to the numpy kernel"
        )
    return kernel


def _match_numpy(
    left: np.ndarray, right: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Reference implementation: sort-based build/probe equi-match."""
    return hash_join_match(left, right)


def probe_sorted(
    left: np.ndarray, right: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Equi-match of needles against an ascending column: binary search only.

    Only ``right`` must be sorted: each left value's matches are one
    contiguous right run located by a pair of ``searchsorted`` calls —
    no argsort at match time, which is the point of storing arena keys
    pre-sorted (see :mod:`repro.engine.shm`). The run's end is searched
    only for needles that hit, which on a selective join is a handful.
    Pairs come out in needle order, and within one needle in ascending
    right position; with an ascending ``left`` too that is key-major,
    merge-join order.
    """
    empty = np.empty(0, dtype=np.int64)
    if right.size == 0:
        return empty, empty
    lo = np.searchsorted(right, left, side="left")
    hits = np.flatnonzero(right[np.minimum(lo, right.size - 1)] == left)
    lo = lo[hits]
    counts = np.searchsorted(right, left[hits], side="right") - lo
    total = int(counts.sum())
    if total == 0:
        return empty, empty
    left_idx = np.repeat(hits, counts)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    right_idx = np.repeat(lo - offsets, counts) + np.arange(
        total, dtype=np.int64
    )
    return left_idx, right_idx


if HAVE_NUMBA:  # pragma: no cover - requires the optional extra

    @njit(cache=True)
    def _radix_bucket_counts(keys, shift, n_buckets):
        counts = np.zeros(n_buckets + 1, dtype=np.int64)
        for i in range(keys.size):
            counts[np.int64(keys[i] >> shift) + 1] += 1
        for b in range(n_buckets):
            counts[b + 1] += counts[b]
        return counts

    @njit(cache=True)
    def _radix_scatter(keys, shift, offsets):
        cursor = offsets[:-1].copy()
        out_keys = np.empty(keys.size, dtype=np.uint64)
        out_rows = np.empty(keys.size, dtype=np.int64)
        for i in range(keys.size):
            b = np.int64(keys[i] >> shift)
            slot = cursor[b]
            out_keys[slot] = keys[i]
            out_rows[slot] = i
            cursor[b] += 1
        return out_keys, out_rows

    @njit(cache=True)
    def _count_run_matches(lk, rk):
        total = np.int64(0)
        i = 0
        j = 0
        while i < lk.size and j < rk.size:
            if lk[i] < rk[j]:
                i += 1
            elif lk[i] > rk[j]:
                j += 1
            else:
                value = lk[i]
                i0 = i
                j0 = j
                while i < lk.size and lk[i] == value:
                    i += 1
                while j < rk.size and rk[j] == value:
                    j += 1
                total += np.int64(i - i0) * np.int64(j - j0)
        return total

    @njit(cache=True)
    def _fill_run_matches(lk, lrows, rk, rrows, left_out, right_out, cursor):
        i = 0
        j = 0
        while i < lk.size and j < rk.size:
            if lk[i] < rk[j]:
                i += 1
            elif lk[i] > rk[j]:
                j += 1
            else:
                value = lk[i]
                i0 = i
                j0 = j
                while i < lk.size and lk[i] == value:
                    i += 1
                while j < rk.size and rk[j] == value:
                    j += 1
                for a in range(i0, i):
                    for b in range(j0, j):
                        left_out[cursor] = lrows[a]
                        right_out[cursor] = rrows[b]
                        cursor += 1
        return cursor

    @njit(cache=True)
    def _match_numba_impl(left, right):
        n_buckets = 1 << _RADIX_BITS
        # Shared bucket function: top radix bits of the combined value
        # range, so equal keys land in the same bucket on both sides and
        # buckets preserve key order between themselves.
        max_key = np.uint64(0)
        for i in range(left.size):
            if left[i] > max_key:
                max_key = left[i]
        for i in range(right.size):
            if right[i] > max_key:
                max_key = right[i]
        bits = 0
        probe = max_key
        while probe > 0:
            probe >>= np.uint64(1)
            bits += 1
        shift = np.uint64(bits - _RADIX_BITS if bits > _RADIX_BITS else 0)

        left_offsets = _radix_bucket_counts(left, shift, n_buckets)
        right_offsets = _radix_bucket_counts(right, shift, n_buckets)
        lkeys, lrows = _radix_scatter(left, shift, left_offsets)
        rkeys, rrows = _radix_scatter(right, shift, right_offsets)

        total = np.int64(0)
        for b in range(n_buckets):
            llo, lhi = left_offsets[b], left_offsets[b + 1]
            rlo, rhi = right_offsets[b], right_offsets[b + 1]
            if lhi > llo and rhi > rlo:
                lseg = np.sort(lkeys[llo:lhi])
                rseg = np.sort(rkeys[rlo:rhi])
                total += _count_run_matches(lseg, rseg)

        left_out = np.empty(total, dtype=np.int64)
        right_out = np.empty(total, dtype=np.int64)
        cursor = np.int64(0)
        for b in range(n_buckets):
            llo, lhi = left_offsets[b], left_offsets[b + 1]
            rlo, rhi = right_offsets[b], right_offsets[b + 1]
            if lhi <= llo or rhi <= rlo:
                continue
            lorder = np.argsort(lkeys[llo:lhi], kind="mergesort")
            rorder = np.argsort(rkeys[rlo:rhi], kind="mergesort")
            lseg = lkeys[llo:lhi][lorder]
            rseg = rkeys[rlo:rhi][rorder]
            lseg_rows = lrows[llo:lhi][lorder]
            rseg_rows = rrows[rlo:rhi][rorder]
            cursor = _fill_run_matches(
                lseg, lseg_rows, rseg, rseg_rows, left_out, right_out, cursor
            )
        return left_out, right_out

    def _match_numba(
        left: np.ndarray, right: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        if left.size == 0 or right.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return _match_numba_impl(
            np.ascontiguousarray(left, dtype=np.uint64),
            np.ascontiguousarray(right, dtype=np.uint64),
        )

    def _match_sorted_numba(
        left: np.ndarray, right: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        if left.size == 0 or right.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        lk = np.ascontiguousarray(left, dtype=np.uint64)
        rk = np.ascontiguousarray(right, dtype=np.uint64)
        total = _count_run_matches(lk, rk)
        left_out = np.empty(total, dtype=np.int64)
        right_out = np.empty(total, dtype=np.int64)
        _fill_run_matches(
            lk,
            np.arange(lk.size, dtype=np.int64),
            rk,
            np.arange(rk.size, dtype=np.int64),
            left_out,
            right_out,
            np.int64(0),
        )
        return left_out, right_out

else:

    def _match_numba(left, right):  # pragma: no cover - guarded by resolve
        raise ExecutionError(
            "numba kernel invoked but numba is not installed"
        )

    def _match_sorted_numba(left, right):  # pragma: no cover - see above
        raise ExecutionError(
            "numba kernel invoked but numba is not installed"
        )


#: Fibonacci-hash multiplier for the membership filter (the 64-bit
#: golden-ratio constant): one wrapping multiply spreads the packed
#: keys' low-entropy bit patterns across the filter's index space.
_FILTER_MULT = np.uint64(0x9E3779B97F4A7C15)


def filter_log2_for(n_keys: int) -> int:
    """Filter size (log2 bits) for a column of ``n_keys`` keys.

    ~32 filter bits per key keeps the false-positive rate a few
    percent at worst; clamped to [16, 24] so tiny columns still get a
    useful filter and huge ones cap at a 2 MiB bitmap.
    """
    return min(24, max(16, int(max(n_keys, 1) * 32 - 1).bit_length()))


def build_key_filter(keys: np.ndarray, log2: int) -> np.ndarray:
    """One-shot membership bitmap over a uint64 key column.

    Returns a ``uint8`` byte array of ``2**log2`` bits. Built once per
    arena at creation time; probing costs a single gather per needle —
    roughly one cache miss — against the four or five a binary search
    spends, which is what makes low-selectivity matching cheap.
    """
    filt = np.zeros(1 << (log2 - 3), dtype=np.uint8)
    h = (np.asarray(keys, dtype=np.uint64) * _FILTER_MULT) >> np.uint64(
        64 - log2
    )
    np.bitwise_or.at(
        filt,
        (h >> np.uint64(3)).astype(np.int64),
        np.left_shift(np.uint8(1), (h & np.uint64(7)).astype(np.uint8)),
    )
    return filt


def probe_key_filter(
    keys: np.ndarray, filt: np.ndarray, log2: int
) -> np.ndarray:
    """Membership test of each key against :func:`build_key_filter`.

    Returns a uint8 0/1 vector; 0 means *definitely absent*, 1 means
    possibly present (verify with an exact match). False positives are
    bounded by the fill factor, never false negatives.
    """
    h = (np.asarray(keys, dtype=np.uint64) * _FILTER_MULT) >> np.uint64(
        64 - log2
    )
    return (
        filt[(h >> np.uint64(3)).astype(np.int64)]
        >> (h & np.uint64(7)).astype(np.uint8)
    ) & np.uint8(1)


def packed_match(
    left: np.ndarray, right: np.ndarray, kernel: str = "numpy"
) -> tuple[np.ndarray, np.ndarray]:
    """All equal pairs between two uint64 columns, via the named kernel.

    ``kernel`` must be an already-resolved implementation name
    (``"numba"`` or ``"numpy"`` — run the knob through
    :func:`resolve_kernel` first); returns ``(left_idx, right_idx)``
    int64 index arrays addressing the input columns.
    """
    if kernel == "numba":
        return _match_numba(left, right)
    if kernel != "numpy":
        raise ExecutionError(
            f"packed_match expects a resolved kernel, got {kernel!r}"
        )
    return _match_numpy(left, right)


def packed_match_sorted(
    left: np.ndarray, right: np.ndarray, kernel: str = "numpy"
) -> tuple[np.ndarray, np.ndarray]:
    """All equal pairs between two *ascending-sorted* uint64 columns.

    The fast lane of the shared-memory worker: arena keys are stored
    pre-sorted within each unit, so a worker's gathered column is
    globally sorted and matching needs no sort at all. Callers are
    responsible for the sortedness invariant; unsorted input silently
    returns the wrong pairs.
    """
    if kernel == "numba":
        return _match_sorted_numba(left, right)
    if kernel != "numpy":
        raise ExecutionError(
            f"packed_match_sorted expects a resolved kernel, got {kernel!r}"
        )
    return probe_sorted(left, right)


__all__ = [
    "HAVE_NUMBA",
    "KERNELS",
    "build_key_filter",
    "filter_log2_for",
    "packed_match",
    "packed_match_sorted",
    "probe_key_filter",
    "probe_sorted",
    "resolve_kernel",
]
