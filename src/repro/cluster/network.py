"""Discrete-event model of the shuffle's network schedule.

Section 3.4: hosts exchange slices over a fully switched network. Each
destination has a coordinator-managed *write lock* so only one node writes
to it at a time; a sender that cannot acquire the lock for the next slice
greedily tries its other queued slices, and polls when it runs out of
startable destinations. A node sends at most one slice at a time, and can
send and receive simultaneously.

This module simulates that protocol exactly, yielding the data-alignment
phase duration plus per-node traffic totals. The simulation is
deterministic: ties break by ascending sender id and queue order.

The slices arrive as a :class:`TransferTable`: four integer columns
(``src``, ``dst``, ``n_cells``, ``tag``), one row per slice, in queue
order. Each sender's queue is split by destination; the sender keeps the
heads of its non-empty destination queues in one list ordered by queue
position, so the greedy pick is the first entry whose destination lock is
free (head-of-line blocking may only take the first entry). After a pop
the destination queue's next slice goes back into that list by
``bisect.insort``. Locks and sender availability are lists indexed by
node. The resulting :class:`ShuffleSchedule` holds the same columns in
start order plus ``start`` and ``end``; :class:`Transfer` and
:class:`TransferEvent` objects are built only when a caller asks for
:attr:`ShuffleSchedule.events`.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class NetworkParams:
    """Link characteristics of the switched network.

    ``bandwidth_cells_per_s`` is the per-link throughput expressed in array
    cells (the engine's unit of transfer accounting); ``latency_s`` is the
    fixed per-slice setup cost (connection + lock acquisition round trip).
    """

    bandwidth_cells_per_s: float = 200_000.0
    latency_s: float = 0.00002

    def transfer_time(self, n_cells):
        """Wall time to move one slice of ``n_cells`` over one link.

        Accepts an integer or an integer array (one time per slice); both
        round identically, element by element.
        """
        return self.latency_s + n_cells / self.bandwidth_cells_per_s


@dataclass(frozen=True)
class Transfer:
    """One slice movement: ``n_cells`` from node ``src`` to node ``dst``."""

    src: int
    dst: int
    n_cells: int
    tag: object = None

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError("local slice assembly is not a network transfer")
        if self.n_cells < 0:
            raise ValueError(f"negative transfer size {self.n_cells}")


@dataclass(frozen=True)
class TransferEvent:
    """A scheduled transfer with its simulated start and end times."""

    transfer: Transfer
    start: float
    end: float


class TransferTable:
    """Slices to ship, one row each in queue order, as integer columns.

    ``tag`` (the join unit or chunk id a slice belongs to) is optional;
    without it the schedule's events carry ``tag=None``.
    """

    __slots__ = ("src", "dst", "n_cells", "tag")

    def __init__(self, src, dst, n_cells, tag=None) -> None:
        self.src = np.asarray(src, dtype=np.int64).reshape(-1)
        self.dst = np.asarray(dst, dtype=np.int64).reshape(-1)
        self.n_cells = np.asarray(n_cells, dtype=np.int64).reshape(-1)
        self.tag = (
            None if tag is None else np.asarray(tag, dtype=np.int64).reshape(-1)
        )
        n = len(self.src)
        if len(self.dst) != n or len(self.n_cells) != n or (
            self.tag is not None and len(self.tag) != n
        ):
            raise ValueError("transfer table columns differ in length")
        if (self.src == self.dst).any():
            raise ValueError("local slice assembly is not a network transfer")
        if (self.n_cells < 0).any():
            raise ValueError(f"negative transfer size {int(self.n_cells.min())}")
        if n and min(int(self.src.min()), int(self.dst.min())) < 0:
            raise ValueError("node ids must be non-negative")

    @classmethod
    def from_transfers(cls, transfers: Sequence[Transfer]) -> "TransferTable":
        """Tabulate :class:`Transfer` objects (integer or all-``None`` tags)."""
        tags = [t.tag for t in transfers]
        return cls(
            [t.src for t in transfers],
            [t.dst for t in transfers],
            [t.n_cells for t in transfers],
            None if all(tag is None for tag in tags) else tags,
        )

    def __len__(self) -> int:
        return len(self.src)

    @property
    def n_nodes(self) -> int:
        """One past the highest node id the table names."""
        if not len(self):
            return 0
        return int(max(self.src.max(), self.dst.max())) + 1


def _first_seen_totals(nodes: np.ndarray, weights: np.ndarray) -> dict:
    """Per-node sums of ``weights``, keyed in order of first appearance.

    ``np.bincount`` adds the weights in row order, so each float total is
    the same left-to-right sum an event-by-event loop would produce.
    """
    if not len(nodes):
        return {}
    totals = np.bincount(nodes, weights=weights)
    seen, first = np.unique(nodes, return_index=True)
    keys = seen[np.argsort(first)]
    return dict(zip(keys.tolist(), totals[keys].tolist()))


def _cell_totals(nodes: np.ndarray, n_cells: np.ndarray) -> dict:
    """Integer per-node cell totals, keyed in order of first appearance."""
    totals = _first_seen_totals(nodes, n_cells)
    return {node: int(total) for node, total in totals.items()}


@dataclass(eq=False)
class ShuffleSchedule:
    """The simulated outcome of one data-alignment phase.

    One row per transfer, in start order: the moved slice's ``src``,
    ``dst``, ``n_cells`` and ``tag`` (``None`` when the table had none)
    plus its simulated ``start`` and ``end`` seconds.
    """

    total_time: float
    src: np.ndarray
    dst: np.ndarray
    n_cells: np.ndarray
    tag: np.ndarray | None
    start: np.ndarray
    end: np.ndarray
    cells_sent: dict[int, int] = field(default_factory=dict)
    cells_received: dict[int, int] = field(default_factory=dict)
    #: Memoised derived views (busy times, exportable spans): schedules
    #: are immutable once built and get re-read on every traced or
    #: analyzed execution of a cached alignment.
    _busy_cache: "tuple[dict, dict] | None" = field(default=None, repr=False)
    _span_cache: "list | None" = field(default=None, repr=False)

    @classmethod
    def from_rows(
        cls,
        table: TransferTable,
        rows: list[int],
        starts: list[float],
        ends: list[float],
    ) -> "ShuffleSchedule":
        """Gather the table's rows in start order into a schedule."""
        index = np.asarray(rows, dtype=np.int64)
        src, dst = table.src[index], table.dst[index]
        n_cells = table.n_cells[index]
        return cls(
            total_time=max(ends, default=0.0),
            src=src,
            dst=dst,
            n_cells=n_cells,
            tag=None if table.tag is None else table.tag[index],
            start=np.asarray(starts, dtype=np.float64),
            end=np.asarray(ends, dtype=np.float64),
            cells_sent=_cell_totals(src, n_cells),
            cells_received=_cell_totals(dst, n_cells),
        )

    @property
    def n_transfers(self) -> int:
        return len(self.src)

    @property
    def total_cells_moved(self) -> int:
        return int(self.n_cells.sum())

    @property
    def events(self) -> list[TransferEvent]:
        """The schedule as :class:`TransferEvent` objects, in start order.

        Built on each access and not kept: the engine reads the columns,
        this view is for tests and hand-written schedules.
        """
        return [
            TransferEvent(Transfer(src, dst, cells, tag), start=start, end=end)
            for src, dst, cells, tag, start, end in self._rows()
        ]

    def _rows(self):
        """``(src, dst, n_cells, tag, start, end)`` per transfer, as
        Python scalars, in start order."""
        tags = (
            [None] * self.n_transfers if self.tag is None else self.tag.tolist()
        )
        return zip(
            self.src.tolist(),
            self.dst.tolist(),
            self.n_cells.tolist(),
            tags,
            self.start.tolist(),
            self.end.tolist(),
        )

    def busy_seconds(self) -> tuple[dict[int, float], dict[int, float]]:
        """Per-node (send, receive) busy time summed over the transfers.

        Busy time excludes lock waiting by construction — it is the
        quantity Equations 5-6 predict (cells × t), so explain-analyze
        compares it against the model; the schedule's ``total_time``
        additionally contains the waiting the model ignores.
        """
        if self._busy_cache is None:
            elapsed = self.end - self.start
            self._busy_cache = (
                _first_seen_totals(self.src, elapsed),
                _first_seen_totals(self.dst, elapsed),
            )
        return self._busy_cache

    def export_spans(self, tracer, offset: float = 0.0) -> int:
        """Emit every transfer as a span on per-destination lanes.

        The schedule's timestamps are *simulated* seconds starting at 0;
        ``offset`` (typically ``tracer.now()`` when the alignment phase
        ran) re-bases them onto the tracer's wall-clock timeline so the
        network lanes sit alongside the measured spans. One lane per
        destination keeps the write-lock invariant visible: spans on a
        ``net:recv nK`` lane never overlap.

        The span objects are built once per schedule and handed to the
        tracer by reference with a deferred offset
        (:meth:`repro.obs.trace.Tracer.extend_rebased`), so a traced
        execution pays O(1) here rather than one allocation per transfer —
        the schedules are cached across repeated executions and can hold
        thousands of transfers.
        """
        if not getattr(tracer, "enabled", False) or not self.n_transfers:
            return 0
        if self._span_cache is None:
            from repro.obs.trace import Span

            self._span_cache = [
                Span(
                    name=f"xfer n{src}->n{dst}",
                    start=start,
                    end=end,
                    path=f"data_alignment/xfer n{src}->n{dst}",
                    lane=f"net:recv n{dst}",
                    attrs={
                        "src": src,
                        "dst": dst,
                        "cells": cells,
                        "unit": tag,
                        "simulated": True,
                    },
                )
                for src, dst, cells, tag, start, end in self._rows()
            ]
        tracer.extend_rebased(self._span_cache, offset)
        return len(self._span_cache)


#: Shuffle scheduling policies, for the Section-3.4 ablation:
#: - ``greedy_lock`` — the paper's protocol: per-destination write locks
#:   with the greedy skip-and-poll rule;
#: - ``head_of_line`` — write locks but no skipping: a sender waits for
#:   its queue head's destination (head-of-line blocking);
#: - ``uncoordinated`` — no locks: every receiver accepts concurrent
#:   streams which fair-share its ingress link (congestion).
SCHEDULE_POLICIES = ("greedy_lock", "head_of_line", "uncoordinated")


def schedule_shuffle(
    transfers: TransferTable | Sequence[Transfer],
    params: NetworkParams,
    policy: str = "greedy_lock",
) -> ShuffleSchedule:
    """Simulate a data-alignment shuffle under the chosen policy.

    ``transfers`` is a :class:`TransferTable` or a sequence of
    :class:`Transfer` objects (tabulated first). Invariants enforced by
    construction (and asserted in tests) for the lock-based policies:

    - a sender has at most one outgoing transfer in flight;
    - a destination has at most one incoming transfer in flight
      (the write lock);
    - under ``greedy_lock``, transfers from one sender start in an order
      consistent with the greedy skip-and-poll rule.
    """
    if policy not in SCHEDULE_POLICIES:
        raise ValueError(
            f"unknown shuffle policy {policy!r}; expected one of "
            f"{SCHEDULE_POLICIES}"
        )
    table = (
        transfers
        if isinstance(transfers, TransferTable)
        else TransferTable.from_transfers(transfers)
    )
    if policy == "uncoordinated":
        return _schedule_uncoordinated(table, params)
    return _schedule_locked(table, params, greedy=policy == "greedy_lock")


def _schedule_locked(
    table: TransferTable,
    params: NetworkParams,
    greedy: bool,
) -> ShuffleSchedule:
    """The write-lock protocol, with or without the greedy skip rule."""
    n = len(table)
    n_nodes = table.n_nodes
    src = table.src.tolist()
    dst = table.dst.tolist()
    duration = params.transfer_time(table.n_cells).tolist()

    # Destination queues: rows grouped by (sender, destination), queue
    # order kept within a group. ``successor[row]`` is the next row of
    # the same queue (-1 at its tail); each sender's ``ready`` list holds
    # its queues' heads, ascending by queue position.
    grouped = np.lexsort((table.dst, table.src))
    same_queue = (table.src[grouped[1:]] == table.src[grouped[:-1]]) & (
        table.dst[grouped[1:]] == table.dst[grouped[:-1]]
    )
    successor = np.full(n, -1, dtype=np.int64)
    successor[grouped[:-1][same_queue]] = grouped[1:][same_queue]
    successor = successor.tolist()
    ready: list[list[int]] = [[] for _ in range(n_nodes)]
    if n:
        heads = np.sort(grouped[np.r_[True, ~same_queue]])
        for row in heads.tolist():
            ready[src[row]].append(row)
    senders = [node for node in range(n_nodes) if ready[node]]

    sender_free = [0.0] * n_nodes
    lock_free = [0.0] * n_nodes
    rows: list[int] = []
    starts: list[float] = []
    ends: list[float] = []

    now = 0.0
    remaining = n
    #: min-heap of times a sender or a destination lock frees up — the
    #: only instants at which a blocked transfer can become startable.
    wakeups: list[float] = []
    while remaining:
        # Repeat ascending-sender passes at this instant until quiescent.
        # With positive per-slice latency every started transfer ends
        # strictly later than ``now``, so one pass suffices; a re-pass is
        # only needed when a zero-length transfer frees its sender (and
        # destination lock) at the same instant.
        progressed = True
        while progressed and remaining:
            progressed = False
            for sender in senders:
                if sender_free[sender] > now:
                    continue
                queue = ready[sender]
                if not queue:
                    continue
                if greedy:
                    # The earliest-queued slice whose lock is free.
                    for index, row in enumerate(queue):
                        if lock_free[dst[row]] <= now:
                            break
                    else:
                        continue
                else:
                    # Head-of-line: only the queue head is eligible.
                    index, row = 0, queue[0]
                    if lock_free[dst[row]] > now:
                        continue
                del queue[index]
                if successor[row] >= 0:
                    insort(queue, successor[row])
                end = now + duration[row]
                sender_free[sender] = end
                lock_free[dst[row]] = end
                heappush(wakeups, end)
                rows.append(row)
                starts.append(now)
                ends.append(end)
                remaining -= 1
                if end <= now:
                    progressed = True
        if remaining:
            # Every ready sender is blocked on write locks (or busy):
            # advance to the next moment a sender or a lock frees up.
            while wakeups[0] <= now:
                heappop(wakeups)
            now = heappop(wakeups)

    return ShuffleSchedule.from_rows(table, rows, starts, ends)


def _schedule_uncoordinated(
    table: TransferTable,
    params: NetworkParams,
) -> ShuffleSchedule:
    """Fluid simulation of lock-free shuffling.

    Senders still serialise their own outgoing slices (one NIC), but
    receivers accept every incoming stream at once; concurrent streams
    into one receiver fair-share its ingress bandwidth. Transfer rates
    are piecewise constant between events, recomputed whenever a
    transfer completes — the congestion picture the write lock exists to
    avoid (Section 3.4).
    """
    src = table.src.tolist()
    dst = table.dst.tolist()
    n_cells = table.n_cells.tolist()
    queues: dict[int, deque[int]] = {}
    for row, sender in enumerate(src):
        queues.setdefault(sender, deque()).append(row)

    active: list[list] = []  # [row, remaining_cells, start]
    rows: list[int] = []
    starts: list[float] = []
    ends: list[float] = []
    now = 0.0

    def launch_ready() -> None:
        for sender in sorted(queues):
            queue = queues[sender]
            busy = any(src[entry[0]] == sender for entry in active)
            if queue and not busy:
                row = queue.popleft()
                active.append([row, float(n_cells[row]), now + params.latency_s])

    launch_ready()
    while active or any(queues.values()):
        if not active:  # pragma: no cover - defensive
            launch_ready()
            continue
        # Fair-share rates per receiver.
        fan_in: dict[int, int] = {}
        for row, _, _ in active:
            fan_in[dst[row]] = fan_in.get(dst[row], 0) + 1
        rates = [
            params.bandwidth_cells_per_s / fan_in[dst[row]]
            for row, _, _ in active
        ]
        # Next completion time (latency counts as zero-rate lead-in).
        completions = []
        for (row, remaining, start), rate in zip(active, rates):
            lead_in = max(start - now, 0.0)
            completions.append(lead_in + remaining / rate)
        step = min(completions)
        now += step
        still_active = []
        for (row, remaining, start), rate in zip(active, rates):
            lead_in = max(start - (now - step), 0.0)
            effective = max(step - lead_in, 0.0)
            remaining -= effective * rate
            if remaining <= 1e-9:
                rows.append(row)
                starts.append(start)
                ends.append(now)
            else:
                still_active.append([row, remaining, start])
        active[:] = still_active
        launch_ready()

    return ShuffleSchedule.from_rows(table, rows, starts, ends)
