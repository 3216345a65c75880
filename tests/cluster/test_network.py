"""Unit tests for the discrete-event write-lock shuffle schedule."""

from collections import deque

import numpy as np
import pytest

from repro.cluster.network import (
    NetworkParams,
    Transfer,
    TransferEvent,
    TransferTable,
    schedule_shuffle,
)

PARAMS = NetworkParams(bandwidth_cells_per_s=1000.0, latency_s=0.0)


def overlapping(events, key):
    """Return True if any two events sharing `key` overlap in time."""
    by_key: dict = {}
    for event in events:
        by_key.setdefault(key(event), []).append((event.start, event.end))
    for spans in by_key.values():
        spans.sort()
        for (s1, e1), (s2, _) in zip(spans, spans[1:]):
            if s2 < e1 - 1e-12:
                return True
    return False


class TestTransfer:
    def test_rejects_self_transfer(self):
        with pytest.raises(ValueError):
            Transfer(src=1, dst=1, n_cells=10)

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            Transfer(src=0, dst=1, n_cells=-1)


class TestScheduleInvariants:
    def test_empty(self):
        schedule = schedule_shuffle([], PARAMS)
        assert schedule.total_time == 0.0
        assert schedule.n_transfers == 0

    def test_single_transfer_time(self):
        schedule = schedule_shuffle([Transfer(0, 1, 500)], PARAMS)
        assert schedule.total_time == pytest.approx(0.5)

    def test_latency_added(self):
        params = NetworkParams(bandwidth_cells_per_s=1000.0, latency_s=0.1)
        schedule = schedule_shuffle([Transfer(0, 1, 500)], params)
        assert schedule.total_time == pytest.approx(0.6)

    def test_sender_serialises(self):
        transfers = [Transfer(0, 1, 100), Transfer(0, 2, 100)]
        schedule = schedule_shuffle(transfers, PARAMS)
        assert not overlapping(schedule.events, lambda e: e.transfer.src)
        assert schedule.total_time == pytest.approx(0.2)

    def test_write_lock_serialises_receivers(self):
        transfers = [Transfer(0, 2, 100), Transfer(1, 2, 100)]
        schedule = schedule_shuffle(transfers, PARAMS)
        assert not overlapping(schedule.events, lambda e: e.transfer.dst)
        assert schedule.total_time == pytest.approx(0.2)

    def test_parallel_disjoint_pairs(self):
        transfers = [Transfer(0, 1, 100), Transfer(2, 3, 100)]
        schedule = schedule_shuffle(transfers, PARAMS)
        assert schedule.total_time == pytest.approx(0.1)

    def test_greedy_skips_locked_destination(self):
        # Sender 0 (scheduled first) grabs node 2's lock with a long
        # transfer; sender 1's first slice also targets node 2, so the
        # greedy rule lets it ship its second slice (to node 3) meanwhile
        # and poll for node 2's lock afterwards.
        transfers = [
            Transfer(0, 2, 1000),  # long transfer grabs node 2's lock
            Transfer(1, 2, 100),
            Transfer(1, 3, 100),
        ]
        schedule = schedule_shuffle(transfers, PARAMS)
        by_pair = {
            (e.transfer.src, e.transfer.dst): e for e in schedule.events
        }
        assert by_pair[(1, 3)].start == pytest.approx(0.0)
        assert by_pair[(1, 2)].start == pytest.approx(1.0)

    def test_conservation(self, rng):
        transfers = [
            Transfer(int(s), int(d), int(n))
            for s, d, n in zip(
                rng.integers(0, 4, 40),
                rng.integers(4, 8, 40),
                rng.integers(1, 100, 40),
            )
        ]
        schedule = schedule_shuffle(transfers, PARAMS)
        assert schedule.total_cells_moved == sum(t.n_cells for t in transfers)
        assert sum(schedule.cells_sent.values()) == schedule.total_cells_moved
        assert (
            sum(schedule.cells_received.values()) == schedule.total_cells_moved
        )

    def test_all_transfers_scheduled(self, rng):
        transfers = []
        for _ in range(100):
            src, dst = rng.choice(6, size=2, replace=False)
            transfers.append(Transfer(int(src), int(dst), int(rng.integers(1, 50))))
        schedule = schedule_shuffle(transfers, PARAMS)
        assert schedule.n_transfers == 100
        assert not overlapping(schedule.events, lambda e: e.transfer.src)
        assert not overlapping(schedule.events, lambda e: e.transfer.dst)

    def test_deterministic(self, rng):
        transfers = [
            Transfer(int(s), 5 + int(d), int(n))
            for s, d, n in zip(
                rng.integers(0, 4, 30),
                rng.integers(0, 3, 30),
                rng.integers(1, 100, 30),
            )
        ]
        first = schedule_shuffle(transfers, PARAMS)
        second = schedule_shuffle(transfers, PARAMS)
        assert first.total_time == second.total_time
        assert [e.transfer for e in first.events] == [
            e.transfer for e in second.events
        ]

    def test_zero_size_transfers_all_start(self):
        # Zero-cell slices with zero latency finish instantly; the
        # scheduler must let their sender continue at the same instant.
        params = NetworkParams(bandwidth_cells_per_s=1000.0, latency_s=0.0)
        transfers = [Transfer(0, 1, 0), Transfer(0, 2, 0), Transfer(0, 3, 50)]
        schedule = schedule_shuffle(transfers, params)
        assert schedule.n_transfers == 3
        assert schedule.total_time == pytest.approx(0.05)

    def test_makespan_lower_bound(self, rng):
        """The schedule can never beat the per-link volume bounds."""
        transfers = [
            Transfer(int(s), 4 + int(d), int(n))
            for s, d, n in zip(
                rng.integers(0, 4, 60),
                rng.integers(0, 4, 60),
                rng.integers(1, 200, 60),
            )
        ]
        schedule = schedule_shuffle(transfers, PARAMS)
        max_send = max(schedule.cells_sent.values())
        max_recv = max(schedule.cells_received.values())
        bound = max(max_send, max_recv) / PARAMS.bandwidth_cells_per_s
        assert schedule.total_time >= bound - 1e-9


# --------------------------------------------------------------------------
# Equivalence against the straight O(events x queued-transfers) simulation
# the event-driven scheduler replaced. The reference walks every sender's
# whole queue on every poll; the production code must produce the exact
# same schedule (same events, same starts and ends) in every case.


def _reference_locked_schedule(transfers, params, greedy):
    """The original polling implementation, kept verbatim as an oracle."""
    queues = {}
    for transfer in transfers:
        queues.setdefault(transfer.src, deque()).append(transfer)
    sender_free = {src: 0.0 for src in queues}
    lock_free = {}
    events = []
    now = 0.0
    remaining = sum(len(q) for q in queues.values())
    while remaining:
        progressed = False
        for src in sorted(queues):
            queue = queues[src]
            if not queue or sender_free[src] > now:
                continue
            candidates = enumerate(queue) if greedy else [(0, queue[0])]
            for position, transfer in candidates:
                if lock_free.get(transfer.dst, 0.0) <= now:
                    del queue[position]
                    end = now + params.transfer_time(transfer.n_cells)
                    sender_free[src] = end
                    lock_free[transfer.dst] = end
                    events.append(TransferEvent(transfer, start=now, end=end))
                    remaining -= 1
                    progressed = True
                    break
        if remaining and not progressed:
            horizon = [sender_free[src] for src, q in queues.items() if q] + [
                lock_free.get(t.dst, 0.0)
                for q in queues.values()
                for t in q
            ]
            upcoming = [time for time in horizon if time > now]
            now = min(upcoming)
    return events


def _random_transfers(rng, n, n_nodes, max_cells):
    transfers = []
    for _ in range(n):
        src, dst = rng.choice(n_nodes, size=2, replace=False)
        # Include zero-size slices: with zero latency they complete
        # instantly, the hardest case for event bookkeeping.
        transfers.append(
            Transfer(int(src), int(dst), int(rng.integers(0, max_cells)))
        )
    return transfers


def _assert_same_schedule(actual, expected):
    """Same transfers in the same order, bit-identical starts and ends."""
    assert [e.transfer for e in actual.events] == [
        e.transfer for e in expected
    ]
    assert [e.start for e in actual.events] == [e.start for e in expected]
    assert [e.end for e in actual.events] == [e.end for e in expected]
    assert actual.total_time == max((e.end for e in expected), default=0.0)


class TestEventDrivenEquivalence:
    @pytest.mark.parametrize("policy", ["greedy_lock", "head_of_line"])
    @pytest.mark.parametrize("latency", [0.0, 0.01])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_schedule(self, policy, latency, seed):
        rng = np.random.default_rng(seed)
        transfers = _random_transfers(rng, int(rng.integers(1, 80)), 8, 60)
        params = NetworkParams(bandwidth_cells_per_s=500.0, latency_s=latency)
        expected = _reference_locked_schedule(
            transfers, params, greedy=policy == "greedy_lock"
        )
        _assert_same_schedule(
            schedule_shuffle(transfers, params, policy=policy), expected
        )

    @pytest.mark.parametrize("policy", ["greedy_lock", "head_of_line"])
    def test_matches_reference_on_a_large_zero_latency_shuffle(self, policy):
        # 2,000 slices over 12 nodes, about one in eight of them empty:
        # deep per-destination queues, long lock chains, and many
        # zero-length transfers that free their sender at the same instant.
        rng = np.random.default_rng(42)
        transfers = _random_transfers(rng, 2_000, 12, 8)
        assert sum(t.n_cells == 0 for t in transfers) > 150
        params = NetworkParams(bandwidth_cells_per_s=500.0, latency_s=0.0)
        expected = _reference_locked_schedule(
            transfers, params, greedy=policy == "greedy_lock"
        )
        _assert_same_schedule(
            schedule_shuffle(transfers, params, policy=policy), expected
        )

    def test_table_and_transfer_objects_schedule_alike(self):
        rng = np.random.default_rng(3)
        transfers = [
            Transfer(t.src, t.dst, t.n_cells, tag=i)
            for i, t in enumerate(_random_transfers(rng, 300, 6, 40))
        ]
        table = TransferTable(
            [t.src for t in transfers],
            [t.dst for t in transfers],
            [t.n_cells for t in transfers],
            tag=np.arange(len(transfers)),
        )
        from_objects = schedule_shuffle(transfers, PARAMS)
        from_table = schedule_shuffle(table, PARAMS)
        _assert_same_schedule(from_table, from_objects.events)
        assert from_table.cells_sent == from_objects.cells_sent
        assert from_table.busy_seconds() == from_objects.busy_seconds()


class TestTransferTable:
    def test_rejects_self_transfer_anywhere_in_the_table(self):
        with pytest.raises(ValueError, match="not a network transfer"):
            TransferTable([0, 1, 2], [1, 1, 0], [5, 5, 5])

    def test_rejects_negative_size_anywhere_in_the_table(self):
        with pytest.raises(ValueError, match="negative transfer size -3"):
            TransferTable([0, 1, 2], [1, 2, 0], [5, -3, 5])

    def test_rejects_ragged_columns(self):
        with pytest.raises(ValueError, match="differ in length"):
            TransferTable([0, 1], [1, 2, 0], [5, 5, 5])

    def test_untagged_events_carry_none(self):
        schedule = schedule_shuffle(TransferTable([0], [1], [10]), PARAMS)
        assert schedule.events[0].transfer == Transfer(0, 1, 10)
        assert schedule.tag is None


class TestScheduleColumns:
    def test_totals_keep_first_seen_order(self):
        transfers = [
            Transfer(3, 0, 10),
            Transfer(1, 2, 20),
            Transfer(3, 2, 30),
            Transfer(0, 1, 40),
        ]
        schedule = schedule_shuffle(transfers, PARAMS)
        started = [e.transfer for e in schedule.events]
        senders = list(dict.fromkeys(t.src for t in started))
        receivers = list(dict.fromkeys(t.dst for t in started))
        assert list(schedule.cells_sent) == senders
        assert list(schedule.cells_received) == receivers
        assert schedule.cells_sent == {3: 40, 1: 20, 0: 40}
        assert schedule.cells_received == {0: 10, 2: 50, 1: 40}
        assert all(type(v) is int for v in schedule.cells_sent.values())

    def test_busy_seconds_sum_in_start_order(self):
        rng = np.random.default_rng(8)
        schedule = schedule_shuffle(_random_transfers(rng, 200, 5, 90), PARAMS)
        send, recv = {}, {}
        for event in schedule.events:
            elapsed = event.end - event.start
            src, dst = event.transfer.src, event.transfer.dst
            send[src] = send.get(src, 0.0) + elapsed
            recv[dst] = recv.get(dst, 0.0) + elapsed
        assert schedule.busy_seconds() == (send, recv)
        assert list(schedule.busy_seconds()[0]) == list(send)
        assert list(schedule.busy_seconds()[1]) == list(recv)
