"""The data-alignment schedule on the request path.

Pins the write-lock schedule of a Figure-8-shaped hash join bit for bit,
checks that a cold join builds no per-transfer Python objects, and that
the 16-bit unit sort of the slice mapping is the same permutation as the
``int64`` one.
"""

import numpy as np
import pytest

from repro.bench.experiments import HASH_QUERY, make_cluster
from repro.cluster import network
from repro.engine.executor import ShuffleJoinExecutor, _stable_unit_order
from repro.workloads.synthetic import skewed_hash_pair


@pytest.fixture(scope="module")
def fig8_cluster():
    """Figure 8's shape (12 nodes, block placement, 1,024 buckets, α = 1)
    at a fifth of its size."""
    left, right = skewed_hash_pair(1.0, cells_per_array=30_000, seed=3)
    return make_cluster([left, right], 12, seed=0, placement="block")


def fig8_executor(cluster):
    return ShuffleJoinExecutor(
        cluster, selectivity_hint=0.0001, n_buckets=1024
    )


class TestPinnedFigure8Alignment:
    """Values recorded with the per-``Transfer`` dict-of-deques scheduler
    the transfer table replaced; any change to the lock protocol, the
    transfer order or the float arithmetic moves them."""

    TOTAL_TIME = "0x1.9a21ea35935f1p-5"
    ALIGN_SECONDS = "0x1.a49921a495757p-5"
    CELLS_MOVED = 42834
    N_TRANSFERS = 6928
    SEND_BUSY = {
        0: "0x1.5c725c3dee780p-5", 1: "0x1.f2e48e8a71dedp-6",
        2: "0x1.cd5f99c38b04dp-6", 3: "0x1.b8a5ce5b42465p-6",
        4: "0x1.b606b7aa25d93p-6", 5: "0x1.b87bdcf0307f1p-6",
        6: "0x1.d1f601797cc3cp-6", 7: "0x1.dd82fd75e2051p-6",
        8: "0x1.d1e108c3f3dffp-6", 9: "0x1.cf1800a7c5aa9p-6",
        10: "0x1.dbca9691a75abp-6", 11: "0x1.c692f6e82947dp-6",
    }
    RECV_BUSY = {
        5: "0x1.571f36262cb98p-5", 7: "0x1.487fcb923a2a4p-6",
        6: "0x1.29b280f12c28dp-6", 4: "0x1.7fc115df65553p-5",
        11: "0x1.288ce703afb82p-7", 9: "0x1.2df505d0fa591p-7",
        8: "0x1.e54b48d3ae699p-7", 10: "0x1.d495182a99323p-7",
        3: "0x1.65c91d14e3bc3p-5", 2: "0x1.71a9fbe76c8aep-5",
        0: "0x1.6887a8d64d7efp-5", 1: "0x1.7583a53b8e4aap-5",
    }
    CELLS_RECEIVED = [
        (5, 4913), (7, 2578), (6, 1886), (4, 6049), (11, 806), (9, 871),
        (8, 1710), (10, 1960), (3, 6083), (2, 6053), (0, 4702), (1, 5223),
    ]

    def test_schedule_is_bit_identical(self, fig8_cluster):
        prepared = fig8_executor(fig8_cluster).prepare(
            HASH_QUERY, join_algo="hash"
        )
        result = prepared.execute("tabu")
        ((align_seconds, shuffle),) = prepared.slice_table._alignment.values()
        send, recv = shuffle.busy_seconds()
        assert shuffle.total_time.hex() == self.TOTAL_TIME
        assert align_seconds.hex() == self.ALIGN_SECONDS
        assert result.report.align_seconds.hex() == self.ALIGN_SECONDS
        assert shuffle.total_cells_moved == self.CELLS_MOVED
        assert shuffle.n_transfers == self.N_TRANSFERS
        assert {k: v.hex() for k, v in send.items()} == self.SEND_BUSY
        assert list(send) == list(self.SEND_BUSY)
        assert {k: v.hex() for k, v in recv.items()} == self.RECV_BUSY
        assert list(recv) == list(self.RECV_BUSY)
        assert list(shuffle.cells_received.items()) == self.CELLS_RECEIVED


def test_cold_join_builds_no_transfer_objects(fig8_cluster, monkeypatch):
    """Neither a plain, an analyzed nor a traced cold hash join needs a
    ``Transfer`` or ``TransferEvent``: the engine reads the table."""
    expected = fig8_executor(fig8_cluster).execute(
        HASH_QUERY, planner="tabu", join_algo="hash"
    )

    def refuse(self, *args, **kwargs):
        raise AssertionError("per-transfer object built on the request path")

    monkeypatch.setattr(network.Transfer, "__init__", refuse)
    monkeypatch.setattr(network.TransferEvent, "__init__", refuse)
    with pytest.raises(AssertionError):
        network.Transfer(0, 1, 1)

    for options in ({}, {"analyze": True}, {"trace": True}):
        result = fig8_executor(fig8_cluster).execute(
            HASH_QUERY, planner="tabu", join_algo="hash", **options
        )
        assert result.cells.same_cells(expected.cells)
        for name in (
            "align_seconds", "compare_seconds", "cells_moved",
            "n_transfers", "output_cells", "cells_sent", "cells_received",
        ):
            assert getattr(result.report, name) == getattr(
                expected.report, name
            )
    spans = [s for s in result.trace.spans if s.lane.startswith("net:")]
    assert len(spans) == expected.report.n_transfers


class TestStableUnitOrder:
    @pytest.mark.parametrize("n_units", [1, 1024, 1 << 16, (1 << 16) + 1])
    def test_same_permutation_as_int64_stable_sort(self, n_units):
        rng = np.random.default_rng(n_units)
        units = rng.integers(0, n_units, 50_000)
        units[:2] = [0, n_units - 1]
        order = _stable_unit_order(units, n_units)
        assert np.array_equal(order, np.argsort(units, kind="stable"))

    def test_uses_the_16_bit_sort_up_to_65536_units(self, monkeypatch):
        seen = []
        argsort = np.argsort

        def spy(values, **kwargs):
            seen.append(values.dtype)
            return argsort(values, **kwargs)

        monkeypatch.setattr(np, "argsort", spy)
        units = np.arange(10, dtype=np.int64)
        _stable_unit_order(units, 1 << 16)
        _stable_unit_order(units, (1 << 16) + 1)
        assert seen == [np.dtype(np.uint16), np.dtype(np.int64)]
