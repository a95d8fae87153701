"""Unit tests for the transports' bounded retransmit buffer."""

import numpy as np
import pytest

from repro.runtime.oracle import HeapTransport
from repro.runtime.transport import ArrayTransport


def send_batch(tr, n, arrival=5, op=0):
    tr.send(
        np.full(n, arrival, dtype=np.int64),
        np.full(n, op, dtype=np.int64),
        np.zeros(n, dtype=np.int64),
        np.arange(n, dtype=np.int64),
        np.zeros(n, dtype=np.int64),
        np.ones(n),
        np.arange(n, dtype=np.int64),
    )


def park(tr, batch):
    return tr.buffer(
        batch["op"], batch["port"], batch["key"], batch["ts"],
        batch["size"], batch["seq"],
    )


def balance(tr):
    return tr.sent == tr.delivered + tr.in_flight + tr.buffered


class TestArrayTransportBuffer:
    def test_buffer_holds_conservation(self):
        tr = ArrayTransport(max_buffer=100)
        send_batch(tr, 10)
        batch = tr.due(5)
        assert batch is not None and balance(tr)
        assert park(tr, batch) == 0
        assert tr.buffered == 10
        assert tr.delivered == 0  # buffered tuples are back inside
        assert balance(tr)

    def test_bounded_buffer_rejects_overflow_deterministically(self):
        tr = ArrayTransport(max_buffer=4)
        send_batch(tr, 10)
        assert park(tr, tr.due(5)) == 6
        assert tr.buffered == 4
        # First-come-first-buffered: the first four tuples were accepted.
        assert sorted(tr.buffered_seqs()) == [0, 1, 2, 3]
        assert balance(tr)

    def test_redeliver_releases_only_alive_ops(self):
        tr = ArrayTransport(max_buffer=100)
        for op in (0, 1):
            tr.send(
                np.array([3], dtype=np.int64), np.array([op], dtype=np.int64),
                np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64),
                np.zeros(1, dtype=np.int64), np.ones(1),
                np.array([op], dtype=np.int64),
            )
        park(tr, tr.due(3))
        assert tr.redeliver(np.array([True, False]), now=7) == 1
        assert tr.buffered == 1
        assert balance(tr)
        again = tr.due(7)
        assert again is not None and list(again["op"]) == [0]
        assert balance(tr)

    def test_parking_reuses_the_rows_due_reclaimed(self):
        """send → due → buffer → redeliver → due never grows the pool."""
        tr = ArrayTransport(max_buffer=100)
        send_batch(tr, 10)
        top = tr._top
        tr.check_calendar()
        batch = tr.due(5)
        tr.check_calendar()
        assert park(tr, batch) == 0
        assert tr._top == top
        assert tr.check_calendar() == 0 and tr.buffered == 10
        assert tr.redeliver(np.array([True]), now=6) == 10
        assert tr._top == top
        assert tr.check_calendar() == 10 and tr.buffered == 0
        again = tr.due(6)
        assert sorted(again["seq"]) == list(range(10))
        assert tr._top == top and tr.check_calendar() == 0
        assert balance(tr)

    def test_remap_drops_buffered_orphans_with_accounting(self):
        tr = ArrayTransport(max_buffer=100)
        send_batch(tr, 6, op=1)
        park(tr, tr.due(5))
        dropped = tr.remap_ops(np.array([0, -1], dtype=np.int64))
        assert dropped == 6
        assert tr.buffered == 0
        assert tr.dropped == 6
        assert tr.check_calendar() == 0
        assert balance(tr)

    def test_zero_capacity_buffer_rejects_everything(self):
        tr = ArrayTransport(max_buffer=0)
        send_batch(tr, 3)
        assert park(tr, tr.due(5)) == 3 and tr.buffered == 0
        assert balance(tr)

    def test_due_batch_belongs_to_its_caller(self):
        """A later round of the same tick leaves an earlier batch intact."""
        tr = ArrayTransport()
        send_batch(tr, 3, arrival=1, op=2)
        first = tr.due(1)
        kept = {name: col.copy() for name, col in first.items()}
        # Zero-delay outputs of round 1 cascade into the open tick.
        tr.send(
            np.ones(2, dtype=np.int64), np.full(2, 7, dtype=np.int64),
            np.ones(2, dtype=np.int64), np.full(2, 9, dtype=np.int64),
            np.full(2, 4, dtype=np.int64), np.full(2, 5.0),
            np.array([10, 11], dtype=np.int64),
        )
        second = tr.due(1)
        assert sorted(second["seq"]) == [10, 11]
        for name, col in kept.items():
            np.testing.assert_array_equal(first[name], col)

    def test_negative_bound_rejected(self):
        for transport in (ArrayTransport, HeapTransport):
            with pytest.raises(ValueError):
                transport(max_buffer=-1)


class TestHeapTransportBuffer:
    def test_buffer_and_redeliver_mirror_array_twin(self):
        hp = HeapTransport(max_buffer=2)
        for seq in range(4):
            hp.send_one(3, 1, seq, 0, 0, seq, 0, 1.0)
        batch = hp.due(3, 1)
        accepted = [hp.buffer_one(op, port, key, ts, size, seq)
                    for _, _, seq, op, port, key, ts, size in batch]
        assert accepted == [True, True, False, False]
        assert hp.buffered == 2
        assert balance(hp)
        assert hp.redeliver(np.array([True]), now=9) == 2
        assert hp.buffered == 0
        assert len(hp.due(9, 1)) == 2
        assert balance(hp)

    def test_remap_drops_buffered_orphans(self):
        hp = HeapTransport(max_buffer=10)
        hp.send_one(1, 1, 0, 1, 0, 7, 0, 1.0)
        batch = hp.due(1, 1)
        for _, _, seq, op, port, key, ts, size in batch:
            hp.buffer_one(op, port, key, ts, size, seq)
        assert hp.remap_ops(np.array([0, -1], dtype=np.int64)) == 1
        assert hp.buffered == 0 and hp.dropped == 1
        assert balance(hp)
