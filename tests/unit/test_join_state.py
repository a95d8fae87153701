"""The slot table's own contract: matches walk out oldest-first, and the
live-row counts equal a recount of the pool after every call.

The data plane pins the table to the scalar oracle end to end
(``tests/property/test_dataplane_properties.py``); this pins the one
ordering case a tick rarely isolates, and the counts under any
sequence of inserts, clock moves, compactions and remaps.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.load_model import KIND_JOIN, KIND_RELAY
from repro.runtime.join_state import JoinState


def insert(table, side, keys, ts, e, now):
    key = np.asarray(keys, dtype=np.int64)
    pair = np.full(key.size, side, dtype=np.int64)  # op 0
    table.insert(
        pair,
        key,
        np.asarray(ts, dtype=np.int64),
        np.ones(key.size),
        np.asarray(e, dtype=np.int64),
        now,
    )


def walk(table, side, key, now):
    """(ts, rank) of one query's matches, in rank order."""
    q = np.asarray([key], dtype=np.int64)
    _, rank, ts, _ = table.walk(table.slots(np.asarray([side]), q), q, now)
    order = np.argsort(rank)
    return ts[order].tolist(), rank[order].tolist()


class TestJoinState:
    def test_compaction_between_port0_insert_and_walk_keeps_ranks_in_order(self):
        # One join with key domain 2: keys 1 and 3 share a slot.
        table = JoinState(capacity=8)
        table.extend(np.array([KIND_JOIN], dtype=np.int8), np.array([2.0]))
        # Tick 1: six side-0 rows; ts marks insertion order, rows 0 and 2
        # expire at the end of tick 1.
        insert(table, 0, [3, 3, 1, 3, 3, 1], range(6), [1, 10, 1, 10, 10, 10], 1)
        # Tick 2: the port-0 insert overflows the 8-row pool, so a
        # compaction (dropping rows 0 and 2, growing to 12) fires
        # between it and the walk of a port-1 arrival.
        insert(table, 0, [3, 3, 1, 3], range(6, 10), [10] * 4, 2)
        assert (table.top, table.capacity) == (8, 12)
        ts, rank = walk(table, 0, 3, 2)
        assert ts == [1, 3, 4, 6, 7, 9]
        assert len(set(rank)) == len(rank)
        # The other side's chain of the same slot is untouched.
        assert walk(table, 1, 3, 2) == ([], [])


def layout(num_ops):
    """Every third op a relay (one slot per side), the rest joins whose
    key domain 3 folds the test's keys onto shared slots."""
    kind = np.full(num_ops, KIND_JOIN, dtype=np.int8)
    kind[::3] = KIND_RELAY
    return kind, np.full(num_ops, 3.0)


def recount(table):
    """Brute force: pooled rows with ``e >= clock``, per pair."""
    pair, _key, _ts, e = table.rows()
    return np.bincount(pair[e >= table.clock], minlength=table.live.size)


_ROWS = st.lists(
    st.tuples(
        st.integers(0, 1 << 10),  # pair, modulo the pairs laid out
        st.integers(0, 7),  # key
        st.integers(-2, 12),  # expiry, relative to now
    ),
    min_size=1,
    max_size=10,
)
_CALLS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 1), _ROWS),
        # An expiry far past any horizon seen so far.
        st.tuples(st.just("insert"), st.integers(0, 1), _ROWS, st.integers(13, 60)),
        st.tuples(st.just("advance"), st.integers(0, 80)),
        st.tuples(st.just("compact"), st.integers(0, 3)),
        st.tuples(st.just("remap"), st.integers(1, 4), st.integers(0, 1 << 16)),
        st.tuples(st.just("extend"), st.integers(1, 2)),
    ),
    max_size=30,
)


def run(table, call):
    now = table.clock
    if call[0] == "insert":
        rows = np.asarray(call[2], dtype=np.int64)
        now += call[1]
        e = now + rows[:, 2]
        if len(call) > 3:
            e[-1] = now + call[3]
        table.insert(
            rows[:, 0] % table.live.size, rows[:, 1], np.full(len(rows), now),
            np.ones(len(rows)), e, now,
        )
    elif call[0] == "advance":
        table.advance(now + call[1])
    elif call[0] == "compact":
        table.compact(now, call[1])
    elif call[0] == "remap":
        rng = np.random.default_rng(call[2])
        top = table.top
        kind, domain = layout(call[1])
        table.remap(
            rng.integers(0, 2 * call[1], top),
            now + rng.integers(-3, 20, top),
            rng.random(top) < 0.7,
            kind,
            domain,
            now + int(rng.integers(0, 2)),
        )
    else:
        table.extend(*layout(call[1]))


class TestCounts:
    """``live`` equals a recount of ``rows()`` with ``e >= clock`` after
    every call: inserts (some outgrowing the death histogram, some dead
    on arrival), clock moves (some past the whole horizon), pool
    overflow (a 4-row pool compacts on most inserts), explicit
    compactions, remaps onto a fresh layout and appended ops."""

    @settings(max_examples=300, deadline=None)
    @given(_CALLS)
    # The histogram widens while counted rows are pending, and they
    # must still retire on time.
    @example([("insert", 0, [(0, 1, 2), (1, 2, 1)]), ("insert", 1, [(2, 3, 0)], 30),
              ("advance", 2), ("advance", 1)])
    # The clock jumps past the whole horizon.
    @example([("insert", 0, [(0, 1, 5), (3, 2, 9)]), ("advance", 500),
              ("insert", 0, [(1, 1, 4)])])
    # A remap keeps rows under new pairs and expiries.
    @example([("insert", 0, [(0, 1, 5), (1, 2, 9), (2, 3, 3)]), ("remap", 3, 7),
              ("advance", 4)])
    def test_live_equals_recount_after_every_call(self, calls):
        table = JoinState(capacity=4)
        table.extend(*layout(2))
        for call in calls:
            run(table, call)
            np.testing.assert_array_equal(table.live, recount(table))
