"""The slot table's own contract: matches walk out oldest-first.

The data plane pins the table to the scalar oracle end to end
(``tests/property/test_dataplane_properties.py``); this pins the one
ordering case a tick rarely isolates.
"""

import numpy as np

from repro.core.load_model import KIND_JOIN
from repro.runtime.join_state import JoinState


def insert(table, side, keys, ts, e, now):
    key = np.asarray(keys, dtype=np.int64)
    pair = np.full(key.size, side, dtype=np.int64)  # op 0
    table.insert(
        table.slots(pair, key),
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
