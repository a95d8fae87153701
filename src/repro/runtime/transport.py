"""In-flight tuple storage of the batched data plane.

:class:`ArrayTransport` moves tuples between circuit services as a
**calendar queue keyed by arrival tick**: delivery costs O(due), not
O(in flight).  Its per-tuple reference is the oracle's
:class:`~repro.runtime.oracle.HeapTransport`, which the equivalence
properties pin it to tick for tick.  Delivery is grouped into
*rounds*: round 1 of a tick delivers everything in flight that is due,
and each later round delivers the zero-delay outputs of the previous
round (colocated services cascade within a tick).

It carries a *bounded retransmit buffer* of ``max_buffer`` tuples (0,
the default, rejects everything): a tuple delivered to a failed node is
handed back via ``buffer`` instead of being dropped, parked until its
target service's host is alive again, and re-injected by ``redeliver``
at the start of a tick as a round-1 arrival with its original sequence
number.  Overflow is *rejected* deterministically (first come, first
buffered, in canonical delivery order) so the data plane can drop the
excess with explicit accounting.  A buffered tuple is subtracted from
``delivered`` — it is back inside the transport — so conservation
holds at all times as::

    sent == delivered + in_flight + buffered

and is exposed by the counters so the data plane can prove that no
tuple is ever silently lost.

The calendar
------------

Network usage *is* the data in transit, so the pool is large by
construction (hundreds of thousands of rows for ten thousand due per
tick) and nothing on the per-tick path may touch all of it:

* **Layout.**  Six flat payload columns indexed by row; a row never
  moves.  ``_slots[tick]`` lists chunks of int32 row indices arriving
  at ``tick``.  :meth:`~ArrayTransport.send` groups a batch by arrival
  in O(n) — radix argsort of the tick offsets, one ``bincount`` for the
  run boundaries, one list append per distinct tick (a single-tick
  batch skips the sort) — and :meth:`~ArrayTransport.due` pops the
  slots ``<= now`` whole and gathers only their rows.  The batch it
  returns is unordered; the caller's ``(op, port, seq)`` sort is the
  canonical order.
* **Locality.**  ``send`` writes the batch *in arrival order* into the
  rows it takes, so one tick's rows are consecutive entries of what
  earlier slots gave back run by run: a slot's rows stay runs of
  adjacent pool rows about a chunk long, and both the scatter in
  ``send`` and the gather in ``due`` walk runs instead of striding a
  pool that no cache holds.
* **Every row in** ``[0, top)`` **is exactly one of free, slotted or
  parked.**  A slotted row belongs to its slot until the slot pops:
  :meth:`~ArrayTransport.remap_ops` re-addresses rows in place and
  marks dropped ones dead (``op = -1``) without editing the calendar;
  ``due`` filters dead rows out of what it popped and reclaims *every*
  popped row, marking it ``op = -1`` too.  A parked row is a buffered
  tuple, filed under no slot; ``_parked`` lists parked rows in
  acceptance order.  ``buffer`` parks rows taken like a send's,
  ``redeliver`` files the released ones under the next open tick
  without copying them, and ``remap_ops`` frees a dropped parked row
  at once.  ``op >= 0`` over ``[0, top)`` is therefore the live mask
  (in flight or parked), and ``remap_ops`` / ``inflight_seqs`` are a
  constant number of NumPy calls however many slots exist.
  ``in_flight`` is a maintained counter.
* **Cursor.**  ``_cursor`` is the last fully delivered tick:
  ``due(now)`` walks the ticks ``cursor + 1 .. now`` (skipped ticks
  included; after a gap longer than the calendar it scans the slot keys
  instead) and leaves ``cursor = now - 1``, because tick ``now`` stays
  open — a zero-delay cascade sent at ``arrival == now`` must be seen by
  the next ``due(now)`` of the same tick.  A late send (``arrival <=
  cursor``) is filed under ``cursor + 1`` and joins the next ``due``.
  No slot key is ever ``<= cursor``, the call that finds nothing due is
  one dict lookup, and ``now`` must not decrease.
* **Memory.**  Popped index arrays go onto a free list that feeds later
  sends and parks (most recently freed first); the bump pointer ``top``
  extends the pool only when the list runs dry, so ``top`` tracks the
  peak of live plus slotted-dead rows.  Indices are int32 and capacity
  is ``np.empty``: rows past ``top`` are never read, hence never
  touched, hence never resident.  :meth:`~ArrayTransport.check_calendar`
  recounts all of it from scratch for the tests.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.hashing import route_bucket

__all__ = ["ArrayTransport"]


class ArrayTransport:
    """Calendar-queue in-flight pool with O(due) delivery.

    Six payload columns (``op``, ``port``, ``key``, ``ts``, ``size``,
    ``seq``) are flat arrays grown by doubling; a row is addressed by
    its index and never moves.  ``_slots`` maps an arrival tick to the
    chunks of row indices filed under it, so :meth:`due` pops the slots
    ``<= now`` whole and gathers only those rows, and the call that
    finds nothing due is a dict lookup.  Popped index arrays go onto a
    free list that feeds later sends; the bump pointer ``_top`` extends
    the pool only when the free list runs dry.  Buffered tuples are
    parked rows of the same pool.  See the module docstring for the
    row-ownership rule, the cursor and the memory contract.
    """

    _INITIAL = 1024
    _COLUMNS = ("op", "port", "key", "ts", "size", "seq")
    # Widest arrival span (in ticks) whose offsets fit the int16 keys
    # NumPy's stable argsort radix-sorts in O(n).
    _RADIX_SPAN = 1 << 15

    def __init__(self, max_buffer: int = 0) -> None:
        if max_buffer < 0:
            raise ValueError("max_buffer must be non-negative")
        self._cap = self._INITIAL
        # np.empty, never np.full: capacity beyond _top is never read,
        # so it is never touched and costs no resident memory.
        self._op = np.empty(self._cap, dtype=np.int64)
        self._port = np.empty(self._cap, dtype=np.int64)
        self._key = np.empty(self._cap, dtype=np.int64)
        self._ts = np.empty(self._cap, dtype=np.int64)
        self._size = np.empty(self._cap, dtype=np.float64)
        self._seq = np.empty(self._cap, dtype=np.int64)
        self._top = 0  # rows [0, _top) have been handed out at least once
        self._slots: dict[int, list[np.ndarray]] = {}
        self._free: list[np.ndarray] = []
        self._parked = np.empty(0, dtype=np.int32)  # the retransmit buffer
        self.max_buffer = max_buffer
        # Last fully delivered tick: no slot key is <= _cursor, and a
        # send arriving at or before it is filed under _cursor + 1.
        self._cursor = -(1 << 62)
        self._count = 0  # live slotted rows (in_flight)
        self._dead = 0  # rows remap_ops dropped that still sit in a slot
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.buffered_total = 0  # tuples buffer() ever accepted
        # Duck-typed tracer handle (see repro.obs.trace); None means no
        # tracing and every hook is a single attribute check.
        self.trace = None

    @property
    def in_flight(self) -> int:
        return self._count

    @property
    def buffered(self) -> int:
        """Tuples parked in the retransmit buffer."""
        return self._parked.size

    def buffered_by_op(self, num_ops: int) -> np.ndarray:
        """Retransmit-buffer backlog per target op (one bincount)."""
        return np.bincount(self._op[self._parked], minlength=num_ops)

    def inflight_seqs(self) -> np.ndarray:
        """Sequence numbers currently in the in-flight pool (copy)."""
        top = self._top
        live = self._op[:top] >= 0
        live[self._parked] = False
        return self._seq[:top][live]

    def buffered_seqs(self) -> np.ndarray:
        """Sequence numbers parked in the retransmit buffer (copy)."""
        return self._seq[self._parked]

    def _grow(self, needed: int) -> None:
        cap = self._cap
        while cap < needed:
            cap *= 2
        for name in self._COLUMNS:
            old = getattr(self, "_" + name)
            fresh = np.empty(cap, dtype=old.dtype)
            fresh[: self._top] = old[: self._top]
            setattr(self, "_" + name, fresh)
        self._cap = cap

    def _take(self, n: int) -> np.ndarray:
        """``n`` unused row indices: free list first, then fresh rows."""
        free = self._free
        parts = []
        need = n
        while need and free:
            chunk = free.pop()
            if chunk.size > need:
                free.append(chunk[need:])
                chunk = chunk[:need]
            parts.append(chunk)
            need -= chunk.size
        if need:
            top = self._top
            if top + need > self._cap:
                self._grow(top + need)
            parts.append(np.arange(top, top + need, dtype=np.int32))
            self._top = top + need
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def _store(self, rows: np.ndarray, columns: tuple, pick=None) -> None:
        """Scatter the six payload columns (``pick`` of each) into ``rows``."""
        at = rows.astype(np.intp)  # one cast, six scatters
        for name, values in zip(self._COLUMNS, columns):
            getattr(self, "_" + name)[at] = values if pick is None else values[pick]

    def _file(self, rows: np.ndarray, ticks: list, ends: list) -> None:
        """Put ``rows`` in flight: the run ending at ``ends[i]`` under ``ticks[i]``."""
        self._count += rows.size
        slots = self._slots
        start = 0
        for tick, end in zip(ticks, ends):  # one append per distinct tick
            chunk = rows[start:end]
            chunks = slots.get(tick)
            if chunks is None:
                slots[tick] = [chunk]
            else:
                chunks.append(chunk)
            start = end

    def send(
        self,
        arrival: np.ndarray,
        op: np.ndarray,
        port: np.ndarray,
        key: np.ndarray,
        ts: np.ndarray,
        size: np.ndarray,
        seq: np.ndarray,
    ) -> None:
        """Put a batch of tuples in flight (one array per column)."""
        n = arrival.shape[0]
        if n == 0:
            return
        lo = int(arrival.min())
        hi = int(arrival.max())
        first = self._cursor + 1
        if lo < first:  # late rows join the next due()
            arrival = np.maximum(arrival, first)
            lo, hi = first, max(hi, first)
        if lo == hi:
            order = None
            ticks, ends = [lo], [n]
        else:
            # Group by arrival in O(n): radix argsort of the tick
            # offsets, one bincount for the run boundaries.  A batch
            # spanning more ticks than int16 holds is rank-compressed
            # first so the bincount stays O(n).
            d = arrival - lo
            if hi - lo < self._RADIX_SPAN:
                offsets = None
                order = np.argsort(d.astype(np.int16), kind="stable")
            else:
                offsets, d = np.unique(d, return_inverse=True)
                order = np.argsort(d, kind="stable")
            counts = np.bincount(d)
            present = np.flatnonzero(counts)
            ends = np.cumsum(counts[present]).tolist()
            ticks = (lo + (present if offsets is None else offsets[present])).tolist()
        # The batch is written in arrival order, so one tick's rows are
        # consecutive entries of ``rows`` — and ``rows`` is what earlier
        # slots gave back, run by run.  A slot's rows therefore stay
        # runs of adjacent pool rows, which this scatter and the gather
        # in due() walk instead of striding the whole pool.
        rows = self._take(n)
        self._store(rows, (op, port, key, ts, size, seq), order)
        self._file(rows, ticks, ends)
        self.sent += n

    def due(self, now: int) -> dict[str, np.ndarray] | None:
        """Extract every tuple with ``arrival <= now``.

        ``now`` never decreases across calls.  Returns the extracted
        columns as fresh arrays the caller owns (unordered — callers
        sort canonically), or None when nothing is due.  Every popped
        row, live or dead, is reclaimed.
        """
        slots = self._slots
        cursor = self._cursor
        self._cursor = max(cursor, now - 1)
        if not slots:
            return None
        if now - cursor > len(slots):  # first call or a long gap
            ticks = sorted(t for t in slots if t <= now)
        else:
            ticks = range(cursor + 1, now + 1)
        popped: list[np.ndarray] = []
        for tick in ticks:
            chunks = slots.pop(tick, None)
            if chunks is not None:
                popped += chunks
        if not popped:
            return None
        rows = popped[0] if len(popped) == 1 else np.concatenate(popped)
        self._free.append(rows)
        at = rows.astype(np.intp)  # one cast, six gathers
        if self._dead:
            live = self._op[at] >= 0
            dead = at.size - int(np.count_nonzero(live))
            if dead:
                self._dead -= dead
                at = at[live]
                if at.size == 0:
                    return None
        hits = at.size
        batch = {name: getattr(self, "_" + name)[at] for name in self._COLUMNS}
        self._op[at] = -1  # delivered rows leave the live mask
        self._count -= hits
        self.delivered += hits
        return batch

    def buffer(
        self,
        op: np.ndarray,
        port: np.ndarray,
        key: np.ndarray,
        ts: np.ndarray,
        size: np.ndarray,
        seq: np.ndarray,
    ) -> int:
        """Park dead-bound tuples; returns how many overflowed the bound.

        The first ``max_buffer - buffered`` tuples (in the caller's
        canonical order) are parked in rows taken like a send's and
        subtracted from ``delivered`` (they are back inside the
        transport); the rest are rejected and stay counted as delivered
        so the caller can account the drop.
        """
        n = op.shape[0]
        accept = min(n, self.max_buffer - self._parked.size)
        if accept:
            rows = self._take(accept)
            self._store(rows, (op, port, key, ts, size, seq), slice(accept))
            self._parked = np.concatenate((self._parked, rows))
            self.delivered -= accept
            self.buffered_total += accept
        return n - accept

    def redeliver(self, alive_of_op: np.ndarray, now: int) -> int:
        """Re-inject parked tuples whose target op is alive again.

        One boolean mask over the parked rows; the released rows are
        filed as they are under the next open tick, ``max(now, cursor +
        1)``, and join its first delivery round with their original
        sequence numbers.  Returns the number released.
        """
        parked = self._parked
        if parked.size == 0:
            return 0
        mask = alive_of_op[self._op[parked]]
        rows = parked[mask]
        hits = rows.size
        if hits == 0:
            return 0
        if self.trace is not None:
            self.trace.record(self.trace.REDELIVER, self._seq[rows], self._op[rows])
        self._parked = parked[~mask]
        self._file(rows, [max(now, self._cursor + 1)], [hits])
        return hits

    def remap_ops(self, mapping: np.ndarray, key_split: dict | None = None) -> int:
        """Re-address in-flight and parked tuples after an arena change.

        ``mapping[old_op]`` is the new operator index, or -1 when the
        operator's circuit was uninstalled (an uninstall maps live rows
        to themselves; a compaction, segment swaps included, maps every
        live row to its gathered row).  Tuples bound for removed
        operators are dropped *with accounting* (they count as both
        delivered-out-of-the-transport and dropped); everything else is
        re-homed in place.  A dropped slotted row is only marked dead —
        it stays filed in its slot and is reclaimed when the slot pops;
        a dropped parked row is freed at once.  Returns the number
        dropped.

        ``key_split`` handles scale events: ``key_split[old_op] =
        (targets, port)`` re-routes that op's tuples by key bucket to
        ``targets[bucket(key, len(targets))]`` (overriding ``mapping``),
        overwriting the port when one is given — the same rule the
        hash-router applies at send time, so re-homed tuples land on
        the replica that owns their key.
        """
        parked = self._parked
        if self._count == 0 and parked.size == 0:
            return 0
        top = self._top
        ops = self._op[:top]
        live = ops >= 0
        new_op = np.where(live, mapping[ops], -1)
        if key_split:
            keys = self._key[:top]
            for old, (targets, port) in key_split.items():
                mask = ops == old
                if not mask.any():
                    continue
                new_op[mask] = targets[route_bucket(keys[mask], len(targets))]
                if port is not None:
                    self._port[:top][mask] = port
        drop = live & (new_op < 0)
        dropped = int(np.count_nonzero(drop))
        if dropped:
            if self.trace is not None:
                self.trace.record(
                    self.trace.DROP_UNINSTALL, self._seq[:top][drop], ops[drop]
                )
            gone = drop[parked]
            unparked = int(np.count_nonzero(gone))
            if unparked:
                self._free.append(parked[gone])
                self._parked = parked[~gone]
            self._count -= dropped - unparked
            self._dead += dropped - unparked
            self.delivered += dropped
            self.dropped += dropped
        self._op[:top] = new_op
        return dropped

    def check_calendar(self) -> int:
        """Recount the pool from the calendar; returns the live rows.

        Debug helper, O(top): raises AssertionError unless the slotted
        rows minus the dead ones equal ``in_flight``, no slot key is at
        or before the cursor, every parked row is live and within the
        bound, and the free, slotted and parked rows partition ``[0,
        top)`` with no index twice.
        """
        top = self._top
        empty = [np.empty(0, dtype=np.int32)]
        filed = np.concatenate(
            empty + [c for chunks in self._slots.values() for c in chunks]
        )
        free = np.concatenate(empty + self._free)
        parked = self._parked
        seen = np.bincount(np.concatenate((filed, free, parked)), minlength=top)
        if seen.size != top or (seen != 1).any():
            raise AssertionError("free, slotted and parked rows do not partition [0, top)")
        if self._slots and min(self._slots) <= self._cursor:
            raise AssertionError("slot filed at or before the cursor")
        if (self._op[free] >= 0).any():
            raise AssertionError("free row marked live")
        if (self._op[parked] < 0).any() or parked.size > self.max_buffer:
            raise AssertionError("parked row marked dead, or more parked than the bound")
        live = int(np.count_nonzero(self._op[filed] >= 0))
        if live != self._count or filed.size - live != self._dead:
            raise AssertionError(
                f"calendar holds {live} live / {filed.size - live} dead rows, "
                f"counters say {self._count} / {self._dead}"
            )
        return live


# bench/ wraps ``buffer`` / ``redeliver`` under this name, from when the
# retransmit buffer was a subclass of its own.
ReliableTransport = ArrayTransport
