"""Windowed join state of the batched data plane: one slot table.

Every (join op, side, key) owns a *slot*; every state row lives in one
append-only pool whose rows are chained per slot, newest first:

* **Layout.** ``slot = base[2·op + side] + key % nb[op]`` with
  ``nb = min(domain, _SLOT_CAP)`` for join ops and ``nb = 1`` for every
  other op (a rewrite can re-home rows onto a non-join op).  ``base``
  is the exclusive cumsum of ``nb`` repeated per side, so appending ops
  (an install) leaves every existing slot in place.  Keys past the cap
  fold onto shared slots; the walk compares keys, so folding is
  unobservable.
* **Pool.** Six columns, 28 B a row: ``slot``, ``key``, ``ts``, ``e``
  and ``next`` (int32) and ``size`` (float64).  ``head[slot]`` is the
  slot's newest row and ``next`` the previous row of the same slot
  (−1 ends the chain).  Invariant: *within a slot, pool position
  increases with insertion time* — inserts append, and compaction
  keeps position order within each slot.
* **Liveness.** ``e`` is the stored expiry tick; a row is live at tick
  ``now`` iff ``e >= now``.  Dead rows stay chained (the walk skips
  them) until the next compaction.
* **Compaction** runs only when an insert would overflow the pool: the
  live rows are gathered in (slot, position) order, relinked, and the
  pool grows to ``max(capacity, _GROWTH · (live + batch))`` rows.

A walk enumerates an arrival's matches newest-first, so ``rank =
−depth`` orders them oldest-first: exactly the scalar oracle's per-key
insertion order.

The table also counts its own rows, per (op, side) pair — the opposite
side's state a join's admission price is set by:

* **Counts.** ``live[pair]`` is the number of pooled rows of ``pair``
  with ``e >= clock``, exactly, after every call: ``rows()`` masked by
  ``e >= clock`` recounts it.  ``clock`` is the latest ``now`` seen;
  every call that takes ``now`` first advances it.
* **Deaths.** A circular histogram ``deaths[e % horizon, pair]`` holds
  every counted row under its expiry tick; every counted row expires in
  ``[clock, clock + horizon)``, so no two pending ticks share a bucket.
  :meth:`advance` retires one bucket per tick — O(pairs), whatever the
  state size.  An insert whose expiry outgrows the horizon widens it
  first, re-indexing the pending buckets by the new modulus.
* **Lifecycle.** Inserts add O(batch); :meth:`extend` appends zero
  columns; :meth:`remap` recounts the rows it keeps with one bincount.
  Nothing is ever stale, so reading ``live`` costs nothing.
"""

from __future__ import annotations

import numpy as np

from repro.core.load_model import KIND_JOIN

# Slots per (join op, side): keys fold modulo this past it.
_SLOT_CAP = 4096
# Pool size after a compaction, as a multiple of the rows it must hold.
# Peak RSS, not speed, sets it: a 2x pool raised dataplane_only's
# peak_rss_mb by 1-4 %, against the benchmark's 5 % bound.
_GROWTH = 1.5
# Rows the pool is first allocated with.
_INITIAL_ROWS = 1024


class JoinState:
    """Append-only row pool chained per slot, with a per-slot head array
    and the live-row count of every (op, side) pair (``live``, exact at
    ``clock``).

    Exactness and widths: tuple sizes are integer-valued floats, so the
    ``size`` sums a join emits, and any reordered sum of them (the data
    plane's per-link ``bincount`` totals), are exact below 2^53.  Rows,
    slots, keys and ticks are int32 columns (the data plane refuses a
    tick past the int32 limit), so the sort keys ``slot << bits(n) | i``
    of :meth:`insert` and :meth:`_rebuild` fit in 62 bits, and the flat
    ``deaths`` index ``(e % horizon) · pairs + pair`` is an int64.

    Args:
        capacity: rows the pool is first allocated with (the floor of
            every later size).  The pool is allocated by the first
            insert.
    """

    def __init__(self, capacity: int = _INITIAL_ROWS) -> None:
        self.capacity = capacity
        self.top = 0
        self._nb = np.zeros(0, dtype=np.int64)  # slots per (op, side) pair
        self._base = np.zeros(0, dtype=np.int64)  # first slot per pair
        self._head = np.zeros(0, dtype=np.int32)
        for name in ("_slot", "_key", "_ts", "_e", "_next"):
            setattr(self, name, np.empty(0, dtype=np.int32))
        self._size = np.empty(0, dtype=np.float64)
        self.clock = 0
        self.live = np.zeros(0, dtype=np.int64)  # live rows per pair
        self._deaths = np.zeros((1, 0), dtype=np.int64)  # [e % horizon, pair]

    # -- layout ------------------------------------------------------------

    def extend(self, kind: np.ndarray, domain: np.ndarray) -> None:
        """Lay out the slots of appended ops; existing slots stay put."""
        nb = np.ones(kind.size, dtype=np.int64)
        joins = kind == KIND_JOIN
        nb[joins] = np.minimum(domain[joins], _SLOT_CAP).astype(np.int64)
        nb = np.repeat(nb, 2)
        start = self._head.size
        self._base = np.concatenate((self._base, start + np.cumsum(nb) - nb))
        self._nb = np.concatenate((self._nb, nb))
        self._head = np.concatenate(
            (self._head, np.full(int(nb.sum()), -1, dtype=np.int32))
        )
        self.live = np.concatenate((self.live, np.zeros(nb.size, dtype=np.int64)))
        self._deaths = np.concatenate(
            (self._deaths, np.zeros((self.horizon, nb.size), dtype=np.int64)), axis=1
        )

    def slots(self, pair: np.ndarray, key: np.ndarray) -> np.ndarray:
        """Slot of each (``pair = 2·op + side``, key)."""
        return self._base[pair] + key % self._nb[pair]

    def rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(pair, key, ts, e) of every pooled row, live or not."""
        top = self.top
        pair = np.searchsorted(self._base, self._slot[:top], side="right") - 1
        return pair, self._key[:top], self._ts[:top], self._e[:top]

    # -- rows --------------------------------------------------------------

    def insert(self, pair, key, ts, size, e, now: int) -> None:
        """Append a batch (given in insertion order) of (``pair = 2·op +
        side``, key) rows, chain it onto its slots and count it.

        The batch is written grouped by slot, in insertion order within
        each slot (one sort of ``slot·2^k + i``), so a slot's rows in it
        are adjacent and the invariant holds.
        """
        n = pair.size
        if n == 0:
            return
        self.advance(now)
        self._count(pair, e)
        slot = self.slots(pair, key)
        if self.top + n > self._key.size:
            self.compact(now, n)
        lo = self.top
        hi = lo + n
        shift = n.bit_length()
        packed = np.sort((slot << shift) | np.arange(n))
        order = packed & ((1 << shift) - 1)
        slot = packed >> shift
        self._slot[lo:hi] = slot
        self._key[lo:hi] = key[order]
        self._ts[lo:hi] = ts[order]
        self._size[lo:hi] = size[order]
        self._e[lo:hi] = e[order]
        self._link(slot, lo)
        self.top = hi

    def walk(self, slot, key, now: int):
        """Every live equal-key row on each query's chain, all at once.

        Returns ``(query, rank, ts, size)`` per match: ``query`` indexes
        the inputs and ``rank = −depth`` on the chain, so ``(query,
        rank)`` enumerates each query's matches oldest-first.
        """
        keys, expiry, nxt = self._key, self._e, self._next
        cur = self._head[slot]
        q = np.flatnonzero(cur >= 0)
        cur = cur[q]
        qkey = key[q]
        hits_q, hits_row, ranks, counts = [], [], [], []
        depth = 0
        while q.size:
            hit = keys[cur] == qkey
            hit &= expiry[cur] >= now
            idx = np.flatnonzero(hit)
            if idx.size:
                hits_q.append(q[idx])
                hits_row.append(cur[idx])
                ranks.append(-depth)
                counts.append(idx.size)
            cur = nxt[cur]
            more = np.flatnonzero(cur >= 0)
            if more.size < cur.size:
                q, cur, qkey = q[more], cur[more], qkey[more]
            depth += 1
        if not hits_q:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty, np.empty(0)
        row = np.concatenate(hits_row)
        return (
            np.concatenate(hits_q),
            np.repeat(np.array(ranks, dtype=np.int64), counts),
            self._ts[row],
            self._size[row],
        )

    def compact(self, now: int, extra: int) -> None:
        """Drop dead rows and make room for ``extra`` more."""
        self.advance(now)
        self._rebuild(self._e[: self.top] >= self.clock, extra)

    def remap(self, pair, e, keep, kind, domain, now: int) -> None:
        """Re-home every pooled row under a fresh layout of ``kind`` /
        ``domain``: row ``i`` moves to ``pair[i]`` with expiry ``e[i]``
        if ``keep[i]``, and is dropped otherwise.  The kept rows are
        recounted."""
        self.clock = max(self.clock, now)
        self._nb = np.zeros(0, dtype=np.int64)
        self._base = np.zeros(0, dtype=np.int64)
        self._head = np.zeros(0, dtype=np.int32)
        self.live = np.zeros(0, dtype=np.int64)
        self._deaths = np.zeros((self.horizon, 0), dtype=np.int64)
        self.extend(kind, domain)
        rows = np.flatnonzero(keep)
        self._slot[rows] = self.slots(pair[rows], self._key[rows])
        self._e[rows] = e[rows]
        self._rebuild(keep, 0)
        counted = keep & (e >= self.clock)
        self._recount(pair[counted], e[counted])

    # -- counts ------------------------------------------------------------

    @property
    def horizon(self) -> int:
        """Ticks the death histogram spans."""
        return self._deaths.shape[0]

    def advance(self, now: int) -> None:
        """Move the clock to ``now``, retiring the rows that expired
        before it (O(pairs) a tick)."""
        if now <= self.clock:
            return
        h = self.horizon
        if now - self.clock >= h:
            self.live -= self._deaths.sum(axis=0)
            self._deaths[:] = 0
        else:
            for t in range(self.clock, now):
                row = self._deaths[t % h]
                self.live -= row
                row[:] = 0
        self.clock = now

    def _count(self, pair: np.ndarray, e: np.ndarray) -> None:
        """Count a batch's rows that are live at the clock."""
        live = e >= self.clock
        if not live.all():
            pair, e = pair[live], e[live]
            if not pair.size:
                return
        span = int(e.max()) - self.clock + 1
        if span > self.horizon:
            self._widen(span)
        num = self.live.size
        self.live += np.bincount(pair, minlength=num)
        # One 1-D scatter into the flat (C-ordered) histogram.
        flat = np.asarray(e, dtype=np.int64) % self.horizon
        flat *= num
        flat += pair
        np.add.at(self._deaths.reshape(-1), flat, 1)

    def _widen(self, h: int) -> None:
        """Grow the horizon to ``h``: every pending death sits at a tick
        in ``[clock, clock + horizon)``, so re-indexing those buckets by
        the new modulus moves each to its own new bucket."""
        t = np.arange(self.clock, self.clock + self.horizon)
        deaths = np.zeros((h, self.live.size), dtype=np.int64)
        deaths[t % h] = self._deaths[t % self.horizon]
        self._deaths = deaths

    def _recount(self, pair: np.ndarray, e: np.ndarray) -> None:
        """Rebuild the counts from every live row, in one flat bincount."""
        num = self.live.size
        h = self.horizon
        if e.size:
            h = max(h, int(e.max()) - self.clock + 1)
        flat = np.asarray(e, dtype=np.int64) % h
        flat *= num
        flat += pair
        self._deaths = np.bincount(flat, minlength=h * num).reshape(h, num)
        self.live = self._deaths.sum(axis=0)


    def _rebuild(self, keep: np.ndarray, extra: int) -> None:
        """Gather the ``keep`` rows to the pool front in (slot, position)
        order and relink every chain; grow the pool if it must hold
        ``extra`` more.

        Peak memory shapes this: it runs with the pool full, so its
        temporaries are built in place and released once used.
        """
        rows = np.flatnonzero(keep)
        n = rows.size
        # One in-place sort of (slot, position) yields both the new
        # slot column and the gather order; ``next`` is rebuilt.
        shift = max(self.top.bit_length(), 1)
        packed = self._slot[rows].astype(np.int64)
        packed <<= shift
        packed |= rows
        del rows
        packed.sort()
        cap = max(self.capacity, int(_GROWTH * (n + extra)))
        if cap > self._key.size:
            self._slot = np.empty(cap, dtype=np.int32)
            self._next = np.empty(cap, dtype=np.int32)
        np.right_shift(packed, shift, out=self._slot[:n], casting="unsafe")
        packed &= (1 << shift) - 1
        for name in ("_key", "_ts", "_e", "_size"):
            col = getattr(self, name)
            if cap > col.size:
                new = np.empty(cap, dtype=col.dtype)
                np.take(col, packed, out=new[:n])
                setattr(self, name, new)
            else:
                col[:n] = col[packed]
        del packed
        self.capacity = cap
        self._head.fill(-1)
        if n:
            self._link(self._slot[:n], 0)
        self.top = n

    def _link(self, slot: np.ndarray, lo: int) -> None:
        """Chain rows ``lo, lo + 1, …`` — grouped by ``slot``, oldest
        first within each run: a run's first row links to its slot's
        head, every later row to its predecessor, and the head moves to
        the run's last row."""
        n = slot.size
        edge = np.empty(n, dtype=bool)
        edge[0] = True
        np.not_equal(slot[1:], slot[:-1], out=edge[1:])
        start = np.flatnonzero(edge)
        del edge
        nxt = self._next[lo : lo + n]
        nxt[:] = np.arange(lo - 1, lo + n - 1, dtype=np.int32)
        run = slot[start]
        nxt[start] = self._head[run]
        # A run ends one row before the next one starts.
        end = start
        end[:-1] = start[1:] - 1
        end[-1] = n - 1
        end += lo
        self._head[run] = end
