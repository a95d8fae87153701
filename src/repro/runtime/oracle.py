"""The per-tuple oracle of the data plane.

:meth:`DataPlane.step_scalar <repro.runtime.dataplane.DataPlane.step_scalar>`
runs :func:`step`: the tick's operator loop, one tuple at a time in
canonical order, over :class:`HeapTransport` (in-flight tuples as heap
entries) and :class:`KeyTables` (one list of join rows per (op, side,
key)).  It shares the batched path's tick frame, compiled columns and
source draw, so twin data planes agree tuple for tuple; the calendar
transport, the slot table and its counts, the admission prices and the
arena's install / tombstone / compaction are each pinned to it by the
property tests.  A plane is built on the batched pair; its first
:func:`step` swaps in this module's, and it stays on the oracle.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.core.load_model import KIND_AGGREGATE, KIND_FILTER, KIND_RELAY
from repro.runtime.hashing import filter_bucket_int, pair_bucket_int, route_bucket_int

__all__ = ["HeapTransport", "KeyTables", "step"]


class HeapTransport:
    """Per-tuple heapq transport.

    Entries are ``(arrival, round, seq, op, port, key, ts, size)``
    tuples; the heap order ``(arrival, round, seq)`` reproduces exactly
    the delivery grouping of
    :class:`~repro.runtime.transport.ArrayTransport` — all in-flight due
    tuples form round 1 of a tick, zero-delay cascade outputs of round
    *r* form round *r + 1*.  The retransmit buffer is a list of ``(op,
    port, key, ts, size, seq)`` in acceptance order: :meth:`buffer_one`
    accepts until the bound is hit and :meth:`redeliver` walks it,
    pushing released tuples back onto the heap as round-1 arrivals at
    ``now``.
    """

    def __init__(self, max_buffer: int = 0) -> None:
        if max_buffer < 0:
            raise ValueError("max_buffer must be non-negative")
        self._heap: list[tuple] = []
        self._buffer: list[tuple] = []
        self.max_buffer = max_buffer
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.buffered_total = 0  # tuples buffer_one() ever accepted
        # Duck-typed tracer handle (see repro.obs.trace); None means no
        # tracing and every hook is a single attribute check.
        self.trace = None

    @property
    def in_flight(self) -> int:
        return len(self._heap)

    @property
    def buffered(self) -> int:
        """Tuples parked in the retransmit buffer."""
        return len(self._buffer)

    def buffered_by_op(self, num_ops: int) -> np.ndarray:
        """Per-op backlog (per-tuple twin of the bincount version)."""
        counts = np.zeros(num_ops, dtype=np.int64)
        for entry in self._buffer:
            counts[entry[0]] += 1
        return counts

    def inflight_seqs(self) -> np.ndarray:
        """Sequence numbers currently in the in-flight heap."""
        return np.array([entry[2] for entry in self._heap], dtype=np.int64)

    def buffered_seqs(self) -> np.ndarray:
        """Sequence numbers parked in the retransmit buffer."""
        return np.array([entry[5] for entry in self._buffer], dtype=np.int64)

    def send_one(
        self, arrival: int, round_: int, seq: int, op: int, port: int, key: int,
        ts: int, size: float,
    ) -> None:
        heapq.heappush(self._heap, (arrival, round_, seq, op, port, key, ts, size))
        self.sent += 1

    def due(self, now: int, round_: int) -> list[tuple]:
        """Pop every tuple due at ``now`` for this delivery round."""
        out = []
        heap = self._heap
        while heap and heap[0][0] <= now and heap[0][1] <= round_:
            out.append(heapq.heappop(heap))
        self.delivered += len(out)
        return out

    def buffer_one(
        self, op: int, port: int, key: int, ts: int, size: float, seq: int
    ) -> bool:
        """Park one dead-bound tuple; False when the bound rejects it."""
        if len(self._buffer) >= self.max_buffer:
            return False
        self._buffer.append((op, port, key, ts, size, seq))
        self.delivered -= 1
        self.buffered_total += 1
        return True

    def redeliver(self, alive_of_op: np.ndarray, now: int) -> int:
        """Re-inject buffered tuples whose target op is alive again."""
        kept = []
        hits = 0
        for entry in self._buffer:
            op, port, key, ts, size, seq = entry
            if alive_of_op[op]:
                if self.trace is not None:
                    self.trace.record_one(self.trace.REDELIVER, seq, op)
                heapq.heappush(self._heap, (now, 1, seq, op, port, key, ts, size))
                hits += 1
            else:
                kept.append(entry)
        self._buffer = kept
        return hits

    def _reroute(self, op, port, key, seq, mapping, split):
        """``(new op, port)`` of one tuple, or None when its op is gone."""
        route = split.get(op)
        if route is not None:
            targets, new_port = route
            new = int(targets[route_bucket_int(key, len(targets))])
            return new, port if new_port is None else new_port
        new = int(mapping[op])
        if new < 0:
            if self.trace is not None:
                self.trace.record_one(self.trace.DROP_UNINSTALL, seq, op)
            return None
        return new, port

    def remap_ops(self, mapping: np.ndarray, key_split: dict | None = None) -> int:
        """Re-address in-flight and buffered tuples (see the array twin)."""
        split = key_split or {}
        kept = []
        for arrival, round_, seq, op, port, key, ts, size in self._heap:
            hop = self._reroute(op, port, key, seq, mapping, split)
            if hop is not None:
                kept.append((arrival, round_, seq, *hop, key, ts, size))
        parked = []
        for op, port, key, ts, size, seq in self._buffer:
            hop = self._reroute(op, port, key, seq, mapping, split)
            if hop is not None:
                parked.append((*hop, key, ts, size, seq))
        dropped = len(self._heap) + len(self._buffer) - len(kept) - len(parked)
        if kept != self._heap:
            heapq.heapify(kept)
            self._heap = kept
        self._buffer = parked
        self.delivered += dropped
        self.dropped += dropped
        return dropped


class KeyTables:
    """Per-key windowed join tables, evicted eagerly.

    ``tables[(op, side, key)]`` lists that key's rows as ``(ts, size,
    e)`` in insertion order, ``e`` the expiry tick; :meth:`advance`
    drops expired rows at tick start, so a probe reads only live rows.
    A tombstoned op's rows stay until a compaction maps it to -1, as in
    :class:`~repro.runtime.join_state.JoinState`, whose method names
    these are.
    """

    def __init__(self) -> None:
        self.tables: dict[tuple[int, int, int], list[tuple]] = {}
        self._pairs = 0

    def extend(self, kind: np.ndarray, domain: np.ndarray) -> None:
        """Count the appended ops' (op, side) pairs; a dict has no layout."""
        self._pairs += 2 * kind.size

    def advance(self, now: int) -> None:
        """Drop every row that expired before ``now``."""
        tables = self.tables
        dead = []
        for k, entries in tables.items():
            kept = [row for row in entries if row[2] >= now]
            if kept:
                tables[k] = kept
            else:
                dead.append(k)
        for k in dead:
            del tables[k]

    def remap(
        self, mapping: np.ndarray, key_split: dict | None, retention: np.ndarray
    ) -> None:
        """Re-address every row after a compaction.

        Rows move to ``mapping[op]`` (dropped at -1), or by key bucket
        to ``targets[bucket(key, len(targets))]`` where ``key_split[op]
        = (targets, port)`` — the replica the router sends that key to.
        Expiries become ``ts + retention[new op]`` (window plus the new
        layout's slack).
        """
        split = key_split or {}
        tables: dict = {}
        for (op, side, key), entries in self.tables.items():
            route = split.get(op)
            if route is not None:
                targets = route[0]
                new = int(targets[route_bucket_int(key, len(targets))])
            else:
                new = int(mapping[op])
                if new < 0:
                    continue
            keep = int(retention[new])
            rows = [(ts, size, ts + keep) for ts, size, _e in entries]
            # Key ranges of split siblings are disjoint, so no two
            # sources collide; extend defensively all the same.
            dest = tables.setdefault((new, side, key), rows)
            if dest is not rows:
                dest.extend(rows)
        self.tables = tables
        self._pairs = 2 * retention.size

    @property
    def live(self) -> np.ndarray:
        """Rows held per (op, side) pair, recounted on every read."""
        counts = np.zeros(self._pairs, dtype=np.int64)
        for (op, side, _key), entries in self.tables.items():
            counts[2 * op + side] += len(entries)
        return counts


def step(plane):
    """Advance ``plane`` one tick, one tuple at a time.

    Same semantics and the same RNG draws as the batched
    :meth:`DataPlane.step <repro.runtime.dataplane.DataPlane.step>`;
    returns the tick's ``TrafficRecord``.
    """
    t = plane._open_tick(KeyTables)
    now, host, alive = t.now, t.host, t.alive
    cap, node_used, adm, trace = t.cap, t.node_used, t.adm, t.trace
    prof = t.prof
    reliable = plane.config.reliable
    transport = plane._transport
    tables = plane._join.tables
    tick_lat: list[float] = []
    w = plane.config.window
    tick_ms = plane.config.tick_ms
    model = plane._model

    # 1. Sources emit, consuming the same per-tick draws.
    prof.begin("sources")
    counts, u = plane._draw_tick()
    offset = 0
    for s in range(counts.size):
        c = int(counts[s])
        seg = u[offset : offset + c]
        offset += c
        opx = int(plane._src_ops[s])
        if not alive[host[opx]]:
            continue
        dom = float(plane._op_domain[opx])
        for x in seg:
            _send(plane, t, opx, int(x * dom), now, 1.0, 0)
        t.emitted += c
    prof.end()

    # 2. Delivery rounds, one tuple at a time in canonical order.
    prof.begin("delivery")
    round_ = 1
    while True:
        batch = transport.due(now, round_)
        if not batch:
            break
        batch.sort(key=lambda e: (e[3], e[4], e[2]))  # (op, port, seq)
        agg_rank: dict[int, int] = {}
        for _arr, _rnd, _seq, opx, portx, key, ts, size in batch:
            node = int(host[opx])
            if trace is not None:
                trace.record_one(trace.DELIVER, _seq, opx, node)
            if not alive[node]:
                if reliable:
                    if not transport.buffer_one(opx, portx, key, ts, size, _seq):
                        t.overflow += 1
                        if trace is not None:
                            trace.record_one(trace.DROP_OVERFLOW, _seq, opx, node)
                    elif trace is not None:
                        trace.record_one(trace.BUFFER, _seq, opx, node)
                else:
                    t.dead += 1
                    if trace is not None:
                        trace.record_one(trace.DROP_DEAD, _seq, opx, node)
                continue
            if cap is not None:
                cost = float(adm[opx, min(portx, 1)])
                if node_used[node] >= cap[node]:
                    if plane._shed[node] < (
                        np.inf if plane._cap is None else plane._cap[node]
                    ):
                        t.shed += 1
                        if trace is not None:
                            trace.record_one(trace.DROP_SHED, _seq, opx, node)
                    else:
                        t.capacity += 1
                        if trace is not None:
                            trace.record_one(trace.DROP_CAPACITY, _seq, opx, node)
                    t.cpu_dropped += cost
                    t.node_drops[node] += 1
                    continue
                node_used[node] += cost
            t.processed += 1
            t.node_kind[node * 4 + int(plane._kind[opx])] += 1
            if trace is not None:
                trace.record_one(trace.PROCESS, _seq, opx, node)
            t.op_cost[opx] += plane._kind_cost[opx]
            if plane._is_sink[opx]:
                t.delivered += 1
                tick_lat.append(float(now - ts) * tick_ms)
                if plane.sink_log is not None:
                    plane.sink_log.append((plane._op_names[opx][1], key, ts, float(size)))
                continue
            kindx = int(plane._kind[opx])
            if kindx == KIND_RELAY:
                outs = [(key, ts, size)]
            elif kindx == KIND_FILTER:
                if filter_bucket_int(key, int(plane._gid[opx])) < plane._op_sel[opx]:
                    outs = [(key, ts, size)]
                else:
                    outs = []
            elif kindx == KIND_AGGREGATE:
                r = agg_rank.get(opx, 0)
                c0 = float(plane._agg_credit[opx])
                f = float(plane._op_factor[opx])
                if math.floor(c0 + (r + 1) * f) > math.floor(c0 + r * f):
                    outs = [(key, ts, size)]
                else:
                    outs = []
                agg_rank[opx] = r + 1
            else:  # join
                outs = []
                pm = float(plane._op_pmatch[opx])
                entries = tables.get((opx, 1 - portx, key), ())
                if model.probe_cost and entries:
                    t.op_cost[opx] += model.probe_cost * len(entries)
                gidx = int(plane._gid[opx])
                for sts, ssz, _e in entries:
                    if abs(ts - sts) <= w and pair_bucket_int(key, ts, sts, gidx) < pm:
                        outs.append((key, max(ts, sts), size + ssz))
                tables.setdefault((opx, portx, key), []).append(
                    (ts, size, ts + w + int(plane._slack[opx]))
                )
            for k2, t2, s2 in outs:
                _send(plane, t, opx, k2, t2, s2, round_)
        for opx, r in agg_rank.items():
            plane._agg_credit[opx] = (
                plane._agg_credit[opx] + r * float(plane._op_factor[opx])
            ) % 1.0
            if model.aggregate_batch_cost:
                # Each of the round batch's r tuples cost an extra c₁·r.
                t.op_cost[opx] += model.aggregate_batch_cost * float(r) * r
        round_ += 1
    prof.end()
    return plane._close_tick(t, tick_lat)


def _send(plane, t, opx, key, ts, size, round_) -> None:
    """Fan one output out over its op's links and hand it to transport."""
    host, trace = t.host, t.trace
    base = int(plane._out_offsets[opx])
    for li in range(base, base + int(plane._out_deg[opx])):
        g = int(plane._link_group[li])
        if g > 1 and route_bucket_int(key, g) != int(plane._link_index[li]):
            continue  # hash-router: not this replica's key slice
        dst = int(plane._link_dst[li])
        l = float(t.lat[host[opx], host[dst]])
        dt = int(np.rint(l / plane.config.tick_ms))
        seq = plane._next_seq
        plane._next_seq += 1
        if trace is not None:
            trace.record_one(
                trace.EMIT if round_ == 0 else trace.SEND, seq, dst, int(host[opx])
            )
        t.link_tuples[li] += 1
        t.link_size[li] += size
        t.usage += l
        plane._transport.send_one(
            t.now + dt, round_ + 1 if dt == 0 else 1, seq, dst,
            int(plane._link_port[li]), key, ts, size,
        )
