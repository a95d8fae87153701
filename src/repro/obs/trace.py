"""Sampled tuple tracing: hash-selected spans over the wire-tuple lifecycle.

A *span* is the life of one wire tuple, identified by its globally
unique transport sequence number (``seq`` is assigned in
``DataPlane._send_array`` / ``repro.runtime.oracle._send`` and, by the twin
discipline, identical across the vectorized and scalar step paths).
Sampling is a deterministic SplitMix64 bucket of the seq — the *same*
hash family the data plane's filters and joins use — so twin data
planes sample exactly the same tuples, and a 1%-sampled trace costs one
vectorized hash per recorded batch instead of per-tuple Python.

Events are appended to a struct-of-arrays buffer (grow-by-doubling
int64 columns), one :meth:`TupleTracer.record` call per lifecycle site:

====================  ====================================================
event                 meaning
====================  ====================================================
``EMIT``              a source put a fresh tuple on an out-link
``SEND``              an operator output fanned onto an out-link
``REDELIVER``         the reliable transport re-injected a buffered tuple
``DELIVER``           the transport handed the tuple to its target's host
``BUFFER``            delivered to a dead host; parked for retransmission
``PROCESS``           admitted and consumed by the target operator
``DROP_DEAD``         delivered to a dead host, no reliable transport
``DROP_CAPACITY``     rejected by per-node admission capacity
``DROP_SHED``         rejected by a controller shed limit
``DROP_UNINSTALL``    in flight / buffered when its circuit uninstalled
``DROP_OVERFLOW``     dead-bound but the retransmit buffer was full
====================  ====================================================

``PROCESS`` and the five ``DROP_*`` codes are *terminal*: a span ends
in exactly one of them.  Event codes are ordered causally, so sorting
events by ``(tick, seq, event)`` reconstructs every span's true
lifecycle order — the basis of the **trace-completeness invariant**
(:meth:`TupleTracer.check_completeness`), the per-span refinement of
the data plane's conservation balance: every sampled span has exactly
one birth, at most one terminal, open spans are exactly the sampled
part of ``in_flight + buffered``, and (at ``sample_rate=1.0``) the
terminal counts per attribution equal the drop/processed accounting.

Never trace in the hot loop: every call site in the data plane is
guarded by a single ``trace is not None`` check, the tracer draws no
RNG and mutates no runtime state, so an obs-on run is tick-for-tick
identical to an obs-off run (pinned by the obs property suite).
"""

from __future__ import annotations

import json

import numpy as np

from repro.runtime.hashing import filter_bucket, filter_bucket_int

__all__ = ["TupleTracer", "EVENT_NAMES"]

EVENT_NAMES = (
    "emit",
    "send",
    "redeliver",
    "deliver",
    "buffer",
    "process",
    "drop_dead",
    "drop_capacity",
    "drop_shed",
    "drop_uninstall",
    "drop_overflow",
)


class TupleTracer:
    """Deterministic hash-sampled span recorder (see module docstring).

    Args:
        sample_rate: fraction of seqs traced (SplitMix64 bucket of the
            seq < rate); 1.0 traces everything, at which point
            :meth:`check_completeness` can reconcile terminal counts
            against the data plane's accounting exactly.
        salt: hash salt of the sampling bucket — distinct from any
            operator gid so trace sampling never correlates with
            filter/join decisions.
    """

    EMIT = 0
    SEND = 1
    REDELIVER = 2
    DELIVER = 3
    BUFFER = 4
    PROCESS = 5
    DROP_DEAD = 6
    DROP_CAPACITY = 7
    DROP_SHED = 8
    DROP_UNINSTALL = 9
    DROP_OVERFLOW = 10

    _FIRST_TERMINAL = PROCESS
    _INITIAL = 1024

    def __init__(self, sample_rate: float = 0.01, salt: int = 0xB5) -> None:
        if not 0.0 < sample_rate <= 1.0:
            raise ValueError("sample_rate must be in (0, 1]")
        self.sample_rate = float(sample_rate)
        self.salt = int(salt)
        self._salt64 = np.int64(salt)
        self.current_tick = 0
        self._cap = self._INITIAL
        self._t = np.empty(self._cap, dtype=np.int64)
        self._e = np.empty(self._cap, dtype=np.int64)
        self._s = np.empty(self._cap, dtype=np.int64)
        self._o = np.empty(self._cap, dtype=np.int64)
        self._nd = np.empty(self._cap, dtype=np.int64)
        self._n = 0

    # -- sampling ----------------------------------------------------------

    def sampled(self, seqs: np.ndarray) -> np.ndarray | None:
        """Boolean sample mask over an int64 seq array (None = all)."""
        if self.sample_rate >= 1.0:
            return None
        # The 0-d salt deliberately wraps mod 2^64; silence the
        # scalar-overflow warning NumPy raises only for 0-d operands.
        with np.errstate(over="ignore"):
            return filter_bucket(seqs, self._salt64) < self.sample_rate

    def sample_one(self, seq: int) -> bool:
        """Per-tuple twin of :meth:`sampled` (same hash, same salt)."""
        return (
            self.sample_rate >= 1.0
            or filter_bucket_int(int(seq), self.salt) < self.sample_rate
        )

    # -- recording ---------------------------------------------------------

    def begin_tick(self, tick: int) -> None:
        """Stamp subsequent events with ``tick`` (set once per tick)."""
        self.current_tick = tick

    def _grow(self, needed: int) -> None:
        cap = self._cap
        while cap < needed:
            cap *= 2
        for name in ("_t", "_e", "_s", "_o", "_nd"):
            old = getattr(self, name)
            fresh = np.empty(cap, dtype=np.int64)
            fresh[: self._n] = old[: self._n]
            setattr(self, name, fresh)
        self._cap = cap

    def record(
        self,
        event: int,
        seqs: np.ndarray,
        ops: np.ndarray,
        nodes: np.ndarray | None = None,
    ) -> None:
        """Append one event for every *sampled* seq of a batch.

        One vectorized hash + one masked append; no per-tuple Python.
        ``nodes`` is -1 when the site has no meaningful node (e.g.
        transport-side uninstall drops).
        """
        if seqs.size == 0:
            return
        mask = self.sampled(seqs)
        if mask is not None:
            seqs = seqs[mask]
            if seqs.size == 0:
                return
            ops = ops[mask]
            if nodes is not None:
                nodes = nodes[mask]
        m = seqs.size
        if self._n + m > self._cap:
            self._grow(self._n + m)
        lo, hi = self._n, self._n + m
        self._t[lo:hi] = self.current_tick
        self._e[lo:hi] = event
        self._s[lo:hi] = seqs
        self._o[lo:hi] = ops
        self._nd[lo:hi] = -1 if nodes is None else nodes
        self._n = hi

    def record_one(self, event: int, seq: int, op: int, node: int = -1) -> None:
        """Per-tuple twin of :meth:`record` (the scalar step path)."""
        if not self.sample_one(seq):
            return
        if self._n + 1 > self._cap:
            self._grow(self._n + 1)
        i = self._n
        self._t[i] = self.current_tick
        self._e[i] = event
        self._s[i] = seq
        self._o[i] = op
        self._nd[i] = node
        self._n = i + 1

    # -- reading -----------------------------------------------------------

    @property
    def num_events(self) -> int:
        return self._n

    def events(self) -> dict[str, np.ndarray]:
        """The trace columns (copies), in append order."""
        n = self._n
        return {
            "tick": self._t[:n].copy(),
            "event": self._e[:n].copy(),
            "seq": self._s[:n].copy(),
            "op": self._o[:n].copy(),
            "node": self._nd[:n].copy(),
        }

    def events_canonical(self) -> list[tuple[int, int, int, int, int]]:
        """Events as (tick, seq, event, op, node) tuples in causal order.

        Event codes are causally ordered within a (tick, seq), so this
        order is identical for the vectorized and scalar twins even
        though their append orders differ — the twin-trace equality
        test compares exactly this.
        """
        n = self._n
        order = np.lexsort((self._e[:n], self._s[:n], self._t[:n]))
        return list(
            zip(
                self._t[:n][order].tolist(),
                self._s[:n][order].tolist(),
                self._e[:n][order].tolist(),
                self._o[:n][order].tolist(),
                self._nd[:n][order].tolist(),
            )
        )

    def spans(self) -> dict[int, list[tuple[int, int, int, int]]]:
        """End-to-end span per sampled seq: seq -> [(tick, event, op, node)].

        Each span's events are in causal order ((tick, event code) —
        codes are numbered along the lifecycle).
        """
        n = self._n
        order = np.lexsort((self._e[:n], self._t[:n], self._s[:n]))
        out: dict[int, list[tuple[int, int, int, int]]] = {}
        t, e, s, o, nd = (
            self._t[:n][order],
            self._e[:n][order],
            self._s[:n][order],
            self._o[:n][order],
            self._nd[:n][order],
        )
        for i in range(n):
            out.setdefault(int(s[i]), []).append(
                (int(t[i]), int(e[i]), int(o[i]), int(nd[i]))
            )
        return out

    def clear(self) -> None:
        """Drop every recorded event (the buffer capacity is kept)."""
        self._n = 0

    def to_jsonl(self, path) -> None:
        """Write one JSON object per event, in append order."""
        n = self._n
        with open(path, "w") as fh:
            for i in range(n):
                fh.write(
                    json.dumps(
                        {
                            "tick": int(self._t[i]),
                            "event": EVENT_NAMES[int(self._e[i])],
                            "seq": int(self._s[i]),
                            "op": int(self._o[i]),
                            "node": int(self._nd[i]),
                        }
                    )
                    + "\n"
                )

    # -- the completeness invariant ----------------------------------------

    def check_completeness(
        self,
        inflight_seqs: np.ndarray,
        buffered_seqs: np.ndarray,
        totals: dict[str, int] | None = None,
    ) -> dict:
        """Verify the trace-completeness invariant against live state.

        Checks (assuming the tracer was attached before the first tick):

        1. every sampled span has exactly one birth (EMIT or SEND);
        2. every sampled span has at most one terminal event;
        3. a span *without* a terminal is open: its last event is a
           send-like event and its seq is in flight, or its last event
           is BUFFER and its seq is parked — and conversely every
           sampled in-flight / buffered seq is an open span;
        4. a span *with* a terminal is closed: its seq is neither in
           flight nor buffered;
        5. with ``totals`` (only meaningful at ``sample_rate=1.0``),
           event counts reconcile with the accounting: births ==
           transport ``sent``, and each terminal code's count equals
           its drop/processed counter.

        Returns a dict with ``ok`` plus violation details; property
        tests assert ``result["ok"]`` every tick.
        """
        n = self._n
        violations: list[str] = []
        e, s = self._e[:n], self._s[:n]
        births = (e == self.EMIT) | (e == self.SEND)
        terminal = e >= self._FIRST_TERMINAL
        uniq, inv = np.unique(s, return_inverse=True)
        nspans = uniq.size
        birth_per = np.bincount(inv, weights=births, minlength=nspans)
        term_per = np.bincount(inv, weights=terminal, minlength=nspans)
        if (birth_per != 1).any():
            bad = uniq[birth_per != 1][:5]
            violations.append(f"spans without exactly one birth: {bad.tolist()}")
        if (term_per > 1).any():
            bad = uniq[term_per > 1][:5]
            violations.append(f"spans with multiple terminals: {bad.tolist()}")

        # Last event per span in causal order.
        order = np.lexsort((e, self._t[:n], s))
        last_idx = np.zeros(nspans, dtype=np.int64)
        last_idx[inv[order]] = order
        last_event = e[last_idx]

        def _sampled_set(seqs: np.ndarray) -> set[int]:
            seqs = np.asarray(seqs, dtype=np.int64)
            mask = self.sampled(seqs)
            if mask is not None:
                seqs = seqs[mask]
            return set(seqs.tolist())

        inflight = _sampled_set(inflight_seqs)
        buffered = _sampled_set(buffered_seqs)
        open_mask = term_per == 0
        for seq, last in zip(uniq[open_mask], last_event[open_mask]):
            seq = int(seq)
            if last == self.BUFFER:
                if seq not in buffered:
                    violations.append(f"open span {seq} (buffer) not in buffer")
            elif last in (self.EMIT, self.SEND, self.REDELIVER):
                if seq not in inflight:
                    violations.append(f"open span {seq} (sent) not in flight")
            else:
                violations.append(
                    f"open span {seq} ends mid-delivery ({EVENT_NAMES[int(last)]})"
                )
        closed = set(uniq[~open_mask].tolist())
        leaked = (inflight | buffered) & closed
        if leaked:
            violations.append(f"closed spans still live: {sorted(leaked)[:5]}")
        unseen = (inflight | buffered) - set(uniq.tolist())
        if unseen:
            violations.append(f"live sampled seqs never traced: {sorted(unseen)[:5]}")

        if totals is not None:
            counts = np.bincount(e, minlength=len(EVENT_NAMES))
            observed = {
                "births": int(counts[self.EMIT] + counts[self.SEND]),
                "process": int(counts[self.PROCESS]),
                "drop_dead": int(counts[self.DROP_DEAD]),
                "drop_capacity": int(counts[self.DROP_CAPACITY]),
                "drop_shed": int(counts[self.DROP_SHED]),
                "drop_uninstall": int(counts[self.DROP_UNINSTALL]),
                "drop_overflow": int(counts[self.DROP_OVERFLOW]),
                "redeliver": int(counts[self.REDELIVER]),
                "buffer": int(counts[self.BUFFER]),
            }
            for key, expect in totals.items():
                if observed.get(key, 0) != expect:
                    violations.append(
                        f"{key}: traced {observed.get(key, 0)} != accounted {expect}"
                    )

        return {
            "ok": not violations,
            "violations": violations,
            "spans": int(nspans),
            "open": int(open_mask.sum()),
            "closed": int(nspans - open_mask.sum()),
            "events": int(n),
        }
