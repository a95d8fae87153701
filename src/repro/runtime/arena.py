"""Global circuit arena: segment bookkeeping for the data plane.

:class:`CircuitArena` keeps the segment bookkeeping for the one global
CSR op/link table the data plane compiles every installed circuit
into.  Each circuit owns a contiguous *segment* of op rows and link
rows.  :meth:`~CircuitArena.append`, :meth:`~CircuitArena.tombstone`
and :meth:`~CircuitArena.apply_compaction` are the only structural
calls: installs append a new segment at the end, uninstalls
*tombstone* the segment (rows stay allocated, marked dead), and
compaction gathers the live segments in a given order using the
mapping this class computes.  A segment swap (same-name circuit
replacement) is a tombstone plus an append, then a compaction that
gathers the new segment back into its circuit's place.

Segment-boundary invariant: after every sync, live segments follow the
overlay's circuit order, each occupying contiguous ``[op_base, op_base
+ num_ops)`` / ``[link_base, link_base + num_links)`` row ranges; link
rows are grouped by source op in op-row order.  Installs keep it (a new
circuit is last in the overlay too), tombstones only leave holes, and
the compaction that follows a swap restores it.

Each segment also carries the circuit object it was compiled from and
its service ids in op-row order: the data plane's one record of which
circuit owns which rows.  The actual column arrays (operator
kinds/parameters, hosts, source rates, CSR link table, join state) live
with their owner — :class:`~repro.runtime.dataplane.DataPlane` — which
consults this bookkeeping for append offsets, liveness masks, and
compaction gathers.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = ["ArenaSegment", "CircuitArena"]


# Slots: every tick's no-change sync test reads every segment (and so
# does the host refresh on a tick after a move), and a slots instance is
# one allocation (fewer cache misses).
@dataclass(slots=True)
class ArenaSegment:
    """One circuit's contiguous row ranges in the global arena.

    Attributes:
        name: circuit name owning the segment.
        op_base: first op row of the segment.
        num_ops: op-row count.
        link_base: first link row of the segment.
        num_links: link-row count.
        circuit: the circuit object compiled into the segment.
        sids: its service ids, one per op row, in row order.
    """

    name: str
    op_base: int
    num_ops: int
    link_base: int
    num_links: int
    circuit: object = None
    sids: Sequence[str] = ()


class CircuitArena:
    """Segment bookkeeping of the global circuit arena (see module doc)."""

    def __init__(self, compact_threshold: float = 0.25) -> None:
        if not 0.0 < compact_threshold <= 1.0:
            raise ValueError("compact_threshold must be in (0, 1]")
        self.compact_threshold = compact_threshold
        self.segments: dict[str, ArenaSegment] = {}
        self.num_ops = 0  # total op rows, live + tombstoned
        self.num_links = 0
        self.dead_ops = 0
        self.dead_links = 0
        self.op_alive = np.zeros(0, dtype=bool)
        self.link_alive = np.zeros(0, dtype=bool)

    # -- structural changes -------------------------------------------------

    def append(
        self, name: str, n_ops: int, n_links: int, circuit=None, sids=()
    ) -> ArenaSegment:
        """Claim a new segment at the end of the arena; returns it."""
        if name in self.segments:
            raise ValueError(f"circuit {name!r} already has a segment")
        seg = ArenaSegment(
            name, self.num_ops, n_ops, self.num_links, n_links, circuit, sids
        )
        self.segments[name] = seg
        self.num_ops += n_ops
        self.num_links += n_links
        self.op_alive = np.concatenate(
            (self.op_alive, np.ones(n_ops, dtype=bool))
        )
        self.link_alive = np.concatenate(
            (self.link_alive, np.ones(n_links, dtype=bool))
        )
        return seg

    def tombstone(self, name: str) -> ArenaSegment:
        """Mark a segment's rows dead; returns the (removed) segment."""
        seg = self.segments.pop(name)
        self.op_alive[seg.op_base : seg.op_base + seg.num_ops] = False
        self.link_alive[seg.link_base : seg.link_base + seg.num_links] = False
        self.dead_ops += seg.num_ops
        self.dead_links += seg.num_links
        return seg

    # -- queries ------------------------------------------------------------

    @property
    def tombstone_fraction(self) -> float:
        """Dead-row fraction (ops + links pooled)."""
        total = self.num_ops + self.num_links
        return (self.dead_ops + self.dead_links) / total if total else 0.0

    @property
    def needs_compaction(self) -> bool:
        return self.tombstone_fraction > self.compact_threshold

    def live_op_rows(self) -> np.ndarray:
        """Live op-row indices, ascending."""
        return np.flatnonzero(self.op_alive)

    def live_link_rows(self) -> np.ndarray:
        """Live link-row indices, ascending (grouped by live op)."""
        return np.flatnonzero(self.link_alive)

    def op_mapping(self) -> np.ndarray:
        """Identity-except-dead op mapping (dead rows -> -1).

        The shape the transport/state remap helpers expect: in-flight
        tuples of live ops keep their row, dead ops' tuples drop.
        """
        mapping = np.full(max(self.num_ops, 1), -1, dtype=np.int64)
        live = self.live_op_rows()
        mapping[live] = live
        return mapping

    # -- compaction ---------------------------------------------------------

    def compaction(
        self, order=None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Compute the live-row gather and old->new mappings.

        ``order`` names every live segment in the order to gather them
        (default: their current order); :attr:`segments` is re-ordered
        to match.  Returns ``(op_gather, link_gather, op_map,
        link_map)`` where the gathers list live rows segment by
        segment and the maps send old rows to new compact rows (-1 for
        dead).  The caller gathers every column with these, then calls
        :meth:`apply_compaction`.
        """
        segs = list(self.segments.values())
        if order is not None:
            segs = [self.segments[name] for name in order]
            if len(segs) != len(self.segments):
                raise ValueError("compaction order must name every live segment")
            self.segments = {seg.name: seg for seg in segs}
        op_gather = _gather([s.op_base for s in segs], [s.num_ops for s in segs])
        link_gather = _gather(
            [s.link_base for s in segs], [s.num_links for s in segs]
        )
        op_map = np.full(max(self.num_ops, 1), -1, dtype=np.int64)
        op_map[op_gather] = np.arange(op_gather.size)
        link_map = np.full(max(self.num_links, 1), -1, dtype=np.int64)
        link_map[link_gather] = np.arange(link_gather.size)
        return op_gather, link_gather, op_map, link_map

    def apply_compaction(self) -> None:
        """Rewrite segment bases assuming live rows were gathered."""
        op_base = link_base = 0
        # Dict order is the gather order of the last compaction.
        for seg in self.segments.values():
            seg.op_base = op_base
            seg.link_base = link_base
            op_base += seg.num_ops
            link_base += seg.num_links
        self.num_ops = op_base
        self.num_links = link_base
        self.dead_ops = self.dead_links = 0
        self.op_alive = np.ones(op_base, dtype=bool)
        self.link_alive = np.ones(link_base, dtype=bool)


def _gather(bases: list[int], sizes: list[int]) -> np.ndarray:
    """The rows ``[base, base + size)`` of every segment, concatenated."""
    sizes = np.asarray(sizes, dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    shift = np.asarray(bases, dtype=np.int64) - starts
    return np.repeat(shift, sizes) + np.arange(int(sizes.sum()), dtype=np.int64)
