"""Chord distributed hash table (simulation).

The paper's decentralized catalog (§3.2) stores node coordinates in a
DHT [Stoica et al., SIGCOMM'01] keyed by Hilbert indices, so that a
coordinate lookup "returns the node with the closest existing
coordinate in the system".  This module implements the Chord protocol
structure — consistent-hashing ring, successor pointers, finger tables,
O(log n) iterative lookup — as an in-process simulation that counts
routing hops, which is what the catalog experiments measure.

The simulation is *structurally* faithful (lookups route only through
finger/successor pointers) but runs in one process: joins rebuild
affected state directly rather than via background stabilization, which
keeps experiments deterministic.

Performance architecture (struct-of-arrays)
-------------------------------------------

Ground-truth successor resolution is answered by ``np.searchsorted``
over a cached sorted ring-id array: :meth:`ChordRing.owners_of` maps a
whole key batch in one pass, and :meth:`_rebuild_pointers` computes
every node's finger table from a single ``(n, id_bits)`` vectorized
lookup (identifier spaces beyond 62 bits fall back to ``bisect`` over
Python ints; ``_owner_of`` remains the reference for
``verify_invariants``).

Hop counts are read per arc.  Fingers are node ids, so every comparison
:meth:`lookup` makes depends on its key only through the arc
``(id_{r-1}, id_r]`` the key falls in: a route, and its hop count, is a
function of the key's owner.  :meth:`ChordRing.routes_of` keeps the hops
of ``lookup(id_r)`` per membership (built on first use after a
:meth:`join` / :meth:`leave`) and answers a key batch with one
``searchsorted`` and one gather.  :meth:`lookup` stays the pointer chase
— for ``put`` / ``get`` and as the oracle the route table is pinned to.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass, field

import numpy as np

__all__ = ["ChordNode", "ChordRing", "LookupResult", "hash_to_id"]


def hash_to_id(value: str | int, id_bits: int) -> int:
    """Hash an arbitrary value into the ``id_bits``-bit identifier space."""
    digest = hashlib.sha1(str(value).encode()).digest()
    return int.from_bytes(digest, "big") % (1 << id_bits)


def _in_half_open(x: int, start: int, end: int, modulus: int) -> bool:
    """True if ``x`` lies in the circular interval ``(start, end]``."""
    x %= modulus
    start %= modulus
    end %= modulus
    if start < end:
        return start < x <= end
    if start > end:
        return x > start or x <= end
    return True  # full circle


def _in_open(x: int, start: int, end: int, modulus: int) -> bool:
    """True if ``x`` lies in the circular open interval ``(start, end)``."""
    x %= modulus
    start %= modulus
    end %= modulus
    if start < end:
        return start < x < end
    if start > end:
        return x > start or x < end
    return x != start  # full circle minus the shared endpoint


@dataclass
class ChordNode:
    """A Chord participant: identifier, finger table, local key store."""

    node_id: int
    fingers: list[int] = field(default_factory=list)
    successor: int = -1
    predecessor: int = -1
    store: dict[int, object] = field(default_factory=dict)

    def closest_preceding(self, key: int, id_bits: int) -> int:
        """Finger that most closely precedes ``key`` (Chord routing step).

        Standard Chord rule: the highest finger in the *open* interval
        ``(self, key)``; if none qualifies, the successor is the next
        hop (it owns keys just past this node).
        """
        modulus = 1 << id_bits
        for finger in reversed(self.fingers):
            if _in_open(finger, self.node_id, key, modulus):
                return finger
        return self.successor


@dataclass(frozen=True)
class LookupResult:
    """Outcome of a Chord lookup.

    Attributes:
        key: the looked-up identifier.
        owner: node id responsible for the key (its successor).
        hops: number of routing hops taken (0 if the origin owns it).
        path: sequence of node ids visited, origin first.
    """

    key: int
    owner: int
    hops: int
    path: tuple[int, ...]


class ChordRing:
    """A complete Chord ring with correct fingers and hop-counted lookups."""

    def __init__(self, id_bits: int = 32):
        if id_bits < 2:
            raise ValueError("id_bits must be >= 2")
        self.id_bits = id_bits
        self.modulus = 1 << id_bits
        self._nodes: dict[int, ChordNode] = {}
        self._sorted_ids: list[int] = []
        self._ids_array: np.ndarray | None = None  # int64 cache of sorted ids
        self._arc_hops: np.ndarray | None = None  # lookup(id_r).hops per rank

    # -- membership ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def node_ids(self) -> list[int]:
        """Sorted list of live node identifiers."""
        return self._sorted_ids[:]

    def node(self, node_id: int) -> ChordNode:
        """The node object for ``node_id``."""
        return self._nodes[node_id]

    def join(self, node_id: int | None = None, name: str | int | None = None) -> ChordNode:
        """Add a node; by id or by hashing ``name`` into the id space.

        Keys in the affected region are transferred to the new node, and
        ring pointers/fingers of all nodes are refreshed (simulating a
        completed stabilization round).
        """
        if node_id is None:
            if name is None:
                raise ValueError("provide node_id or name")
            node_id = hash_to_id(name, self.id_bits)
        node_id %= self.modulus
        if node_id in self._nodes:
            raise ValueError(f"node id {node_id} already present")

        new_node = ChordNode(node_id=node_id)
        self._nodes[node_id] = new_node
        bisect.insort(self._sorted_ids, node_id)
        self._rebuild_pointers()

        # Transfer keys this node is now responsible for.
        successor = self._nodes[new_node.successor]
        if successor is not new_node:
            moving = [
                key
                for key in successor.store
                if self._owner_of(key) == node_id
            ]
            for key in moving:
                new_node.store[key] = successor.store.pop(key)
        return new_node

    def leave(self, node_id: int) -> None:
        """Remove a node, handing its keys to its successor."""
        if node_id not in self._nodes:
            raise KeyError(f"no node {node_id}")
        if len(self._nodes) == 1:
            raise ValueError("cannot remove the last node")
        departing = self._nodes.pop(node_id)
        self._sorted_ids.remove(node_id)
        self._rebuild_pointers()
        heir = self._nodes[self._owner_of(node_id)]
        heir.store.update(departing.store)

    def _rebuild_pointers(self) -> None:
        """Recompute successor/predecessor/fingers for every node.

        Finger targets for *all* nodes are resolved with one batched
        :meth:`owners_of` pass when the identifier space fits int64.
        """
        ids = self._sorted_ids
        n = len(ids)
        self._arc_hops = None
        self._ids_array = (
            np.asarray(ids, dtype=np.int64) if self.id_bits <= 62 else None
        )
        if self._ids_array is not None:
            ids_arr = self._ids_array
            powers = np.left_shift(
                np.int64(1), np.arange(self.id_bits, dtype=np.int64)
            )
            targets = (ids_arr[:, None] + powers[None, :]) % self.modulus
            fingers = self.owners_of(targets.ravel()).reshape(n, self.id_bits)
        else:
            fingers = None
        for rank, node_id in enumerate(ids):
            node = self._nodes[node_id]
            node.successor = ids[(rank + 1) % n]
            node.predecessor = ids[(rank - 1) % n]
            if fingers is not None:
                node.fingers = [int(f) for f in fingers[rank]]
            else:
                node.fingers = [
                    self._owner_of((node_id + (1 << k)) % self.modulus)
                    for k in range(self.id_bits)
                ]

    def owners_of(self, keys: np.ndarray) -> np.ndarray:
        """Batched ground-truth owners: one ``np.searchsorted`` pass.

        Args:
            keys: identifier array (already reduced mod ``modulus``, or
                reducible — the method reduces defensively).

        Returns:
            ``(m,)`` int64 array of owning node ids (an object array of
            Python ints beyond 62 identifier bits).
        """
        return self._ids_at(self._arcs_of(keys))

    def routes_of(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """Owner and hop count of :meth:`lookup` (default origin) per key.

        Every finger is a node id, so each comparison a lookup makes
        depends on its key only through the arc ``(id_{r-1}, id_r]`` the
        key falls in: the whole route, and so its hop count, is a
        function of the key's owner.  The hops of ``lookup(id_r)`` are
        kept per membership (built on first use, dropped by every
        :meth:`join` / :meth:`leave`), and a batch costs one
        ``searchsorted`` for the arcs and one gather for the hops.
        :meth:`lookup` stays the pointer chase and the oracle.

        Returns:
            ``(owners, hops)``, parallel to ``keys``.
        """
        arcs = self._arcs_of(keys)
        if self._arc_hops is None:
            self._arc_hops = np.array(
                [self.lookup(node_id).hops for node_id in self._sorted_ids],
                dtype=np.int64,
            )
        return self._ids_at(arcs), self._arc_hops[arcs]

    def _arcs_of(self, keys) -> np.ndarray:
        """Rank of each key's owner in the sorted ring ids."""
        if not self._sorted_ids:
            raise ValueError("empty ring")
        if self.id_bits > 62:
            # Python ints throughout: numpy would round a list of ids past
            # 2**63 to float64.
            if isinstance(keys, np.ndarray):
                keys = keys.ravel().tolist()
            ids = self._sorted_ids
            arcs = np.array(
                [bisect.bisect_left(ids, int(k) % self.modulus) for k in keys],
                dtype=np.intp,
            )
        else:
            keys = np.asarray(keys, dtype=np.int64).ravel() % self.modulus
            arcs = np.searchsorted(self._ids_array, keys, side="left")
        arcs[arcs == len(self._sorted_ids)] = 0
        return arcs

    def _ids_at(self, arcs: np.ndarray) -> np.ndarray:
        """The node ids at ranks ``arcs``."""
        if self.id_bits > 62:
            return np.array([self._sorted_ids[a] for a in arcs], dtype=object)
        return self._ids_array[arcs]

    def _owner_of(self, key: int) -> int:
        """Ground-truth owner: first node id >= key (bisect reference)."""
        if not self._sorted_ids:
            raise ValueError("empty ring")
        key %= self.modulus
        rank = bisect.bisect_left(self._sorted_ids, key)
        if rank == len(self._sorted_ids):
            rank = 0
        return self._sorted_ids[rank]

    # -- routing ---------------------------------------------------------

    def lookup(self, key: int, origin: int | None = None) -> LookupResult:
        """Route to the owner of ``key`` through finger tables.

        Args:
            key: identifier to resolve.
            origin: node the lookup starts from; defaults to the lowest
                node id (any node works — hops are what vary).
        """
        if not self._nodes:
            raise ValueError("empty ring")
        key %= self.modulus
        if origin is None:
            origin = self._sorted_ids[0]
        if origin not in self._nodes:
            raise KeyError(f"origin {origin} not in ring")

        current = self._nodes[origin]
        path = [current.node_id]
        hops = 0
        limit = 2 * self.id_bits + len(self._nodes)
        while not _in_half_open(
            key, current.predecessor, current.node_id, self.modulus
        ):
            next_id = current.closest_preceding(key, self.id_bits)
            if next_id == current.node_id:
                next_id = current.successor
            current = self._nodes[next_id]
            path.append(next_id)
            hops += 1
            if hops > limit:
                raise RuntimeError("lookup failed to converge; broken ring state")
        return LookupResult(key=key, owner=current.node_id, hops=hops, path=tuple(path))

    # -- storage ---------------------------------------------------------

    def put(self, key: int, value: object, origin: int | None = None) -> LookupResult:
        """Store ``value`` at the owner of ``key``; returns the route taken."""
        result = self.lookup(key, origin)
        self._nodes[result.owner].store[key % self.modulus] = value
        return result

    def get(self, key: int, origin: int | None = None) -> tuple[object | None, LookupResult]:
        """Fetch the value stored under ``key`` (or None) plus the route."""
        result = self.lookup(key, origin)
        return self._nodes[result.owner].store.get(key % self.modulus), result

    def verify_invariants(self) -> None:
        """Assert ring-structure invariants (used by property tests)."""
        ids = self._sorted_ids
        n = len(ids)
        assert sorted(self._nodes) == ids
        for rank, node_id in enumerate(ids):
            node = self._nodes[node_id]
            assert node.successor == ids[(rank + 1) % n]
            assert node.predecessor == ids[(rank - 1) % n]
            for k, finger in enumerate(node.fingers):
                assert finger == self._owner_of((node_id + (1 << k)) % self.modulus)
            for key in node.store:
                assert self._owner_of(key) == node_id, "key stored at wrong owner"
