"""Decentralized coordinate catalog: Hilbert keys over a Chord ring.

This is the physical-mapping backend of §3.2: every SBON node publishes
its cost-space coordinate into a DHT after transforming it to a
one-dimensional key with a Hilbert curve; a lookup of a desired
coordinate then returns (approximately) the node with the closest
existing coordinate.

Because the Hilbert curve only *approximately* preserves locality, a
single key lookup can miss the true nearest node.  The catalog
therefore scans a small ring neighborhood around the query key
(``scan_width`` entries in each direction) and ranks the collected
candidates by true distance — the standard technique for
space-filling-curve indexes.  The gap between this answer and the
exhaustive nearest node is the *mapping error* studied in experiments
E3/E6.

What a round costs: :meth:`CoordinateCatalog.nearest_batch` makes one
batched Hilbert encode for all its keys, one batched route
(:meth:`ChordRing.routes_of`: each key's owner and the hop count of its
``lookup``, read per ring arc), one ring walk per *distinct* owner, and
ranks each owner's group of targets
against that owner's candidate matrix with one array distance and a
first-minimum ``argmin``.  Candidates are always ranked by Euclidean
distance in the full coordinate space; every query method goes through
the same array distance (:func:`_distances`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dht.chord import ChordRing, hash_to_id
from repro.dht.hilbert import HilbertMapper

__all__ = ["CatalogEntry", "CoordinateCatalog", "CatalogQueryStats"]


def _distances(points: np.ndarray, entries: list[CatalogEntry]) -> np.ndarray:
    """``(g, k)`` Euclidean distances from ``g`` points to ``k`` entries.

    Column order is the entries' order, so ``argmin`` (first minimum)
    and a stable ``argsort`` break ties in the entries' favour exactly
    as ``min`` / ``sorted`` over the list would.
    """
    candidates = np.array([e.coordinate for e in entries], dtype=float)
    diff = points[:, None, :] - candidates[None, :, :]
    return np.sqrt(np.einsum("gkd,gkd->gk", diff, diff))


def _finite(coordinates: np.ndarray | list[float]) -> np.ndarray:
    """Float array of ``coordinates``; NaN / inf would quantize silently."""
    coordinates = np.asarray(coordinates, dtype=float)
    if not np.isfinite(coordinates).all():
        raise ValueError("coordinates must be finite")
    return coordinates


def _check_scan_width(scan_width: int) -> None:
    if scan_width < 1:
        raise ValueError("scan_width must be >= 1")


@dataclass(frozen=True)
class CatalogEntry:
    """A published (physical node, cost-space coordinate) pair."""

    physical_node: int
    coordinate: tuple[float, ...]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coordinate, dtype=float)


@dataclass
class CatalogQueryStats:
    """Bookkeeping for one nearest-node query.

    Attributes:
        dht_hops: Chord routing hops for the initial key lookup.
        ring_entries_scanned: catalog entries inspected in the
            neighborhood scan (a proxy for extra one-hop messages).
        candidates: number of distinct published nodes considered.
    """

    dht_hops: int = 0
    ring_entries_scanned: int = 0
    candidates: int = 0


class CoordinateCatalog:
    """Publish/query cost-space coordinates through a simulated Chord DHT.

    Args:
        mapper: quantizer from continuous coordinates to Hilbert keys.
        ring: an existing Chord ring to use; if None, a fresh ring is
            created and ``ring_size`` virtual nodes are joined (hashed
            ids), modelling a deployed DHT substrate.
        ring_size: number of DHT participants when creating a ring.
    """

    def __init__(
        self,
        mapper: HilbertMapper,
        ring: ChordRing | None = None,
        ring_size: int = 64,
    ):
        self.mapper = mapper
        # Reserve low-order salt bits so nodes sharing a quantization
        # cell still get distinct store keys.
        id_bits = mapper.key_bits + 16
        if ring is None:
            ring = ChordRing(id_bits=id_bits)
            for i in range(ring_size):
                ring.join(name=f"dht-node-{i}")
        else:
            if ring.id_bits < mapper.key_bits:
                raise ValueError(
                    "ring identifier space too small for the Hilbert keys"
                )
            if len(ring) == 0:
                raise ValueError("ring must have at least one node")
        self.ring = ring
        self._published: dict[int, CatalogEntry] = {}
        self._keys: dict[int, int] = {}

    # -- publishing ------------------------------------------------------

    def publish(self, physical_node: int, coordinate: np.ndarray | list[float]) -> int:
        """Publish (or refresh) a node's coordinate; returns its DHT key.

        Keys are salted with the physical node id so that two nodes in
        the same quantization cell do not collide in the store.
        """
        coordinate = _finite(coordinate)
        key = self._salt(physical_node, self.mapper.key_for(coordinate))
        entry = CatalogEntry(physical_node, tuple(float(v) for v in coordinate))
        previous = self._published.get(physical_node)
        if previous is not None:
            self.withdraw(physical_node)
        self.ring.put(key, entry)
        self._published[physical_node] = entry
        self._keys[physical_node] = key
        return key

    def publish_batch(
        self, physical_nodes: list[int], coordinates: np.ndarray
    ) -> list[int]:
        """Publish many coordinates at once; returns their DHT keys.

        All Hilbert keys are computed in one batched encode pass
        (:meth:`HilbertMapper.keys_for`) and salted as :meth:`publish`
        salts them.  Entries are stored directly at their ground-truth
        owners (:meth:`ChordRing.owners_of`) — bulk catalog builds do
        not need per-entry routing hops.
        """
        coordinates = _finite(coordinates)
        if coordinates.ndim != 2 or coordinates.shape[0] != len(physical_nodes):
            raise ValueError("coordinates must be (len(physical_nodes), dims)")
        base_keys = self.mapper.keys_for(coordinates)
        keys = [
            self._salt(node, int(base)) for node, base in zip(physical_nodes, base_keys)
        ]
        for node in physical_nodes:
            if node in self._published:
                self.withdraw(node)
        owners = [int(o) for o in self.ring.owners_of(keys)]
        for node, coordinate, key, owner in zip(
            physical_nodes, coordinates, keys, owners
        ):
            entry = CatalogEntry(node, tuple(float(v) for v in coordinate))
            self.ring.node(owner).store[key % self.ring.modulus] = entry
            self._published[node] = entry
            self._keys[node] = key
        return keys

    def withdraw(self, physical_node: int) -> None:
        """Remove a node's published coordinate (e.g., on failure)."""
        if physical_node not in self._published:
            raise KeyError(f"node {physical_node} has not published")
        key = self._keys[physical_node]
        owner = self.ring.lookup(key).owner
        self.ring.node(owner).store.pop(key, None)
        del self._published[physical_node]
        del self._keys[physical_node]

    def _salt(self, physical_node: int, base_key: int) -> int:
        """A node's store key for its Hilbert key ``base_key``.

        The Hilbert key fills the high bits of the ring id space and the
        node's salt the low bits, so ring order still follows curve order.
        """
        spare_bits = self.ring.id_bits - self.mapper.key_bits
        if spare_bits <= 0:
            return base_key
        return (base_key << spare_bits) | hash_to_id(physical_node, spare_bits)

    @property
    def published_nodes(self) -> list[int]:
        """Physical node ids currently published."""
        return sorted(self._published)

    # -- queries ---------------------------------------------------------

    def nearest(
        self,
        coordinate: np.ndarray | list[float],
        scan_width: int = 8,
        exclude: set[int] | None = None,
    ) -> tuple[CatalogEntry | None, CatalogQueryStats]:
        """Find the published node nearest to ``coordinate``.

        Routes the query's Hilbert key (its owner and lookup hops), then
        scans ``scan_width`` published entries in each ring direction
        and returns the candidate at minimum true distance.

        Args:
            coordinate: the desired cost-space point.
            scan_width: neighborhood half-width (entries per direction).
            exclude: physical node ids to ignore (e.g., failed nodes).

        Returns:
            ``(entry, stats)`` — entry is None if nothing is published.
        """
        _check_scan_width(scan_width)
        entries, distances, stats = self._neighborhood(coordinate, scan_width, exclude)
        if not entries:
            return None, stats
        return entries[int(distances.argmin())], stats

    def k_nearest(
        self,
        coordinate: np.ndarray | list[float],
        k: int,
        scan_width: int = 8,
        exclude: set[int] | None = None,
    ) -> tuple[list[CatalogEntry], CatalogQueryStats]:
        """The ``k`` published nodes nearest to ``coordinate`` (approx.)."""
        if k < 1:
            raise ValueError("k must be >= 1")
        _check_scan_width(scan_width)
        entries, distances, stats = self._neighborhood(
            coordinate, max(scan_width, k), exclude
        )
        order = np.argsort(distances, kind="stable")[:k]
        return [entries[i] for i in order], stats

    def within_radius(
        self,
        coordinate: np.ndarray | list[float],
        radius: float,
        scan_width: int = 16,
        exclude: set[int] | None = None,
    ) -> tuple[list[CatalogEntry], CatalogQueryStats]:
        """Published nodes within ``radius`` of ``coordinate`` (approx.).

        This is the hyper-sphere search of §3.4 used to prune
        multi-query optimization: only services hosted on nodes inside
        the ball are considered for reuse.
        """
        if radius < 0:
            raise ValueError("radius must be non-negative")
        _check_scan_width(scan_width)
        entries, distances, stats = self._neighborhood(coordinate, scan_width, exclude)
        return [entries[i] for i in np.flatnonzero(distances <= radius)], stats

    def nearest_batch(
        self,
        coordinates: np.ndarray,
        scan_width: int = 8,
        exclude: set[int] | None = None,
    ) -> tuple[list[CatalogEntry | None], list[CatalogQueryStats]]:
        """Batched :meth:`nearest`: one ring walk per distinct owner.

        All Hilbert keys are computed in one batched encode pass and
        routed in one :meth:`ChordRing.routes_of` call: each key gets the
        owner and hop count its own :meth:`ChordRing.lookup` would (the
        hops of a route depend only on the owner's ring arc), so per-key
        ``dht_hops`` remain the reported metric.  The neighborhood walk,
        however, depends only on ``(owner, scan_width, exclude)``, so
        targets whose lookups land on the same catalog owner share one
        walk and are ranked together: one ``(group, candidates)``
        distance matrix per owner, first minimum per row — the per-key
        answer exactly, including insertion-order tie-breaking.

        Args:
            coordinates: ``(m, dims)`` array of query points.
            scan_width: neighborhood half-width (entries per direction).
            exclude: physical node ids to ignore.

        Returns:
            ``(entries, stats)`` lists parallel to ``coordinates``;
            ``entries[i]`` is None if nothing is published.
        """
        _check_scan_width(scan_width)
        coordinates = _finite(coordinates)
        if coordinates.ndim != 2:
            raise ValueError("coordinates must be an (m, dims) array")
        if len(coordinates) == 0:
            return [], []
        exclude = exclude or set()
        spare_bits = max(self.ring.id_bits - self.mapper.key_bits, 0)
        base_keys = self.mapper.keys_for(coordinates)
        keys = [int(base) << spare_bits for base in base_keys]
        owners, hops = self.ring.routes_of(keys)

        # owner -> (scanned entries, ring entries scanned, batch rows landing there)
        groups: dict[int, tuple[list[CatalogEntry], int, list[int]]] = {}
        stats_list: list[CatalogQueryStats] = []
        for row, (owner, route_hops) in enumerate(zip(owners.tolist(), hops.tolist())):
            if owner not in groups:
                groups[owner] = (*self._scan_from(owner, scan_width, exclude), [])
            entries, scanned, rows = groups[owner]
            rows.append(row)
            stats_list.append(
                CatalogQueryStats(
                    dht_hops=route_hops,
                    ring_entries_scanned=scanned,
                    candidates=len(entries),
                )
            )

        results: list[CatalogEntry | None] = [None] * len(coordinates)
        for entries, _, rows in groups.values():
            if entries:
                best = _distances(coordinates[rows], entries).argmin(axis=1)
                for row, column in zip(rows, best.tolist()):
                    results[row] = entries[column]
        return results, stats_list

    def _neighborhood(
        self,
        coordinate: np.ndarray | list[float],
        scan_width: int,
        exclude: set[int] | None,
    ) -> tuple[list[CatalogEntry], np.ndarray, CatalogQueryStats]:
        """Published entries near the query key, and their distances to it."""
        point = _finite(coordinate)
        spare_bits = self.ring.id_bits - self.mapper.key_bits
        key = self.mapper.key_for(point) << max(spare_bits, 0)
        owners, hops = self.ring.routes_of([key])
        owner = int(owners[0])
        entries, scanned = self._scan_from(owner, scan_width, exclude or set())
        distances = _distances(point[None, :], entries)[0] if entries else np.empty(0)
        stats = CatalogQueryStats(
            dht_hops=int(hops[0]), ring_entries_scanned=scanned, candidates=len(entries)
        )
        return entries, distances, stats

    def _scan_from(
        self, owner: int, scan_width: int, exclude: set[int]
    ) -> tuple[list[CatalogEntry], int]:
        """Walk the ring neighborhood of ``owner``, gathering entries.

        The walk is a pure function of ``(owner, scan_width, exclude)``
        and the current store contents — :meth:`nearest_batch` relies on
        this to share one walk across queries landing on the same owner.

        Returns ``(entries, ring_entries_scanned)``.
        """
        collected: dict[int, CatalogEntry] = {}
        scanned = 0

        # Walk successors and predecessors from the owner, gathering
        # published entries until scan_width per direction is reached.
        for direction in ("successor", "predecessor"):
            node_id = owner
            gathered = 0
            visited = 0
            while gathered < scan_width and visited < len(self.ring):
                node = self.ring.node(node_id)
                stored = sorted(node.store.items())
                if direction == "predecessor":
                    stored = list(reversed(stored))
                for _, value in stored:
                    if isinstance(value, CatalogEntry):
                        scanned += 1
                        if value.physical_node not in exclude:
                            if value.physical_node not in collected:
                                collected[value.physical_node] = value
                                gathered += 1
                        if gathered >= scan_width:
                            break
                node_id = getattr(node, direction)
                visited += 1

        return list(collected.values()), scanned

    # -- ground truth ----------------------------------------------------

    def exhaustive_nearest(
        self,
        coordinate: np.ndarray | list[float],
        exclude: set[int] | None = None,
    ) -> CatalogEntry | None:
        """True nearest published node (reference for mapping error)."""
        exclude = exclude or set()
        candidates = [
            e for n, e in self._published.items() if n not in exclude
        ]
        if not candidates:
            return None
        distances = _distances(_finite(coordinate)[None, :], candidates)[0]
        return candidates[int(distances.argmin())]
