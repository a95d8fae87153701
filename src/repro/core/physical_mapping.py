"""Physical mapping: cost-space coordinates → physical nodes (§3.2).

Virtual placement yields an idealistic coordinate per unpinned service;
physical mapping finds a real node close to it.  The target coordinate
has *ideal (zero) scalar components*, so the full-space distance from
the target to a node is ``sqrt(|Δvector|² + Σ scalar²)`` — a loaded
node "seems far away when the entire cost space coordinate is
considered" (Figure 3) even if it is close in latency.

Two interchangeable backends:

* :class:`ExhaustiveMapper` — scans every node; the ground truth.
* :class:`CatalogMapper` — queries the decentralized Hilbert/Chord
  catalog; approximate but requires no global knowledge.

The difference between the catalog's answer and the exhaustive answer —
and between either answer and the virtual coordinate itself — is the
*mapping error* studied in experiments E3/E6.

What a round costs: :func:`map_circuits` stacks the unpinned targets of
*every* circuit it is given into one array and makes **one**
``map_coordinates`` call, so a query whose optimizer prices fifteen
candidate plans pays one mapper batch (one Hilbert encode, one scan per
distinct catalog owner), not fifteen.  :func:`map_circuit` is its
one-circuit case.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.circuit import Circuit
from repro.core.coordinates import CostCoordinate
from repro.core.cost_space import CostSpace
from repro.core.virtual_placement import VirtualPlacement
from repro.dht.catalog import CoordinateCatalog
from repro.dht.hilbert import HilbertMapper

__all__ = [
    "ServiceMapping",
    "MappingResult",
    "ExhaustiveMapper",
    "CatalogMapper",
    "map_circuit",
    "map_circuits",
    "build_catalog",
]


@dataclass(frozen=True)
class ServiceMapping:
    """The outcome of mapping one service.

    Attributes:
        service_id: the mapped (unpinned) service.
        node: chosen physical node.
        target_row: the target's full-space row — the virtual vector
            position followed by ideal (zero) scalars.
        vector_dims: how many leading entries of ``target_row`` are
            vector dimensions.
        mapping_error: full-space distance from target to chosen node.
        dht_hops: routing hops if the catalog backend was used.
    """

    service_id: str
    node: int
    target_row: np.ndarray = field(repr=False, compare=False)
    vector_dims: int
    mapping_error: float
    dht_hops: int = 0

    @property
    def target(self) -> CostCoordinate:
        """The virtual coordinate (ideal scalars), built on read."""
        return CostCoordinate.from_arrays(
            self.target_row[: self.vector_dims], self.target_row[self.vector_dims :]
        )


@dataclass
class MappingResult:
    """Mapping outcome for a whole circuit."""

    mappings: list[ServiceMapping] = field(default_factory=list)

    @property
    def total_error(self) -> float:
        return sum(m.mapping_error for m in self.mappings)

    @property
    def total_dht_hops(self) -> int:
        return sum(m.dht_hops for m in self.mappings)


class ExhaustiveMapper:
    """Ground-truth mapper: full scan of the cost space's coordinates."""

    def __init__(self, cost_space: CostSpace, excluded: set[int] | None = None):
        self.cost_space = cost_space
        self.excluded = set(excluded or ())

    def map_coordinate(self, target: CostCoordinate) -> tuple[int, int]:
        """Return (nearest node, dht_hops=0)."""
        node = self.cost_space.nearest_node(target, exclude=self.excluded)
        return node, 0

    def map_coordinates(self, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`map_coordinate`: one matrix pass for m targets.

        Args:
            targets: ``(m, dims)`` full-coordinate array.

        Returns:
            ``(nodes, hops)`` int arrays of length m (hops all zero).
        """
        nodes = self.cost_space.nearest_nodes(targets, exclude=self.excluded)
        return nodes, np.zeros(len(nodes), dtype=int)

    def exclude(self, node: int) -> None:
        """Mark a node ineligible (failed or administratively drained)."""
        self.excluded.add(node)

    def include(self, node: int) -> None:
        self.excluded.discard(node)


class CatalogMapper:
    """Decentralized mapper backed by the Hilbert/Chord catalog.

    Nodes must have been published (see :func:`build_catalog`).  The
    mapper can fall back to nothing: if the scan returns no candidates
    (catalog empty), it raises, mirroring a system with no capacity.
    """

    def __init__(
        self,
        cost_space: CostSpace,
        catalog: CoordinateCatalog,
        scan_width: int = 8,
        excluded: set[int] | None = None,
    ):
        if scan_width < 1:
            raise ValueError("scan_width must be >= 1")
        self.cost_space = cost_space
        self.catalog = catalog
        self.scan_width = scan_width
        self.excluded = set(excluded or ())

    def map_coordinate(self, target: CostCoordinate) -> tuple[int, int]:
        """Return (approximately nearest node, DHT routing hops)."""
        entry, stats = self.catalog.nearest(
            target.full_array(), scan_width=self.scan_width, exclude=self.excluded
        )
        if entry is None:
            raise RuntimeError("catalog has no eligible published nodes")
        return entry.physical_node, stats.dht_hops

    def map_coordinates(self, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batched mapping; each target still routes through the DHT.

        Per-target hop counts remain the reported metric, but targets
        whose lookups land on the same catalog owner share one
        ring-neighborhood scan (:meth:`CoordinateCatalog.nearest_batch`)
        instead of repeating the Chord walk per key.
        """
        targets = np.asarray(targets, dtype=float)
        scalar_dims = len(self.cost_space.spec.scalar_dimensions)
        vector_dims = self.cost_space.spec.vector_dims
        if targets.ndim != 2 or targets.shape[1] != vector_dims + scalar_dims:
            raise ValueError("target has wrong dimensionality for this space")
        if len(targets) == 0:
            return np.empty(0, dtype=int), np.empty(0, dtype=int)
        entries, stats = self.catalog.nearest_batch(
            targets, scan_width=self.scan_width, exclude=self.excluded
        )
        nodes = np.empty(len(targets), dtype=int)
        hops = np.empty(len(targets), dtype=int)
        for i, (entry, stat) in enumerate(zip(entries, stats)):
            if entry is None:
                raise RuntimeError("catalog has no eligible published nodes")
            nodes[i] = entry.physical_node
            hops[i] = stat.dht_hops
        return nodes, hops

    def exclude(self, node: int) -> None:
        self.excluded.add(node)

    def include(self, node: int) -> None:
        self.excluded.discard(node)


def build_catalog(
    cost_space: CostSpace,
    bits: int = 10,
    ring_size: int = 64,
    alive: list[bool] | None = None,
) -> CoordinateCatalog:
    """Publish every (alive) node's full coordinate into a fresh catalog."""
    lows, highs = cost_space.bounding_box()
    mapper = HilbertMapper(lows, highs, bits=bits)
    catalog = CoordinateCatalog(mapper, ring_size=ring_size)
    full = cost_space.full_matrix()
    nodes = [
        node
        for node in range(cost_space.num_nodes)
        if alive is None or alive[node]
    ]
    if nodes:
        catalog.publish_batch(nodes, full[nodes])
    return catalog


def map_circuits(
    circuits: Sequence[Circuit],
    placements: Sequence[VirtualPlacement],
    cost_space: CostSpace,
    mapper: ExhaustiveMapper | CatalogMapper,
) -> list[MappingResult]:
    """Map every unpinned service of many circuits in one mapper batch.

    The target coordinate of a service is its virtual vector position
    with ideal (zero) scalar components.  Every circuit's targets are
    stacked into one ``(Σ unpinned, dims)`` array and mapped by a single
    ``mapper.map_coordinates`` call — mappings are independent (neither
    exclusions nor coordinates change inside the batch), so each service
    gets the host, hop count and error it would get mapped alone.  Each
    circuit's ``placement`` dict is then updated in place, in its own
    ``unpinned_ids()`` order.  The mapper raises *before* any host is
    assigned, so a failed batch leaves every circuit as it was.
    """
    vector_dims = cost_space.spec.vector_dims
    unpinned = [circuit.unpinned_ids() for circuit in circuits]
    results = [MappingResult() for _ in circuits]
    total = sum(len(ids) for ids in unpinned)
    if total == 0:
        return results
    targets = np.zeros((total, cost_space.spec.dims))
    row = 0
    for ids, placement in zip(unpinned, placements):
        for service_id in ids:
            targets[row, :vector_dims] = placement.position_of(service_id)
            row += 1
    nodes, hops = mapper.map_coordinates(targets)
    diff = targets - cost_space.full_matrix()[nodes]
    errors = np.sqrt(np.einsum("md,md->m", diff, diff))
    row = 0
    for circuit, ids, result in zip(circuits, unpinned, results):
        for service_id in ids:
            node = int(nodes[row])
            circuit.assign(service_id, node)
            result.mappings.append(
                ServiceMapping(
                    service_id=service_id,
                    node=node,
                    target_row=targets[row],
                    vector_dims=vector_dims,
                    mapping_error=float(errors[row]),
                    dht_hops=int(hops[row]),
                )
            )
            row += 1
    return results


def map_circuit(
    circuit: Circuit,
    placement: VirtualPlacement,
    cost_space: CostSpace,
    mapper: ExhaustiveMapper | CatalogMapper,
) -> MappingResult:
    """Map one circuit: the one-circuit case of :func:`map_circuits`."""
    return map_circuits([circuit], [placement], cost_space, mapper)[0]
