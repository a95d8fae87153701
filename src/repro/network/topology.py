"""Synthetic network topologies for SBON simulation.

The paper evaluates cost spaces on a *transit-stub* topology with 600
nodes (Figure 2).  Transit-stub topologies, introduced by the GT-ITM
topology generator, model the two-level structure of the Internet: a
small core of well-connected *transit* domains (backbone ASes) with many
*stub* domains (edge networks) hanging off transit nodes.  Link latencies
differ by class: intra-stub links are fast, stub-to-transit links are
moderate, and inter-transit links are slow (long-haul).

This module builds such topologies from scratch (no GT-ITM dependency),
plus several simpler families used in tests and ablation benchmarks.
All generators are deterministic given a seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

__all__ = [
    "Link",
    "Topology",
    "TransitStubParams",
    "transit_stub_topology",
    "random_geometric_topology",
    "grid_topology",
    "ring_topology",
    "star_topology",
    "uniform_delay_topology",
]


@dataclass(frozen=True)
class Link:
    """An undirected network link between two node indices.

    Attributes:
        u: first endpoint (node index).
        v: second endpoint (node index).
        latency_ms: one-way propagation latency of the link.
    """

    u: int
    v: int
    latency_ms: float

    def other(self, node: int) -> int:
        """Return the endpoint of this link that is not ``node``."""
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise ValueError(f"node {node} is not an endpoint of {self}")


@dataclass
class Topology:
    """An undirected weighted graph of physical network nodes.

    Node identifiers are dense integers ``0..num_nodes-1``.  Optional
    per-node 2-D positions (used by geometric generators and for
    visual-style experiments) are stored in ``positions``.  ``node_tags``
    records the role of a node in structured topologies (``"transit"`` /
    ``"stub"``).
    """

    num_nodes: int
    links: list[Link] = field(default_factory=list)
    positions: list[tuple[float, float]] | None = None
    node_tags: list[str] | None = None
    name: str = "topology"

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError("topology must have at least one node")
        for link in self.links:
            self._check_link(link)

    def _check_link(self, link: Link) -> None:
        if not (0 <= link.u < self.num_nodes and 0 <= link.v < self.num_nodes):
            raise ValueError(f"link {link} references a node outside the topology")
        if link.u == link.v:
            raise ValueError(f"self-loop link {link} is not allowed")
        if link.latency_ms <= 0:
            raise ValueError(f"link {link} must have positive latency")

    def add_link(self, u: int, v: int, latency_ms: float) -> None:
        """Add an undirected link, validating endpoints and latency."""
        link = Link(u, v, latency_ms)
        self._check_link(link)
        self.links.append(link)

    def adjacency(self) -> list[list[tuple[int, float]]]:
        """Return an adjacency list of ``(neighbor, latency_ms)`` pairs."""
        adj: list[list[tuple[int, float]]] = [[] for _ in range(self.num_nodes)]
        for link in self.links:
            adj[link.u].append((link.v, link.latency_ms))
            adj[link.v].append((link.u, link.latency_ms))
        return adj

    def is_connected(self) -> bool:
        """Return True if every node is reachable from node 0."""
        if self.num_nodes == 1:
            return True
        adj = self.adjacency()
        seen = {0}
        stack = [0]
        while stack:
            current = stack.pop()
            for neighbor, _ in adj[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        return len(seen) == self.num_nodes

    def nodes_tagged(self, tag: str) -> list[int]:
        """Return node indices whose tag equals ``tag``."""
        if self.node_tags is None:
            return []
        return [i for i, t in enumerate(self.node_tags) if t == tag]


@dataclass(frozen=True)
class TransitStubParams:
    """Parameters of the transit-stub generator.

    The defaults produce exactly the 600-node scale of the paper's
    Figure 2: 4 transit domains of 6 nodes each (24 transit nodes), 4
    stub domains per transit node, 6 nodes per stub domain
    (24 + 24*4*6 = 600).

    Latency classes follow the usual GT-ITM convention that long-haul
    transit links are an order of magnitude slower than edge links.
    """

    num_transit_domains: int = 4
    transit_nodes_per_domain: int = 6
    stub_domains_per_transit_node: int = 4
    nodes_per_stub_domain: int = 6
    intra_transit_latency: tuple[float, float] = (20.0, 50.0)
    inter_transit_latency: tuple[float, float] = (50.0, 120.0)
    transit_stub_latency: tuple[float, float] = (5.0, 20.0)
    intra_stub_latency: tuple[float, float] = (1.0, 5.0)
    extra_stub_edge_prob: float = 0.3

    @property
    def total_nodes(self) -> int:
        """Total node count implied by the domain structure."""
        transit = self.num_transit_domains * self.transit_nodes_per_domain
        stubs = transit * self.stub_domains_per_transit_node * self.nodes_per_stub_domain
        return transit + stubs


def _uniform(rng: random.Random, bounds: tuple[float, float]) -> float:
    low, high = bounds
    if low > high:
        raise ValueError(f"invalid latency bounds {bounds}")
    return rng.uniform(low, high)


def transit_stub_topology(
    params: TransitStubParams | None = None,
    seed: int = 0,
) -> Topology:
    """Generate a GT-ITM-style transit-stub topology.

    Construction:

    1. Each transit domain is a connected random mesh of transit nodes
       (a random spanning tree plus extra edges).
    2. Transit domains are connected pairwise through randomly chosen
       border nodes (inter-transit links), forming a connected core.
    3. Every transit node anchors several stub domains; each stub domain
       is a small connected mesh attached to its transit node.

    Args:
        params: structural and latency parameters; defaults approximate
            the paper's 600-node topology.
        seed: RNG seed for deterministic generation.

    Returns:
        A connected :class:`Topology` with ``node_tags`` distinguishing
        ``"transit"`` and ``"stub"`` nodes.
    """
    params = params or TransitStubParams()
    rng = random.Random(seed)
    topo = Topology(num_nodes=params.total_nodes, name="transit-stub")
    tags: list[str] = []

    next_node = 0
    transit_domains: list[list[int]] = []
    for _ in range(params.num_transit_domains):
        domain = list(range(next_node, next_node + params.transit_nodes_per_domain))
        next_node += params.transit_nodes_per_domain
        transit_domains.append(domain)
        tags.extend("transit" for _ in domain)
        _connect_mesh(topo, domain, rng, params.intra_transit_latency, extra_edge_prob=0.5)

    # Connect transit domains into a connected core: chain plus random
    # extra inter-domain links for redundancy.
    for i in range(1, len(transit_domains)):
        u = rng.choice(transit_domains[i - 1])
        v = rng.choice(transit_domains[i])
        topo.add_link(u, v, _uniform(rng, params.inter_transit_latency))
    for i in range(len(transit_domains)):
        for j in range(i + 2, len(transit_domains)):
            if rng.random() < 0.5:
                u = rng.choice(transit_domains[i])
                v = rng.choice(transit_domains[j])
                topo.add_link(u, v, _uniform(rng, params.inter_transit_latency))

    # Attach stub domains.
    all_transit = [n for domain in transit_domains for n in domain]
    for transit_node in all_transit:
        for _ in range(params.stub_domains_per_transit_node):
            stub = list(range(next_node, next_node + params.nodes_per_stub_domain))
            next_node += params.nodes_per_stub_domain
            tags.extend("stub" for _ in stub)
            _connect_mesh(
                topo, stub, rng, params.intra_stub_latency,
                extra_edge_prob=params.extra_stub_edge_prob,
            )
            gateway = rng.choice(stub)
            topo.add_link(
                transit_node, gateway, _uniform(rng, params.transit_stub_latency)
            )

    topo.node_tags = tags
    assert next_node == params.total_nodes
    assert topo.is_connected()
    return topo


def _connect_mesh(
    topo: Topology,
    nodes: list[int],
    rng: random.Random,
    latency_bounds: tuple[float, float],
    extra_edge_prob: float,
) -> None:
    """Connect ``nodes`` with a random spanning tree plus random extra edges."""
    if len(nodes) <= 1:
        return
    shuffled = nodes[:]
    rng.shuffle(shuffled)
    for i in range(1, len(shuffled)):
        parent = shuffled[rng.randrange(i)]
        topo.add_link(parent, shuffled[i], _uniform(rng, latency_bounds))
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            if rng.random() < extra_edge_prob:
                topo.add_link(u, v, _uniform(rng, latency_bounds))


def random_geometric_topology(
    num_nodes: int,
    radius: float = 0.18,
    world_latency_ms: float = 100.0,
    seed: int = 0,
) -> Topology:
    """Generate a random geometric graph in the unit square.

    Nodes are placed uniformly at random; nodes within ``radius`` are
    linked with latency proportional to Euclidean distance (scaled so the
    unit-square diagonal corresponds to ``world_latency_ms``).  If the
    radius graph is disconnected, each stranded component is bridged to
    its nearest neighbor so the result is always connected.
    """
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    rng = random.Random(seed)
    positions = [(rng.random(), rng.random()) for _ in range(num_nodes)]
    scale = world_latency_ms / math.sqrt(2.0)
    topo = Topology(num_nodes=num_nodes, positions=positions, name="geometric")

    def dist(i: int, j: int) -> float:
        (x1, y1), (x2, y2) = positions[i], positions[j]
        return math.hypot(x1 - x2, y1 - y2)

    for i in range(num_nodes):
        for j in range(i + 1, num_nodes):
            d = dist(i, j)
            if d <= radius:
                topo.add_link(i, j, max(0.1, d * scale))

    _bridge_components(topo, dist, scale)
    return topo


def _bridge_components(topo: Topology, dist, scale: float) -> None:
    """Connect disconnected components via their closest node pairs."""
    while not topo.is_connected():
        adj = topo.adjacency()
        seen = {0}
        stack = [0]
        while stack:
            current = stack.pop()
            for neighbor, _ in adj[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        outside = [n for n in range(topo.num_nodes) if n not in seen]
        best = min(
            ((dist(u, v), u, v) for u in seen for v in outside),
            key=lambda t: t[0],
        )
        d, u, v = best
        topo.add_link(u, v, max(0.1, d * scale))


def grid_topology(rows: int, cols: int, link_latency_ms: float = 10.0) -> Topology:
    """Generate a ``rows x cols`` 2-D grid with uniform link latency."""
    if rows <= 0 or cols <= 0:
        raise ValueError("rows and cols must be positive")
    num_nodes = rows * cols
    positions = [
        (c / max(cols - 1, 1), r / max(rows - 1, 1))
        for r in range(rows)
        for c in range(cols)
    ]
    topo = Topology(num_nodes=num_nodes, positions=positions, name="grid")
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                topo.add_link(node, node + 1, link_latency_ms)
            if r + 1 < rows:
                topo.add_link(node, node + cols, link_latency_ms)
    return topo


def ring_topology(num_nodes: int, link_latency_ms: float = 10.0) -> Topology:
    """Generate a ring of ``num_nodes`` nodes with uniform link latency."""
    if num_nodes < 3:
        raise ValueError("a ring needs at least 3 nodes")
    topo = Topology(num_nodes=num_nodes, name="ring")
    for i in range(num_nodes):
        topo.add_link(i, (i + 1) % num_nodes, link_latency_ms)
    return topo


def star_topology(num_leaves: int, link_latency_ms: float = 10.0) -> Topology:
    """Generate a star: node 0 is the hub, nodes 1..n are leaves."""
    if num_leaves < 1:
        raise ValueError("a star needs at least one leaf")
    topo = Topology(num_nodes=num_leaves + 1, name="star")
    for leaf in range(1, num_leaves + 1):
        topo.add_link(0, leaf, link_latency_ms)
    return topo


def uniform_delay_topology(
    num_nodes: int,
    latency_bounds: tuple[float, float] = (5.0, 100.0),
    seed: int = 0,
) -> Topology:
    """Generate a complete graph with i.i.d. uniform link latencies.

    This is the "unstructured" worst case for coordinate embeddings: with
    no underlying geometry, latencies violate the triangle inequality
    frequently, which stresses Vivaldi (experiment E9).
    """
    if num_nodes < 2:
        raise ValueError("need at least 2 nodes")
    rng = random.Random(seed)
    topo = Topology(num_nodes=num_nodes, name="uniform")
    for i in range(num_nodes):
        for j in range(i + 1, num_nodes):
            topo.add_link(i, j, _uniform(rng, latency_bounds))
    return topo
