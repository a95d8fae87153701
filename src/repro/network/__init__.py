"""Network substrate: topologies, latency matrices, coordinate embeddings,
and dynamic behaviour models.

This package provides everything "below" the overlay: synthetic
Internet-like topologies (transit-stub, geometric, grid, ...), the
all-pairs latency ground truth derived from them, the decentralized
(Vivaldi) and centralized (landmark) latency embeddings that yield the
vector dimensions of a cost space, and the load/latency/churn processes
that drive re-optimization experiments.
"""

from repro.network.bandwidth import (
    BandwidthMatrix,
    assign_link_capacities,
    widest_paths,
)
from repro.network.dynamics import (
    ChurnProcess,
    HotspotEvent,
    LatencyDriftProcess,
    LoadProcess,
)
from repro.network.landmark import LandmarkEmbedding, embed_with_landmarks
from repro.network.latency import LatencyMatrix, dijkstra, shortest_path_latencies
from repro.network.topology import (
    Link,
    Topology,
    TransitStubParams,
    grid_topology,
    random_geometric_topology,
    ring_topology,
    star_topology,
    transit_stub_topology,
    uniform_delay_topology,
)
from repro.network.vivaldi import (
    EmbeddingResult,
    VivaldiConfig,
    VivaldiSystem,
    embed_latency_matrix,
)

__all__ = [
    "BandwidthMatrix",
    "assign_link_capacities",
    "widest_paths",
    "ChurnProcess",
    "HotspotEvent",
    "LatencyDriftProcess",
    "LoadProcess",
    "LandmarkEmbedding",
    "embed_with_landmarks",
    "LatencyMatrix",
    "dijkstra",
    "shortest_path_latencies",
    "Link",
    "Topology",
    "TransitStubParams",
    "grid_topology",
    "random_geometric_topology",
    "ring_topology",
    "star_topology",
    "transit_stub_topology",
    "uniform_delay_topology",
    "EmbeddingResult",
    "VivaldiConfig",
    "VivaldiSystem",
    "embed_latency_matrix",
]
