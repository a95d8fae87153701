"""SBON node state: background load plus load induced by hosted services.

A node's CPU load has two parts: *background* load from unrelated work
(driven by :class:`repro.network.dynamics.LoadProcess`) and *induced*
load from the circuit services it hosts (via the operator resource
model).  The sum, clamped to capacity, is the raw metric behind the
cost space's load dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.query.operators import ServiceKind, ServiceSpec, processing_load

__all__ = ["HostedService", "SBONNode"]


@dataclass(frozen=True)
class HostedService:
    """A service instance resident on a node."""

    circuit_name: str
    service_id: str
    spec: ServiceSpec
    input_rate: float

    @property
    def load(self) -> float:
        return processing_load(self.spec, self.input_rate)

    @property
    def state_units(self) -> float:
        """Buffered-state estimate (memory pressure).

        Windowed operators hold their window of input: a JOIN buffers
        ``input_rate x window`` tuples on both sides; an AGGREGATE holds
        a compressed summary (~10% of the window); stateless services
        hold nothing.
        """
        kind = self.spec.kind
        window_state = self.input_rate * self.spec.window_seconds
        if kind is ServiceKind.JOIN:
            return window_state
        if kind is ServiceKind.AGGREGATE:
            return 0.1 * window_state
        return 0.0


@dataclass
class SBONNode:
    """One overlay participant.

    Attributes:
        index: physical node index (matches topology/latency indices).
        capacity: load capacity; effective load is clamped to it.
        background_load: load from non-SBON work.
        hosted: services currently resident.
        alive: liveness flag (churn).
    """

    index: int
    capacity: float = 1.0
    background_load: float = 0.0
    memory_capacity: float = 10_000.0
    hosted: list[HostedService] = field(default_factory=list)
    alive: bool = True

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")
        if self.background_load < 0:
            raise ValueError("background load must be non-negative")
        if self.memory_capacity <= 0:
            raise ValueError("memory capacity must be positive")

    @property
    def induced_load(self) -> float:
        """Load from hosted circuit services."""
        return sum(service.load for service in self.hosted)

    @property
    def effective_load(self) -> float:
        """Total load as a fraction of capacity, clamped to [0, 1]."""
        raw = (self.background_load + self.induced_load) / self.capacity
        return min(max(raw, 0.0), 1.0)

    @property
    def memory_units(self) -> float:
        """Buffered state held by hosted services."""
        return sum(service.state_units for service in self.hosted)

    @property
    def memory_load(self) -> float:
        """Memory pressure as a fraction of capacity, clamped to [0, 1]."""
        raw = self.memory_units / self.memory_capacity
        return min(max(raw, 0.0), 1.0)

    def host(self, service: HostedService) -> None:
        """Install a service on this node."""
        if not self.alive:
            raise RuntimeError(f"node {self.index} is down")
        for existing in self.hosted:
            if (
                existing.circuit_name == service.circuit_name
                and existing.service_id == service.service_id
            ):
                raise ValueError(
                    f"service {service.service_id} already hosted on node {self.index}"
                )
        self.hosted.append(service)

    def evict(self, circuit_name: str, service_id: str | None = None) -> int:
        """Remove services of a circuit (one or all); returns count evicted."""
        before = len(self.hosted)
        self.hosted = [
            s
            for s in self.hosted
            if not (
                s.circuit_name == circuit_name
                and (service_id is None or s.service_id == service_id)
            )
        ]
        return before - len(self.hosted)

    def fail(self) -> list[HostedService]:
        """Mark the node down; return the services that must be evacuated."""
        self.alive = False
        orphans = self.hosted
        self.hosted = []
        return orphans

    def recover(self) -> None:
        """Bring the node back up (empty-handed)."""
        self.alive = True
