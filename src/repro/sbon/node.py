"""The per-service load and state model of a hosted circuit service.

A node's CPU load has two parts: *background* load from unrelated work
(driven by :class:`repro.network.dynamics.LoadProcess`) and *induced*
load from the circuit services it hosts.  :class:`HostedService` prices
one such service — its CPU load via the operator resource model and
its buffered state for the memory dimension.  The per-node sums live in
:class:`repro.sbon.overlay.Overlay`'s arrays, the only store of node
state.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.query.operators import ServiceKind, ServiceSpec, processing_load

__all__ = ["HostedService"]


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
