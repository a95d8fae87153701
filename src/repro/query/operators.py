"""Service (operator) definitions for SBON circuits.

"Service" generalizes the database operator (§2): any processing code
that can be placed on an in-network node.  This module defines the
built-in relational service kinds and their resource model — how much
CPU load (:func:`processing_load`) and buffered state
(:func:`state_units`) a service induces on its host as a function of
the stream rates flowing through it.  The load feeds the scalar
dimension of the cost space (Figure 2's squared-CPU-load axis), the
state its optional memory dimension.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["ServiceKind", "ServiceSpec", "processing_load", "state_units"]


class ServiceKind(enum.Enum):
    """Built-in service types.

    Attributes:
        JOIN: two-way windowed stream join.
        FILTER: tuple-at-a-time predicate evaluation.
        AGGREGATE: windowed reduction (e.g., avg over a sliding window).
        UNION: order-preserving stream merge.
        RELAY: pure forwarding (placed for routing reasons only).
    """

    JOIN = "join"
    FILTER = "filter"
    AGGREGATE = "aggregate"
    UNION = "union"
    RELAY = "relay"


#: CPU cost coefficients per unit of input rate, by kind.  Joins are the
#: most expensive (state maintenance + probing); relays nearly free.
_LOAD_COEFFICIENTS: dict[ServiceKind, float] = {
    ServiceKind.JOIN: 0.02,
    ServiceKind.FILTER: 0.004,
    ServiceKind.AGGREGATE: 0.008,
    ServiceKind.UNION: 0.002,
    ServiceKind.RELAY: 0.001,
}


@dataclass(frozen=True)
class ServiceSpec:
    """A service's type plus its tunable parameters.

    Attributes:
        kind: the service type.
        selectivity: output/input rate ratio for FILTER services, or the
            join selectivity override for JOIN (None = use statistics).
        window_seconds: state window for JOIN/AGGREGATE (affects memory,
            informational in this model).
        load_coefficient: CPU load per unit input rate; defaults to the
            per-kind table.
    """

    kind: ServiceKind
    selectivity: float | None = None
    window_seconds: float = 60.0
    load_coefficient: float | None = None

    def __post_init__(self) -> None:
        if self.selectivity is not None and not 0 < self.selectivity <= 1:
            raise ValueError("selectivity must be in (0, 1]")
        if self.window_seconds <= 0:
            raise ValueError("window must be positive")
        if self.load_coefficient is not None and self.load_coefficient < 0:
            raise ValueError("load coefficient must be non-negative")

    @property
    def effective_load_coefficient(self) -> float:
        if self.load_coefficient is not None:
            return self.load_coefficient
        return _LOAD_COEFFICIENTS[self.kind]

    @classmethod
    def join(cls, **kwargs) -> "ServiceSpec":
        return cls(ServiceKind.JOIN, **kwargs)

    @classmethod
    def filter(cls, selectivity: float, **kwargs) -> "ServiceSpec":
        return cls(ServiceKind.FILTER, selectivity=selectivity, **kwargs)

    @classmethod
    def aggregate(cls, **kwargs) -> "ServiceSpec":
        return cls(ServiceKind.AGGREGATE, **kwargs)

    @classmethod
    def union(cls, **kwargs) -> "ServiceSpec":
        return cls(ServiceKind.UNION, **kwargs)

    @classmethod
    def relay(cls, **kwargs) -> "ServiceSpec":
        return cls(ServiceKind.RELAY, **kwargs)


def processing_load(spec: ServiceSpec, input_rate: float) -> float:
    """CPU load a service adds to its host at a given total input rate."""
    if input_rate < 0:
        raise ValueError("input rate must be non-negative")
    return spec.effective_load_coefficient * input_rate


def state_units(spec: ServiceSpec, input_rate: float) -> float:
    """Buffered state a service holds at a given total input rate.

    Windowed operators hold their window of input: a JOIN buffers
    ``input_rate x window`` tuples on both sides; an AGGREGATE holds a
    compressed summary (~10% of the window); stateless services hold
    nothing.
    """
    if input_rate < 0:
        raise ValueError("input rate must be non-negative")
    window_state = input_rate * spec.window_seconds
    if spec.kind is ServiceKind.JOIN:
        return window_state
    if spec.kind is ServiceKind.AGGREGATE:
        return 0.1 * window_state
    return 0.0
