"""SBON runtime substrate: the overlay assembly, hosted services, tick simulation."""

from repro.sbon.metrics import TickRecord, TimeSeries
from repro.sbon.node import HostedService
from repro.sbon.overlay import Overlay
from repro.sbon.simulator import Simulation, SimulationConfig

__all__ = [
    "TickRecord",
    "TimeSeries",
    "HostedService",
    "Overlay",
    "Simulation",
    "SimulationConfig",
]
