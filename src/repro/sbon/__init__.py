"""SBON runtime substrate: the overlay assembly and the tick simulation."""

from repro.sbon.metrics import TickRecord, TimeSeries
from repro.sbon.overlay import Overlay
from repro.sbon.simulator import Simulation, SimulationConfig

__all__ = [
    "TickRecord",
    "TimeSeries",
    "Overlay",
    "Simulation",
    "SimulationConfig",
]
