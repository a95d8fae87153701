"""Control plane: closing the estimate→measure loop (PR 4).

The PR-3 data plane *measures* what the overlay really carries; the
optimizer stack *estimates*.  This package feeds the measurements back:

* :mod:`repro.control.estimator` — :class:`RateEstimator`: array-backed
  EWMA + windowed quantiles over keyed per-tick counts, and
  :class:`KeyedRateEstimator`, its per-key twin with the same calls,
  consuming identical inputs.
* :mod:`repro.control.controller` — :class:`Controller`: calibrates the
  circuits' estimated link rates (and the re-optimizer's cached kernel
  prices) from measured rates, triggers backpressure-aware
  re-placement when measured drops/latency breach policy, and drives a
  load-shedding policy with explicit drop attribution.

Wire it into the tick loop with ``Simulation(..., data_plane=True,
control=True)`` — the simulator steps the controller right after the
data plane each tick and honors its triggered re-placements.
"""

from repro.control.controller import ControlConfig, Controller, ControlRecord
from repro.control.estimator import KeyedRateEstimator, RateEstimator

__all__ = [
    "ControlConfig", "Controller", "ControlRecord", "KeyedRateEstimator", "RateEstimator",
]
