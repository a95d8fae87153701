"""Data-plane runtime: execute installed circuits on the live overlay.

The optimizer and simulator price circuits from *estimated* link rates;
this package moves actual tuple batches through every installed circuit
inside the simulation tick loop, so heavy-traffic experiments measure
what the network really carries under churn, hotspots, and migration.

* :mod:`repro.runtime.transport` — in-flight tuple storage: a
  struct-of-arrays pool filed in a calendar queue keyed by arrival
  tick (delivery costs O(due)), with a bounded retransmit buffer for
  tuples bound to failed nodes (``RuntimeConfig.reliable`` sizes it),
  extending conservation to ``sent == delivered + in_flight +
  buffered``.
* :mod:`repro.runtime.dataplane` — the :class:`DataPlane` coordinator:
  compiles *all* installed circuits into one global CSR arena (flat op
  and link arrays with per-circuit segments), steps sources and
  operators in batch per tick, applies per-node capacity backpressure
  (and controller shed limits) with explicit drop accounting, re-homes
  in-flight tuples when the re-optimizer migrates a service, exports
  per-tick measured link/node statistics for the control plane, and
  can drift the realized operator parameters away from the compiled
  estimates (:class:`ParameterDrift`).
* :mod:`repro.runtime.join_state` — the batched path's windowed join
  state: one slot table (an append-only row pool chained per
  (op, side, key) slot, walked newest-first, compacted only when full).
* :mod:`repro.runtime.oracle` — the per-tuple oracle every batched
  piece is pinned to: the heapq transport, per-key join tables and the
  tuple-at-a-time tick loop behind :meth:`DataPlane.step_scalar`.
* :mod:`repro.runtime.arena` — :class:`CircuitArena` segment
  bookkeeping (append on install, tombstone on uninstall, compact past
  a dead-row threshold; a scale event swaps one segment).
"""

from repro.core.load_model import LoadModel
from repro.runtime.arena import ArenaSegment, CircuitArena
from repro.runtime.dataplane import (
    DataPlane,
    ParameterDrift,
    RuntimeConfig,
    TrafficRecord,
)
from repro.runtime.oracle import HeapTransport
from repro.runtime.transport import ArrayTransport

__all__ = [
    "LoadModel",
    "ArenaSegment",
    "CircuitArena",
    "DataPlane",
    "ParameterDrift",
    "RuntimeConfig",
    "TrafficRecord",
    "ArrayTransport",
    "HeapTransport",
]
