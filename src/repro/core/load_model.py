"""The unified CPU-cost model: one load currency for the whole stack.

Before this module, every layer kept its own incompatible notion of
"load": the data plane gated backpressure on raw tuple *counts*, the
cost space's load dimension carried fractions written by a background
process, and the controller's shed policy capped processed counts.
:class:`LoadModel` replaces all of them with a single currency —
**CPU cost units per tick** — priced per tuple at the operator kernels:

* relay / filter / sink consumption: a flat per-tuple base cost
  (``relay_cost`` / ``filter_cost``),
* aggregates: ``aggregate_cost + aggregate_batch_cost * batch`` per
  tuple, where *batch* is the number of tuples the operator absorbed in
  the same delivery round (state maintenance scales with the batch),
* joins: ``join_cost + probe_cost * probes`` per tuple, where *probes*
  is the number of windowed state entries the arrival was matched
  against (join probes ≫ relays — the paper's motivating asymmetry).

Consumers of the currency (see ``runtime/dataplane.py`` for the
kernel-side convention):

* :class:`~repro.runtime.dataplane.DataPlane` measures a vectorized
  per-node CPU cost every tick alongside tuple counts, and its
  admission backpressure (``RuntimeConfig.node_capacity``) and the
  controller's shed limits gate on *cost units*, not counts;
* :class:`~repro.control.controller.Controller` feeds the measured
  per-node cost back into the cost space's load dimension (normalized
  by a cost-rate reference) so placement migrates away from CPU-hot
  nodes;
* :class:`~repro.network.dynamics.LoadProcess` can express background
  load in the same units (``cpu_capacity``), making ambient and
  measured pressure commensurable.

The default coefficients are *dyadic rationals* (sums of powers of
two), so per-operator cost totals accumulated in any order are exact in
float64 — the vectorized kernels and the per-tuple scalar references
agree bit for bit, keeping the repo's twin-equivalence discipline
intact for the cost columns.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "KIND_RELAY",
    "KIND_FILTER",
    "KIND_AGGREGATE",
    "KIND_JOIN",
    "LoadModel",
]

#: Operator-kind codes shared with the data plane's compiled ``kind``
#: column (``runtime/dataplane.py`` aliases these as _RELAY .. _JOIN).
KIND_RELAY, KIND_FILTER, KIND_AGGREGATE, KIND_JOIN = 0, 1, 2, 3


@dataclass(frozen=True)
class LoadModel:
    """Per-tuple CPU cost of each operator kind, in cost units.

    Attributes:
        relay_cost: cost of forwarding (or sink-consuming) one tuple.
        filter_cost: cost of evaluating the predicate on one tuple.
        aggregate_cost: base cost of absorbing one tuple into an
            aggregate.
        aggregate_batch_cost: additional per-tuple cost proportional to
            the delivery-round batch size at that aggregate (``c₁`` of
            ``c₀ + c₁·batch``).
        join_cost: base cost of one join arrival (state insert +
            bookkeeping).
        probe_cost: cost per windowed state entry the arrival is probed
            against (``c₂`` of ``c₀ + c₂·probes``).
    """

    relay_cost: float = 1.0
    filter_cost: float = 1.25
    aggregate_cost: float = 1.5
    aggregate_batch_cost: float = 0.125
    join_cost: float = 2.0
    probe_cost: float = 0.5

    def __post_init__(self) -> None:
        for f in fields(self):
            if not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        for name in ("relay_cost", "filter_cost", "aggregate_cost", "join_cost"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.aggregate_batch_cost < 0 or self.probe_cost < 0:
            raise ValueError("batch and probe coefficients must be non-negative")

    @classmethod
    def unit(cls) -> "LoadModel":
        """The count-compatible model: every tuple costs exactly 1.

        With the unit model, measured CPU cost *is* the tuple count and
        cost-based admission reproduces the historical count-based
        backpressure decision for decision (the default when
        ``RuntimeConfig.load_model`` is None).
        """
        return cls(
            relay_cost=1.0,
            filter_cost=1.0,
            aggregate_cost=1.0,
            aggregate_batch_cost=0.0,
            join_cost=1.0,
            probe_cost=0.0,
        )

    def kind_costs(self) -> np.ndarray:
        """Base per-tuple cost indexed by operator-kind code (0..3)."""
        return np.array(
            [self.relay_cost, self.filter_cost, self.aggregate_cost, self.join_cost]
        )

    def cost_of(self, kind: int, probes: int = 0, batch: int = 1) -> float:
        """Per-tuple cost of one arrival (scalar reference).

        Args:
            kind: operator-kind code (``KIND_RELAY`` .. ``KIND_JOIN``).
            probes: state entries the arrival probed (joins only).
            batch: delivery-round batch size at the operator
                (aggregates only; each of the ``batch`` tuples costs
                ``aggregate_cost + aggregate_batch_cost * batch``).
        """
        if kind == KIND_JOIN:
            return self.join_cost + self.probe_cost * probes
        if kind == KIND_AGGREGATE:
            return self.aggregate_cost + self.aggregate_batch_cost * batch
        if kind == KIND_FILTER:
            return self.filter_cost
        return self.relay_cost
