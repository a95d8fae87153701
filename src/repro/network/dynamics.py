"""Dynamic node and network behaviour models.

The paper's "time challenge" (§1): SBON queries run continuously while
node load and network latency drift, so an initially optimal circuit
becomes stale.  This module provides the stochastic processes the
re-optimization experiments (E7) use to drive that drift:

* :class:`LoadProcess` — mean-reverting (Ornstein-Uhlenbeck-style) CPU
  load per node, with optional hotspot events that overload a region.
* :class:`LatencyDriftProcess` — slow multiplicative random walk on the
  pairwise latency matrix.
* :class:`ChurnProcess` — nodes fail and recover, forcing migrations.

All processes are deterministic given their seed and advance in integer
*ticks*, matching the discrete-event simulator.

Performance architecture (struct-of-arrays)
-------------------------------------------

Every process owns a single seeded ``np.random.Generator`` and steps its
whole state vector (or ``(n, n)`` matrix) with **one draw per tick**
followed by vectorized updates; hotspots are applied as masked adds.
The pre-vectorization per-node / per-pair Python loops are retained as
``step_scalar`` / ``loads_scalar`` references that consume the *same*
draw, so equivalence tests can pin the kernels element-for-element
(see ``tests/property/test_vectorized_equivalence.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.network.latency import LatencyMatrix

__all__ = ["LoadProcess", "LatencyDriftProcess", "ChurnProcess", "HotspotEvent"]


@dataclass(frozen=True)
class HotspotEvent:
    """A transient load spike applied to a set of nodes.

    Attributes:
        start_tick: first tick the hotspot is active.
        duration: number of ticks it lasts.
        nodes: affected node indices.
        extra_load: additive load applied while active, in the owning
            process's units (CPU cost units per tick when its
            ``cpu_capacity`` is set, load fraction otherwise).
    """

    start_tick: int
    duration: int
    nodes: tuple[int, ...]
    extra_load: float

    def active_at(self, tick: int) -> bool:
        return self.start_tick <= tick < self.start_tick + self.duration


@dataclass
class LoadProcess:
    """Mean-reverting per-node CPU load in ``[0, max_load]``.

    Each tick: ``load += theta * (mean - load) + sigma * noise``, clamped.
    Hotspot events add ``extra_load`` to their nodes while active, which
    the re-optimizer must route around (the "overloaded node a" of the
    paper's Figure 2).

    With ``cpu_capacity`` set, the process walks in the runtime's
    unified load currency: ``mean_load``, ``sigma``, ``max_load`` and
    hotspot ``extra_load`` are **CPU cost units per tick** (the same
    units :class:`~repro.core.load_model.LoadModel` charges at the
    operator kernels and the controller's write-back normalizes by),
    :meth:`loads_cost` exposes them raw, and :meth:`loads` divides by
    the capacity so downstream consumers keep seeing [0, 1] fractions.
    A ``max_load`` left unset defaults to ``cpu_capacity`` (a fully
    loaded node) in cost-unit mode and to 1.0 otherwise; an explicit
    value is honored in either mode.
    """

    num_nodes: int
    mean_load: float = 0.3
    theta: float = 0.1
    sigma: float = 0.05
    max_load: float | None = None
    seed: int = 0
    hotspots: list[HotspotEvent] = field(default_factory=list)
    cpu_capacity: float | None = None

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if self.cpu_capacity is not None and self.cpu_capacity <= 0:
            raise ValueError("cpu_capacity must be positive")
        if self.max_load is None:
            self.max_load = self.cpu_capacity if self.cpu_capacity is not None else 1.0
        if not 0 <= self.mean_load <= self.max_load:
            raise ValueError("mean_load must be within [0, max_load]")
        self._norm = self.cpu_capacity if self.cpu_capacity is not None else 1.0
        self._rng = np.random.default_rng(self.seed)
        self.tick = 0
        base = self._rng.normal(self.mean_load, self.sigma, size=self.num_nodes)
        self._loads = np.clip(base, 0.0, self.max_load)

    def loads_cost(self) -> np.ndarray:
        """Current effective loads in the process's native units.

        CPU cost units per tick when ``cpu_capacity`` is set, load
        fractions otherwise (the two coincide at capacity 1).
        """
        effective = self._loads.copy()
        for hotspot in self.hotspots:
            if hotspot.active_at(self.tick):
                idx = np.asarray(hotspot.nodes, dtype=int)
                effective[idx] = np.minimum(
                    self.max_load, effective[idx] + hotspot.extra_load
                )
        return effective

    def loads(self) -> np.ndarray:
        """Current effective loads as [0, 1] fractions (vectorized)."""
        return self.loads_cost() / self._norm

    def loads_scalar(self) -> np.ndarray:
        """Per-node hotspot loop (retained scalar reference)."""
        effective = self._loads.copy()
        for hotspot in self.hotspots:
            if hotspot.active_at(self.tick):
                for node in hotspot.nodes:
                    effective[node] = min(
                        self.max_load, effective[node] + hotspot.extra_load
                    )
        return effective / self._norm

    def _draw(self) -> np.ndarray:
        """The one per-tick noise draw (shared by both step variants)."""
        return self._rng.normal(0.0, self.sigma, size=self.num_nodes)

    def step(self, ticks: int = 1) -> np.ndarray:
        """Advance the process and return the new effective loads."""
        if ticks < 0:
            raise ValueError("ticks must be non-negative")
        for _ in range(ticks):
            noise = self._draw()
            self._loads = self._loads + self.theta * (self.mean_load - self._loads) + noise
            self._loads = np.clip(self._loads, 0.0, self.max_load)
            self.tick += 1
        return self.loads()

    def step_scalar(self, ticks: int = 1) -> np.ndarray:
        """Per-node Python-loop step over the same draw (scalar reference)."""
        if ticks < 0:
            raise ValueError("ticks must be non-negative")
        for _ in range(ticks):
            noise = self._draw()
            loads = self._loads
            for node in range(self.num_nodes):
                value = loads[node] + self.theta * (self.mean_load - loads[node]) + noise[node]
                loads[node] = min(max(value, 0.0), self.max_load)
            self.tick += 1
        return self.loads_scalar()

    def add_hotspot(self, hotspot: HotspotEvent) -> None:
        """Schedule a hotspot event."""
        if hotspot.duration <= 0 or hotspot.extra_load < 0:
            raise ValueError("hotspot must have positive duration and load")
        self.hotspots.append(hotspot)


class LatencyDriftProcess:
    """Slow multiplicative random walk over a latency matrix.

    Each tick every pair latency is multiplied by a log-normal factor
    and pulled gently back toward its base value, so latencies wander
    but do not diverge.  Symmetry and positivity are preserved.

    One ``(n*(n-1)/2,)`` normal draw per tick covers the strict upper
    triangle; the update is applied to the full matrix with vectorized
    scatter + transpose.
    """

    def __init__(
        self,
        base: LatencyMatrix,
        drift_sigma: float = 0.02,
        reversion: float = 0.05,
        seed: int = 0,
    ):
        if drift_sigma < 0 or not 0 <= reversion <= 1:
            raise ValueError("invalid drift parameters")
        self._base = base.values.copy()
        self._current = base.values.copy()
        self._drift_sigma = drift_sigma
        self._reversion = reversion
        self._rng = np.random.default_rng(seed)
        self.tick = 0
        n = self._base.shape[0]
        self._triu = np.triu_indices(n, k=1)
        # Flat upper-triangle state plus the constant reversion pull,
        # so a step is pure elementwise math + two scatters.
        self._flat = self._current[self._triu].copy()
        self._rev_base = self._reversion * self._base[self._triu]

    def current(self) -> LatencyMatrix:
        """The latency matrix as of the current tick."""
        # The walk preserves symmetry / zero diagonal / positivity by
        # construction, so skip the O(n^2) re-validation every tick.
        return LatencyMatrix._wrap(self._current)

    def _draw(self) -> np.ndarray:
        """The one per-tick upper-triangle noise draw."""
        return self._rng.normal(0.0, self._drift_sigma, size=self._triu[0].shape[0])

    def step(self, ticks: int = 1) -> LatencyMatrix:
        """Advance the walk and return the new matrix."""
        if ticks < 0:
            raise ValueError("ticks must be non-negative")
        rows, cols = self._triu
        for _ in range(ticks):
            noise = self._draw()
            np.exp(noise, out=noise)
            np.multiply(self._flat, noise, out=noise)  # drifted
            np.multiply(noise, 1 - self._reversion, out=noise)
            np.add(noise, self._rev_base, out=noise)
            self._flat = noise
            # Rebind to a fresh matrix so previously returned snapshots
            # stay frozen (callers may record the drift trajectory).
            current = np.empty_like(self._current)
            current[rows, cols] = noise
            current[cols, rows] = noise
            np.fill_diagonal(current, 0.0)
            self._current = current
            self.tick += 1
        return self.current()

    def step_scalar(self, ticks: int = 1) -> LatencyMatrix:
        """Per-pair Python-loop step over the same draw (scalar reference)."""
        if ticks < 0:
            raise ValueError("ticks must be non-negative")
        rows, cols = self._triu
        for _ in range(ticks):
            noise = self._draw()
            current = self._current.copy()  # freeze prior snapshots
            for k in range(noise.shape[0]):
                i = rows[k]
                j = cols[k]
                drifted = current[i, j] * math.exp(noise[k])
                updated = (
                    self._reversion * self._base[i, j]
                    + (1 - self._reversion) * drifted
                )
                current[i, j] = updated
                current[j, i] = updated
            self._current = current
            self.tick += 1
        self._flat = self._current[rows, cols]  # keep the fast path in sync
        return LatencyMatrix._wrap(self._current)


class ChurnProcess:
    """Node failure and recovery as independent per-tick probabilities.

    A failed node cannot host services and must be evacuated; the
    re-optimizer treats its coordinate as unavailable.  ``protected``
    nodes (typically producers/consumers, which are pinned) never fail.

    The process owns one seeded ``np.random.Generator`` and consumes a
    single uniform draw over all nodes per tick; failures and
    recoveries are resolved with boolean masks.
    """

    def __init__(
        self,
        num_nodes: int,
        fail_prob: float = 0.002,
        recover_prob: float = 0.05,
        protected: set[int] | None = None,
        seed: int = 0,
    ):
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if not 0 <= fail_prob <= 1 or not 0 <= recover_prob <= 1:
            raise ValueError("probabilities must be in [0, 1]")
        self.num_nodes = num_nodes
        self.fail_prob = fail_prob
        self.recover_prob = recover_prob
        self.protected = protected or set()
        self._rng = np.random.default_rng(seed)
        self._alive = np.ones(num_nodes, dtype=bool)
        self._protected_mask = np.zeros(num_nodes, dtype=bool)
        if self.protected:
            self._protected_mask[np.asarray(sorted(self.protected), dtype=int)] = True
        self.tick = 0

    def alive(self) -> list[bool]:
        """Per-node liveness flags."""
        return [bool(v) for v in self._alive]

    def alive_mask(self) -> np.ndarray:
        """Per-node liveness as a boolean array (copy)."""
        return self._alive.copy()

    def _draw(self) -> np.ndarray:
        """The one per-tick uniform draw (shared by both step variants)."""
        return self._rng.random(self.num_nodes)

    def step(self, ticks: int = 1) -> list[int]:
        """Advance churn; return nodes that *failed* during these ticks."""
        if ticks < 0:
            raise ValueError("ticks must be non-negative")
        newly_failed: list[int] = []
        for _ in range(ticks):
            draws = self._draw()
            fails = self._alive & ~self._protected_mask & (draws < self.fail_prob)
            recovers = ~self._alive & (draws < self.recover_prob)
            self._alive[fails] = False
            self._alive[recovers] = True
            newly_failed.extend(int(i) for i in np.flatnonzero(fails))
            self.tick += 1
        return newly_failed

    def step_scalar(self, ticks: int = 1) -> list[int]:
        """Per-node Python-loop step over the same draw (scalar reference)."""
        if ticks < 0:
            raise ValueError("ticks must be non-negative")
        newly_failed: list[int] = []
        for _ in range(ticks):
            draws = self._draw()
            for node in range(self.num_nodes):
                if self._alive[node]:
                    if node in self.protected:
                        continue
                    if draws[node] < self.fail_prob:
                        self._alive[node] = False
                        newly_failed.append(node)
                else:
                    if draws[node] < self.recover_prob:
                        self._alive[node] = True
            self.tick += 1
        return newly_failed
