"""The closed-loop controller: measured rates back into the optimizer.

The optimizer prices circuits from *estimated* link rates; the data
plane measures what the links really carry.  :class:`Controller` closes
that loop each tick:

1. **Ingest** — the data plane's per-tick measured statistics
   (per-link tuple counts, per-node drop counts and CPU cost) feed the
   :class:`~repro.control.estimator.RateEstimator` banks, and the
   tick's drop fraction and delivery-latency p95 the policy EWMAs.
2. **Calibrate** — every ``calibrate_interval`` ticks past warmup, the
   measured EWMA link rates (or windowed quantiles) are written back
   into the circuits' rate columns through the overlay
   (``Overlay.set_link_rates``, which also rewrites those circuits'
   usage rows in one slice each); the re-optimizer reads those columns
   at the start of every pass, so the next pass minimizes the
   *measured* objective rather than the stale estimate.
   Oracle mode short-circuits measurement and calibrates from
   :meth:`DataPlane.true_link_rates` — the upper bound a perfect
   estimator could reach.  Calibration is one gather: the installed
   links are flattened into a :class:`_LinkTable` once per structural
   change (circuit set or identity), every link's rate is picked in
   one array expression from one estimator call (or one truth
   lookup), and only circuits whose rates moved are written.
3. **React** — when the measured drop fraction (or latency p95) EWMA
   breaches the policy threshold, the controller requests an immediate
   *backpressure-aware* re-placement: the record names the nodes whose
   measured admission-drop rate is high so the simulator's triggered
   pass excludes them as migration targets.  Independently, a load-
   shedding policy caps admission on nodes whose measured **CPU cost
   rate** exceeds ``shed_limit`` (cost units per tick — tuple counts
   under the unit load model; drops attributed ``dropped_shed``) and
   releases the cap once the pressure subsides.
4. **Close the load loop** — beside the link-rate calibration, the
   measured per-node CPU cost (EWMA, or the windowed quantile when
   ``calibrate_quantile`` is set) is normalized by the cost-rate
   reference and written into the cost space's load dimension
   (:meth:`Overlay.set_measured_cpu`), so the re-optimizer and the
   mappers *place away from CPU-hot nodes* — measured compute pressure
   changes where operators run.
5. **Relieve buffer pressure** — services whose reliable-transport
   retransmit backlog exceeds ``buffer_evacuate_backlog`` are named in
   the record (``evacuate_services``); the simulator forces their
   re-placement so buffered tuples re-home instead of waiting for a
   dead host to return.

Scalar reference: :meth:`step_scalar` routes the identical inputs
through per-key :class:`~repro.control.estimator.KeyedRateEstimator`
banks (the first one swaps them in; once a controller has ticked on
one path the other raises), so twin controllers make bit-identical
decisions — the E19 benchmark's before/after pair.  Policy state
(EWMAs, cooldowns, shed sets) and the calibration gather are shared by
both paths; the banks are read only through the calls (``rates``,
``quantile``, ``seen_counts``) both estimator classes answer alike.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from repro.control.estimator import KeyedRateEstimator, RateEstimator
from repro.core.load_model import (
    KIND_AGGREGATE,
    KIND_FILTER,
    KIND_JOIN,
    KIND_RELAY,
    LoadModel,
)
# Not called here: kept importable under this module for callers that
# wrap it by name (the benchmark harness's span table).
from repro.core.reoptimizer import refresh_kernel_rates  # noqa: F401

__all__ = ["ControlConfig", "ControlRecord", "Controller"]


@dataclass(frozen=True)
class ControlConfig:
    """Policy knobs of the closed-loop controller.

    Attributes:
        alpha: EWMA gain of every estimator bank and policy series.
        quantile_window: ring depth of the estimators' windowed
            quantiles.
        warmup: ticks of measurement before the controller acts at all.
        calibrate_interval: ticks between rate calibrations.
        min_observations: a link needs this many measured ticks before
            its estimate is overwritten (younger links keep the prior).
        min_rate: floor for calibrated rates (spring weights and prices
            degenerate at exactly zero).
        drop_threshold: measured drop-fraction EWMA above which a
            re-placement is triggered (None disables).
        latency_threshold_ms: delivery-latency p95 EWMA above which a
            re-placement is triggered (None disables).
        trigger_cooldown: minimum ticks between triggered re-placements.
        exclude_drop_rate: nodes whose measured admission-drop EWMA
            exceeds this many tuples/tick are excluded as migration
            targets in a triggered pass (None excludes nobody).
        shed_limit: measured CPU cost units/tick above which a node
            gets an admission cap at exactly this limit (None disables
            load shedding).  Cost units == tuple counts under the
            default unit load model.
        shed_release: release the cap once the node's CPU-cost EWMA
            falls below ``shed_release * shed_limit``.
        calibrate_quantile: when set (e.g. 0.95), link rates and CPU
            loads are calibrated from the estimators' windowed
            quantiles instead of the EWMA mean — provisioning for
            bursts rather than averages.
        cpu_ref: CPU cost units/tick corresponding to a fully loaded
            node, for the load-dimension write-back; None derives it
            from the data plane's ``node_capacity``, then
            ``shed_limit`` (write-back skipped when neither exists).
        cpu_calibrate: False disables the load-dimension write-back
            (the count-era behavior: placement never sees measured
            compute pressure).
        buffer_evacuate_backlog: retransmit-buffered tuples per service
            above which the controller forces that service's
            re-placement (None disables the policy).
        drift_calibrate: fold the fitted per-kind effective costs back
            into the data plane's live load model at each calibration.
            Observed kinds' base coefficients absorb the fitted cost
            (re-quantized to the dyadic 1/256 grid) and their dynamic
            probe/batch coefficients are zeroed, so admission prices
            track the measured effective cost and the loop converges —
            once priced and fitted costs coincide the drift ratios
            settle at 1 and no further pushes happen.
    """

    alpha: float = 0.3
    quantile_window: int = 32
    warmup: int = 8
    calibrate_interval: int = 5
    min_observations: int = 4
    min_rate: float = 1e-3
    drop_threshold: float | None = 0.05
    latency_threshold_ms: float | None = None
    trigger_cooldown: int = 10
    exclude_drop_rate: float | None = 1.0
    shed_limit: float | None = None
    shed_release: float = 0.8
    calibrate_quantile: float | None = None
    cpu_ref: float | None = None
    cpu_calibrate: bool = True
    buffer_evacuate_backlog: int | None = None
    drift_calibrate: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        if self.quantile_window <= 0:
            raise ValueError("quantile_window must be positive")
        if self.warmup < 0 or self.calibrate_interval <= 0:
            raise ValueError("warmup must be >= 0 and calibrate_interval > 0")
        if self.min_observations < 1:
            raise ValueError("min_observations must be >= 1")
        # ``not x > 0`` / ``not x >= 0`` also reject NaN (an inf limit
        # or threshold stays legal).
        if not self.min_rate > 0:
            raise ValueError("min_rate must be positive")
        if self.trigger_cooldown < 0:
            raise ValueError("trigger_cooldown must be non-negative")
        for name in (
            "drop_threshold", "latency_threshold_ms", "exclude_drop_rate", "shed_limit"
        ):
            value = getattr(self, name)
            if value is not None and not value >= 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0 < self.shed_release <= 1:
            raise ValueError("shed_release must be in (0, 1]")
        if self.calibrate_quantile is not None and not 0 < self.calibrate_quantile < 1:
            raise ValueError("calibrate_quantile must be in (0, 1)")
        if self.cpu_ref is not None and not self.cpu_ref > 0:
            raise ValueError("cpu_ref must be positive")
        if self.buffer_evacuate_backlog is not None and self.buffer_evacuate_backlog < 1:
            raise ValueError("buffer_evacuate_backlog must be >= 1")


@dataclass(frozen=True)
class ControlRecord:
    """What the controller did with one tick's measurements.

    Attributes:
        tick: data-plane tick the measurements belong to.
        calibrated_links: link rates written back this tick (0 when no
            calibration ran).
        replace_triggered: True when a policy breach requested an
            immediate re-placement pass.
        excluded_nodes: nodes the triggered pass must avoid (measured
            admission-drop hot spots).
        shed_nodes: nodes newly capped by the shedding policy.
        released_nodes: nodes whose shed cap was lifted.
        drop_ewma: current measured drop-fraction EWMA.
        latency_ewma: current delivery-latency p95 EWMA (ms).
        calibrated_cpu: nodes whose measured CPU load was written into
            the cost space's load dimension this tick (0 when no
            write-back ran).
        evacuate_services: (circuit, service) pairs whose retransmit
            backlog breached ``buffer_evacuate_backlog`` — the
            simulator forces their re-placement this tick.
    """

    tick: int
    calibrated_links: int = 0
    replace_triggered: bool = False
    excluded_nodes: tuple[int, ...] = ()
    shed_nodes: tuple[int, ...] = ()
    released_nodes: tuple[int, ...] = ()
    drop_ewma: float = 0.0
    latency_ewma: float = 0.0
    calibrated_cpu: int = 0
    evacuate_services: tuple[tuple[str, str], ...] = ()


class _LinkTable:
    """Every installed link in overlay order, as calibration sees it.

    ``keys[i]`` is link i's ``(circuit, source, target)`` measurement
    key, circuit ``c`` owns links ``bounds[c]:bounds[c + 1]``,
    ``circuit_of`` maps a link to its circuit and ``aliased`` marks
    links whose key another link of the same circuit shares.  Valid
    while the installed circuit objects are unchanged.
    """

    __slots__ = ("circuits", "keys", "bounds", "circuit_of", "aliased")

    def __init__(self, circuits):
        self.circuits = circuits
        self.keys: list[tuple[str, str, str]] = []
        aliased: list[bool] = []
        for circuit in circuits:
            mine = [(circuit.name, l.source, l.target) for l in circuit.links]
            uses = Counter(mine)
            aliased.extend(uses[key] > 1 for key in mine)
            self.keys.extend(mine)
        sizes = np.array([len(c.links) for c in circuits], dtype=np.int64)
        self.bounds = np.concatenate(([0], np.cumsum(sizes)))
        self.circuit_of = np.repeat(np.arange(len(circuits)), sizes)
        self.aliased = np.asarray(aliased, dtype=bool)

    def current(self, circuits) -> bool:
        return len(circuits) == len(self.circuits) and all(
            a is b for a, b in zip(circuits, self.circuits)
        )


class Controller:
    """Feeds the data plane's measurements back into placement decisions.

    Args:
        data_plane: the executing :class:`~repro.runtime.dataplane.DataPlane`.
        config: policy knobs (defaults: calibration on, trigger on
            drops, shedding off).
        kernel_cache: accepted and kept as an attribute, not used:
            compiled re-optimizer kernels hold no rates, so calibration
            has nothing to refresh in them.
        oracle: calibrate from :meth:`DataPlane.true_link_rates`
            instead of measurements (the perfect-information upper
            bound for closed-loop experiments).
    """

    def __init__(
        self,
        data_plane,
        config: ControlConfig | None = None,
        kernel_cache: dict | None = None,
        oracle: bool = False,
    ):
        self.data_plane = data_plane
        self.overlay = data_plane.overlay
        self.config = config or ControlConfig()
        self.kernel_cache = kernel_cache
        self.oracle = oracle
        self._build_banks(RateEstimator)
        self.drop_ewma = 0.0
        self.latency_ewma = 0.0
        self.ticks = 0
        self.calibrations = 0
        self.cpu_calibrations = 0
        self.triggers = 0
        self.buffer_evacuations = 0
        self.shed_nodes: set[int] = set()
        self._last_trigger: int | None = None
        self._links: _LinkTable | None = None
        # Load-model drift fit: accumulate the normal equations of
        # measured per-node cost against per-(node, kind) processed
        # counts; solved at each calibration (see cost_drift).
        self._drift_xtx = np.zeros((4, 4))
        self._drift_xty = np.zeros(4)
        self._drift_ticks = 0
        self.cost_drift: np.ndarray | None = None
        # Structured-event sink (repro.obs.events.EventLog) or None;
        # the simulator wires an attached Observability's log in here.
        self.events = None
        # Why the most recent re-placement trigger fired:
        # "drop_ewma", "latency_ewma", or "drop_ewma+latency_ewma".
        self.last_trigger_reason: str | None = None

    # -- tick entry points ---------------------------------------------------

    def _build_banks(self, bank: type) -> None:
        cfg = self.config
        self.link_rates = bank(cfg.alpha, cfg.quantile_window)
        self.node_drops = bank(cfg.alpha, cfg.quantile_window)
        self.node_cpu = bank(cfg.alpha, cfg.quantile_window)

    def step(self, traffic) -> ControlRecord:
        """Ingest one tick's measurements and act (vectorized path)."""
        return self._step(traffic, RateEstimator)

    def step_scalar(self, traffic) -> ControlRecord:
        """Per-key twin of :meth:`step` consuming identical inputs."""
        return self._step(traffic, KeyedRateEstimator)

    def _step(self, traffic, bank: type) -> ControlRecord:
        if not isinstance(self.link_rates, bank):
            if self.ticks:
                raise RuntimeError(
                    "Controller committed to the other step path; build a twin "
                    "instance to compare step() against step_scalar()"
                )
            self._build_banks(bank)
        dp = self.data_plane
        cfg = self.config
        self.ticks += 1
        self.link_rates.observe(dp.tick_link_tuples.astype(float), dp.link_keys())
        self.node_drops.observe(dp.tick_node_drops.astype(float))
        self.node_cpu.observe(dp.tick_node_cpu)
        x = dp.tick_node_kind_processed.astype(float)
        if x.shape[0] == dp.tick_node_cpu.shape[0]:
            self._drift_xtx += x.T @ x
            self._drift_xty += x.T @ dp.tick_node_cpu
            self._drift_ticks += 1

        denom = traffic.processed + traffic.dropped
        frac = traffic.dropped / denom if denom else 0.0
        self.drop_ewma = (1.0 - cfg.alpha) * self.drop_ewma + cfg.alpha * frac
        if traffic.delivered:
            self.latency_ewma = (
                (1.0 - cfg.alpha) * self.latency_ewma
                + cfg.alpha * traffic.latency_p95
            )

        calibrated = 0
        calibrated_cpu = 0
        armed = self.ticks >= cfg.warmup
        if armed and self.ticks % cfg.calibrate_interval == 0:
            calibrated = self.calibrate()
            calibrated_cpu = self.calibrate_cpu()
            self.fit_cost_drift()
            if cfg.drift_calibrate:
                self.apply_cost_drift()

        shed_new, shed_released = self._shed_policy(armed)
        triggered, excluded = self._trigger_policy(armed)
        evacuate = self._buffer_policy(armed)

        events = self.events
        if events is not None:
            tick = traffic.tick
            if calibrated or calibrated_cpu:
                events.emit(
                    tick,
                    "calibration",
                    links=int(calibrated),
                    cpu_nodes=int(calibrated_cpu),
                )
            if shed_new:
                events.emit(
                    tick,
                    "shed_set",
                    nodes=list(shed_new),
                    limit=cfg.shed_limit,
                )
            if shed_released:
                events.emit(tick, "shed_release", nodes=list(shed_released))
            if triggered:
                events.emit(
                    tick,
                    "replace_triggered",
                    reason=self.last_trigger_reason,
                    drop_ewma=self.drop_ewma,
                    latency_ewma_ms=self.latency_ewma,
                    excluded_nodes=list(excluded),
                )
            if evacuate:
                events.emit(
                    tick,
                    "buffer_evacuate",
                    services=[list(pair) for pair in evacuate],
                )

        return ControlRecord(
            tick=traffic.tick,
            calibrated_links=calibrated,
            replace_triggered=triggered,
            excluded_nodes=excluded,
            shed_nodes=shed_new,
            released_nodes=shed_released,
            drop_ewma=self.drop_ewma,
            latency_ewma=self.latency_ewma,
            calibrated_cpu=calibrated_cpu,
            evacuate_services=evacuate,
        )

    # -- calibration ---------------------------------------------------------

    def _link_table(self) -> _LinkTable:
        """Every installed link, flattened; rebuilt per structural change."""
        circuits = tuple(self.overlay.circuits.values())
        table = self._links
        if table is None or not table.current(circuits):
            table = self._links = _LinkTable(circuits)
        return table

    def calibrate(self) -> int:
        """Write calibrated rates into every installed circuit now.

        Measured mode takes the EWMA of each link's realized
        tuples/tick — or, with ``calibrate_quantile`` set, the windowed
        quantile of the raw samples, provisioning for bursts above the
        mean; links with fewer than ``min_observations`` samples keep
        their current estimate.  Oracle mode takes the data plane's
        analytic true rates.  Parallel links sharing a (source, target)
        pair alias one measurement key (their counts sum), so they keep
        their priors rather than absorb each other's traffic.  Rates
        are floored at ``min_rate``.

        Every installed link is priced in one gather over the cached
        link table (one estimator call, or one truth lookup), and only
        circuits whose rates changed are written, through
        :meth:`Overlay.set_link_rates`: their rate columns (what the
        evaluators and every re-optimizer pass price) and their usage
        rows.  Returns the number of links whose rate changed.
        """
        cfg = self.config
        table = self._link_table()
        keys = table.keys
        prior = np.fromiter(
            itertools.chain.from_iterable(c.link_rates for c in table.circuits),
            dtype=float,
            count=len(keys),
        )
        if self.oracle:
            truth = self.data_plane.true_link_rates()
            value = np.fromiter(
                (truth.get(key, np.nan) for key in keys), dtype=float, count=len(keys)
            )
            use = ~np.isnan(value)
        else:
            if cfg.calibrate_quantile is not None:
                value = self.link_rates.quantile(cfg.calibrate_quantile, keys)
            else:
                value = self.link_rates.rates(keys)
            use = self.link_rates.seen_counts(keys) >= cfg.min_observations
        use &= ~table.aliased
        rates = np.where(use, np.maximum(cfg.min_rate, value), prior)
        moved = rates != prior
        changed = int(moved.sum())
        if not changed:
            return 0
        bounds = table.bounds
        for c in np.unique(table.circuit_of[moved]):
            circuit = table.circuits[c]
            self.overlay.set_link_rates(circuit.name, rates[bounds[c] : bounds[c + 1]])
        self.calibrations += 1
        return changed

    def cpu_reference(self) -> float | None:
        """Cost units/tick of a fully loaded node, for the write-back.

        Resolution order: ``ControlConfig.cpu_ref``, then the
        overlay's own reference (set when a cost-typed load process
        feeds :meth:`Overlay.set_background_cost` — background and
        measured cost then share one ``cpu_ref`` by construction),
        then the data plane's ``node_capacity``, then ``shed_limit``;
        None (and a skipped write-back) when none of them is
        configured.
        """
        cfg = self.config
        if cfg.cpu_ref is not None:
            return cfg.cpu_ref
        overlay_ref = self.overlay.cpu_reference()
        if overlay_ref is not None:
            return overlay_ref
        if self.data_plane.config.node_capacity is not None:
            return float(self.data_plane.config.node_capacity)
        if cfg.shed_limit is not None:
            return cfg.shed_limit
        return None

    def calibrate_cpu(self) -> int:
        """Write measured per-node CPU load into the load dimension.

        The measured cost rates (EWMA, or the windowed
        ``calibrate_quantile``) are normalized by the cost-rate
        reference, clipped to [0, 1], and handed to
        :meth:`Overlay.set_measured_cpu`; the cost space's load
        dimension then reflects real compute pressure and the next
        re-optimization pass places away from CPU-hot nodes.  Returns
        the number of nodes written (0 when disabled or no reference
        exists).
        """
        cfg = self.config
        ref = self.cpu_reference()
        if not cfg.cpu_calibrate or ref is None:
            return 0
        keys = range(self.overlay.num_nodes)
        if cfg.calibrate_quantile is not None:
            cpu = self.node_cpu.quantile(cfg.calibrate_quantile, keys)
        else:
            cpu = self.node_cpu.rates(keys)
        self.overlay.set_measured_cpu(np.clip(cpu / ref, 0.0, 1.0))
        self.overlay.refresh_cost_space()
        self.cpu_calibrations += 1
        return int(len(cpu))

    def fit_cost_drift(self) -> np.ndarray | None:
        """Regress measured node cost on per-kind processed counts.

        Least-squares over the accumulated normal equations gives the
        *fitted* per-tuple cost of each operator kind; dividing by the
        load model's *priced* base coefficients yields the drift ratio
        published as :attr:`cost_drift` (NaN for kinds never observed).
        A ratio near 1 means the pricing the autoscaler's breach signal
        relies on tracks reality; join/aggregate ratios above 1 are
        expected when their dynamic probe/batch terms are active, since
        the fit folds those into the base coefficient.  Runs at each
        calibration; returns the fresh ratios (None before any data).
        """
        if self._drift_ticks == 0:
            return None
        seen = np.diag(self._drift_xtx) > 0
        fitted = np.full(4, np.nan)
        if seen.any():
            sub = self._drift_xtx[np.ix_(seen, seen)]
            coef, *_ = np.linalg.lstsq(sub, self._drift_xty[seen], rcond=None)
            fitted[seen] = coef
        model = self.data_plane.load_model
        self.cost_drift = fitted / model.kind_costs()
        if self.events is not None:
            self.events.emit(
                self.ticks,
                "cost_drift",
                ratios=[None if np.isnan(r) else float(r) for r in self.cost_drift],
            )
        return self.cost_drift

    def apply_cost_drift(self) -> LoadModel | None:
        """Fold the fitted effective costs back into the live load model.

        Each observed kind's base coefficient is replaced by the fitted
        per-tuple cost re-quantized to the dyadic 1/256 grid (floored at
        1/256), and the dynamic coefficient the fit folded in (probe /
        batch) is zeroed once the fold moves that base — after that the
        priced and fitted costs coincide, so subsequent drift ratios
        settle at 1 instead of re-adding the dynamic term to the base at
        every calibration.  Unseen kinds keep their
        priced coefficients and dynamic terms.  The accumulated normal
        equations are reset so the next fit measures the new pricing
        regime cleanly.  Returns the model pushed to the data plane
        (None when there is no drift estimate or nothing changed).
        """
        drift = self.cost_drift
        if drift is None or not np.isfinite(drift).any():
            return None
        model = self.data_plane.load_model
        base = model.kind_costs()
        quant = np.round(base * drift * 256.0) / 256.0
        new = np.where(np.isfinite(drift), np.maximum(quant, 1.0 / 256.0), base)
        fields = {
            "relay_cost": float(new[KIND_RELAY]),
            "filter_cost": float(new[KIND_FILTER]),
            "aggregate_cost": float(new[KIND_AGGREGATE]),
            "join_cost": float(new[KIND_JOIN]),
        }
        # Retire a dynamic coefficient only when the fold actually moved
        # its base — a ratio of exactly 1 (e.g. joins observed before
        # any state built up, so zero probes were charged) means there
        # was nothing to fold yet, and zeroing the term then would lock
        # in under-pricing once state does accumulate.
        if np.isfinite(drift[KIND_AGGREGATE]) and (
            fields["aggregate_cost"] != model.aggregate_cost
        ):
            fields["aggregate_batch_cost"] = 0.0
        if np.isfinite(drift[KIND_JOIN]) and (
            fields["join_cost"] != model.join_cost
        ):
            fields["probe_cost"] = 0.0
        calibrated = replace(model, **fields)
        self._drift_xtx[:] = 0.0
        self._drift_xty[:] = 0.0
        self._drift_ticks = 0
        if calibrated == model:
            return None
        self.data_plane.set_load_model(calibrated)
        if self.events is not None:
            self.events.emit(
                self.ticks,
                "load_model_calibrated",
                kind_costs=[float(c) for c in calibrated.kind_costs()],
                probe_cost=calibrated.probe_cost,
                batch_cost=calibrated.aggregate_batch_cost,
            )
        return calibrated

    # -- policies ------------------------------------------------------------

    def _shed_policy(
        self, armed: bool
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        cfg = self.config
        if cfg.shed_limit is None or not armed:
            return (), ()
        # The shed currency is measured CPU cost units per tick (equal
        # to processed tuple counts under the unit load model).
        cpu = self.node_cpu.rates()
        overloaded = cpu > cfg.shed_limit
        relaxed = cpu < cfg.shed_release * cfg.shed_limit
        newly = tuple(
            int(i)
            for i in np.flatnonzero(overloaded)
            if int(i) not in self.shed_nodes
        )
        released = tuple(
            int(i) for i in np.flatnonzero(relaxed) if int(i) in self.shed_nodes
        )
        for node in newly:
            self.data_plane.set_shed_limit(node, cfg.shed_limit)
            self.shed_nodes.add(node)
        for node in released:
            self.data_plane.set_shed_limit(node, None)
            self.shed_nodes.discard(node)
        return newly, released

    def _trigger_policy(self, armed: bool) -> tuple[bool, tuple[int, ...]]:
        cfg = self.config
        if not armed:
            return False, ()
        if (
            self._last_trigger is not None
            and self.ticks - self._last_trigger < cfg.trigger_cooldown
        ):
            return False, ()
        reasons = []
        if cfg.drop_threshold is not None and self.drop_ewma > cfg.drop_threshold:
            reasons.append("drop_ewma")
        if (
            cfg.latency_threshold_ms is not None
            and self.latency_ewma > cfg.latency_threshold_ms
        ):
            reasons.append("latency_ewma")
        if not reasons:
            return False, ()
        self._last_trigger = self.ticks
        self.triggers += 1
        self.last_trigger_reason = "+".join(reasons)
        excluded: tuple[int, ...] = ()
        if cfg.exclude_drop_rate is not None:
            drops = self.node_drops.rates()
            excluded = tuple(
                int(i) for i in np.flatnonzero(drops > cfg.exclude_drop_rate)
            )
        return True, excluded

    def _buffer_policy(self, armed: bool) -> tuple[tuple[str, str], ...]:
        """Name services whose retransmit backlog breached the bound.

        The simulator forces a re-placement of every named service in
        the same tick (mapper excluding the backlogged host), so the
        buffered tuples re-home to the new host and redeliver instead
        of waiting for the dead node to return.
        """
        cfg = self.config
        if cfg.buffer_evacuate_backlog is None or not armed:
            return ()
        backlog = self.data_plane.buffered_backlog()
        hot = tuple(
            sorted(
                key
                for key, count in backlog.items()
                if count >= cfg.buffer_evacuate_backlog
            )
        )
        if hot:
            self.buffer_evacuations += 1
        return hot
