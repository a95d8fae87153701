"""Tick-driven SBON simulation: dynamics + periodic re-optimization.

The simulation advances in discrete ticks.  Each tick:

1. background load and latency drift step (and hotspots fire),
2. optional churn fails/recovers nodes; failed hosts are evacuated,
3. the cost space refreshes its scalar (load) dimensions,
4. every ``reopt_interval`` ticks, the re-optimizer runs one local pass
   over every installed circuit,
5. the data plane, controller and autoscaler step (a controller may
   demand a re-placement or a buffer evacuation),
6. the true network usage and load statistics are recorded.

Every move is applied through the overlay and counts once in
``TickRecord.migrations``: a re-optimization pass's moves in one
``Overlay.apply_migrations`` batch, churn and buffer evacuation moves
one ``Overlay.apply_migration`` each.  Both evacuations are forced
passes (:meth:`Reoptimizer.evacuate`) run by one helper.

This is the harness behind the re-optimization experiments (E7): with
re-optimization disabled the usage series degrades as conditions drift;
with it enabled the system tracks the moving optimum.

With ``data_plane=True`` (or an explicit
:class:`~repro.runtime.dataplane.DataPlane`), every installed circuit is
additionally *executed* each tick: sources emit real tuple batches,
operators join/filter/aggregate them, and the tick record gains the
measured traffic — delivered/dropped counts, measured network usage,
and end-to-end latency percentiles (E18).

With ``control=True`` (or an explicit
:class:`~repro.control.controller.Controller`), the loop closes: right
after the data plane executes, the controller ingests the tick's
measured statistics, periodically calibrates the circuits' estimated
link rates (the columns every re-optimizer pass reads) from the
measured rates, and — when measured drops or latency breach policy —
requests an immediate backpressure-aware re-placement, which runs in
the same tick with the controller's drop-hot nodes excluded as
targets.

Performance architecture (struct-of-arrays)
-------------------------------------------

:meth:`Simulation.step` is array-backed end to end: each dynamics
process advances with one RNG draw + vectorized update, liveness
changes apply as one mask diff (``Overlay.apply_liveness``), the cost
space refreshes all scalar dimensions in one ``update_metrics`` batch,
the re-optimizer prices every installed circuit from one batched
mapping pass (``Reoptimizer.step_all``), and the usage/load statistics
are single array reductions.  :meth:`step_scalar` composes the retained
per-node / per-pair / per-candidate scalar references over the *same*
RNG draws, serving as the equivalence ground truth and the before-side
of the E17 benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.control.controller import Controller
from repro.core.costs import GroundTruthEvaluator
from repro.core.reoptimizer import Reoptimizer
from repro.network.dynamics import ChurnProcess, LatencyDriftProcess, LoadProcess
from repro.runtime.dataplane import NO_PHASES, DataPlane
from repro.sbon.metrics import TickRecord, TimeSeries
from repro.sbon.overlay import Overlay

__all__ = ["SimulationConfig", "Simulation"]


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of the tick loop.

    Attributes:
        reopt_interval: ticks between re-optimization passes; 0 disables
            re-optimization entirely (the static baseline).
        migration_threshold: hysteresis passed to the re-optimizer;
            finite and >= 0 (checked here, not at the first reopt tick).
        use_ground_truth_for_reopt: if True the re-optimizer prices
            circuits with true latencies/loads (omniscient variant);
            if False it uses cost-space estimates (deployable variant).
        load_weight: load-penalty weight in re-optimization decisions;
            finite and >= 0.

    Bulk re-optimization always runs the fused cross-circuit pass
    (:meth:`Reoptimizer.step_all`); :meth:`Simulation.step_scalar`
    runs its oracle (:meth:`Reoptimizer.step_all_scalar`).
    """

    reopt_interval: int = 10
    migration_threshold: float = 0.02
    use_ground_truth_for_reopt: bool = False
    load_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.reopt_interval < 0:
            raise ValueError("reopt_interval must be >= 0")
        for name in ("migration_threshold", "load_weight"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0")


class Simulation:
    """Owns an overlay plus its dynamic processes and runs the tick loop."""

    def __init__(
        self,
        overlay: Overlay,
        load_process: LoadProcess | None = None,
        latency_drift: LatencyDriftProcess | None = None,
        churn: ChurnProcess | None = None,
        config: SimulationConfig | None = None,
        data_plane: DataPlane | bool | None = None,
        control: Controller | bool | None = None,
        autoscaler=None,
        obs=None,
    ):
        self.overlay = overlay
        self.load_process = load_process
        self.latency_drift = latency_drift
        self.churn = churn
        self.config = config or SimulationConfig()
        if data_plane is True:
            self.data_plane: DataPlane | None = DataPlane(overlay)
        elif data_plane is False:
            self.data_plane = None
        else:
            self.data_plane = data_plane
        self.series = TimeSeries()
        self.tick = 0
        # Re-optimizer decision counters, accumulated across the fresh
        # per-pass Reoptimizer instances (observability only).
        self.reopt_accepts = 0
        self.reopt_rejects = 0
        self.reopt_arena_builds = 0
        # Observability layer (repro.obs.Observability) or None; wired
        # into the data plane and (below) the controller's event log.
        self.obs = obs
        if obs is not None and self.data_plane is not None:
            self.data_plane.attach_obs(obs)
        # Circuit kernels compiled by the re-optimizer survive across
        # ticks (structure only; the rates are the circuits' columns,
        # which the controller's calibration writes).
        self._kernel_cache: dict = {}
        if control is True:
            if self.data_plane is None:
                raise ValueError("control=True requires a data plane")
            self.controller: Controller | None = Controller(self.data_plane)
        elif control is False or control is None:
            self.controller = None
        else:
            self.controller = control
        if obs is not None and self.controller is not None:
            self.controller.events = obs.events
        # Optional elastic-scaling policy (repro.scaling.AutoScaler):
        # steps right after the controller, so scale decisions see the
        # same tick's measured CPU the controller just ingested.
        self.autoscaler = autoscaler
        if obs is not None and self.autoscaler is not None:
            self.autoscaler.events = obs.events
            self.autoscaler.registry = obs.registry

    def _make_reoptimizer(self) -> Reoptimizer:
        mapper = self.overlay.exhaustive_mapper()
        if self.config.use_ground_truth_for_reopt:
            evaluator = GroundTruthEvaluator(
                self.overlay.latencies, self.overlay.loads()
            )
        else:
            evaluator = self.overlay.estimate_evaluator()
        return Reoptimizer(
            self.overlay.cost_space,
            mapper=mapper,
            evaluator=evaluator,
            migration_threshold=self.config.migration_threshold,
            load_weight=self.config.load_weight,
            kernel_cache=self._kernel_cache,
        )

    def _harvest_reopt(self, reopt: Reoptimizer) -> None:
        """Fold a fresh pass instance's decision counters into the sim."""
        self.reopt_accepts += reopt.accepts
        self.reopt_rejects += reopt.rejects
        self.reopt_arena_builds += reopt.arena_builds

    def _advance(self, scalar: bool) -> TickRecord:
        """Advance one tick via the vectorized or the scalar-reference path."""
        self.tick += 1
        migrations = 0
        failures = 0
        obs = self.obs
        prof = NO_PHASES if obs is None or obs.profiler is None else obs.profiler

        # 1. Background load drift.  A cost-typed process (cpu_capacity
        # set) hands the overlay raw cost units plus its reference, so
        # load stays one currency end to end; fraction-typed processes
        # keep the legacy write.  Either way the step consumed the same
        # RNG draw, so scalar/vector twins stay aligned.
        if self.load_process is not None:
            prof.begin("load")
            loads = (
                self.load_process.step_scalar()
                if scalar
                else self.load_process.step()
            )
            if self.load_process.cpu_capacity is not None:
                self.overlay.set_background_cost(
                    self.load_process.loads_cost(), self.load_process.cpu_capacity
                )
            else:
                self.overlay.set_background_loads(loads)
            prof.end()

        # 2. Latency drift.
        if self.latency_drift is not None:
            prof.begin("drift")
            self.overlay.latencies = (
                self.latency_drift.step_scalar()
                if scalar
                else self.latency_drift.step()
            )
            prof.end()

        # 3. Churn: fail nodes, evacuate their services.
        if self.churn is not None:
            prof.begin("churn")
            newly_failed = (
                self.churn.step_scalar() if scalar else self.churn.step()
            )
            failures = len(newly_failed)
            self.overlay.apply_liveness(self.churn.alive_mask())
            if newly_failed:
                circuits = self.overlay.circuits.values()
                migrations += self._evacuate(
                    ((c, n) for c in circuits for n in newly_failed if n in c.hosts()),
                    scalar,
                )
            prof.end()

        # 4. Refresh cost space; maybe re-optimize.
        prof.begin("reopt")
        self.overlay.refresh_cost_space()
        if (
            self.config.reopt_interval
            and self.tick % self.config.reopt_interval == 0
        ):
            migrations += self._reoptimize_all(scalar=scalar)
        prof.end()

        # 5. Execute the data plane: real tuples flow over the (possibly
        # just-migrated) placements, re-homing in-flight traffic.
        traffic = None
        if self.data_plane is not None:
            prof.begin("data_plane")
            traffic = (
                self.data_plane.step_scalar() if scalar else self.data_plane.step()
            )
            prof.end()

        # 6. Close the loop: the controller ingests the measurements,
        # calibrates estimates, and may demand a re-placement now.
        control = None
        if self.controller is not None and traffic is not None:
            prof.begin("control")
            control = (
                self.controller.step_scalar(traffic)
                if scalar
                else self.controller.step(traffic)
            )
            if control.replace_triggered:
                migrations += self._reoptimize_all(
                    scalar=scalar, exclude=control.excluded_nodes
                )
            if control.evacuate_services:
                # Services under retransmit-buffer pressure leave their
                # current host, so the buffered tuples re-home and
                # redeliver this tick; pinned ones cannot move.
                live = self.overlay.circuits
                migrations += self._evacuate(
                    (
                        (live[name], live[name].host_of(sid))
                        for name, sid in control.evacuate_services
                        if name in live and sid in live[name].services
                    ),
                    scalar,
                )
            prof.end()

        # 6b. Elastic scaling: the autoscaler folds this tick's measured
        # per-family CPU into its EWMAs and may re-split or merge a
        # replica family (the data plane swaps that circuit's segment on
        # its next sync, re-homing in-flight tuples and per-key state).
        # Decisions are RNG-free, so scalar/vector twins scale identically.
        if self.autoscaler is not None and traffic is not None:
            prof.begin("scaling")
            self.autoscaler.step()
            prof.end()

        # 7. Record.
        prof.begin("record")
        loads = self.overlay.loads_scalar() if scalar else self.overlay.loads()
        usage = (
            self.overlay.total_network_usage_scalar()
            if scalar
            else self.overlay.total_network_usage()
        )
        record = TickRecord(
            tick=self.tick,
            network_usage=usage,
            mean_load=float(loads.mean()) if loads.size else 0.0,
            max_load=float(loads.max()) if loads.size else 0.0,
            migrations=migrations,
            failures=failures,
            circuits=len(self.overlay.circuits),
            emitted=traffic.emitted if traffic else 0,
            delivered=traffic.delivered if traffic else 0,
            dropped=traffic.dropped if traffic else 0,
            data_usage=traffic.usage if traffic else 0.0,
            latency_p50=traffic.latency_p50 if traffic else 0.0,
            latency_p95=traffic.latency_p95 if traffic else 0.0,
            latency_p99=traffic.latency_p99 if traffic else 0.0,
            shed=traffic.shed if traffic else 0,
            redelivered=traffic.redelivered if traffic else 0,
            buffered=traffic.buffered if traffic else 0,
            calibrated_links=control.calibrated_links if control else 0,
            control_triggers=int(control.replace_triggered) if control else 0,
            cpu_cost=traffic.cpu_cost if traffic else 0.0,
            cpu_dropped=traffic.cpu_dropped if traffic else 0.0,
            recompiles=traffic.recompiles if traffic else 0,
        )
        self.series.append(record)
        prof.end()
        if obs is not None:
            obs.simulation_tick(self, record)
        return record

    def step(self) -> TickRecord:
        """Advance one tick; returns the recorded snapshot."""
        return self._advance(scalar=False)

    def step_scalar(self) -> TickRecord:
        """Advance one tick through the retained scalar reference loops.

        Consumes exactly the same RNG draws as :meth:`step`, so twin
        simulations stepped with either method stay equivalent — the
        before/after pair of the E17 benchmark.
        """
        return self._advance(scalar=True)

    def run(self, ticks: int) -> TimeSeries:
        """Advance ``ticks`` ticks; returns the accumulated series."""
        if ticks < 0:
            raise ValueError("ticks must be non-negative")
        for _ in range(ticks):
            self.step()
        return self.series

    def _evacuate(self, pairs, scalar: bool) -> int:
        """Evacuate each ``(circuit, node)`` pair; returns the moves made.

        ``pairs`` is read lazily, so each pair sees the moves of the
        pairs before it.  Every move is a forced pass
        (:meth:`Reoptimizer.evacuate`) followed by
        ``Overlay.apply_migration``; the reoptimizer's mapper already
        excludes every failed node.
        """
        reopt = self._make_reoptimizer()
        evacuate = reopt.evacuate_scalar if scalar else reopt.evacuate
        migrations = 0
        for circuit, node in pairs:
            for migration in evacuate(circuit, node):
                self.overlay.apply_migration(
                    circuit.name, migration.service_id, migration.to_node
                )
                migrations += 1
        self._harvest_reopt(reopt)
        return migrations

    def _reoptimize_all(
        self, scalar: bool = False, exclude: tuple[int, ...] = ()
    ) -> int:
        """One local re-optimization pass over every circuit.

        The vectorized path maps every circuit's migration targets in a
        single batched pass (:meth:`Reoptimizer.step_all`).  ``exclude``
        removes nodes from the candidate pool for this pass only — the
        controller passes its measured drop hot spots here so a
        triggered re-placement is backpressure-aware.  Operator
        families the autoscaler re-split within its cooldown are frozen
        for the pass — their replicas keep the spread homes the scaler
        chose until the hold expires, instead of being herded back by
        the next placement sweep.
        """
        reopt = self._make_reoptimizer()
        for node in exclude:
            reopt.mapper.exclude(node)
        if self.autoscaler is not None:
            reopt.frozen = self.autoscaler.frozen_services()
        circuits = list(self.overlay.circuits.values())
        step_all = reopt.step_all_scalar if scalar else reopt.step_all
        reports = step_all(circuits)
        # step_all already updated circuit.placement; the batch syncs
        # the node-level hosting (load bookkeeping) and usage rows.
        moves = [
            (circuit.name, migration.service_id, migration.to_node)
            for circuit, report in zip(circuits, reports)
            for migration in report.migrations
        ]
        self.overlay.apply_migrations(moves)
        self._harvest_reopt(reopt)
        return len(moves)
