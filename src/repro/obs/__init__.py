"""End-to-end observability: tuple tracing, metrics, phase profiling.

:class:`Observability` bundles the three instruments and owns the
standard wiring:

* a :class:`~repro.obs.trace.TupleTracer` recording hash-sampled wire
  tuple spans at every lifecycle event (attached to the data plane and
  its transport),
* a :class:`~repro.obs.metrics.MetricsRegistry` flushed once per tick
  from the per-tick statistic arrays every subsystem already exports,
* a :class:`~repro.obs.profiler.PhaseProfiler` threaded through the
  simulator phases and the data plane's kernel stages,
* an :class:`~repro.obs.events.EventLog` the controller appends its
  structured decisions to.

Attach it at construction time::

    obs = Observability(tracing=True, trace_rate=0.01,
                        metrics=True, profiling=True)
    sim = Simulation(overlay, ..., data_plane=plane, obs=obs)
    sim.run(200)
    obs.export("telemetry/")     # traces.jsonl, metrics.prom,
                                 # metrics.jsonl, profile.json,
                                 # events.jsonl

The whole layer is **behaviorally unobservable**: it draws no RNG,
mutates no simulation state, every tracer hook hides behind a single
``is not None`` check, and an unprofiled tick times its phases with a
no-op profiler (``repro.runtime.dataplane.NO_PHASES``) — an obs-on run
produces tick-for-tick identical :class:`~repro.sbon.metrics.
TickRecord` streams to an obs-off run (pinned by
``tests/property/test_obs_properties.py`` and asserted by E22).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import PhaseProfiler
from repro.obs.trace import EVENT_NAMES, TupleTracer

__all__ = [
    "Observability",
    "TupleTracer",
    "MetricsRegistry",
    "PhaseProfiler",
    "EventLog",
    "EVENT_NAMES",
]

# Delivery-latency histogram bucket upper bounds (ms).
LATENCY_EDGES_MS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0)


class Observability:
    """The assembled observability layer (see module docstring).

    Args:
        tracing: enable sampled tuple tracing.
        trace_rate: fraction of wire tuples traced (deterministic
            SplitMix64 bucket of the seq, twin-identical).
        trace_salt: sampling-hash salt.
        metrics: enable the per-tick metrics registry flush.
        profiling: enable the phase profiler.
    """

    def __init__(
        self,
        tracing: bool = False,
        trace_rate: float = 0.01,
        trace_salt: int = 0xB5,
        metrics: bool = False,
        profiling: bool = False,
    ) -> None:
        self.tracer = (
            TupleTracer(trace_rate, trace_salt) if tracing else None
        )
        self.registry = MetricsRegistry() if metrics else None
        self.profiler = PhaseProfiler() if profiling else None
        self.events = EventLog()

    # -- per-tick flushes --------------------------------------------------

    def data_plane_tick(self, plane, latencies: np.ndarray) -> None:
        """Flush one executed tick's data-plane statistics.

        Called by :meth:`DataPlane.step` / :meth:`DataPlane.step_scalar`
        after the tick's arrays are final; every update is one
        vectorized add (see :mod:`repro.obs.metrics`).
        """
        reg = self.registry
        if reg is None:
            return
        n = plane.overlay.num_nodes
        reg.vector_counter(
            "node_processed_total", n, help="tuples processed per node"
        ).add(plane.tick_node_processed)
        reg.vector_counter(
            "node_dropped_total", n, help="admission drops per node"
        ).add(plane.tick_node_drops)
        reg.vector_counter(
            "node_cpu_cost_total", n, help="measured CPU cost units per node"
        ).add(plane.tick_node_cpu)
        reg.keyed_counter(
            "link_tuples_total",
            ("circuit", "source", "target"),
            help="tuples carried per circuit link",
        ).add(plane.link_keys(), plane.tick_link_tuples)

        reg.counter("emitted_total", help="tuples emitted by sources").set(
            plane.emitted
        )
        reg.counter("delivered_total", help="tuples delivered to sinks").set(
            plane.sink_delivered
        )
        reg.counter("processed_total").set(plane.processed)
        reg.counter("dropped_capacity_total").set(plane.dropped_capacity)
        reg.counter("dropped_shed_total").set(plane.dropped_shed)
        reg.counter("dropped_dead_total").set(plane.dropped_dead)
        reg.counter("dropped_uninstalled_total").set(plane.dropped_uninstalled)
        reg.counter("dropped_overflow_total").set(plane.dropped_overflow)
        reg.counter("redelivered_total").set(plane.redelivered)
        reg.counter("recompiles_total").set(plane.recompiles)

        transport = plane._transport
        reg.gauge("in_flight", help="tuples on the wire").set(transport.in_flight)
        reg.gauge("buffered", help="tuples in the retransmit buffer").set(
            transport.buffered
        )
        if latencies.size:
            reg.histogram(
                "latency_ms",
                LATENCY_EDGES_MS,
                help="end-to-end delivery latency (ms)",
            ).observe(latencies)

    def simulation_tick(self, sim, record) -> None:
        """Flush one simulation tick: record-level metrics, re-optimizer
        and controller counters, and the profiler's per-tick mark."""
        reg = self.registry
        if reg is not None:
            reg.gauge("network_usage", help="estimated usage").set(
                record.network_usage
            )
            reg.gauge("data_usage", help="measured usage this tick").set(
                record.data_usage
            )
            reg.gauge("mean_load").set(record.mean_load)
            reg.gauge("max_load").set(record.max_load)
            reg.gauge("circuits").set(record.circuits)
            reg.counter("migrations_total").inc(record.migrations)
            reg.counter("failures_total").inc(record.failures)
            reg.counter("reopt_accepts_total", help="re-optimizer accepted moves").set(
                sim.reopt_accepts
            )
            reg.counter("reopt_rejects_total", help="re-optimizer reverted moves").set(
                sim.reopt_rejects
            )
            reg.counter("reopt_arena_builds_total", help="fused reopt arena rebuilds").set(
                sim.reopt_arena_builds
            )
            controller = sim.controller
            if controller is not None:
                reg.counter("calibrations_total").set(controller.calibrations)
                reg.counter("cpu_calibrations_total").set(
                    controller.cpu_calibrations
                )
                reg.counter("control_triggers_total").set(controller.triggers)
                reg.counter("buffer_evacuations_total").set(
                    controller.buffer_evacuations
                )
                reg.gauge("shed_nodes").set(len(controller.shed_nodes))
                reg.gauge("drop_ewma").set(controller.drop_ewma)
                reg.gauge("latency_ewma_ms").set(controller.latency_ewma)
        if self.profiler is not None:
            self.profiler.mark_tick(record.tick)

    # -- export ------------------------------------------------------------

    def export(self, out_dir) -> dict[str, Path]:
        """Write every enabled instrument's telemetry under ``out_dir``.

        Returns the written paths keyed by artifact name: ``traces``
        (JSONL), ``metrics_prom`` (Prometheus text), ``metrics``
        (JSONL), ``profile`` (JSON), ``events`` (JSONL).
        """
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        written: dict[str, Path] = {}
        if self.tracer is not None:
            path = out / "traces.jsonl"
            self.tracer.to_jsonl(path)
            written["traces"] = path
        if self.registry is not None:
            path = out / "metrics.prom"
            path.write_text(self.registry.to_prometheus())
            written["metrics_prom"] = path
            path = out / "metrics.jsonl"
            self.registry.to_jsonl(path)
            written["metrics"] = path
        if self.profiler is not None:
            path = out / "profile.json"
            self.profiler.to_json(path)
            written["profile"] = path
        path = out / "events.jsonl"
        self.events.to_jsonl(path)
        written["events"] = path
        return written
