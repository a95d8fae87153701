"""Time-series metrics for SBON simulations."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

__all__ = ["TickRecord", "TimeSeries", "SCHEMA_VERSION"]

# Version of the exported TickRecord dict/JSONL schema.  Bump whenever a
# field is added, removed, renamed, or changes meaning; consumers key on
# the ``schema`` field every exported row carries.
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TickRecord:
    """Snapshot of system health at one simulation tick.

    Attributes:
        tick: simulation time.
        network_usage: estimated Σ rate×latency over installed circuits.
        mean_load: mean effective node load.
        max_load: maximum effective node load.
        migrations: service migrations performed this tick.
        failures: node failures this tick.
        circuits: number of installed circuits.
        emitted: tuples emitted by data-plane sources this tick (0
            without a data plane; likewise for the fields below).
        delivered: tuples delivered to consumers this tick.
        dropped: tuples explicitly dropped this tick (backpressure,
            shed limits, dead nodes, uninstalls, buffer overflow).
        data_usage: *measured* network usage — Σ link latency over the
            tuples the data plane actually sent this tick.
        latency_p50: median end-to-end delivery latency (ms).
        latency_p95: 95th-percentile delivery latency (ms).
        latency_p99: 99th-percentile delivery latency (ms).
        shed: tuples dropped this tick by controller shed limits
            (subset of ``dropped``).
        redelivered: buffered tuples the reliable transport re-injected
            this tick.
        buffered: tuples parked in the retransmit buffer after the tick.
        calibrated_links: link rates the controller re-estimated from
            measurements this tick.
        control_triggers: 1 when the controller requested an immediate
            re-placement this tick (its migrations land in
            ``migrations``).
        cpu_cost: measured CPU cost units the data plane consumed this
            tick, summed over nodes (the unified load currency; equal
            to processed tuple counts under the unit load model).
        cpu_dropped: CPU cost units of admission demand rejected this
            tick (capacity + shed, at the admission price).
        recompiles: data-plane segment swaps this tick — one per
            same-name circuit replacement (scale events included);
            installs and uninstalls append and tombstone arena
            segments — the observable for compile churn.
    """

    tick: int
    network_usage: float
    mean_load: float
    max_load: float
    migrations: int = 0
    failures: int = 0
    circuits: int = 0
    emitted: int = 0
    delivered: int = 0
    dropped: int = 0
    data_usage: float = 0.0
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    latency_p99: float = 0.0
    shed: int = 0
    redelivered: int = 0
    buffered: int = 0
    calibrated_links: int = 0
    control_triggers: int = 0
    cpu_cost: float = 0.0
    cpu_dropped: float = 0.0
    recompiles: int = 0

    def to_dict(self) -> dict:
        """All fields plus the ``schema`` version marker."""
        out = {"schema": SCHEMA_VERSION}
        out.update(asdict(self))
        return out


@dataclass
class TimeSeries:
    """An append-only sequence of tick records with summary helpers."""

    records: list[TickRecord] = field(default_factory=list)

    def append(self, record: TickRecord) -> None:
        if self.records and record.tick <= self.records[-1].tick:
            raise ValueError("tick records must be strictly increasing in time")
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def to_jsonl(self, path) -> None:
        """One versioned JSON object per tick record."""
        with open(path, "w") as fh:
            for record in self.records:
                fh.write(json.dumps(record.to_dict()) + "\n")

    def usage_series(self) -> np.ndarray:
        return np.array([r.network_usage for r in self.records])

    def total_migrations(self) -> int:
        return sum(r.migrations for r in self.records)

    def total_failures(self) -> int:
        return sum(r.failures for r in self.records)

    def mean_usage(self) -> float:
        series = self.usage_series()
        return float(series.mean()) if series.size else 0.0

    def final_usage(self) -> float:
        return self.records[-1].network_usage if self.records else 0.0

    def peak_usage(self) -> float:
        series = self.usage_series()
        return float(series.max()) if series.size else 0.0

    def total_delivered(self) -> int:
        return sum(r.delivered for r in self.records)

    def total_dropped(self) -> int:
        return sum(r.dropped for r in self.records)

    def mean_data_usage(self) -> float:
        series = np.array([r.data_usage for r in self.records])
        return float(series.mean()) if series.size else 0.0

    def mean_data_usage_over(self, start: int, stop: int | None = None) -> float:
        """Mean measured usage over a tick window (closed-loop metric)."""
        window = [
            r.data_usage
            for r in self.records
            if r.tick >= start and (stop is None or r.tick < stop)
        ]
        return float(np.mean(window)) if window else 0.0

    def total_shed(self) -> int:
        return sum(r.shed for r in self.records)

    def total_cpu_cost(self) -> float:
        return float(sum(r.cpu_cost for r in self.records))

    def total_cpu_dropped(self) -> float:
        return float(sum(r.cpu_dropped for r in self.records))

    def total_redelivered(self) -> int:
        return sum(r.redelivered for r in self.records)

    def total_calibrated_links(self) -> int:
        return sum(r.calibrated_links for r in self.records)

    def total_control_triggers(self) -> int:
        return sum(r.control_triggers for r in self.records)

    def summary(self) -> dict[str, float]:
        """Headline numbers for experiment tables."""
        out = {
            "ticks": float(len(self)),
            "mean_usage": self.mean_usage(),
            "final_usage": self.final_usage(),
            "peak_usage": self.peak_usage(),
            "migrations": float(self.total_migrations()),
            "failures": float(self.total_failures()),
        }
        if any(r.emitted or r.delivered or r.dropped for r in self.records):
            out["delivered"] = float(self.total_delivered())
            out["dropped"] = float(self.total_dropped())
            out["mean_data_usage"] = self.mean_data_usage()
            out["cpu_cost"] = self.total_cpu_cost()
            if self.total_cpu_dropped():
                out["cpu_dropped"] = self.total_cpu_dropped()
        if any(r.redelivered or r.buffered for r in self.records):
            out["redelivered"] = float(self.total_redelivered())
        if any(r.shed for r in self.records):
            out["shed"] = float(self.total_shed())
        if any(r.calibrated_links or r.control_triggers for r in self.records):
            out["calibrated_links"] = float(self.total_calibrated_links())
            out["control_triggers"] = float(self.total_control_triggers())
        return out
