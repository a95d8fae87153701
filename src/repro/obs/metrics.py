"""Labeled metrics registry: array-backed counters, gauges, histograms.

The registry is built for the data plane's flush model: nothing is
recorded per event.  Each subsystem already accumulates its per-tick
statistics into arrays (``tick_node_cpu``, ``tick_node_drops``,
``tick_link_tuples``, the tick's latency column), and the registry
ingests them with **one vectorized add per metric per tick** — a
:class:`VectorMetric` add is ``values += arr``, a :class:`KeyedMetric`
add is one ``np.add.at`` scatter through an index map cached by the
key-list's identity (the same trick the control plane's
:class:`~repro.control.estimator.RateEstimator` uses for link keys),
and a :class:`Histogram` observe is one ``searchsorted`` + ``bincount``
scatter.  No per-event Python anywhere.

Exported two ways: Prometheus-style text exposition
(:meth:`MetricsRegistry.to_prometheus`) and JSONL
(:meth:`MetricsRegistry.to_jsonl`), both offline-only — exporting never
touches the hot loop.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = [
    "MetricsRegistry",
    "ScalarMetric",
    "VectorMetric",
    "KeyedMetric",
    "Histogram",
]


class ScalarMetric:
    """One unlabeled value: a cumulative counter or a point-in-time gauge."""

    def __init__(self, name: str, kind: str, help: str = "") -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.value = 0.0

    def inc(self, v: float = 1.0) -> None:
        self.value += v

    def set(self, v: float) -> None:
        """Overwrite the value (gauges, or counters mirroring an
        already-cumulative source counter)."""
        self.value = float(v)

    def to_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind, "value": self.value}

    def prometheus_lines(self, ns: str) -> list[str]:
        return [f"{ns}_{self.name} {_fmt(self.value)}"]


class VectorMetric:
    """One value per dense integer label (e.g. per node id).

    ``values[i]`` belongs to label value ``i``; the array auto-grows if
    a larger batch arrives (installs can add nodes in principle).
    """

    def __init__(
        self, name: str, kind: str, size: int, label: str = "node", help: str = ""
    ) -> None:
        self.name = name
        self.kind = kind
        self.label = label
        self.help = help
        self.values = np.zeros(size)

    def _fit(self, n: int) -> None:
        if n > self.values.size:
            fresh = np.zeros(n)
            fresh[: self.values.size] = self.values
            self.values = fresh

    def add(self, arr: np.ndarray) -> None:
        self._fit(arr.size)
        self.values[: arr.size] += arr

    def set(self, arr: np.ndarray) -> None:
        self._fit(arr.size)
        self.values[: arr.size] = arr

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "label": self.label,
            "values": self.values.tolist(),
        }

    def prometheus_lines(self, ns: str) -> list[str]:
        idx = np.flatnonzero(self.values)
        return [
            f'{ns}_{self.name}{{{self.label}="{int(i)}"}} {_fmt(self.values[i])}'
            for i in idx
        ]


class KeyedMetric:
    """One value per tuple-valued key (e.g. per (circuit, src, dst) link).

    :meth:`add` takes the caller's *key list* plus an aligned value
    array; the key→column map is rebuilt only when the list object's
    identity changes (the data plane reuses its ``link_keys()`` list
    until a structural change), so the steady-state flush is a cached
    index lookup plus one ``np.add.at``.
    """

    def __init__(
        self, name: str, kind: str, labels: tuple[str, ...], help: str = ""
    ) -> None:
        self.name = name
        self.kind = kind
        self.labels = labels
        self.help = help
        self._index: dict[tuple, int] = {}
        self._values = np.zeros(0)
        self._cached_keys: list | None = None
        self._cached_cols: np.ndarray | None = None

    def _columns(self, keys: list) -> np.ndarray:
        if keys is not self._cached_keys:
            cols = np.empty(len(keys), dtype=np.int64)
            for i, key in enumerate(keys):
                col = self._index.get(key)
                if col is None:
                    col = self._index[key] = len(self._index)
                cols[i] = col
            if len(self._index) > self._values.size:
                fresh = np.zeros(len(self._index))
                fresh[: self._values.size] = self._values
                self._values = fresh
            self._cached_keys = keys
            self._cached_cols = cols
        return self._cached_cols

    def add(self, keys: list, arr: np.ndarray) -> None:
        if not keys:
            return
        # Resolve columns first: _columns may grow (replace) _values.
        cols = self._columns(keys)
        np.add.at(self._values, cols, arr)

    def set(self, keys: list, arr: np.ndarray) -> None:
        """Overwrite the keyed values (gauge semantics): columns not in
        ``keys`` keep their last-set value."""
        if not keys:
            return
        cols = self._columns(keys)
        self._values[cols] = arr

    def items(self) -> list[tuple[tuple, float]]:
        return [(key, float(self._values[col])) for key, col in self._index.items()]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "labels": list(self.labels),
            "values": [
                {"key": [str(k) for k in key], "value": value}
                for key, value in self.items()
            ],
        }

    def prometheus_lines(self, ns: str) -> list[str]:
        lines = []
        for key, value in self.items():
            if not value:
                continue
            label_str = ",".join(
                f'{label}="{part}"' for label, part in zip(self.labels, key)
            )
            lines.append(f"{ns}_{self.name}{{{label_str}}} {_fmt(value)}")
        return lines


class Histogram:
    """Fixed-bucket histogram observed one array at a time.

    ``edges`` are the inclusive upper bounds of the finite buckets; an
    implicit +Inf bucket catches the rest.  Observing a batch is one
    ``searchsorted`` plus one ``bincount`` scatter.
    """

    kind = "histogram"

    def __init__(self, name: str, edges, help: str = "") -> None:
        self.name = name
        self.help = help
        self.edges = np.asarray(edges, dtype=np.float64)
        if self.edges.size == 0 or (np.diff(self.edges) <= 0).any():
            raise ValueError("edges must be non-empty and strictly increasing")
        self.counts = np.zeros(self.edges.size + 1, dtype=np.int64)
        self.sum = 0.0
        self.count = 0

    def observe(self, arr: np.ndarray) -> None:
        if arr.size == 0:
            return
        idx = np.searchsorted(self.edges, arr, side="left")
        self.counts += np.bincount(idx, minlength=self.counts.size)
        self.sum += float(arr.sum())
        self.count += int(arr.size)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "edges": self.edges.tolist(),
            "counts": self.counts.tolist(),
            "sum": self.sum,
            "count": self.count,
        }

    def prometheus_lines(self, ns: str) -> list[str]:
        lines = []
        cum = np.cumsum(self.counts)
        for edge, c in zip(self.edges, cum[:-1]):
            lines.append(f'{ns}_{self.name}_bucket{{le="{_fmt(edge)}"}} {int(c)}')
        lines.append(f'{ns}_{self.name}_bucket{{le="+Inf"}} {int(cum[-1])}')
        lines.append(f"{ns}_{self.name}_sum {_fmt(self.sum)}")
        lines.append(f"{ns}_{self.name}_count {self.count}")
        return lines


def _fmt(v: float) -> str:
    f = float(v)
    return str(int(f)) if f == int(f) else repr(f)


class MetricsRegistry:
    """Create-or-get registry of named metrics with text/JSONL export."""

    def __init__(self, namespace: str = "repro") -> None:
        self.namespace = namespace
        self._metrics: dict[str, object] = {}

    def _get(self, name: str, factory):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = factory()
        return metric

    def counter(self, name: str, help: str = "") -> ScalarMetric:
        return self._get(name, lambda: ScalarMetric(name, "counter", help))

    def gauge(self, name: str, help: str = "") -> ScalarMetric:
        return self._get(name, lambda: ScalarMetric(name, "gauge", help))

    def vector_counter(
        self, name: str, size: int, label: str = "node", help: str = ""
    ) -> VectorMetric:
        return self._get(
            name, lambda: VectorMetric(name, "counter", size, label, help)
        )

    def keyed_counter(
        self, name: str, labels: tuple[str, ...], help: str = ""
    ) -> KeyedMetric:
        return self._get(name, lambda: KeyedMetric(name, "counter", labels, help))

    def keyed_gauge(
        self, name: str, labels: tuple[str, ...], help: str = ""
    ) -> KeyedMetric:
        return self._get(name, lambda: KeyedMetric(name, "gauge", labels, help))

    def histogram(self, name: str, edges, help: str = "") -> Histogram:
        return self._get(name, lambda: Histogram(name, edges, help))

    def get(self, name: str):
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> list[str]:
        return list(self._metrics)

    def to_prometheus(self) -> str:
        """Prometheus text exposition of every registered metric."""
        ns = self.namespace
        lines: list[str] = []
        for metric in self._metrics.values():
            if metric.help:
                lines.append(f"# HELP {ns}_{metric.name} {metric.help}")
            lines.append(f"# TYPE {ns}_{metric.name} {metric.kind}")
            lines.extend(metric.prometheus_lines(ns))
        return "\n".join(lines) + "\n"

    def to_jsonl(self, path) -> None:
        """One JSON object per metric."""
        with open(path, "w") as fh:
            for metric in self._metrics.values():
                fh.write(json.dumps(metric.to_dict()) + "\n")
