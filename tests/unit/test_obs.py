"""Unit tests for the observability layer (repro.obs) and its exports."""

import json

import numpy as np
import pytest

from repro.__main__ import main
from repro.control import ControlConfig, Controller
from repro.core.circuit import Circuit, Service
from repro.core.cost_space import CostSpace, CostSpaceSpec
from repro.network.latency import LatencyMatrix
from repro.obs import LATENCY_EDGES_MS, Observability
from repro.obs.events import EventLog
from repro.obs.metrics import Histogram, KeyedMetric, MetricsRegistry, VectorMetric
from repro.obs.profiler import PhaseProfiler
from repro.obs.trace import EVENT_NAMES, TupleTracer
from repro.query.operators import ServiceSpec
from repro.runtime import DataPlane, RuntimeConfig
from repro.sbon.metrics import SCHEMA_VERSION, TickRecord, TimeSeries
from repro.sbon.overlay import Overlay


class TestMetricsRegistry:
    def test_create_or_get_returns_same_instance(self):
        reg = MetricsRegistry()
        c = reg.counter("ticks")
        assert reg.counter("ticks") is c
        c.inc()
        c.inc(2.0)
        assert c.value == 3.0
        g = reg.gauge("in_flight")
        g.set(7.0)
        assert g.value == 7.0
        assert set(reg.names()) == {"ticks", "in_flight"}
        assert "ticks" in reg and "nope" not in reg

    def test_vector_metric_grows_and_accumulates(self):
        v = VectorMetric("node_processed", "counter", size=2)
        v.add(np.array([1.0, 2.0]))
        v.add(np.array([1.0, 1.0, 5.0]))  # auto-grow preserves old values
        np.testing.assert_allclose(v.values, [2.0, 3.0, 5.0])
        v.set(np.array([9.0]))
        assert v.values[0] == 9.0 and v.values[2] == 5.0

    def test_keyed_metric_caches_by_list_identity(self):
        k = KeyedMetric("link_tuples", "counter", ("circuit", "src", "dst"))
        keys = [("q0", 1, 2), ("q0", 2, 3)]
        k.add(keys, np.array([4.0, 6.0]))
        cached = k._cached_cols
        k.add(keys, np.array([1.0, 1.0]))  # same list object: cached map
        assert k._cached_cols is cached
        assert dict(k.items()) == {("q0", 1, 2): 5.0, ("q0", 2, 3): 7.0}
        # A structurally new list rebuilds the map but keeps columns.
        keys2 = [("q0", 2, 3), ("q1", 0, 1)]
        k.add(keys2, np.array([3.0, 2.0]))
        assert dict(k.items()) == {
            ("q0", 1, 2): 5.0,
            ("q0", 2, 3): 10.0,
            ("q1", 0, 1): 2.0,
        }

    def test_keyed_metric_first_add_grows_storage(self):
        # Regression: np.add.at must scatter into the *grown* array.
        k = KeyedMetric("m", "counter", ("a",))
        k.add([("x",), ("y",)], np.array([1.0, 2.0]))
        assert dict(k.items()) == {("x",): 1.0, ("y",): 2.0}

    def test_histogram_buckets_and_prometheus(self):
        h = Histogram("latency_ms", edges=[1.0, 5.0, 10.0])
        h.observe(np.array([0.5, 1.0, 3.0, 7.0, 100.0]))
        # side="left": a value equal to an edge counts under that edge,
        # matching Prometheus ``le`` (inclusive upper bound) semantics.
        np.testing.assert_array_equal(h.counts, [2, 1, 1, 1])
        assert h.count == 5 and h.sum == pytest.approx(111.5)
        lines = h.prometheus_lines("repro")
        assert 'repro_latency_ms_bucket{le="1"} 2' in lines
        assert 'repro_latency_ms_bucket{le="10"} 4' in lines
        assert 'repro_latency_ms_bucket{le="+Inf"} 5' in lines
        assert "repro_latency_ms_count 5" in lines

    def test_histogram_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Histogram("h", edges=[])
        with pytest.raises(ValueError):
            Histogram("h", edges=[2.0, 1.0])

    def test_prometheus_and_jsonl_export(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("ticks", help="simulation ticks").inc(3)
        reg.vector_counter("node_drops", size=3).add(np.array([0.0, 2.0, 0.0]))
        reg.histogram("lat", LATENCY_EDGES_MS).observe(np.array([4.0]))
        text = reg.to_prometheus()
        assert "# TYPE repro_ticks counter" in text
        assert "# HELP repro_ticks simulation ticks" in text
        assert "repro_ticks 3" in text
        assert 'repro_node_drops{node="1"} 2' in text  # zero rows elided
        assert 'node="0"' not in text
        path = tmp_path / "metrics.jsonl"
        reg.to_jsonl(path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert {r["name"] for r in rows} == {"ticks", "node_drops", "lat"}


class TestPhaseProfiler:
    def test_nested_phases_join_paths(self):
        prof = PhaseProfiler()
        prof.begin("tick")
        prof.begin("data_plane")
        prof.begin("extract")
        prof.end()
        prof.end()
        prof.end()
        assert set(prof.totals) == {
            "tick",
            "tick/data_plane",
            "tick/data_plane/extract",
        }
        assert prof.counts["tick/data_plane/extract"] == 1
        # Outer phases include their children.
        assert prof.totals["tick"] >= prof.totals["tick/data_plane"]

    def test_context_manager_and_report(self):
        prof = PhaseProfiler()
        with prof.phase("a"):
            with prof.phase("b"):
                pass
        assert "a/b" in prof.totals
        assert "a/b" in prof.report()
        assert prof.summary()[0][0] == "a"

    def test_mark_tick_records_deltas(self):
        prof = PhaseProfiler()
        with prof.phase("x"):
            pass
        prof.mark_tick(1)
        prof.mark_tick(2)  # nothing happened: empty delta
        assert prof.per_tick[0]["tick"] == 1 and "x" in prof.per_tick[0]["phases"]
        assert prof.per_tick[1]["phases"] == {}

    def test_to_json(self, tmp_path):
        prof = PhaseProfiler()
        with prof.phase("x"):
            pass
        prof.mark_tick(1)
        path = tmp_path / "profile.json"
        prof.to_json(path)
        data = json.loads(path.read_text())
        assert set(data) == {"totals_s", "calls", "per_tick"}
        assert data["calls"]["x"] == 1


class TestTupleTracer:
    def test_sampling_twins_agree(self):
        tracer = TupleTracer(sample_rate=0.1, salt=0xB5)
        seqs = np.arange(5000, dtype=np.int64)
        mask = tracer.sampled(seqs)
        assert mask.mean() == pytest.approx(0.1, abs=0.02)
        for seq in range(0, 5000, 7):
            assert tracer.sample_one(seq) == bool(mask[seq])

    def test_full_rate_samples_everything(self):
        tracer = TupleTracer(sample_rate=1.0)
        assert tracer.sampled(np.arange(10, dtype=np.int64)) is None
        assert tracer.sample_one(123)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            TupleTracer(sample_rate=0.0)
        with pytest.raises(ValueError):
            TupleTracer(sample_rate=1.5)

    def test_record_and_record_one_agree(self):
        a, b = TupleTracer(1.0), TupleTracer(1.0)
        a.begin_tick(1)
        b.begin_tick(1)
        seqs = np.array([3, 1, 2], dtype=np.int64)
        ops = np.array([0, 1, 0], dtype=np.int64)
        nodes = np.array([5, 6, 5], dtype=np.int64)
        a.record(a.EMIT, seqs, ops, nodes)
        a.record(a.PROCESS, seqs, ops, nodes)
        for s, o, n in zip(seqs, ops, nodes):
            b.record_one(b.EMIT, int(s), int(o), int(n))
        for s, o, n in zip(seqs, ops, nodes):
            b.record_one(b.PROCESS, int(s), int(o), int(n))
        assert a.events_canonical() == b.events_canonical()
        # Canonical order sorts by (tick, seq, event).
        assert [e[1] for e in a.events_canonical()] == [1, 1, 2, 2, 3, 3]

    def test_spans_and_completeness_violation(self):
        tracer = TupleTracer(1.0)
        tracer.begin_tick(1)
        tracer.record_one(tracer.EMIT, 1, 0, 4)
        tracer.record_one(tracer.PROCESS, 1, 0, 5)
        tracer.record_one(tracer.EMIT, 2, 0, 4)  # never terminates
        empty = np.empty(0, dtype=np.int64)
        res = tracer.check_completeness(empty, empty)
        assert not res["ok"]
        assert res["closed"] == 1 and res["open"] == 1
        assert any("open span 2" in v for v in res["violations"])
        # Declaring seq 2 in flight satisfies the invariant.
        res = tracer.check_completeness(np.array([2], dtype=np.int64), empty)
        assert res["ok"]

    def test_jsonl_export_names_events(self, tmp_path):
        tracer = TupleTracer(1.0)
        tracer.begin_tick(3)
        tracer.record_one(tracer.EMIT, 7, 1, 2)
        path = tmp_path / "traces.jsonl"
        tracer.to_jsonl(path)
        row = json.loads(path.read_text().splitlines()[0])
        assert row["event"] == EVENT_NAMES[tracer.EMIT]
        assert row["tick"] == 3 and row["seq"] == 7

    def test_growth_past_initial_capacity(self):
        tracer = TupleTracer(1.0)
        tracer.begin_tick(1)
        n = TupleTracer._INITIAL * 2 + 17
        seqs = np.arange(n, dtype=np.int64)
        tracer.record(tracer.EMIT, seqs, seqs, seqs)
        assert tracer.num_events == n
        np.testing.assert_array_equal(tracer.events()["seq"], seqs)


class TestEventLog:
    def test_emit_filter_and_export(self, tmp_path):
        log = EventLog()
        log.emit(1, "calibration", links=3)
        log.emit(2, "shed_set", nodes=[4], limit=10.0)
        assert len(log) == 2
        assert [e for e in log.events if e["kind"] == "calibration"][0]["links"] == 3
        path = tmp_path / "events.jsonl"
        log.to_jsonl(path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["kind"] for r in rows] == ["calibration", "shed_set"]


class TestTickRecordSchema:
    def test_to_dict_carries_schema_version(self):
        record = TickRecord(tick=1, network_usage=2.0, mean_load=0.5, max_load=1.0)
        d = record.to_dict()
        assert d["schema"] == SCHEMA_VERSION
        assert d["tick"] == 1 and d["network_usage"] == 2.0
        assert set(d) == {"schema"} | set(TickRecord.__dataclass_fields__)

    def test_timeseries_jsonl_roundtrip(self, tmp_path):
        series = TimeSeries()
        for t in (1, 2, 3):
            series.append(
                TickRecord(tick=t, network_usage=1.0, mean_load=0.1, max_load=0.2)
            )
        path = tmp_path / "series.jsonl"
        series.to_jsonl(path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["tick"] for r in rows] == [1, 2, 3]
        assert all(r["schema"] == SCHEMA_VERSION for r in rows)


def _planted_plane(node_capacity=None, rate=6.0, drift=()):
    rng = np.random.default_rng(0)
    points = rng.uniform(0.0, 100.0, size=(12, 2))
    diff = points[:, None, :] - points[None, :, :]
    latencies = LatencyMatrix(np.sqrt((diff**2).sum(axis=-1)))
    spec = CostSpaceSpec.latency_load(vector_dims=2)
    space = CostSpace.from_embedding(spec, points, {"cpu_load": np.zeros(12)})
    overlay = Overlay(latencies, space)
    circuit = Circuit(name="c0")
    circuit.add_service(Service("c0/src", ServiceSpec.relay(), 0, frozenset(("P",))))
    circuit.add_service(Service("c0/f", ServiceSpec.filter(0.5), None, frozenset(("P",))))
    circuit.add_service(Service("c0/sink", ServiceSpec.relay(), 2, frozenset(("P",))))
    circuit.add_link("c0/src", "c0/f", rate)
    circuit.add_link("c0/f", "c0/sink", rate * 0.5)
    circuit.assign("c0/f", 1)
    overlay.install_circuit(circuit)
    config = RuntimeConfig(seed=2, node_capacity=node_capacity, drift=tuple(drift))
    return overlay, DataPlane(overlay, config)


class TestControllerEvents:
    def test_trigger_event_names_reason_and_exclusions(self):
        _, plane = _planted_plane(node_capacity=0.0)
        controller = Controller(
            plane,
            ControlConfig(
                warmup=3, drop_threshold=0.2, trigger_cooldown=5,
                exclude_drop_rate=0.5, calibrate_interval=100,
            ),
        )
        controller.events = EventLog()
        for _ in range(12):
            controller.step(plane.step())
        triggers = [e for e in controller.events if e["kind"] == "replace_triggered"]
        assert triggers, "drop breach never produced an event"
        assert triggers[0]["reason"] == "drop_ewma"
        assert triggers[0]["excluded_nodes"]
        assert triggers[0]["drop_ewma"] > 0.2
        assert controller.last_trigger_reason == "drop_ewma"

    def test_calibration_event_counts_links(self):
        _, plane = _planted_plane()
        controller = Controller(
            plane, ControlConfig(warmup=1, calibrate_interval=2)
        )
        controller.events = EventLog()
        for _ in range(10):
            controller.step(plane.step())
        cals = [e for e in controller.events if e["kind"] == "calibration"]
        assert cals and all("links" in e and "cpu_nodes" in e for e in cals)

    def test_no_event_log_is_fine(self):
        _, plane = _planted_plane()
        controller = Controller(plane, ControlConfig(warmup=1))
        for _ in range(5):
            controller.step(plane.step())  # events=None: no crash


class TestObservabilityFacade:
    def test_attach_after_first_tick_is_refused(self):
        _, plane = _planted_plane()
        plane.step()
        with pytest.raises(RuntimeError, match="first tick"):
            plane.attach_obs(Observability(tracing=True, trace_rate=1.0))
        assert plane._obs is None
        plane.step()  # still steps, untraced

    def test_disabled_components_are_none(self):
        obs = Observability()
        assert obs.tracer is None and obs.registry is None
        assert obs.profiler is None
        assert isinstance(obs.events, EventLog)

    def test_export_writes_only_enabled_components(self, tmp_path):
        obs = Observability(metrics=True)
        obs.registry.counter("ticks").inc()
        written = obs.export(tmp_path)
        assert set(written) == {"metrics_prom", "metrics", "events"}
        assert (tmp_path / "metrics.prom").exists()
        assert not (tmp_path / "traces.jsonl").exists()


BASE = ["--nodes", "40", "--topology", "geometric", "--rounds", "15", "--seed", "1"]


class TestCLIObservability:
    def test_simulate_trace_profile_metrics(self, tmp_path, capsys):
        out_dir = tmp_path / "telemetry"
        assert main(
            BASE
            + [
                "simulate", "--queries", "2", "--ticks", "8",
                "--reopt-interval", "3", "--trace", "--trace-rate", "1.0",
                "--profile", "--metrics-out", str(out_dir),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "trace" in out and "phase" in out
        for name in ("traces.jsonl", "metrics.prom", "metrics.jsonl",
                     "profile.json", "events.jsonl"):
            assert (out_dir / name).exists(), name
        prom = (out_dir / "metrics.prom").read_text()
        assert "# TYPE repro_emitted_total counter" in prom
