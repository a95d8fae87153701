"""Tests of the benchmark's own arithmetic and of its one command.

Collected by the plain tier-1 ``pytest -x -q``.  The smoke scale used
here is never the source of a reported number.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from bench import _api, compare, metrics
from bench.__main__ import main
from bench.spans import SpanRecorder, self_times

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


class _Clock:
    """A clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_is_duration_minus_direct_children():
    #  root [0, 10]
    #    a  [1, 4]
    #      b [2, 3]
    #    c  [5, 9]
    start, end, parent = [0.0, 1.0, 2.0, 5.0], [10.0, 4.0, 3.0, 9.0], [-1, 0, 1, 0]
    assert self_times(start, end, parent) == [3.0, 2.0, 1.0, 4.0]
    # Self times of a tree add up to its root's duration.
    assert sum(self_times(start, end, parent)) == end[0] - start[0]


def test_recorder_nests_counts_and_restores():
    clock = _Clock()
    recorder = SpanRecorder(clock)

    class Layer:
        def inner(self, n):
            clock.now += 1.0
            return n

        def outer(self, n):
            clock.now += 2.0
            return self.inner(n) + self.inner(n)

    recorder.patch(Layer, "outer", "layer.outer")
    recorder.patch(Layer, "inner", "layer.inner", lambda args, result: {"units": result})
    assert not recorder.patch(Layer, "gone", "layer.gone")
    assert recorder.missing == ["layer.gone"]

    Layer().outer(5)  # recorder off: passes through, records nothing
    assert recorder.name == []
    recorder.on, recorder.trace_id = True, 7
    assert Layer().outer(5) == 10
    assert recorder.name == ["layer.outer", "layer.inner", "layer.inner"]
    assert recorder.parent == [-1, 0, 0]
    assert recorder.trace == [7, 7, 7]
    assert self_times(recorder.start, recorder.end, recorder.parent) == [2.0, 1.0, 1.0]
    assert recorder.counts == {"units": 10}

    recorder.restore()
    assert "__wrapped__" not in vars(Layer.outer) and "__wrapped__" not in vars(Layer.inner)


def test_per_layer_attributes_every_millisecond_of_the_root():
    clock = _Clock()
    recorder = SpanRecorder(clock)

    def leaf():
        clock.now += 0.003

    leaf = recorder.wrap(leaf, "runtime.dataplane.step")

    def root():
        clock.now += 0.001
        leaf()
        leaf()

    root = recorder.wrap(root, "sbon.simulator.step")
    recorder.on = True
    for _ in range(4):
        root()
    layers = metrics.per_layer(recorder, ops=4, exact={}, phases=None)
    assert layers["sbon.simulator.self_ms"] == pytest.approx(1.0)
    assert layers["runtime.dataplane.self_ms"] == pytest.approx(6.0)
    assert layers["runtime.dataplane.calls"] == 2.0
    assert layers["sbon.simulator.coverage"] == pytest.approx(6.0 / 7.0)
    timed = {"op_ms": [7.0] * 4, "calib_ms": [1.0] * 4}
    both = metrics.trace_host_metrics([timed], timed)
    assert both["trace.overhead_share"] == 0.0 and both["host.disturbed_passes"] == 0
    assert set(layers) | set(both) == set(metrics.PER_LAYER)


def test_median_of_passes_spread_and_disturbed_exclusion():
    assert metrics.disturbed_flags([1.0, 1.1, 1.2]) == [False, False, True]
    # The disturbed pass is left out: two clean ones remain.
    kept = metrics.keep_clean([10.0, 12.0, 30.0], [False, False, True])
    assert metrics.median_spread(kept) == (11.0, pytest.approx(2.0 / 11.0))
    # Only one clean pass would remain: every pass is kept.
    kept = metrics.keep_clean([10.0, 12.0, 30.0], [False, True, True])
    assert metrics.median_spread(kept) == (12.0, pytest.approx(20.0 / 12.0))


def test_operations_are_scaled_by_the_calibration_beside_them():
    def one_pass(slowdown):
        return {
            "op_ms": [4.0 * s for s in slowdown],
            "calib_ms": [1.0 * s for s in slowdown],
            "setup_s": 2.0 * slowdown[0],
            "warm_calib_ms": 1.0 * slowdown[0],
            "peak_rss_mb": 100.0,
            "delivered_share": 0.9,
            "network_usage": 5.0,
        }

    # The same work on a host that is 1x to 1.5x slow at times.
    slowdowns = [1.0, 1.3, 1.0, 1.5, 1.1], [1.1, 1.1, 1.2, 1.3, 1.0]
    rows = metrics.end_to_end([one_pass(s) for s in slowdowns])
    assert rows["op_ms_p50"]["value"] == pytest.approx(4.0)
    assert rows["op_ms_p50"]["raw"] > 4.3
    assert rows["op_ms_slow20"]["value"] == pytest.approx(4.0)
    assert rows["ops_per_s"]["value"] == pytest.approx(250.0)
    assert rows["setup_s"]["value"] == pytest.approx(2.0)
    assert [row["unit"] for row in rows.values()] == [u for u, *_ in metrics.END_TO_END.values()]


def test_an_operation_hit_in_one_pass_only_is_taken_from_the_other():
    def one_pass(op_ms):
        return {
            "op_ms": op_ms, "calib_ms": [1.0] * 5, "setup_s": 1.0, "warm_calib_ms": 1.0,
            "peak_rss_mb": 1.0, "delivered_share": 1.0, "network_usage": 1.0,
        }  # fmt: skip

    rows = metrics.end_to_end(
        [one_pass([2.0, 2.0, 9.0, 2.0, 6.0]), one_pass([2.0, 7.0, 2.0, 2.0, 6.0])]
    )
    assert rows["op_ms_slow20"]["value"] == 6.0  # the slow op both passes saw
    assert rows["op_ms_p50"]["value"] == 2.0


def test_benchmark_json_names_exactly_the_metric_tables():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    assert BENCHMARK["paths"] == ["bench"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(_api.WORKLOADS)
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]
    } == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == metrics.PER_LAYER


def test_smoke_runs_every_workload_and_prints_every_named_metric(tmp_path, capsys):
    started = time.perf_counter()
    code = main(["--scale", "smoke", "--in-process", "--seconds", "0", "--out", str(tmp_path)])
    assert time.perf_counter() - started < 10.0
    assert code == 0
    printed = capsys.readouterr().out
    document = json.loads((tmp_path / "results.json").read_text())
    assert list(document["workloads"]) == list(_api.WORKLOADS)
    for name, summary in document["workloads"].items():
        assert set(summary["end_to_end"]) == set(metrics.END_TO_END)
        assert set(summary["per_layer"]) == set(metrics.PER_LAYER)
        assert summary["missing_entry_points"] == []
        assert (tmp_path / f"trace_{name}.jsonl").stat().st_size > 0
        for metric, row in summary["end_to_end"].items():
            assert row["value"] > 0, (name, metric)
    for metric, (unit, *_) in {**metrics.END_TO_END, **metrics.PER_LAYER}.items():
        assert any(
            line.split()[:1] == [metric] and unit in line.split() for line in printed.splitlines()
        ), metric
    # Separation: layers a workload does not use did no work there.
    layers = {name: s["per_layer"] for name, s in document["workloads"].items()}
    for idle in ("control.controller", "control.estimator", "core.reoptimizer", "scaling.autoscaler"):
        assert layers["dataplane_only"][f"{idle}.calls"] == 0
    for name in _api.WORKLOADS:
        assert (layers[name]["dht.catalog.calls"] > 0) == (name == "optimize_dht")
        assert (layers[name]["runtime.arena.calls"] > 0) == (name == "tenant_churn")


def test_contract_line_has_exactly_the_named_metrics(tmp_path, capsys):
    for trace, table in ((0, metrics.END_TO_END), (1, metrics.PER_LAYER)):
        code = main(
            ["--workload", "tenant_churn", "--scale", "smoke", "--in-process", "--seconds", "0",
             "--seed", "3", "--trace", str(trace), "--out", str(tmp_path)]
        )  # fmt: skip
        assert code == 0
        line = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
        assert {m: v["unit"] for m, v in line["metrics"].items()} == {
            m: row[0] for m, row in table.items()
        }


def test_unbalanced_accounting_fails_the_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(_api._TickCounters, "balanced", lambda self: False)
    code = main(
        ["--workload", "dataplane_only", "--scale", "smoke", "--in-process", "--seconds", "0",
         "--out", str(tmp_path)]
    )  # fmt: skip
    assert code != 0
    captured = capsys.readouterr()
    assert "unbalanced" in captured.err
    assert not captured.out.strip().startswith("{") and not list(tmp_path.iterdir())


def test_compare_verdicts():
    def row(value, spread=0.01):
        return {"value": value, "spread": spread}

    assert compare.verdict("op_ms_p50", row(10.0), row(10.5)) == "no worse"
    assert compare.verdict("op_ms_p50", row(10.0), row(13.0)) == "worse"
    assert compare.verdict("op_ms_p50", row(10.0), row(9.0)) == "improved"
    assert compare.verdict("op_ms_p50", row(10.0, spread=0.3), row(9.0)) == "unresolved"
    assert compare.verdict("ops_per_s", row(100.0), row(70.0)) == "worse"
    assert compare.verdict("ops_per_s", row(100.0), row(120.0)) == "improved"
    # Fixed by the seed: no spread, compared exactly.
    assert compare.verdict("network_usage", row(5.0, 0.0), row(5.0, 0.0)) == "no worse"
    assert compare.verdict("network_usage", row(5.0, 0.0), row(6.5, 0.0)) == "worse"
