"""The verdict arithmetic of ``benchmarks/ab.py`` on canned bench lines."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

BETTER = {
    "op_ms_p50": "lower",
    "ops_per_s": "higher",
    "network_usage": "lower",
    "delivered_share": "higher",
}


def test_directions_come_from_the_bench_tables():
    assert ab.BETTER["op_ms_p50"] == "lower"
    assert ab.BETTER["ops_per_s"] == "higher"
    assert ab.BETTER["delivered_share"] == "higher"
    assert ab.BETTER["runtime.dataplane.self_ms"] == "lower"


def line(p50, ops, usage=100.0, share=1.0, correct=True, failed=0):
    """One run's last output line, as ``python3 -m bench`` prints it."""
    return json.dumps({
        "correct": correct,
        "attempted": 400,
        "failed": failed,
        "metrics": {
            "op_ms_p50": {"value": p50, "unit": "ms"},
            "ops_per_s": {"value": ops, "unit": "1/s"},
            "network_usage": {"value": usage, "unit": "rate.ms"},
            "delivered_share": {"value": share, "unit": "ratio"},
        },
    })


def pairs(*rows):
    return [
        (ab.parse_result("noise\n" + p), ab.parse_result(c)) for p, c in rows
    ]


def row(summary, name):
    return next(r for r in summary["rows"] if r["name"] == name)


class TestSeeds:
    def test_ranges_and_lists(self):
        assert ab.parse_seeds("0-9") == list(range(10))
        assert ab.parse_seeds("3") == [3]
        assert ab.parse_seeds("1,4-6,9") == [1, 4, 5, 6, 9]


class TestWorkloads:
    def test_one_name_or_a_comma_separated_list(self):
        assert ab.parse_workloads("closed_loop") == ["closed_loop"]
        assert ab.parse_workloads("closed_loop, tenant_churn,optimize_dht") == [
            "closed_loop", "tenant_churn", "optimize_dht"
        ]
        with pytest.raises(ValueError):
            ab.parse_workloads("closed_loop,,tenant_churn")

    @staticmethod
    def fake(monkeypatch, p50_of):
        """Canned runs: the change's ``op_ms_p50`` per workload, parent 10."""
        calls = []

        def run(tree, workload, seed, seconds, trace):
            calls.append((workload, seed, tree.name))
            p50 = 10.0 if tree.name == "base" else p50_of[workload]
            return ab.parse_result(line(p50, 100.0))

        monkeypatch.setattr(ab, "_checkout", lambda rev, into: into)
        monkeypatch.setattr(ab, "_run", run)
        return calls

    def test_pairs_run_workload_by_workload_one_table_each(self, monkeypatch, capsys):
        calls = self.fake(monkeypatch, {"a": 10.0, "b": 9.5})
        assert ab.main(["BASE", "HEAD", "--workload", "a,b", "--seeds", "0-1"]) == 0
        assert [(w, seed) for w, seed, _ in calls] == [
            ("a", 0), ("a", 0), ("a", 1), ("a", 1),
            ("b", 0), ("b", 0), ("b", 1), ("b", 1),
        ]
        # Pairs alternate which tree runs first.
        assert [tree for _, _, tree in calls[:4]] == ["base", "head", "head", "base"]
        out = capsys.readouterr().out.splitlines()
        headers = [r for r in out if r.startswith(("a: parent", "b: parent"))]
        assert headers == ["a: parent BASE, change HEAD", "b: parent BASE, change HEAD"]
        assert sum(r.startswith("op_ms_p50") for r in out) == 2

    def test_exits_one_when_any_workload_would(self, monkeypatch, capsys):
        self.fake(monkeypatch, {"a": 10.0, "b": 13.0, "c": 10.0})
        assert ab.main(["BASE", "HEAD", "--workload", "a,b,c", "--seeds", "0-2"]) == 1
        out = capsys.readouterr().out
        assert out.count("outside bound: op_ms_p50") == 1
        assert "c: parent BASE, change HEAD" in out
        self.fake(monkeypatch, {"a": 10.0})
        assert ab.main(["BASE", "HEAD", "--workload", "a", "--seeds", "0-2"]) == 0


class TestSummarize:
    RUNS = pairs(
        (line(10.0, 100.0), line(6.0, 150.0)),
        (line(12.0, 90.0), line(9.0, 120.0)),
        (line(11.0, 95.0), line(11.0, 95.0)),
        (line(9.0, 110.0), line(10.8, 80.0)),
    )

    def test_medians_quartiles_and_ratio(self):
        p50 = row(ab.summarize(self.RUNS, BETTER), "op_ms_p50")
        assert p50["parent"] == pytest.approx((9.75, 10.5, 11.25))
        assert p50["change"] == pytest.approx((8.25, 9.9, 10.85))
        # Per-pair ratios 0.6, 0.75, 1.0, 1.2: their median, not the
        # ratio of medians.
        assert p50["ratio"] == pytest.approx(0.875)

    def test_wins_follow_each_metrics_direction(self):
        summary = ab.summarize(self.RUNS, BETTER)
        # A tie is not a win.
        assert row(summary, "op_ms_p50")["wins"] == 2
        assert row(summary, "ops_per_s")["wins"] == 2
        assert row(summary, "ops_per_s")["ratio"] == pytest.approx(
            (1.0 + 120 / 90) / 2
        )

    def test_clean_runs_pass(self):
        summary = ab.summarize(self.RUNS, BETTER)
        assert summary["incorrect"] == 0
        assert summary["exact_mismatch"] == []

    def test_exact_metrics_compare_exactly(self):
        runs = pairs(
            (line(10.0, 100.0), line(9.0, 100.0)),
            (line(10.0, 100.0, usage=100.0), line(9.0, 100.0, usage=100.0000001)),
        )
        assert ab.summarize(runs, BETTER)["exact_mismatch"] == [("network_usage", 1)]

    def test_incorrect_and_failed_runs_are_counted(self):
        runs = pairs(
            (line(10.0, 100.0, correct=False), line(9.0, 100.0)),
            (line(10.0, 100.0), line(9.0, 100.0, failed=2)),
        )
        assert ab.summarize(runs, BETTER)["incorrect"] == 2


class TestVerdict:
    """The gate on end-to-end metrics, at ``bench.metrics`` bounds."""

    PARENT = [10.0, 10.1, 10.2, 10.3]  # quartiles 10.075 / 10.15 / 10.225

    def judge(self, change, better="lower", bound=0.25, parent=PARENT):
        return ab.verdict(np.array(parent), np.array(change), better, bound)

    def test_lower_is_better_is_outside_above_parent_times_one_plus_bound(self):
        # Bound at 10.15 × 1.25 = 12.6875.
        assert self.judge([12.6, 12.65, 12.7, 12.75]) == "within bound"
        assert self.judge([12.7, 12.75, 12.8, 12.85]) == "outside bound"
        assert self.judge([5.0, 5.0, 5.0, 5.0]) == "within bound"

    def test_higher_is_better_is_outside_below_parent_times_one_minus_bound(self):
        # Bound at 10.15 × 0.95 = 9.6425.
        assert self.judge([9.6, 9.65, 9.7, 9.75], "higher", 0.05) == "within bound"
        assert self.judge([9.5, 9.55, 9.6, 9.65], "higher", 0.05) == "outside bound"
        assert self.judge([20.0] * 4, "higher", 0.05) == "within bound"

    def test_a_noisy_parent_leaves_the_verdict_unresolved(self):
        # Quartile spread 3.0 over a median of 10.0 exceeds 0.25.
        noisy = [6.0, 9.0, 11.0, 14.0]
        assert self.judge([9.0, 10.0, 10.0, 11.0], parent=noisy) == "unresolved"
        assert self.judge([30.0] * 4, parent=noisy) == "unresolved"
        # Unless every change run beats every parent run.
        assert self.judge([5.0, 5.5, 5.8, 5.9], parent=noisy) == "within bound"
        assert self.judge(
            [15.0, 16.0, 17.0, 18.0], "higher", parent=noisy
        ) == "within bound"

    def test_summary_and_report_name_the_end_to_end_verdicts(self, capsys):
        runs = pairs(
            (line(10.0, 100.0), line(13.0, 101.0)),
            (line(10.2, 100.0), line(13.2, 99.0)),
            (line(10.1, 100.0), line(13.1, 100.0)),
        )
        summary = ab.summarize(runs, BETTER)
        assert row(summary, "op_ms_p50")["verdict"] == "outside bound"
        assert row(summary, "ops_per_s")["verdict"] == "within bound"
        ab._report(summary, len(runs))
        out = capsys.readouterr().out.splitlines()
        assert next(r for r in out if r.startswith("op_ms_p50")).endswith("outside bound")
        assert next(r for r in out if r.startswith("ops_per_s")).endswith("within bound")

    def test_exit_code_gates_on_the_bound(self, capsys):
        clean = pairs(*[(line(10.0, 100.0), line(10.0, 100.0))] * 3)
        assert ab.exit_code(ab.summarize(clean, BETTER)) == 0
        slow = pairs(
            (line(10.0, 100.0), line(13.0, 100.0)),
            (line(10.2, 100.0), line(13.2, 100.0)),
            (line(10.1, 100.0), line(13.1, 100.0)),
        )
        summary = ab.summarize(slow, BETTER)
        assert ab.exit_code(summary) == 1
        ab._report(summary, len(slow))
        assert "outside bound: op_ms_p50" in capsys.readouterr().out.splitlines()

    def test_unresolved_is_printed_and_passes(self, capsys):
        noisy = pairs(
            (line(6.0, 100.0), line(9.0, 100.0)),
            (line(9.0, 100.0), line(10.0, 100.0)),
            (line(11.0, 100.0), line(10.0, 100.0)),
            (line(14.0, 100.0), line(11.0, 100.0)),
        )
        summary = ab.summarize(noisy, BETTER)
        assert row(summary, "op_ms_p50")["verdict"] == "unresolved"
        assert ab.exit_code(summary) == 0
        ab._report(summary, len(noisy))
        assert "unresolved: op_ms_p50" in capsys.readouterr().out.splitlines()

    def test_exit_code_gates_on_incorrect_runs_and_exact_mismatches(self):
        wrong = pairs((line(10.0, 100.0), line(10.0, 100.0, correct=False)))
        assert ab.exit_code(ab.summarize(wrong, BETTER)) == 1
        moved = pairs((line(10.0, 100.0), line(10.0, 100.0, share=0.99)))
        assert ab.exit_code(ab.summarize(moved, BETTER)) == 1

    def test_per_layer_lines_get_no_verdict(self):
        runs = pairs(
            (traced(10.0, {"control.estimator.calls": 4.0}),
             traced(10.0, {"control.estimator.calls": 9.0})),
        )
        summary = ab.summarize(runs, ab.BETTER)
        assert row(summary, "control.estimator.calls")["verdict"] is None


def traced(p50, counts, units=None):
    """A traced run's last line: ``op_ms_p50`` plus per-layer lines."""
    metrics = {"op_ms_p50": {"value": p50, "unit": "ms"}}
    for name, value in counts.items():
        unit = (units or {}).get(name, "1/op")
        metrics[name] = {"value": value, "unit": unit}
    return json.dumps({"correct": True, "failed": 0, "metrics": metrics})


class TestCountLines:
    def test_which_lines_count(self):
        assert ab.is_count_line("scaling.autoscaler.events", "1/op")
        assert ab.is_count_line("runtime.transport.buffered_peak", "count")
        assert not ab.is_count_line("control.estimator.self_ms", "ms")
        assert not ab.is_count_line("core.reoptimizer.accept_share", "ratio")
        assert not ab.is_count_line("host.disturbed_passes", "count")
        assert not ab.is_count_line("trace.spans", "1/op")
        assert not ab.is_count_line("ops_per_s", "1/s")

    def test_differing_count_lines_are_listed_with_their_pairs(self):
        units = {
            "runtime.transport.buffered_peak": "count",
            "host.disturbed_passes": "count",
            "control.estimator.self_ms": "ms",
        }
        base = {
            "scaling.autoscaler.events": 0.0,
            "control.estimator.calls": 4.3,
            "runtime.transport.buffered_peak": 12.0,
            "trace.spans": 101.0,
            "host.disturbed_passes": 0.0,
            "control.estimator.self_ms": 1.2,
        }
        moved = dict(
            base,
            **{
                "control.estimator.calls": 4.5,
                "trace.spans": 102.0,
                "host.disturbed_passes": 1.0,
                "control.estimator.self_ms": 0.2,
            },
        )
        runs = pairs(
            (traced(10.0, base, units), traced(9.0, base, units)),
            (traced(10.0, base, units), traced(9.0, moved, units)),
            (traced(10.0, moved, units), traced(9.0, moved, units)),
        )
        summary = ab.summarize(runs, BETTER)
        # Three count lines compared; only the one that moved within a
        # pair is listed, and only with that pair.  Timings, host and
        # trace lines never are.
        assert summary["counts"] == 3
        assert summary["count_mismatch"] == [("control.estimator.calls", [1])]
        assert summary["exact_mismatch"] == []

    def test_untraced_runs_compare_no_count_lines(self):
        summary = ab.summarize(TestSummarize.RUNS, BETTER)
        assert summary["counts"] == 0
        assert summary["count_mismatch"] == []

    def test_report_names_the_differing_lines(self, capsys):
        runs = pairs(
            (traced(10.0, {"scaling.autoscaler.events": 0.0}),
             traced(9.0, {"scaling.autoscaler.events": 0.1})),
        )
        ab._report(ab.summarize(runs, BETTER), 1)
        out = capsys.readouterr().out
        assert "scaling.autoscaler.events: [0]" in out
        runs = pairs(
            (traced(10.0, {"scaling.autoscaler.events": 0.0}),
             traced(9.0, {"scaling.autoscaler.events": 0.0})),
        )
        ab._report(ab.summarize(runs, BETTER), 1)
        assert "all 1 count-valued lines equal in all 1 pairs" in capsys.readouterr().out
