"""The verdict arithmetic of ``benchmarks/ab.py`` on canned bench lines."""

import importlib.util
import json
from pathlib import Path

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
