"""Unit tests for statistics and rate estimation."""

import pytest

from repro.query.selectivity import Statistics, rate_of_subset


def simple_stats() -> Statistics:
    return Statistics.build(
        rates={"A": 10.0, "B": 5.0, "C": 2.0},
        pair_selectivities={("A", "B"): 0.1, ("B", "C"): 0.2, ("A", "C"): 0.5},
    )


class TestStatistics:
    def test_rate_lookup(self):
        stats = simple_stats()
        assert stats.rate("A") == 10.0
        with pytest.raises(KeyError):
            stats.rate("Z")

    def test_selectivity_is_symmetric(self):
        stats = simple_stats()
        assert stats.selectivity("A", "B") == stats.selectivity("B", "A") == 0.1

    def test_selectivity_self_undefined(self):
        with pytest.raises(ValueError):
            simple_stats().selectivity("A", "A")

    def test_default_selectivity_for_unknown_pair(self):
        stats = Statistics.build({"A": 1.0, "B": 1.0}, default_selectivity=0.3)
        assert stats.selectivity("A", "B") == 0.3

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            Statistics({"A": -1.0})

    def test_rejects_bad_selectivity(self):
        with pytest.raises(ValueError):
            Statistics({"A": 1.0, "B": 1.0}, {frozenset(("A", "B")): 2.0})

    def test_rejects_non_pair_key(self):
        with pytest.raises(ValueError):
            Statistics({"A": 1.0}, {frozenset(("A",)): 0.5})

    def test_random_stats_valid(self):
        stats = Statistics.random(["X", "Y", "Z"], seed=5)
        for name in ("X", "Y", "Z"):
            assert stats.rate(name) > 0
        assert 0 < stats.selectivity("X", "Y") <= 1

    def test_random_deterministic(self):
        a = Statistics.random(["X", "Y"], seed=1)
        b = Statistics.random(["X", "Y"], seed=1)
        assert a.rates == b.rates and a.selectivities == b.selectivities

    def test_drifted_changes_values_but_stays_valid(self):
        stats = simple_stats()
        drifted = stats.drifted(relative_sigma=0.5, seed=2)
        assert drifted.rate("A") != stats.rate("A")
        for pair, sel in drifted.selectivities.items():
            assert 0 < sel <= 1


class TestRateOfSubset:
    def test_single_producer(self):
        assert rate_of_subset(simple_stats(), {"A"}) == 10.0

    def test_pair(self):
        # 10 * 5 * 0.1 = 5.
        assert rate_of_subset(simple_stats(), {"A", "B"}) == pytest.approx(5.0)

    def test_triple_includes_all_pairs(self):
        # 10*5*2 * 0.1*0.2*0.5 = 100 * 0.01 = 1.
        assert rate_of_subset(simple_stats(), {"A", "B", "C"}) == pytest.approx(1.0)

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            rate_of_subset(simple_stats(), set())

    def test_order_invariance(self):
        stats = simple_stats()
        assert rate_of_subset(stats, {"A", "B", "C"}) == rate_of_subset(
            stats, {"C", "B", "A"}
        )
