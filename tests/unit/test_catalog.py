"""Unit tests for the coordinate catalog (Hilbert keys over Chord)."""

import numpy as np
import pytest

from repro.dht.catalog import CoordinateCatalog
from repro.dht.hilbert import HilbertMapper


def make_catalog(bits=8, ring_size=32) -> CoordinateCatalog:
    mapper = HilbertMapper(lows=(0.0, 0.0), highs=(100.0, 100.0), bits=bits)
    return CoordinateCatalog(mapper, ring_size=ring_size)


class TestPublish:
    def test_publish_and_lookup_self(self):
        catalog = make_catalog()
        catalog.publish(7, [25.0, 75.0])
        entry, _ = catalog.nearest([25.0, 75.0])
        assert entry.physical_node == 7

    def test_republish_updates_coordinate(self):
        catalog = make_catalog()
        catalog.publish(1, [10.0, 10.0])
        catalog.publish(2, [90.0, 90.0])
        catalog.publish(1, [89.0, 89.0])  # node 1 moved
        assert catalog._published[1].coordinate == (89.0, 89.0)
        entry, _ = catalog.nearest([0.0, 0.0])
        # nobody is near the origin anymore; nearest is whichever of the
        # two is closer: both ~126 away, node 1 at (89,89) is closest.
        assert entry.physical_node in (1, 2)

    def test_withdraw(self):
        catalog = make_catalog()
        catalog.publish(3, [50.0, 50.0])
        catalog.withdraw(3)
        entry, _ = catalog.nearest([50.0, 50.0])
        assert entry is None

    def test_withdraw_unknown_raises(self):
        with pytest.raises(KeyError):
            make_catalog().withdraw(9)

    def test_published_nodes_listing(self):
        catalog = make_catalog()
        catalog.publish(5, [1.0, 1.0])
        catalog.publish(2, [2.0, 2.0])
        assert catalog.published_nodes == [2, 5]

    def test_same_cell_nodes_both_stored(self):
        catalog = make_catalog()
        catalog.publish(1, [50.0, 50.0])
        catalog.publish(2, [50.0, 50.0])
        entries, _ = catalog.k_nearest([50.0, 50.0], k=2)
        assert {e.physical_node for e in entries} == {1, 2}


class TestNearest:
    def test_nearest_matches_exhaustive_on_spread_points(self):
        catalog = make_catalog()
        rng = np.random.default_rng(0)
        points = rng.uniform(0, 100, size=(40, 2))
        for node, point in enumerate(points):
            catalog.publish(node, point)
        mismatches = 0
        for _ in range(30):
            query = rng.uniform(0, 100, size=2)
            approx, _ = catalog.nearest(query, scan_width=8)
            exact = catalog.exhaustive_nearest(query)
            if approx.physical_node != exact.physical_node:
                mismatches += 1
        # The scan is approximate but should almost always agree.
        assert mismatches <= 3

    def test_empty_catalog_returns_none(self):
        entry, stats = make_catalog().nearest([1.0, 2.0])
        assert entry is None
        assert stats.candidates == 0

    def test_exclusion(self):
        catalog = make_catalog()
        catalog.publish(1, [10.0, 10.0])
        catalog.publish(2, [12.0, 12.0])
        entry, _ = catalog.nearest([10.0, 10.0], exclude={1})
        assert entry.physical_node == 2

    def test_stats_reports_hops(self):
        catalog = make_catalog(ring_size=64)
        catalog.publish(1, [10.0, 10.0])
        _, stats = catalog.nearest([10.0, 10.0])
        assert stats.dht_hops >= 0
        assert stats.candidates >= 1


class TestKNearestAndRadius:
    def _populated(self) -> CoordinateCatalog:
        catalog = make_catalog()
        for node, xy in enumerate([(10, 10), (12, 10), (14, 10), (90, 90)]):
            catalog.publish(node, [float(xy[0]), float(xy[1])])
        return catalog

    def test_k_nearest_ordering(self):
        catalog = self._populated()
        entries, _ = catalog.k_nearest([10.0, 10.0], k=3, scan_width=8)
        assert [e.physical_node for e in entries] == [0, 1, 2]

    def test_k_nearest_validates_k(self):
        with pytest.raises(ValueError):
            self._populated().k_nearest([0.0, 0.0], k=0)

    def test_within_radius_excludes_far_nodes(self):
        catalog = self._populated()
        hits, _ = catalog.within_radius([10.0, 10.0], radius=5.0, scan_width=8)
        assert {e.physical_node for e in hits} == {0, 1, 2}

    def test_within_radius_zero(self):
        catalog = self._populated()
        hits, _ = catalog.within_radius([10.0, 10.0], radius=0.0, scan_width=8)
        assert {e.physical_node for e in hits} == {0}

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            self._populated().within_radius([0.0, 0.0], radius=-1.0)


class TestNearestBatch:
    """The shared-neighborhood batch scan must match per-key nearest()."""

    def _populated(self, seed=0, n=40) -> CoordinateCatalog:
        catalog = make_catalog()
        rng = np.random.default_rng(seed)
        for node, point in enumerate(rng.uniform(0, 100, size=(n, 2))):
            catalog.publish(node, point)
        return catalog

    def test_matches_per_key_nearest(self):
        catalog = self._populated()
        rng = np.random.default_rng(1)
        queries = rng.uniform(0, 100, size=(25, 2))
        batch_entries, batch_stats = catalog.nearest_batch(queries, scan_width=6)
        for query, entry, stats in zip(queries, batch_entries, batch_stats):
            ref_entry, ref_stats = catalog.nearest(query, scan_width=6)
            assert entry is ref_entry or entry == ref_entry
            assert entry.physical_node == ref_entry.physical_node
            assert stats.dht_hops == ref_stats.dht_hops
            assert stats.ring_entries_scanned == ref_stats.ring_entries_scanned
            assert stats.candidates == ref_stats.candidates

    def test_tie_break_matches_per_key(self):
        # Two nodes in the same spot: batch and per-key must pick the
        # same one (min keeps the first of equal-distance candidates,
        # in neighborhood insertion order).
        catalog = make_catalog()
        catalog.publish(1, [50.0, 50.0])
        catalog.publish(2, [50.0, 50.0])
        queries = np.array([[50.0, 50.0], [49.0, 51.0]])
        batch_entries, _ = catalog.nearest_batch(queries)
        for query, entry in zip(queries, batch_entries):
            ref, _ = catalog.nearest(query)
            assert entry.physical_node == ref.physical_node

    def test_exclusion_matches_per_key(self):
        catalog = self._populated(seed=2, n=20)
        queries = np.random.default_rng(3).uniform(0, 100, size=(10, 2))
        exclude = {0, 3, 7}
        batch_entries, _ = catalog.nearest_batch(queries, exclude=exclude)
        for query, entry in zip(queries, batch_entries):
            ref, _ = catalog.nearest(query, exclude=exclude)
            assert entry.physical_node == ref.physical_node
            assert entry.physical_node not in exclude

    def test_empty_catalog_returns_nones(self):
        entries, stats = make_catalog().nearest_batch(np.zeros((3, 2)))
        assert entries == [None, None, None]
        assert all(s.candidates == 0 for s in stats)

    def test_shared_owner_shares_one_walk(self):
        # Queries in the same quantization cell land on the same owner;
        # the batch path must do one walk, not one per query.
        catalog = self._populated(seed=4, n=30)
        queries = np.tile([[37.0, 42.0]], (8, 1))
        calls = 0
        original = catalog._scan_from

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        catalog._scan_from = counting
        try:
            entries, _ = catalog.nearest_batch(queries)
        finally:
            catalog._scan_from = original
        assert calls == 1
        assert len({e.physical_node for e in entries}) == 1

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            self._populated().nearest_batch(np.zeros(4))

    def test_empty_batch_returns_empty_lists(self):
        assert self._populated().nearest_batch(np.empty((0, 2))) == ([], [])

    def test_ranking_matches_per_entry_reference(self):
        # The array ranking replaced a Python ``min`` over entries with a
        # per-entry norm; keep that loop here as the reference.
        catalog = self._populated(seed=5, n=60)
        queries = np.random.default_rng(6).uniform(0, 100, size=(30, 2))
        entries, _ = catalog.nearest_batch(queries, scan_width=5, exclude={2, 9})
        for query, entry in zip(queries, entries):
            key = catalog.mapper.key_for(query) << (
                catalog.ring.id_bits - catalog.mapper.key_bits
            )
            scanned, _ = catalog._scan_from(catalog.ring.lookup(key).owner, 5, {2, 9})
            reference = min(
                scanned, key=lambda e: float(np.linalg.norm(query - e.as_array()))
            )
            assert entry is reference


class TestCatalogBoundary:
    """Bad arguments fail at the catalog, not as 'no eligible nodes'."""

    def _populated(self) -> CoordinateCatalog:
        catalog = make_catalog()
        catalog.publish_batch([0, 1, 2], np.array([[10.0, 10.0], [50.0, 50.0], [90.0, 90.0]]))
        return catalog

    @pytest.mark.parametrize("scan_width", [0, -3])
    def test_scan_width_below_one_rejected(self, scan_width):
        catalog = self._populated()
        point = [20.0, 20.0]
        for query in (
            lambda: catalog.nearest(point, scan_width=scan_width),
            lambda: catalog.k_nearest(point, k=2, scan_width=scan_width),
            lambda: catalog.within_radius(point, 30.0, scan_width=scan_width),
            lambda: catalog.nearest_batch(np.array([point]), scan_width=scan_width),
        ):
            with pytest.raises(ValueError, match="scan_width must be >= 1"):
                query()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coordinates_rejected(self, bad):
        catalog = self._populated()
        with pytest.raises(ValueError, match="finite"):
            catalog.nearest([bad, 1.0])
        with pytest.raises(ValueError, match="finite"):
            catalog.nearest_batch(np.array([[1.0, 1.0], [1.0, bad]]))
        with pytest.raises(ValueError, match="finite"):
            catalog.exhaustive_nearest([bad, bad])
        with pytest.raises(ValueError, match="finite"):
            catalog.publish_batch([7], np.array([[bad, 1.0]]))
        assert catalog.published_nodes == [0, 1, 2]

    def test_ranking_metric_is_not_configurable(self):
        mapper = HilbertMapper(lows=(0.0, 0.0), highs=(1.0, 1.0), bits=4)
        with pytest.raises(TypeError):
            CoordinateCatalog(mapper, distance=lambda a, b: 0.0)
