"""Property-based tests for the Chord ring."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.catalog import CoordinateCatalog
from repro.dht.chord import ChordRing
from repro.dht.hilbert import HilbertMapper


@st.composite
def ring_and_keys(draw):
    id_bits = 12
    ids = draw(
        st.sets(
            st.integers(min_value=0, max_value=(1 << id_bits) - 1),
            min_size=1,
            max_size=24,
        )
    )
    keys = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << id_bits) - 1),
            min_size=1,
            max_size=16,
        )
    )
    return id_bits, sorted(ids), keys


@given(ring_and_keys())
@settings(max_examples=100, deadline=None)
def test_lookup_always_finds_ground_truth_owner(setup):
    id_bits, ids, keys = setup
    ring = ChordRing(id_bits=id_bits)
    for node_id in ids:
        ring.join(node_id=node_id)
    for key in keys:
        result = ring.lookup(key)
        # Ground truth: first node clockwise from key.
        candidates = [i for i in ids if i >= key]
        expected = min(candidates) if candidates else min(ids)
        assert result.owner == expected


@given(ring_and_keys())
@settings(max_examples=60, deadline=None)
def test_put_get_roundtrip_and_invariants(setup):
    id_bits, ids, keys = setup
    ring = ChordRing(id_bits=id_bits)
    for node_id in ids:
        ring.join(node_id=node_id)
    for i, key in enumerate(keys):
        ring.put(key, f"value-{i}")
    for i, key in enumerate(keys):
        value, _ = ring.get(key)
        # Later puts to the same key overwrite; find the last writer.
        last = max(j for j, k in enumerate(keys) if k == key)
        assert value == f"value-{last}"
    ring.verify_invariants()


@given(ring_and_keys(), st.data())
@settings(max_examples=50, deadline=None)
def test_leave_preserves_data_and_invariants(setup, data):
    id_bits, ids, keys = setup
    if len(ids) < 2:
        return
    ring = ChordRing(id_bits=id_bits)
    for node_id in ids:
        ring.join(node_id=node_id)
    for key in keys:
        ring.put(key, key * 7)
    departing = data.draw(st.sampled_from(ids))
    ring.leave(departing)
    ring.verify_invariants()
    for key in keys:
        value, _ = ring.get(key)
        assert value == key * 7


@given(ring_and_keys())
@settings(max_examples=50, deadline=None)
def test_hop_count_bounded_by_id_bits(setup):
    id_bits, ids, keys = setup
    ring = ChordRing(id_bits=id_bits)
    for node_id in ids:
        ring.join(node_id=node_id)
    for key in keys:
        assert ring.lookup(key).hops <= id_bits + 1


# -- the per-arc route table against the pointer chase ------------------------


@st.composite
def churned_rings(draw, id_bits):
    """A ring of ``id_bits`` ids and the joins and leaves applied to it."""
    modulus = 1 << id_bits
    ids = draw(
        st.sets(
            st.integers(min_value=0, max_value=modulus - 1),
            min_size=1,
            max_size=min(24, modulus),
        )
    )
    changes = draw(
        st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=modulus - 1)),
            max_size=6,
        )
    )
    extra = draw(
        st.lists(st.integers(min_value=0, max_value=modulus - 1), max_size=8)
    )
    return sorted(ids), changes, extra


def assert_routes_are_lookups(ring: ChordRing, extra: list[int]) -> None:
    """Keys at, one above and one below every node id, the wrap, and ``extra``."""
    modulus = ring.modulus
    keys = [0, modulus - 1, *extra]
    for node_id in ring.node_ids:
        keys += [node_id, (node_id + 1) % modulus, (node_id - 1) % modulus]
    owners, hops = ring.routes_of(keys)
    assert len(owners) == len(hops) == len(keys)
    for key, owner, hop in zip(keys, owners.tolist(), hops.tolist()):
        route = ring.lookup(key)
        assert (owner, hop) == (route.owner, route.hops)


def check_churned_ring(id_bits: int, setup) -> None:
    ids, changes, extra = setup
    ring = ChordRing(id_bits=id_bits)
    for node_id in ids:
        ring.join(node_id=node_id)
    assert_routes_are_lookups(ring, extra)
    for join, value in changes:
        if join and value not in ring.node_ids:
            ring.join(node_id=value)
        elif not join and len(ring) > 1:
            ring.leave(ring.node_ids[value % len(ring)])
        else:
            continue
        assert_routes_are_lookups(ring, extra)


@given(st.integers(min_value=2, max_value=32).flatmap(
    lambda bits: st.tuples(st.just(bits), churned_rings(bits))
))
@settings(max_examples=120, deadline=None)
def test_batched_routes_are_the_pointer_chase(case):
    id_bits, setup = case
    check_churned_ring(id_bits, setup)


@given(churned_rings(64))
@settings(max_examples=20, deadline=None)
def test_batched_routes_are_the_pointer_chase_beyond_62_bits(setup):
    check_churned_ring(64, setup)


@given(
    st.integers(min_value=0, max_value=1 << 16),
    st.integers(min_value=2, max_value=12),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_nearest_batch_routes_by_lookup_after_a_leave(seed, ring_size, data):
    rng = np.random.default_rng(seed)
    mapper = HilbertMapper(lows=(0.0, 0.0), highs=(100.0, 100.0), bits=6)
    catalog = CoordinateCatalog(mapper, ring_size=ring_size)
    points = rng.uniform(0.0, 100.0, size=(30, 2))
    catalog.publish_batch(list(range(len(points))), points)
    queries = rng.uniform(0.0, 100.0, size=(12, 2))
    ring = catalog.ring
    spare_bits = ring.id_bits - mapper.key_bits

    def check():
        entries, stats = catalog.nearest_batch(queries, scan_width=3)
        for query, entry, stat in zip(queries, entries, stats):
            reference, reference_stat = catalog.nearest(query, scan_width=3)
            assert entry is reference
            assert stat == reference_stat
            route = ring.lookup(mapper.key_for(query) << spare_bits)
            assert stat.dht_hops == route.hops
            scanned, _ = catalog._scan_from(route.owner, 3, set())
            assert entry is min(
                scanned, key=lambda e: float(np.linalg.norm(e.as_array() - query))
            )

    check()
    ring.leave(data.draw(st.sampled_from(ring.node_ids)))
    check()
