"""Unit tests for topology generators."""

import pytest

from repro.network.topology import (
    Link,
    Topology,
    TransitStubParams,
    grid_topology,
    random_geometric_topology,
    ring_topology,
    star_topology,
    transit_stub_topology,
    uniform_delay_topology,
)


class TestLink:
    def test_other_endpoint(self):
        link = Link(1, 2, 5.0)
        assert link.other(1) == 2
        assert link.other(2) == 1

    def test_other_rejects_non_endpoint(self):
        with pytest.raises(ValueError):
            Link(1, 2, 5.0).other(3)


class TestTopologyValidation:
    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            Topology(num_nodes=0)

    def test_rejects_self_loop(self):
        topo = Topology(num_nodes=2)
        with pytest.raises(ValueError):
            topo.add_link(0, 0, 1.0)

    def test_rejects_out_of_range_link(self):
        topo = Topology(num_nodes=2)
        with pytest.raises(ValueError):
            topo.add_link(0, 5, 1.0)

    def test_rejects_non_positive_latency(self):
        topo = Topology(num_nodes=2)
        with pytest.raises(ValueError):
            topo.add_link(0, 1, 0.0)

    def test_adjacency_is_symmetric(self):
        topo = Topology(num_nodes=3)
        topo.add_link(0, 1, 2.0)
        adj = topo.adjacency()
        assert (1, 2.0) in adj[0]
        assert (0, 2.0) in adj[1]
        assert adj[2] == []

    def test_degree(self):
        topo = star_topology(4)
        adj = topo.adjacency()
        assert len(adj[0]) == 4
        assert len(adj[1]) == 1

    def test_connectivity_detection(self):
        topo = Topology(num_nodes=3)
        topo.add_link(0, 1, 1.0)
        assert not topo.is_connected()
        topo.add_link(1, 2, 1.0)
        assert topo.is_connected()

    def test_single_node_is_connected(self):
        assert Topology(num_nodes=1).is_connected()


class TestTransitStub:
    def test_default_size_matches_paper(self):
        # 24 transit nodes + 24 x 4 stubs x 6 nodes = 600.
        assert TransitStubParams().total_nodes == 600

    def test_generated_topology_is_connected(self):
        topo = transit_stub_topology(seed=3)
        assert topo.num_nodes == 600
        assert topo.is_connected()

    def test_tags_partition_nodes(self):
        topo = transit_stub_topology(seed=1)
        transit = topo.nodes_tagged("transit")
        stub = topo.nodes_tagged("stub")
        assert len(transit) == 24
        assert len(stub) == 576
        assert set(transit) | set(stub) == set(range(600))

    def test_deterministic_given_seed(self):
        a = transit_stub_topology(seed=7)
        b = transit_stub_topology(seed=7)
        assert a.links == b.links

    def test_different_seeds_differ(self):
        a = transit_stub_topology(seed=1)
        b = transit_stub_topology(seed=2)
        assert a.links != b.links

    def test_small_custom_params(self):
        params = TransitStubParams(
            num_transit_domains=2,
            transit_nodes_per_domain=2,
            stub_domains_per_transit_node=1,
            nodes_per_stub_domain=3,
        )
        topo = transit_stub_topology(params, seed=0)
        assert topo.num_nodes == params.total_nodes == 4 + 4 * 3
        assert topo.is_connected()

    def test_stub_links_faster_than_transit_links(self):
        params = TransitStubParams()
        topo = transit_stub_topology(params, seed=5)
        tags = topo.node_tags
        intra_stub = [
            l.latency_ms
            for l in topo.links
            if tags[l.u] == "stub" and tags[l.v] == "stub"
        ]
        inter_transit = [
            l.latency_ms
            for l in topo.links
            if tags[l.u] == "transit" and tags[l.v] == "transit"
        ]
        assert max(intra_stub) <= params.intra_stub_latency[1]
        assert min(inter_transit) >= params.intra_transit_latency[0]


class TestGeometric:
    def test_connected_even_with_small_radius(self):
        topo = random_geometric_topology(50, radius=0.05, seed=2)
        assert topo.is_connected()

    def test_positions_recorded(self):
        topo = random_geometric_topology(10, seed=0)
        assert len(topo.positions) == 10
        for x, y in topo.positions:
            assert 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0

    def test_rejects_non_positive_nodes(self):
        with pytest.raises(ValueError):
            random_geometric_topology(0)


class TestRegularTopologies:
    def test_grid_structure(self):
        topo = grid_topology(3, 4, link_latency_ms=2.0)
        assert topo.num_nodes == 12
        # 3 rows x 3 horizontal + 2 x 4 vertical = 9 + 8 = 17 links.
        assert len(topo.links) == 17
        assert topo.is_connected()

    def test_ring_structure(self):
        topo = ring_topology(6)
        assert len(topo.links) == 6
        assert all(len(neighbors) == 2 for neighbors in topo.adjacency())

    def test_ring_minimum_size(self):
        with pytest.raises(ValueError):
            ring_topology(2)

    def test_star_structure(self):
        topo = star_topology(5)
        assert topo.num_nodes == 6
        assert len(topo.adjacency()[0]) == 5

    def test_uniform_complete(self):
        topo = uniform_delay_topology(8, seed=0)
        assert len(topo.links) == 8 * 7 // 2
