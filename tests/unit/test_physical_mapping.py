"""Unit tests for physical mapping (exhaustive and catalog backends)."""

import numpy as np
import pytest

from repro.core.circuit import Circuit
from repro.core.coordinates import CostCoordinate
from repro.core.cost_space import CostSpace, CostSpaceSpec
from repro.core.physical_mapping import (
    CatalogMapper,
    ExhaustiveMapper,
    build_catalog,
    map_circuit,
    map_circuits,
)
from repro.core.virtual_placement import relaxation_placement
from repro.core.weighting import squared
from repro.query.model import Consumer, Producer, QuerySpec
from repro.query.plan import JoinNode, LeafNode, LogicalPlan
from repro.query.selectivity import Statistics


def grid_space(loads=None) -> CostSpace:
    """A 5x5 grid of nodes at integer coordinates scaled by 10."""
    points = np.array(
        [[10.0 * x, 10.0 * y] for x in range(5) for y in range(5)]
    )
    if loads is None:
        spec = CostSpaceSpec.latency_only(vector_dims=2)
        return CostSpace.from_embedding(spec, points)
    spec = CostSpaceSpec.latency_load(vector_dims=2, load_weighting=squared(100.0))
    return CostSpace.from_embedding(spec, points, {"cpu_load": np.asarray(loads)})


class TestExhaustiveMapper:
    def test_maps_to_nearest_node(self):
        space = grid_space()
        mapper = ExhaustiveMapper(space)
        node, hops = mapper.map_coordinate(CostCoordinate((11.0, 9.0)))
        assert node == 5 * 1 + 1  # grid node (1, 1)
        assert hops == 0

    def test_exclusion(self):
        space = grid_space()
        mapper = ExhaustiveMapper(space, excluded={6})
        node, _ = mapper.map_coordinate(CostCoordinate((11.0, 9.0)))
        assert node != 6

    def test_include_reverses_exclusion(self):
        space = grid_space()
        mapper = ExhaustiveMapper(space)
        mapper.exclude(6)
        mapper.include(6)
        node, _ = mapper.map_coordinate(CostCoordinate((11.0, 9.0)))
        assert node == 6

    def test_load_changes_choice(self):
        loads = [0.0] * 25
        loads[6] = 1.0  # saturate grid node (1,1)
        space = grid_space(loads)
        mapper = ExhaustiveMapper(space)
        node, _ = mapper.map_coordinate(CostCoordinate((11.0, 9.0), (0.0,)))
        assert node != 6


class TestCatalogMapper:
    def test_catalog_agrees_with_exhaustive_mostly(self):
        space = grid_space()
        catalog = build_catalog(space, bits=8, ring_size=32)
        cat_mapper = CatalogMapper(space, catalog, scan_width=12)
        ex_mapper = ExhaustiveMapper(space)
        rng = np.random.default_rng(1)
        agreements = 0
        for _ in range(20):
            target = CostCoordinate(tuple(rng.uniform(0, 40, size=2)))
            cat_node, _ = cat_mapper.map_coordinate(target)
            ex_node, _ = ex_mapper.map_coordinate(target)
            if cat_node == ex_node:
                agreements += 1
        assert agreements >= 16

    def test_alive_filter_in_build(self):
        space = grid_space()
        alive = [True] * 25
        alive[0] = False
        catalog = build_catalog(space, alive=alive)
        assert 0 not in catalog.published_nodes

    def test_mapper_exclusion(self):
        space = grid_space()
        catalog = build_catalog(space)
        mapper = CatalogMapper(space, catalog)
        mapper.exclude(6)
        node, _ = mapper.map_coordinate(CostCoordinate((11.0, 9.0)))
        assert node != 6

    def test_empty_catalog_raises(self):
        space = grid_space()
        catalog = build_catalog(space, alive=[False] * 25)
        mapper = CatalogMapper(space, catalog)
        with pytest.raises(RuntimeError):
            mapper.map_coordinate(CostCoordinate((1.0, 1.0)))

    def test_batched_matches_per_key_mapping(self):
        # map_coordinates (shared-neighborhood batch) must reproduce a
        # loop of map_coordinate exactly: same nodes, same hop counts.
        space = grid_space()
        catalog = build_catalog(space, bits=8, ring_size=32)
        mapper = CatalogMapper(space, catalog, scan_width=6, excluded={3})
        rng = np.random.default_rng(7)
        targets = rng.uniform(0, 40, size=(12, 2))
        nodes, hops = mapper.map_coordinates(targets)
        for i, row in enumerate(targets):
            node, hop = mapper.map_coordinate(CostCoordinate(tuple(row)))
            assert int(nodes[i]) == node
            assert int(hops[i]) == hop

    def test_batched_empty_catalog_raises(self):
        space = grid_space()
        catalog = build_catalog(space, alive=[False] * 25)
        mapper = CatalogMapper(space, catalog)
        with pytest.raises(RuntimeError):
            mapper.map_coordinates(np.zeros((2, 2)))

    def test_scan_width_below_one_rejected(self):
        space = grid_space()
        with pytest.raises(ValueError, match="scan_width must be >= 1"):
            CatalogMapper(space, build_catalog(space), scan_width=0)

    def test_nan_targets_raise(self):
        space = grid_space()
        mapper = CatalogMapper(space, build_catalog(space))
        with pytest.raises(ValueError, match="finite"):
            mapper.map_coordinates(np.array([[1.0, np.nan]]))

    def test_batched_validates_dimensionality(self):
        space = grid_space()
        catalog = build_catalog(space)
        mapper = CatalogMapper(space, catalog)
        with pytest.raises(ValueError):
            mapper.map_coordinates(np.zeros((2, 5)))

    def test_batched_empty_targets(self):
        space = grid_space()
        catalog = build_catalog(space)
        mapper = CatalogMapper(space, catalog)
        nodes, hops = mapper.map_coordinates(np.zeros((0, 2)))
        assert len(nodes) == 0 and len(hops) == 0


class TestMapCircuit:
    def _setup(self):
        space = grid_space()
        query = QuerySpec(
            name="q",
            producers=[
                Producer("A", node=0, rate=4.0),
                Producer("B", node=20, rate=4.0),
            ],
            consumer=Consumer("C", node=24),
        )
        stats = Statistics.build({"A": 4.0, "B": 4.0}, {("A", "B"): 0.25})
        plan = LogicalPlan(JoinNode(LeafNode("A"), LeafNode("B")))
        circuit = Circuit.from_plan(plan, query, stats)
        pinned = {
            sid: space.coordinate(circuit.services[sid].pinned_node).vector_array()
            for sid in circuit.pinned_ids()
        }
        placement = relaxation_placement(circuit, pinned)
        return space, circuit, placement

    def test_assigns_all_unpinned(self):
        space, circuit, placement = self._setup()
        result = map_circuit(circuit, placement, space, ExhaustiveMapper(space))
        assert circuit.is_fully_placed()
        assert len(result.mappings) == 1

    def test_mapping_error_is_distance_to_chosen_node(self):
        space, circuit, placement = self._setup()
        result = map_circuit(circuit, placement, space, ExhaustiveMapper(space))
        m = result.mappings[0]
        expected = m.target.distance_to(space.coordinate(m.node))
        assert m.mapping_error == pytest.approx(expected)

    def test_result_accessors(self):
        space, circuit, placement = self._setup()
        result = map_circuit(circuit, placement, space, ExhaustiveMapper(space))
        (mapping,) = result.mappings  # single service
        assert mapping.service_id == "q/join0"
        assert circuit.host_of("q/join0") == mapping.node
        assert max(m.mapping_error for m in result.mappings) == result.total_error
        assert result.total_dht_hops == 0

    def test_exhaustive_error_lower_bound_for_catalog(self):
        space, circuit, placement = self._setup()
        ex_result = map_circuit(
            circuit.copy(), placement, space, ExhaustiveMapper(space)
        )
        catalog = build_catalog(space)
        cat_result = map_circuit(
            circuit.copy(), placement, space, CatalogMapper(space, catalog)
        )
        assert ex_result.total_error <= cat_result.total_error + 1e-9


class TestMapCircuits:
    """One mapper batch for many circuits (the optimizer's candidate set)."""

    def _candidates(self, space):
        query = QuerySpec(
            name="q",
            producers=[
                Producer("A", node=0, rate=4.0),
                Producer("B", node=20, rate=2.0),
                Producer("C", node=4, rate=3.0),
            ],
            consumer=Consumer("K", node=24),
        )
        stats = Statistics.build(
            {"A": 4.0, "B": 2.0, "C": 3.0},
            {("A", "B"): 0.25, ("A", "C"): 0.5, ("B", "C"): 0.1},
        )
        a, b, c = LeafNode("A"), LeafNode("B"), LeafNode("C")
        plans = [
            LogicalPlan(JoinNode(JoinNode(a, b), c)),
            LogicalPlan(JoinNode(JoinNode(a, c), b)),
            LogicalPlan(JoinNode(JoinNode(b, c), a)),
        ]
        circuits = [Circuit.from_plan(plan, query, stats) for plan in plans]
        placements = [
            relaxation_placement(
                circuit,
                {
                    sid: space.coordinate(circuit.services[sid].pinned_node).vector_array()
                    for sid in circuit.pinned_ids()
                },
            )
            for circuit in circuits
        ]
        return circuits, placements

    def test_one_mapper_call_for_all_circuits(self):
        space = grid_space()
        circuits, placements = self._candidates(space)
        mapper = ExhaustiveMapper(space)
        batches = []
        original = mapper.map_coordinates
        mapper.map_coordinates = lambda targets: (
            batches.append(len(targets)) or original(targets)
        )
        results = map_circuits(circuits, placements, space, mapper)
        assert batches == [6]
        assert [len(r.mappings) for r in results] == [2, 2, 2]
        assert all(circuit.is_fully_placed() for circuit in circuits)

    def test_no_circuits_and_no_unpinned_services(self):
        space = grid_space()
        assert map_circuits([], [], space, ExhaustiveMapper(space)) == []

    @pytest.mark.parametrize("alive", ["none", "all-excluded"])
    def test_failed_batch_assigns_nothing(self, alive):
        # The mapper raises before any host is assigned: no candidate
        # circuit of the batch is left half placed.
        space = grid_space()
        if alive == "none":
            mapper = CatalogMapper(space, build_catalog(space, alive=[False] * 25))
        else:
            mapper = CatalogMapper(
                space, build_catalog(space), excluded=set(range(25))
            )
        circuits, placements = self._candidates(space)
        with pytest.raises(RuntimeError, match="no eligible published nodes"):
            map_circuits(circuits, placements, space, mapper)
        for circuit in circuits:
            assert not set(circuit.unpinned_ids()) & set(circuit.placement)
