"""Unit tests for circuit compilation and structure."""

import gc
import weakref

import numpy as np
import pytest

from repro.core.circuit import Circuit, Service, effective_statistics
from repro.query.generator import enumerate_all_plans
from repro.query.model import Consumer, Producer, QuerySpec
from repro.query.operators import ServiceKind, ServiceSpec, processing_load
from repro.query.plan import JoinNode, LeafNode, LogicalPlan
from repro.query.selectivity import Statistics


def query3() -> tuple[QuerySpec, Statistics]:
    producers = [
        Producer("A", node=0, rate=10.0),
        Producer("B", node=1, rate=5.0),
        Producer("C", node=2, rate=2.0),
    ]
    query = QuerySpec(name="q", producers=producers, consumer=Consumer("C0", node=3))
    stats = Statistics.build(
        rates={"A": 10.0, "B": 5.0, "C": 2.0},
        pair_selectivities={("A", "B"): 0.1, ("B", "C"): 0.2, ("A", "C"): 0.5},
    )
    return query, stats


def plan_abc() -> LogicalPlan:
    return LogicalPlan(JoinNode(JoinNode(LeafNode("A"), LeafNode("B")), LeafNode("C")))


class TestFromPlan:
    def test_compiled_circuits_are_freed_without_the_cyclic_collector(self):
        # A circuit carries its rate column and pinned split; held by a
        # reference cycle it would wait for a collection instead.
        query, stats = query3()
        enabled = gc.isenabled()
        gc.disable()
        try:
            circuits = Circuit.from_plans(
                enumerate_all_plans(query.producer_names), query, stats
            )
            refs = [weakref.ref(c) for c in circuits]
            for circuit in circuits:
                circuit.unpinned_ids()
            del circuits, circuit
            assert all(ref() is None for ref in refs)
        finally:
            if enabled:
                gc.enable()

    def test_service_inventory(self):
        query, stats = query3()
        circuit = Circuit.from_plan(plan_abc(), query, stats)
        assert len(circuit.pinned_ids()) == 4  # 3 sources + sink
        assert len(circuit.unpinned_ids()) == 2  # 2 joins

    def test_pinned_placement_prefilled(self):
        query, stats = query3()
        circuit = Circuit.from_plan(plan_abc(), query, stats)
        assert circuit.placement[f"q/src:A"] == 0
        assert circuit.placement[f"q/sink:C0"] == 3

    def test_link_rates_follow_rate_model(self):
        query, stats = query3()
        circuit = Circuit.from_plan(plan_abc(), query, stats)
        join0 = "q/join0"
        # join0 gets A (10) and B (5).
        assert circuit.input_rate(join0) == pytest.approx(15.0)
        # join0 -> join1 carries rate(AB) = 5.
        out = circuit.output_links(join0)
        assert len(out) == 1
        assert out[0].rate == pytest.approx(5.0)
        # join1 -> sink carries rate(ABC) = 1.
        sink_in = circuit.input_rate("q/sink:C0")
        assert sink_in == pytest.approx(1.0 + 0.0)

    def test_filters_shrink_rates(self):
        query, stats = query3()
        query.filters["A"] = 0.1
        circuit = Circuit.from_plan(plan_abc(), query, stats)
        assert circuit.input_rate("q/join0") == pytest.approx(1.0 + 5.0)

    def test_aggregate_appended(self):
        query, stats = query3()
        query.aggregate_factor = 0.5
        circuit = Circuit.from_plan(plan_abc(), query, stats)
        assert "q/agg" in circuit.services
        assert circuit.services["q/agg"].kind is ServiceKind.AGGREGATE
        assert circuit.input_rate("q/sink:C0") == pytest.approx(0.5)

    def test_plan_query_mismatch_rejected(self):
        query, stats = query3()
        other_plan = LogicalPlan(JoinNode(LeafNode("A"), LeafNode("B")))
        with pytest.raises(ValueError):
            Circuit.from_plan(other_plan, query, stats)

    def test_reuse_keys_reflect_producers(self):
        query, stats = query3()
        circuit = Circuit.from_plan(plan_abc(), query, stats)
        keys = {circuit.services[sid].reuse_key() for sid in circuit.unpinned_ids()}
        assert (ServiceKind.JOIN, frozenset({"A", "B"})) in keys
        assert (ServiceKind.JOIN, frozenset({"A", "B", "C"})) in keys

    def test_tapped_subtree_becomes_pinned_relay(self):
        query, stats = query3()
        query.filters["A"] = 0.1
        full = Circuit.from_plan(plan_abc(), query, stats)
        tapped = Circuit.from_plan(
            plan_abc(), query, stats, taps={frozenset({"A", "B"}): 7}
        )
        assert list(tapped.services) == [
            "q/src:C", "q/tap0", "q/join1", "q/sink:C0",
        ]
        assert tapped.services["q/tap0"].kind is ServiceKind.RELAY
        assert tapped.placement["q/tap0"] == 7
        assert tapped.unpinned_ids() == ["q/join1"]
        rates = {(l.source, l.target): l.rate for l in tapped.links}
        full_rates = {(l.source, l.target): l.rate for l in full.links}
        assert rates == {
            ("q/tap0", "q/join1"): full_rates[("q/join0", "q/join1")],
            ("q/src:C", "q/join1"): full_rates[("q/src:C", "q/join1")],
            ("q/join1", "q/sink:C0"): full_rates[("q/join1", "q/sink:C0")],
        }
        assert rates[("q/tap0", "q/join1")] == pytest.approx(0.5)

    def test_every_enumerated_plan_compiles(self):
        query, stats = query3()
        for plan in enumerate_all_plans(["A", "B", "C"]):
            circuit = Circuit.from_plan(plan, query, stats)
            assert len(circuit.unpinned_ids()) == 2


class TestStructureQueries:
    def _circuit(self) -> Circuit:
        query, stats = query3()
        return Circuit.from_plan(plan_abc(), query, stats)

    def test_sources_and_sinks(self):
        circuit = self._circuit()
        targets = {link.target for link in circuit.links}
        sources = {sid for sid in circuit.services if sid not in targets}
        assert sources == {"q/src:A", "q/src:B", "q/src:C"}
        assert circuit.sink_ids() == ["q/sink:C0"]

    def test_neighbors_bidirectional(self):
        circuit = self._circuit()
        neighbor_ids = {n for n, _ in circuit.neighbors("q/join0")}
        assert neighbor_ids == {"q/src:A", "q/src:B", "q/join1"}

    def test_neighbors_unknown_service(self):
        with pytest.raises(KeyError):
            self._circuit().neighbors("nope")

    def test_total_rate(self):
        circuit = self._circuit()
        # Links: A->j0 (10), B->j0 (5), j0->j1 (5), C->j1 (2), j1->sink (1).
        assert sum(l.rate for l in circuit.links) == pytest.approx(23.0)

    def test_pinned_split_follows_add_service_and_hands_out_fresh_lists(self):
        circuit = self._circuit()
        pinned, unpinned = circuit.pinned_ids(), circuit.unpinned_ids()
        assert pinned == ["q/src:A", "q/src:B", "q/src:C", "q/sink:C0"]
        assert unpinned == ["q/join0", "q/join1"]
        pinned.append("corrupt")
        unpinned.clear()
        assert circuit.pinned_ids() == ["q/src:A", "q/src:B", "q/src:C", "q/sink:C0"]
        assert circuit.unpinned_ids() == ["q/join0", "q/join1"]
        circuit.add_service(Service("q/agg", ServiceSpec.aggregate(), None, frozenset("ABC")))
        circuit.add_service(Service("q/tap", ServiceSpec.relay(), 4, frozenset("AB")))
        assert circuit.pinned_ids() == [
            "q/src:A", "q/src:B", "q/src:C", "q/sink:C0", "q/tap"
        ]
        assert circuit.unpinned_ids() == ["q/join0", "q/join1", "q/agg"]
        # A replaced services dict is re-read too.
        circuit.services = {sid: circuit.services[sid] for sid in ("q/tap", "q/agg")}
        assert (circuit.pinned_ids(), circuit.unpinned_ids()) == (["q/tap"], ["q/agg"])


class TestRateColumn:
    """Every link reads its circuit's one rate column."""

    def _circuit(self) -> Circuit:
        query, stats = query3()
        return Circuit.from_plan(plan_abc(), query, stats)

    def test_links_read_the_column_as_python_floats(self):
        circuit = self._circuit()
        assert [l.rate for l in circuit.links] == circuit.link_rates
        assert all(type(r) is float for r in circuit.link_rates)
        circuit.set_link_rates(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert [l.rate for l in circuit.links] == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert all(type(l.rate) is float for l in circuit.links)

    def test_a_copy_owns_its_links_and_column(self):
        circuit = self._circuit()
        clone = circuit.copy()
        assert clone == circuit
        assert not {id(l) for l in clone.links} & {id(l) for l in circuit.links}
        clone.set_link_rates([0.5] * 5)
        assert [l.rate for l in circuit.links] == [10.0, 5.0, 5.0, 2.0, 1.0]
        assert clone != circuit

    def test_drop_links_keeps_the_rest_in_order(self):
        circuit = self._circuit()
        circuit.drop_links(lambda l: l.target == "q/join1")
        assert [(l.source, l.target, l.rate) for l in circuit.links] == [
            ("q/src:A", "q/join0", 10.0),
            ("q/src:B", "q/join0", 5.0),
            ("q/join1", "q/sink:C0", 1.0),
        ]
        assert circuit.link_rates == [10.0, 5.0, 1.0]
        circuit.set_link_rates([7.0, 8.0, 9.0])
        assert [l.rate for l in circuit.links] == [7.0, 8.0, 9.0]


class TestPlacement:
    def _circuit(self) -> Circuit:
        query, stats = query3()
        return Circuit.from_plan(plan_abc(), query, stats)

    def test_assign_and_full_placement(self):
        circuit = self._circuit()
        assert not circuit.is_fully_placed()
        circuit.assign("q/join0", 5)
        circuit.assign("q/join1", 6)
        assert circuit.is_fully_placed()
        assert circuit.hosts() == {0, 1, 2, 3, 5, 6}

    def test_cannot_move_pinned(self):
        circuit = self._circuit()
        with pytest.raises(ValueError):
            circuit.assign("q/src:A", 9)

    def test_assign_unknown_service(self):
        with pytest.raises(KeyError):
            self._circuit().assign("nope", 1)

    def test_host_of_unplaced_raises(self):
        with pytest.raises(KeyError):
            self._circuit().host_of("q/join0")

    def test_load_on_node(self):
        circuit = self._circuit()
        circuit.assign("q/join0", 5)
        circuit.assign("q/join1", 5)
        load = sum(
            processing_load(service.spec, circuit.input_rate(sid))
            for sid, service in circuit.services.items()
            if circuit.placement.get(sid) == 5
        )
        # join0 input 15, join1 input 7; coefficient 0.02.
        assert load == pytest.approx(0.02 * (15.0 + 7.0))

    def test_copy_isolates_placement(self):
        circuit = self._circuit()
        clone = circuit.copy()
        clone.assign("q/join0", 7)
        assert "q/join0" not in circuit.placement


class TestServiceAndHelpers:
    def test_duplicate_service_id_rejected(self):
        circuit = Circuit(name="x")
        svc = Service("x/a", ServiceSpec.relay(), 0, frozenset({"A"}))
        circuit.add_service(svc)
        with pytest.raises(ValueError):
            circuit.add_service(svc)

    def test_link_requires_existing_services(self):
        circuit = Circuit(name="x")
        with pytest.raises(ValueError):
            circuit.add_link("a", "b", 1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_link_rate_must_be_finite_and_non_negative(self, bad):
        circuit = Circuit(name="x")
        circuit.add_service(Service("x/a", ServiceSpec.relay(), 0, frozenset({"A"})))
        circuit.add_service(Service("x/b", ServiceSpec.join(), None, frozenset({"A"})))
        with pytest.raises(ValueError, match="finite and non-negative"):
            circuit.add_link("x/a", "x/b", bad)
        assert circuit.links == []

    def test_effective_statistics(self):
        query, stats = query3()
        query.filters["A"] = 0.2
        eff = effective_statistics(query, stats)
        assert eff.rate("A") == pytest.approx(2.0)
        assert eff.rate("B") == 5.0
        assert eff.selectivity("A", "B") == stats.selectivity("A", "B")
