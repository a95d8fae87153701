"""Unit tests for the overlay and metrics."""

import numpy as np
import pytest

from repro.core.circuit import Circuit, Service
from repro.query.operators import ServiceSpec, state_units
from repro.sbon.metrics import TickRecord, TimeSeries
from repro.sbon.overlay import Overlay
from repro.network.topology import grid_topology
from repro.workloads.queries import random_query


def pinned_join_circuit(name="q", host=5, rate=10.0, window=50.0) -> Circuit:
    """Two pinned producers feed one unpinned join on ``host``."""
    circuit = Circuit(name=name)
    for producer, node in (("A", 0), ("B", 1)):
        circuit.add_service(
            Service(f"{name}/src:{producer}", ServiceSpec.relay(), node, frozenset(producer))
        )
    join = ServiceSpec.join(window_seconds=window)
    circuit.add_service(Service(f"{name}/join", join, None, frozenset("AB")))
    circuit.add_service(Service(f"{name}/sink", ServiceSpec.relay(), 15, frozenset("AB")))
    circuit.add_link(f"{name}/src:A", f"{name}/join", rate / 2)
    circuit.add_link(f"{name}/src:B", f"{name}/join", rate / 2)
    circuit.add_link(f"{name}/join", f"{name}/sink", 1.0)
    circuit.assign(f"{name}/join", host)
    return circuit


class TestOverlay:
    def _overlay(self) -> Overlay:
        return Overlay.build(grid_topology(4, 4), vector_dims=2, embedding_rounds=20, seed=0)

    def test_build_wires_sizes(self):
        overlay = self._overlay()
        assert overlay.num_nodes == 16
        assert overlay.cost_space.num_nodes == 16

    def test_optimize_install_uninstall_cycle(self):
        overlay = self._overlay()
        query, stats = random_query(16, seed=1)
        result = overlay.integrated_optimizer().optimize(query, stats)
        overlay.install(result)
        assert result.circuit.name in overlay.circuits
        assert overlay.total_network_usage() > 0
        loads_with = overlay.loads().sum()
        overlay.uninstall(result.circuit.name)
        assert overlay.total_network_usage() == 0
        assert overlay.loads().sum() < loads_with

    def test_double_install_rejected(self):
        overlay = self._overlay()
        query, stats = random_query(16, seed=1)
        result = overlay.integrated_optimizer().optimize(query, stats)
        overlay.install(result)
        with pytest.raises(ValueError):
            overlay.install(result)

    def test_install_requires_placement(self):
        overlay = self._overlay()
        query, stats = random_query(16, seed=2)
        from repro.core.circuit import Circuit
        from repro.query.generator import best_plan

        circuit = Circuit.from_plan(
            best_plan(query.producer_names, stats), query, stats
        )
        with pytest.raises(ValueError):
            overlay.install_circuit(circuit)

    def test_refresh_cost_space_reflects_load(self):
        overlay = self._overlay()
        overlay.set_background_loads(np.full(16, 0.5))
        overlay.refresh_cost_space()
        assert overlay.cost_space.coordinate(0).scalar[0] > 0

    def test_apply_migration_moves_load(self):
        overlay = self._overlay()
        query, stats = random_query(16, seed=1)
        result = overlay.integrated_optimizer().optimize(query, stats)
        overlay.install(result)
        sid = result.circuit.unpinned_ids()[0]
        old = result.circuit.host_of(sid)
        new = (old + 1) % 16
        overlay.apply_migration(result.circuit.name, sid, new)
        assert result.circuit.host_of(sid) == new
        assert overlay._host_of[(result.circuit.name, sid)][0] == new
        np.testing.assert_allclose(overlay.loads(), overlay.loads_scalar())

    def test_bad_load_vector_rejected(self):
        with pytest.raises(ValueError):
            self._overlay().set_background_loads(np.zeros(5))

    def test_set_node_capacity_propagates_to_vectorized_loads(self):
        # Regression: capacities were snapshot at construction, so a
        # post-build change was invisible to the array-backed loads().
        overlay = self._overlay()
        overlay.set_background_loads(np.full(16, 0.5))
        overlay.set_node_capacity(3, capacity=2.0)
        assert overlay.loads()[3] == pytest.approx(0.25)
        np.testing.assert_allclose(overlay.loads(), overlay.loads_scalar())

    def test_set_memory_capacity_propagates(self):
        overlay = self._overlay()
        query, stats = random_query(16, seed=1)
        overlay.install(overlay.integrated_optimizer().optimize(query, stats))
        hosts = [
            s for s in overlay.circuits[query.name].unpinned_ids()
        ]
        node = overlay.circuits[query.name].host_of(hosts[0])
        overlay.set_node_capacity(node, memory_capacity=1.0)
        memory = overlay.memory_loads()
        circuit = overlay.circuits[query.name]
        units = sum(
            state_units(circuit.services[sid].spec, circuit.input_rate(sid))
            for sid in circuit.unpinned_ids()
            if circuit.host_of(sid) == node
        )
        assert memory[node] == pytest.approx(min(1.0, units / 1.0))

    def test_set_node_capacity_validation(self):
        overlay = self._overlay()
        with pytest.raises(ValueError):
            overlay.set_node_capacity(99, capacity=1.0)
        with pytest.raises(ValueError):
            overlay.set_node_capacity(0, capacity=0.0)
        with pytest.raises(ValueError):
            overlay.set_node_capacity(0, memory_capacity=-1.0)

    @pytest.mark.parametrize(
        "setter",
        [
            lambda o: o.set_node_capacity(0, capacity=np.nan),
            lambda o: o.set_node_capacity(0, memory_capacity=np.nan),
            lambda o: o.set_background_cost(np.zeros(16), cpu_ref=np.nan),
            lambda o: o.set_measured_cpu(np.r_[np.nan, np.zeros(15)]),
            lambda o: o.set_background_loads(np.r_[np.nan, np.zeros(15)]),
        ],
        ids=["capacity", "memory-capacity", "cpu-ref", "measured-cpu", "background"],
    )
    def test_setters_reject_nan(self, setter):
        overlay = self._overlay()
        before = overlay.loads()
        with pytest.raises(ValueError):
            setter(overlay)
        np.testing.assert_array_equal(overlay.loads(), before)

    def test_infinite_capacity_stays_legal(self):
        overlay = self._overlay()
        overlay.set_background_loads(np.full(16, 0.5))
        overlay.set_node_capacity(0, capacity=np.inf, memory_capacity=np.inf)
        assert overlay.loads()[0] == 0.0 and overlay.memory_loads()[0] == 0.0

    @pytest.mark.parametrize(
        "background, rate, capacity, expected",
        [
            (0.3, 10.0, 1.0, 0.5),  # join: 0.02 * 10 = 0.2 induced
            (0.9, 100.0, 1.0, 1.0),  # over capacity: clamped to one
            (0.5, 0.0, 2.0, 0.25),  # capacity scales the sum
        ],
        ids=["combined", "clamped", "capacity-scaled"],
    )
    def test_loads_are_background_plus_induced_over_capacity(
        self, background, rate, capacity, expected
    ):
        overlay = self._overlay()
        overlay.set_background_loads(np.full(16, background))
        overlay.set_node_capacity(5, capacity=capacity)
        overlay.install_circuit(pinned_join_circuit(host=5, rate=rate))
        assert overlay.loads()[5] == pytest.approx(expected)
        assert overlay.loads_scalar()[5] == pytest.approx(expected)
        np.testing.assert_allclose(overlay.loads(), overlay.loads_scalar())

    def test_evict_by_circuit(self):
        # Two circuits share node 5; tearing one down releases exactly
        # its own load and state, and leaves the other's hosted.
        overlay = self._overlay()
        overlay.set_background_loads(np.full(16, 0.1))
        overlay.install_circuit(pinned_join_circuit(name="q", host=5, rate=10.0))
        overlay.install_circuit(pinned_join_circuit(name="r", host=5, rate=5.0))
        assert overlay.loads()[5] == pytest.approx(0.1 + 0.2 + 0.1)
        overlay.uninstall("q")
        assert ("q", "q/join") not in overlay._host_of
        assert overlay._host_of[("r", "r/join")][0] == 5
        assert overlay.loads()[5] == pytest.approx(0.1 + 0.1)
        np.testing.assert_allclose(overlay.loads(), overlay.loads_scalar())
        overlay.uninstall("r")
        assert overlay.loads()[5] == pytest.approx(0.1)
        assert overlay.memory_loads()[5] == 0.0

    def test_failure_drops_hosted_load_and_refuses_installs(self):
        overlay = self._overlay()
        overlay.set_background_loads(np.full(16, 0.3))
        overlay.install_circuit(pinned_join_circuit(host=5))
        down = np.ones(16, dtype=bool)
        down[5] = False
        overlay.apply_liveness(down)
        assert overlay.loads()[5] == pytest.approx(0.3)
        assert overlay.memory_loads()[5] == 0.0
        np.testing.assert_allclose(overlay.loads(), overlay.loads_scalar())
        with pytest.raises(RuntimeError):
            overlay.install_circuit(pinned_join_circuit(name="r", host=5))
        overlay.apply_liveness(np.ones(16, dtype=bool))  # back, empty-handed
        assert overlay.loads()[5] == pytest.approx(0.3)
        overlay.install_circuit(pinned_join_circuit(name="s", host=5))
        assert overlay.loads()[5] == pytest.approx(0.5)

    @staticmethod
    def _hosting_state(overlay):
        """Everything a hosting call may write, copied."""
        return (
            dict(overlay._host_of),
            overlay._induced.copy(),
            overlay._memory.copy(),
            overlay._hosted.copy(),
            dict(overlay.circuits),
            {name: dict(c.placement) for name, c in overlay.circuits.items()},
            overlay.total_network_usage(),
        )

    def _assert_unchanged(self, overlay, before):
        after = self._hosting_state(overlay)
        assert after[0] == before[0]
        for old, new in zip(before[1:4], after[1:4]):
            np.testing.assert_array_equal(new, old)
        assert after[4:] == before[4:]

    def _node_down(self, overlay, node):
        alive = np.ones(16, dtype=bool)
        alive[node] = False
        overlay.apply_liveness(alive)

    def test_install_onto_a_dead_node_changes_nothing(self):
        # The first join's node is alive, the second's is down: the
        # refusal comes before the first join is hosted.
        overlay = self._overlay()
        overlay.install_circuit(pinned_join_circuit(name="r", host=5))
        self._node_down(overlay, 6)
        circuit = pinned_join_circuit(name="q", host=5)
        join2 = Service("q/join2", ServiceSpec.join(), None, frozenset("AB"))
        circuit.add_service(join2)
        circuit.add_link("q/join", "q/join2", 1.0)
        circuit.assign("q/join2", 6)
        before = self._hosting_state(overlay)
        with pytest.raises(RuntimeError, match="node 6 is down"):
            overlay.install_circuit(circuit)
        self._assert_unchanged(overlay, before)
        assert ("q", "q/join") not in overlay._host_of

    def test_replace_onto_a_dead_node_changes_nothing(self):
        overlay = self._overlay()
        overlay.install_circuit(pinned_join_circuit(name="q", host=5))
        self._node_down(overlay, 6)
        before = self._hosting_state(overlay)
        with pytest.raises(RuntimeError, match="node 6 is down"):
            overlay.replace_circuit(pinned_join_circuit(name="q", host=6))
        self._assert_unchanged(overlay, before)
        assert overlay._host_of[("q", "q/join")][0] == 5
        assert overlay._induced[5] > 0

    def test_migration_onto_a_dead_node_changes_nothing(self):
        overlay = self._overlay()
        overlay.install_circuit(pinned_join_circuit(name="q", host=5))
        self._node_down(overlay, 6)
        before = self._hosting_state(overlay)
        with pytest.raises(RuntimeError, match="node 6 is down"):
            overlay.apply_migration("q", "q/join", 6)
        self._assert_unchanged(overlay, before)
        assert overlay.circuits["q"].host_of("q/join") == 5
        assert overlay._host_of[("q", "q/join")][0] == 5
        assert overlay._induced[5] > 0

    def test_migrating_a_pinned_service_changes_nothing(self):
        # Pinned services are never hosted: uninstall evicts only
        # unpinned ones, so a hosted pinned sink would keep its load.
        overlay = self._overlay()
        overlay.install_circuit(pinned_join_circuit(name="q", host=5))
        before = self._hosting_state(overlay)
        with pytest.raises(ValueError, match="pinned service q/sink"):
            overlay.apply_migration("q", "q/sink", 15)
        self._assert_unchanged(overlay, before)
        assert ("q", "q/sink") not in overlay._host_of
        overlay.uninstall("q")
        assert overlay._host_of == {} and not overlay._hosted.any()
        assert overlay.loads()[15] == 0.0

    def test_hosted_counts_match_the_hosting_record(self):
        overlay = self._overlay()

        def recount():
            counts = np.zeros(16, dtype=np.int64)
            for node, _, _ in overlay._host_of.values():
                counts[node] += 1
            return counts

        overlay.install_circuit(pinned_join_circuit(name="q", host=5))
        overlay.install_circuit(pinned_join_circuit(name="r", host=5))
        overlay.install_circuit(pinned_join_circuit(name="s", host=9))
        np.testing.assert_array_equal(overlay._hosted, recount())
        overlay.apply_migration("r", "r/join", 6)
        np.testing.assert_array_equal(overlay._hosted, recount())
        assert overlay._hosted[[5, 6, 9]].tolist() == [1, 1, 1]
        self._node_down(overlay, 3)  # hosts nothing: no entry moves
        np.testing.assert_array_equal(overlay._hosted, recount())
        self._node_down(overlay, 5)  # 3 recovers, 5 fails with an entry
        np.testing.assert_array_equal(overlay._hosted, recount())
        assert overlay._hosted[5] == 0 and ("q", "q/join") not in overlay._host_of
        overlay.uninstall("s")
        overlay.uninstall("q")
        np.testing.assert_array_equal(overlay._hosted, recount())
        assert overlay._hosted.tolist() == [0] * 6 + [1] + [0] * 9

    def test_liveness_array_follows_masks(self):
        overlay = self._overlay()
        up = np.ones(16, dtype=bool)
        down = up.copy()
        down[[3, 7]] = False
        again = up.copy()
        again[[7, 11]] = False
        steps = [
            (down, ([3, 7], [])),
            (up, ([], [3, 7])),
            (again, ([7, 11], [])),
        ]
        for mask, expected in steps:
            assert overlay.apply_liveness(mask) == expected
            assert overlay.alive_mask().tolist() == mask.tolist()
            assert overlay.alive_flags() == mask.tolist()
            assert overlay.failed_nodes() == set(np.flatnonzero(~mask).tolist())
        # Masks handed out and masks handed in are copies: writing
        # either afterwards changes nothing.
        expected = again.tolist()
        overlay.alive_mask()[:] = False
        again[0] = False
        assert overlay.alive_flags() == expected


class TestTimeSeries:
    def test_append_enforces_time_order(self):
        ts = TimeSeries()
        ts.append(TickRecord(1, 10.0, 0.1, 0.2))
        with pytest.raises(ValueError):
            ts.append(TickRecord(1, 11.0, 0.1, 0.2))

    def test_summaries(self):
        ts = TimeSeries()
        ts.append(TickRecord(1, 10.0, 0.1, 0.2, migrations=2))
        ts.append(TickRecord(2, 20.0, 0.1, 0.2, failures=1))
        assert ts.mean_usage() == 15.0
        assert ts.final_usage() == 20.0
        assert ts.peak_usage() == 20.0
        assert ts.total_migrations() == 2
        assert ts.total_failures() == 1
        assert ts.summary()["ticks"] == 2.0

    def test_empty_series(self):
        ts = TimeSeries()
        assert ts.mean_usage() == 0.0
        assert ts.final_usage() == 0.0
