"""Unit tests for the tick-driven simulation."""

import pytest

from repro.network.dynamics import ChurnProcess, HotspotEvent, LoadProcess
from repro.network.topology import grid_topology
from repro.sbon.overlay import Overlay
from repro.sbon.simulator import Simulation, SimulationConfig
from repro.workloads import chaos_scenario
from repro.workloads.queries import random_query


def simulated_overlay(seed=0) -> Overlay:
    overlay = Overlay.build(
        grid_topology(4, 4), vector_dims=2, embedding_rounds=20, seed=seed
    )
    query, stats = random_query(16, seed=seed)
    result = overlay.integrated_optimizer().optimize(query, stats)
    overlay.install(result)
    return overlay


class TestConfig:
    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(reopt_interval=-1)


class TestSimulation:
    def test_runs_and_records(self):
        overlay = simulated_overlay()
        sim = Simulation(
            overlay,
            load_process=LoadProcess(16, seed=1),
            config=SimulationConfig(reopt_interval=5),
        )
        series = sim.run(12)
        assert len(series) == 12
        assert series.records[0].tick == 1
        assert series.records[-1].tick == 12
        assert all(r.circuits == 1 for r in series.records)

    def test_zero_ticks(self):
        sim = Simulation(simulated_overlay())
        assert len(sim.run(0)) == 0
        with pytest.raises(ValueError):
            sim.run(-1)

    def test_reopt_disabled_never_migrates(self):
        overlay = simulated_overlay()
        sim = Simulation(
            overlay,
            load_process=LoadProcess(16, sigma=0.2, seed=3),
            config=SimulationConfig(reopt_interval=0),
        )
        series = sim.run(20)
        assert series.total_migrations() == 0

    def test_hotspot_triggers_migration_away(self):
        overlay = simulated_overlay()
        circuit = next(iter(overlay.circuits.values()))
        hosts = {circuit.host_of(sid) for sid in circuit.unpinned_ids()}
        load = LoadProcess(16, mean_load=0.05, sigma=0.0, theta=1.0, seed=1)
        load.add_hotspot(
            HotspotEvent(start_tick=1, duration=1000, nodes=tuple(hosts), extra_load=0.95)
        )
        sim = Simulation(
            overlay,
            load_process=load,
            config=SimulationConfig(reopt_interval=2, migration_threshold=0.0),
        )
        series = sim.run(10)
        assert series.total_migrations() >= 1
        new_hosts = {circuit.host_of(sid) for sid in circuit.unpinned_ids()}
        assert new_hosts != hosts

    def test_churn_evacuates_failed_hosts(self):
        overlay = simulated_overlay()
        circuit = next(iter(overlay.circuits.values()))
        pinned_nodes = {
            circuit.host_of(sid) for sid in circuit.pinned_ids()
        }
        churn = ChurnProcess(
            16, fail_prob=0.2, recover_prob=0.0, protected=pinned_nodes, seed=2
        )
        sim = Simulation(overlay, churn=churn, config=SimulationConfig(reopt_interval=0))
        series = sim.run(10)
        assert series.total_failures() > 0
        failed = overlay.failed_nodes()
        for sid in circuit.unpinned_ids():
            assert circuit.host_of(sid) not in failed

    def test_every_applied_move_counts_in_the_record(self, monkeypatch):
        """Churn evacuations count in ``TickRecord.migrations`` too."""
        scenario = chaos_scenario(seed=0)
        applied = []
        batches = []
        apply = Overlay.apply_migrations

        def counted(overlay, moves):
            moves = list(moves)
            applied.extend(moves)
            batches.append(len(moves))
            return apply(overlay, moves)

        # apply_migration (one move, the evacuations) batches through
        # apply_migrations too, so this sees every applied move.
        monkeypatch.setattr(Overlay, "apply_migrations", counted)
        series = scenario.simulation.run(60)
        assert series.total_failures() > 0
        assert series.total_migrations() == len(applied) > 0
        assert max(batches) > 1

    def test_ground_truth_reopt_variant(self):
        overlay = simulated_overlay()
        sim = Simulation(
            overlay,
            load_process=LoadProcess(16, seed=5),
            config=SimulationConfig(reopt_interval=3, use_ground_truth_for_reopt=True),
        )
        series = sim.run(6)
        assert len(series) == 6
