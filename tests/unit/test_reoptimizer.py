"""Unit tests for local and full re-optimization."""

import numpy as np
import pytest

from repro.core.circuit import Circuit
from repro.core.optimizer import IntegratedOptimizer
from repro.core.reoptimizer import Reoptimizer
from repro.query.model import Consumer, Producer, QuerySpec
from repro.query.plan import JoinNode, LeafNode, LogicalPlan
from repro.query.selectivity import Statistics
from repro.sbon.simulator import SimulationConfig
from repro.workloads.scenarios import perfect_cost_space


def line_setup(name="q"):
    """Nodes on a line at x = 0..10 (scaled by 10); 2-producer join."""
    positions = [(10.0 * x, 0.0) for x in range(11)]
    space = perfect_cost_space(positions)
    query = QuerySpec(
        name=name,
        producers=[
            Producer("A", node=0, rate=5.0),
            Producer("B", node=10, rate=5.0),
        ],
        consumer=Consumer("C", node=5),
    )
    stats = Statistics.build({"A": 5.0, "B": 5.0}, {("A", "B"): 0.2})
    plan = LogicalPlan(JoinNode(LeafNode("A"), LeafNode("B")))
    circuit = Circuit.from_plan(plan, query, stats)
    return space, query, stats, circuit


class TestLocalStep:
    def test_migrates_badly_placed_service(self):
        space, _, _, circuit = line_setup()
        circuit.assign("q/join0", 0)  # far from optimum (~x=50)
        reopt = Reoptimizer(space)
        report = reopt.local_step(circuit)
        assert report.migrated
        new_host = circuit.host_of("q/join0")
        assert 3 <= new_host <= 7
        assert report.improvement > 0

    def test_stable_placement_does_not_migrate(self):
        space, _, _, circuit = line_setup()
        circuit.assign("q/join0", 5)  # already at the optimum
        report = Reoptimizer(space).local_step(circuit)
        assert not report.migrated
        assert report.improvement == 0.0

    def test_threshold_blocks_marginal_migration(self):
        space, _, _, circuit = line_setup()
        circuit.assign("q/join0", 4)  # one hop from optimal
        strict = Reoptimizer(space, migration_threshold=0.9)
        report = strict.local_step(circuit)
        assert not report.migrated
        assert circuit.host_of("q/join0") == 4  # reverted

    def test_requires_placed_circuit(self):
        space, _, _, circuit = line_setup()
        with pytest.raises(ValueError):
            Reoptimizer(space).local_step(circuit)

    def test_repeated_local_steps_settle(self):
        space, _, _, circuit = line_setup()
        circuit.assign("q/join0", 0)
        reopt = Reoptimizer(space)
        reports = [reopt.local_step(circuit) for _ in range(20)]
        assert not reports[-1].migrated
        assert reports[-1].cost_after.total <= reports[0].cost_before.total

    def test_negative_threshold_rejected(self):
        space, _, _, _ = line_setup()
        with pytest.raises(ValueError):
            Reoptimizer(space, migration_threshold=-0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"migration_threshold": float("nan")},
            {"migration_threshold": float("inf")},
            {"load_weight": float("nan")},
            {"load_weight": float("inf")},
            {"load_weight": -1.0},
        ],
    )
    def test_non_finite_or_negative_settings_rejected(self, kwargs):
        # NaN or inf would silently reject every candidate move.
        space, _, _, _ = line_setup()
        with pytest.raises(ValueError):
            Reoptimizer(space, **kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"migration_threshold": -0.1},
            {"migration_threshold": float("nan")},
            {"load_weight": float("inf")},
            {"load_weight": -1.0},
        ],
    )
    def test_simulation_config_rejects_bad_reopt_settings(self, kwargs):
        # Raised at construction, not at the first reopt tick.
        with pytest.raises(ValueError):
            SimulationConfig(**kwargs)

    def test_any_query_name_survives_repeated_passes(self):
        # The fused arena shares the kernel cache with circuits keyed by
        # name; a query named like a string key must not collide with it.
        space, _, _, circuit = line_setup(name="__arena__")
        circuit.assign("__arena__/join0", 0)
        reopt = Reoptimizer(space, kernel_cache={})
        first = reopt.step_all([circuit])
        second = reopt.step_all([circuit])
        assert first[0].migrated
        assert not second[0].migrated
        assert reopt.arena_builds == 1

    def test_zero_threshold_and_weight_accepted(self):
        space, _, _, _ = line_setup()
        Reoptimizer(space, migration_threshold=0.0, load_weight=0.0)
        SimulationConfig(migration_threshold=0.0, load_weight=0.0)


class TestFullReoptimize:
    def test_keeps_circuit_when_still_good(self):
        space, query, stats, circuit = line_setup()
        result = IntegratedOptimizer(space).optimize(query, stats)
        reopt = Reoptimizer(space)
        report, fresh = reopt.full_reoptimize(result.circuit, query, stats)
        assert fresh is None
        assert not report.replaced_plan

    def test_replaces_circuit_after_drift(self):
        space, query, stats, circuit = line_setup()
        circuit.assign("q/join0", 0)  # a stale, bad placement
        reopt = Reoptimizer(space)
        report, fresh = reopt.full_reoptimize(circuit, query, stats)
        assert report.replaced_plan
        assert fresh is not None
        assert fresh.cost.total < report.cost_before.total

    def test_replace_threshold_validation(self):
        space, query, stats, circuit = line_setup()
        circuit.assign("q/join0", 5)
        with pytest.raises(ValueError):
            Reoptimizer(space).full_reoptimize(
                circuit, query, stats, replace_threshold=-1.0
            )


class TestEvacuate:
    def test_moves_services_off_failed_node(self):
        space, _, _, circuit = line_setup()
        circuit.assign("q/join0", 5)
        reopt = Reoptimizer(space)
        migrations = reopt.evacuate(circuit, failed_node=5)
        assert len(migrations) == 1
        assert circuit.host_of("q/join0") != 5

    def test_noop_if_nothing_hosted_there(self):
        space, _, _, circuit = line_setup()
        circuit.assign("q/join0", 5)
        migrations = Reoptimizer(space).evacuate(circuit, failed_node=2)
        assert migrations == []

    def test_pinned_only_node_maps_nothing(self, monkeypatch):
        # Node 0 hosts only the pinned producer A: nothing may move, and
        # the evacuation returns before it maps a single target.
        space, _, _, circuit = line_setup()
        circuit.assign("q/join0", 5)
        reopt = Reoptimizer(space)

        def refuse(targets):
            raise AssertionError("evacuate mapped a target")

        monkeypatch.setattr(reopt.mapper, "map_coordinates", refuse)
        assert reopt.evacuate(circuit, failed_node=0) == []
        assert circuit.host_of("q/join0") == 5

    def test_preserves_preexisting_exclusions(self):
        space, _, _, circuit = line_setup()
        circuit.assign("q/join0", 5)
        reopt = Reoptimizer(space)
        reopt.mapper.exclude(9)
        reopt.evacuate(circuit, failed_node=5)
        assert 9 in reopt.mapper.excluded
        assert 5 not in reopt.mapper.excluded  # temporary exclusion undone
