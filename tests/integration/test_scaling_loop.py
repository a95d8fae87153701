"""Closed-loop integration: elastic scaling relieves what moves cannot.

The PR-9 acceptance demo: under the flash-crowd (``lambda_spike``)
variant of the CPU-hotspot scenario a single join's measured CPU cost
outgrows any one node's budget, so the move-only controller can only
shuffle the overload between hosts.  The autoscaled loop splits hot
joins into key-partitioned replicas, spreads them over the least-CPU
alive nodes, and folds them back once the crowd passes — it must
eliminate at least 50% of the move-only run's p95 measured CPU
overload.  Both runs ride identical tuple streams (the spike drifts
*realized* source λ, independent of placement and replication), so the
comparison is scaling signal, not noise.

The array-resident monitor is pinned to :class:`DictScaler` — the
per-family dict loop that rebuilds every family from the circuit
objects each tick — decision for decision.
"""

import math

import numpy as np
import pytest

from repro.core.circuit import Circuit, Service
from repro.core.cost_space import CostSpace, CostSpaceSpec
from repro.core.reoptimizer import Reoptimizer
from repro.core.rewriting import replica_families, replicate_operator
from repro.obs.events import EventLog
from repro.network.latency import LatencyMatrix
from repro.query.model import Consumer, Producer, QuerySpec
from repro.query.operators import ServiceSpec
from repro.query.plan import JoinNode, LeafNode, LogicalPlan
from repro.query.selectivity import Statistics
from repro.runtime import DataPlane, RuntimeConfig
from repro.sbon.overlay import Overlay
from repro.scaling import AutoScaler, AutoScalerConfig
from repro.scaling.autoscaler import _SCALABLE
from repro.workloads.scenarios import (
    cpu_hotspot_scenario,
    perfect_cost_space,
    scaling_overload_comparison,
)

TICKS = 80
EVAL_WINDOW = 35


class TestElasticScalingLoop:
    @pytest.fixture(scope="class")
    def comparison(self):
        return scaling_overload_comparison(
            ticks=TICKS, eval_window=EVAL_WINDOW, seed=0
        )

    def test_spike_overloads_the_move_only_loop(self, comparison):
        """The flash crowd produces real overload placement can't fix."""
        assert comparison["move_only"] > 0

    def test_autoscaler_halves_p95_overload(self, comparison):
        assert comparison["improvement"] >= 0.5, comparison

    def test_scales_up_and_back_down(self, comparison):
        """The crowd passes: the loop both splits and folds families."""
        assert comparison["scale_ups"] > 0
        assert comparison["scale_downs"] > 0


def _line_circuit():
    """A 2-producer join on a line of nodes, placed far off its optimum."""
    positions = [(10.0 * x, 0.0) for x in range(11)]
    space = perfect_cost_space(positions)
    query = QuerySpec(
        name="q",
        producers=[
            Producer("A", node=0, rate=5.0),
            Producer("B", node=10, rate=5.0),
        ],
        consumer=Consumer("C", node=5),
    )
    stats = Statistics.build({"A": 5.0, "B": 5.0}, {("A", "B"): 0.2})
    plan = LogicalPlan(JoinNode(LeafNode("A"), LeafNode("B")))
    circuit = Circuit.from_plan(plan, query, stats)
    circuit.assign("q/join0", 0)
    return space, circuit


def _join_overlay(n=10, circuits=1):
    """``circuits`` two-producer join circuits ``c0, c1, ...`` on ``n``
    random nodes."""
    rng = np.random.default_rng(0)
    points = rng.uniform(0.0, 100.0, size=(n, 2))
    diff = points[:, None, :] - points[None, :, :]
    latencies = LatencyMatrix(np.sqrt((diff ** 2).sum(axis=-1)))
    spec = CostSpaceSpec.latency_load(vector_dims=2)
    space = CostSpace.from_embedding(spec, points, {"cpu_load": np.zeros(n)})
    overlay = Overlay(latencies, space)
    for i in range(circuits):
        c = f"c{i}"
        circuit = Circuit(name=c)
        circuit.add_service(Service(f"{c}/pa", ServiceSpec.relay(), 0, frozenset(("A",))))
        circuit.add_service(Service(f"{c}/pb", ServiceSpec.relay(), 1, frozenset(("B",))))
        circuit.add_service(Service(f"{c}/j", ServiceSpec.join(), None, frozenset(("A", "B"))))
        circuit.add_service(Service(f"{c}/sink", ServiceSpec.relay(), 3, frozenset(("ALL",))))
        circuit.add_link(f"{c}/pa", f"{c}/j", 5.0 + i)
        circuit.add_link(f"{c}/pb", f"{c}/j", 5.0)
        circuit.add_link(f"{c}/j", f"{c}/sink", 2.0)
        circuit.assign(f"{c}/j", 2)
        overlay.install_circuit(circuit)
    return overlay


class TestScalerReoptHoldDown:
    """Freshly re-split families hold their homes through placement passes.

    A scale event spreads new replicas onto the least-CPU nodes; while
    the (opt-in) ``reopt_hold`` window is open, the re-optimizer must
    not herd those operators back toward the latency optimum (the two
    control loops would fight, churning state migrations every
    interval).  The hold defaults off because the CPU-aware placement
    pass is itself an overload-relief mechanism — see the
    ``AutoScalerConfig.reopt_hold`` docstring.
    """

    def test_frozen_blocks_the_accept_sweep(self):
        space, circuit = _line_circuit()
        reopt = Reoptimizer(space)
        reopt.frozen = {("q", "q/join0")}
        report = reopt.local_step(circuit)
        assert not report.migrated
        assert circuit.host_of("q/join0") == 0
        # Hold released: the same pass now migrates toward the optimum.
        reopt.frozen = set()
        assert reopt.local_step(circuit).migrated
        assert 3 <= circuit.host_of("q/join0") <= 7

    def test_frozen_blocks_the_scalar_reference_too(self):
        space, circuit = _line_circuit()
        reopt = Reoptimizer(space)
        reopt.frozen = {("q", "q/join0")}
        assert not reopt.local_step_scalar(circuit).migrated
        assert circuit.host_of("q/join0") == 0
        reopt.frozen = set()
        assert reopt.local_step_scalar(circuit).migrated

    def test_frozen_services_follows_the_hold_clock(self):
        overlay = _join_overlay()
        plane = DataPlane(overlay, RuntimeConfig(seed=1))
        scaler = AutoScaler(
            overlay, plane, AutoScalerConfig(cooldown=6, reopt_hold=6)
        )
        assert scaler.frozen_services() == set()
        result = replicate_operator(overlay.circuits["c0"], "c0/j", 2)
        assert result.applied
        overlay.replace_circuit(result.circuit)
        # As if the split above happened at tick 4 with reopt_hold 6.
        scaler.tick = 4
        table = scaler._families()
        fam = table.keys.index(("c0", "c0/j"))
        table.reopt[fam] = 10
        frozen = scaler.frozen_services()
        members = {("c0", sid) for sid in table.members[fam]}
        assert frozen == members
        assert len(frozen) >= 3  # both replicas plus the merge relay
        scaler.tick = 10
        assert scaler.frozen_services() == set()
        # Default config (reopt_hold=0) never freezes, even mid-cooldown.
        plain = AutoScaler(overlay, plane, AutoScalerConfig(cooldown=6))
        plain.tick = 4
        plain_table = plain._families()
        plain_table.hold[plain_table.keys.index(("c0", "c0/j"))] = 10
        assert plain.frozen_services() == set()

    def test_closed_loop_reopt_respects_scaler_cooldown(self):
        scenario = cpu_hotspot_scenario(
            mode="cost",
            num_chains=4,
            lambda_spike=5.0,
            autoscale=AutoScalerConfig(
                budget=200.0,
                breach_ticks=2,
                cold_ticks=4,
                cooldown=8,
                reopt_hold=8,
            ),
            seed=0,
        )
        sim = scenario.simulation
        scaler = scenario.autoscaler
        for _ in range(TICKS):
            sim.step()
            if scaler.scale_ups > 0:
                break
        assert scaler.scale_ups > 0, "spike never triggered a scale-up"
        frozen = scaler.frozen_services()
        assert frozen, "family not frozen right after its scale event"
        hosts = {
            (c, s): sim.overlay.circuits[c].host_of(s) for (c, s) in frozen
        }
        sim._reoptimize_all()
        for (c, s), node in hosts.items():
            assert sim.overlay.circuits[c].host_of(s) == node, (c, s)


class DictScaler(AutoScaler):
    """The per-family dict loop: the decision reference for the monitor.

    Every tick rebuilds each family from the installed circuit objects,
    sums its members' measured CPU one row at a time and keeps the
    policy state in dicts keyed ``(circuit, base)``.  A rewrite starts
    from the installed circuit, so two families of one circuit can
    re-split in one tick.
    """

    def __init__(self, overlay, data_plane, config=None):
        super().__init__(overlay, data_plane, config)
        self.ewma: dict = {}
        self.breach: dict = {}
        self.cold: dict = {}
        self.hold_until: dict = {}
        self.reopt_until: dict = {}

    def candidates(self):
        out = []
        for circuit in self.overlay.circuits.values():
            for base, fam in replica_families(circuit).items():
                members = [sid for sid in fam["replicas"] if sid is not None]
                if fam["merge"] is not None:
                    members.append(fam["merge"])
                out.append((circuit, base, fam["count"], members))
            has_in = {link.target for link in circuit.links}
            has_out = {link.source for link in circuit.links}
            for sid, service in circuit.services.items():
                if (
                    service.replica is None
                    and service.kind in _SCALABLE
                    and not service.is_pinned
                    and sid in has_in
                    and sid in has_out
                ):
                    out.append((circuit, sid, 1, [sid]))
        return out

    def family_cpu(self, name, members):
        dp = self.data_plane
        cpu = dp.tick_op_cpu
        total = 0.0
        for sid in members:
            row = dp._op_index.get((name, sid))
            if row is None or row >= cpu.size:
                return None
            total += float(cpu[row])
        return total

    def frozen_services(self):
        return {
            (circuit.name, sid)
            for circuit, base, _k, members in self.candidates()
            if self.tick < self.reopt_until.get((circuit.name, base), 0)
            for sid in members
        }

    def step(self):
        self.tick += 1
        cfg = self.config
        scaled = 0
        for circuit, base, k, members in self.candidates():
            key = (circuit.name, base)
            measured = self.family_cpu(circuit.name, members)
            if measured is None:
                continue
            prev = self.ewma.get(key)
            ewma = (
                measured
                if prev is None
                else cfg.alpha * measured + (1.0 - cfg.alpha) * prev
            )
            self.ewma[key] = ewma
            per_replica = ewma / k
            if per_replica > cfg.up_threshold * cfg.budget:
                self.breach[key] = self.breach.get(key, 0) + 1
                self.cold[key] = 0
            elif k > 1 and per_replica < cfg.down_threshold * cfg.budget:
                self.cold[key] = self.cold.get(key, 0) + 1
                self.breach[key] = 0
            else:
                self.breach[key] = 0
                self.cold[key] = 0
            if self.tick < self.hold_until.get(key, 0):
                continue
            target = max(1, math.ceil(ewma / (cfg.target_util * cfg.budget)))
            if self.breach[key] >= cfg.breach_ticks and k < cfg.k_max:
                k_new, reason = min(cfg.k_max, max(k + 1, target)), "cpu_breach"
            elif self.cold[key] >= cfg.cold_ticks and k > 1:
                k_new, reason = max(1, min(k - 1, target)), "cold"
            else:
                continue
            installed = self.overlay.circuits[circuit.name]
            hints = (
                self._spread_hints(installed, base, k, k_new, members)
                if k_new > 1
                else None
            )
            result = replicate_operator(installed, base, k_new, placement=hints)
            if not result.applied:
                continue
            self.overlay.replace_circuit(result.circuit)
            scaled += 1
            self.hold_until[key] = self.tick + cfg.cooldown
            if cfg.reopt_hold > 0:
                self.reopt_until[key] = self.tick + cfg.reopt_hold
            self.breach[key] = 0
            self.cold[key] = 0
            if k_new > k:
                self.scale_ups += 1
            else:
                self.scale_downs += 1
            self.events.emit(
                self.tick,
                "scale_up" if k_new > k else "scale_down",
                circuit=circuit.name,
                service=base,
                k_from=k,
                k_to=k_new,
                reason=reason,
                family_cpu=round(ewma, 3),
            )
        return scaled


def assert_same_decision_state(scaler, ref, label):
    """Same families and k, EWMA bits, counters and events."""
    table = scaler._families()
    ref_k = {(c.name, base): k for c, base, k, _ in ref.candidates()}
    assert table.keys == list(ref_k), label
    for f, key in enumerate(table.keys):
        assert int(table.k[f]) == ref_k[key], (label, key)
        if key in ref.ewma:
            assert table.seen[f], (label, key)
            assert float(table.ewma[f]).hex() == ref.ewma[key].hex(), (label, key)
        else:
            assert not table.seen[f], (label, key)
        assert table.breach[f] == ref.breach.get(key, 0), (label, key)
        assert table.cold[f] == ref.cold.get(key, 0), (label, key)
    assert scaler.events.events == ref.events.events, label
    assert (scaler.scale_ups, scaler.scale_downs) == (ref.scale_ups, ref.scale_downs)
    assert scaler.frozen_services() == ref.frozen_services(), label


def flash_crowd(scaler_cls, config):
    scenario = cpu_hotspot_scenario(
        mode="cost", num_chains=4, lambda_spike=5.0, autoscale=config, seed=0
    )
    sim = scenario.simulation
    scaler = scaler_cls(sim.overlay, scenario.data_plane, config)
    scaler.events = EventLog()
    sim.autoscaler = scaler
    return sim, scaler


class TestAutoScalerConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("budget", float("nan")),
            ("up_threshold", float("nan")),
            ("down_threshold", float("nan")),
            ("alpha", 0.0),
            ("alpha", 1.5),
            ("breach_ticks", -1),
            ("breach_ticks", 0),
            ("cold_ticks", -1),
            ("cold_ticks", 0),
            ("cooldown", -1),
        ],
    )
    def test_rejects(self, field, value):
        with pytest.raises(ValueError):
            AutoScalerConfig(**{field: value})

    def test_unbounded_budget_and_threshold_stay_legal(self):
        inf = float("inf")
        AutoScalerConfig(budget=inf, up_threshold=inf)


class TestMonitorMatchesDictReference:
    """The family table decides exactly as the per-family dict loop."""

    @pytest.mark.parametrize("reopt_hold", [0, 8])
    def test_flash_crowd_tick_for_tick(self, reopt_hold):
        config = AutoScalerConfig(
            budget=200.0,
            breach_ticks=2,
            cold_ticks=4,
            cooldown=6,
            k_max=8,
            reopt_hold=reopt_hold,
        )
        sim, scaler = flash_crowd(AutoScaler, config)
        ref_sim, ref = flash_crowd(DictScaler, config)
        for tick in range(TICKS):
            record = sim.step()
            assert record == ref_sim.step(), tick
            assert_same_decision_state(scaler, ref, tick)
        assert scaler.scale_ups > 0 and scaler.scale_downs > 0

    def test_family_with_missing_op_rows_is_skipped_alike(self):
        """A circuit rewritten between data-plane syncs has no rows for
        its new members: that family is skipped, the others decide."""
        config = AutoScalerConfig(
            budget=0.5, breach_ticks=2, cooldown=4, k_max=3, cold_ticks=3
        )
        runs = []
        for cls in (AutoScaler, DictScaler):
            overlay = _join_overlay(circuits=2)
            plane = DataPlane(overlay, RuntimeConfig(seed=1))
            scaler = cls(overlay, plane, config)
            scaler.events = EventLog()
            runs.append((overlay, plane, scaler))
        skipped = False
        for tick in range(25):
            for overlay, plane, scaler in runs:
                plane.step()
                if tick == 6:
                    # Split c0/j behind the data plane's back, then let
                    # the scaler look before the plane re-syncs.
                    circuit = overlay.circuits["c0"]
                    k = replica_families(circuit).get("c0/j", {"count": 1})["count"]
                    result = replicate_operator(circuit, "c0/j", k + 1)
                    assert result.applied
                    overlay.replace_circuit(result.circuit)
                scaler.step()
            (_, plane, scaler), (_, _, ref) = runs
            if tick == 6:
                table = scaler._families()
                fam = table.keys.index(("c0", "c0/j"))
                assert table.max_row[fam] < 0  # c0/j's members have no rows
                skipped = True
            assert_same_decision_state(scaler, ref, tick)
        assert skipped and scaler.scale_ups > 0

    def test_steady_ticks_build_the_table_once(self):
        overlay = _join_overlay(circuits=3)
        plane = DataPlane(overlay, RuntimeConfig(seed=1))
        scaler = AutoScaler(overlay, plane, AutoScalerConfig(budget=1e9))
        plane.step()
        table = scaler._families()
        for _ in range(20):
            scaler.step()
            scaler.frozen_services()
            plane.step()
        assert scaler._families() is table
        assert table.ewma.all() and len(table.keys) == 3
        assert scaler.scale_ups == scaler.scale_downs == 0


def _two_join_overlay():
    """``((A⋈B)⋈C)`` on one host: both joins breach together."""
    overlay = _join_overlay(circuits=0)
    circuit = Circuit(name="c0")
    for sid, node, streams in (("pa", 0, "A"), ("pb", 1, "B"), ("pc", 4, "C")):
        circuit.add_service(
            Service(f"c0/{sid}", ServiceSpec.relay(), node, frozenset((streams,)))
        )
    circuit.add_service(Service("c0/j1", ServiceSpec.join(), None, frozenset("AB")))
    circuit.add_service(Service("c0/j2", ServiceSpec.join(), None, frozenset("ABC")))
    circuit.add_service(Service("c0/sink", ServiceSpec.relay(), 3, frozenset(("ALL",))))
    circuit.add_link("c0/pa", "c0/j1", 5.0)
    circuit.add_link("c0/pb", "c0/j1", 5.0)
    circuit.add_link("c0/j1", "c0/j2", 2.0)
    circuit.add_link("c0/pc", "c0/j2", 5.0)
    circuit.add_link("c0/j2", "c0/sink", 1.0)
    circuit.assign("c0/j1", 2)
    circuit.assign("c0/j2", 2)
    overlay.install_circuit(circuit)
    return overlay


class TestSameTickRewrites:
    def test_two_families_of_one_circuit_scale_in_one_tick(self):
        """The second rewrite starts from the first's circuit, so both
        families end up replicated; conservation holds across the
        double swap."""
        overlay = _two_join_overlay()
        plane = DataPlane(overlay, RuntimeConfig(seed=3))
        scaler = AutoScaler(
            overlay,
            plane,
            AutoScalerConfig(budget=0.25, breach_ticks=2, cooldown=100, k_max=2),
        )
        scaler.events = EventLog()
        # Warm up until tuples reach both joins, then watch: both breach
        # from the scaler's first tick on.
        for _ in range(12):
            plane.step()
        for _ in range(5):
            plane.step()
            assert plane.accounting()["balanced"]
            if scaler.step():
                break
        assert scaler.scale_ups == 2
        ups = [e for e in scaler.events if e["kind"] == "scale_up"]
        assert [e["service"] for e in ups] == ["c0/j1", "c0/j2"]
        assert ups[0]["tick"] == ups[1]["tick"]
        families = replica_families(overlay.circuits["c0"])
        assert {base: fam["count"] for base, fam in families.items()} == {
            "c0/j1": 2,
            "c0/j2": 2,
        }
        recompiles = plane.recompiles
        for _ in range(15):
            plane.step()
            assert plane.accounting()["balanced"]
        assert plane.recompiles == recompiles + 1  # one swap, both families
        assert plane.tick_op_cpu.size == len(overlay.circuits["c0"].services)
