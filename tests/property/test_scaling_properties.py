"""Elastic-scaling properties: key-partition exactness and twin parity.

PR 9's replication invariants, as stated in ROADMAP:

* **key-partition exactness** — a join split into k key-range replicas
  plus a merge relay delivers *exactly* the unreplicated circuit's sink
  tuples (as a multiset; the merge re-interleaves in canonical order),
  because per-key state lands wholly on one replica and the family
  link rates compile to bitwise-identical operator parameters;
* **conservation through split/merge** — ``sent == delivered +
  in_flight + buffered`` and ``delivered == processed + dropped`` hold
  on every tick, including the ticks where a scale event re-homes
  in-flight tuples and per-key state;
* **deterministic routing** — the key-bucket router draws no RNG
  (SplitMix64 of the tuple key), so the vectorized and scalar twins
  route, process, and account identically through scale events, live
  migration, and churn;
* **hostile sizing** — a scale-up asking for more replicas than there
  are alive nodes still applies: the surplus replicas share the base
  host, and the twins and conservation hold through the swap.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.circuit import Circuit, Service
from repro.core.rewriting import (
    merge_replicas,
    merge_sid,
    replica_families,
    replica_sid,
    replicate_operator,
)
from repro.network.dynamics import ChurnProcess
from repro.network.topology import grid_topology
from repro.obs import Observability
from repro.query.operators import ServiceSpec
from repro.runtime.dataplane import DataPlane, RuntimeConfig
from repro.sbon.overlay import Overlay
from repro.sbon.simulator import Simulation, SimulationConfig
from repro.scaling import AutoScaler, AutoScalerConfig

TICKS = 40


def join_circuit(name="t"):
    c = Circuit(name=name)
    c.add_service(Service("s1", ServiceSpec.relay(), 1, frozenset({"a"})))
    c.add_service(Service("s2", ServiceSpec.relay(), 2, frozenset({"b"})))
    c.add_service(Service("j", ServiceSpec.join(), None, frozenset({"a", "b"})))
    c.add_service(Service("k", ServiceSpec.relay(), 3, frozenset({"a", "b"})))
    c.add_link("s1", "j", 8.0)
    c.add_link("s2", "j", 5.0)
    c.add_link("j", "k", 2.5)
    c.assign("j", 0)
    return c


def make_overlay(circuit, seed=0):
    overlay = Overlay.build(
        grid_topology(3, 3), vector_dims=2, embedding_rounds=5, seed=seed
    )
    overlay.install_circuit(circuit)
    return overlay


class _Outage:
    """A churn process whose alive mask also holds ``nodes`` down while
    its tick is in ``ticks``, without reporting them failed (so the
    simulator never evacuates them)."""

    def __init__(self, churn, nodes, ticks):
        self.churn, self.nodes, self.ticks = churn, nodes, ticks

    def step(self):
        return self.churn.step()

    def step_scalar(self):
        return self.churn.step_scalar()

    def alive_mask(self):
        mask = self.churn.alive_mask()
        if self.churn.tick in self.ticks:
            mask[self.nodes] = False
        return mask


def circuit_shape(circuit):
    return (
        sorted(circuit.services),
        sorted((l.source, l.target, l.rate) for l in circuit.links),
        dict(circuit.placement),
    )


class TestReplicationRewrite:
    """Structural sanity of replicate_operator / merge_replicas."""

    def test_split_structure(self):
        result = replicate_operator(join_circuit(), "j", 3)
        assert result.applied
        circuit = result.circuit
        fams = replica_families(circuit)
        assert fams["j"]["count"] == 3
        assert fams["j"]["replicas"] == [replica_sid("j", i) for i in range(3)]
        assert fams["j"]["merge"] == merge_sid("j")
        # Split in-links carry rate/k per replica; the merge keeps the
        # original downstream rate.
        for i in range(3):
            rates = sorted(
                l.rate for l in circuit.links if l.target == replica_sid("j", i)
            )
            assert np.allclose(rates, [5.0 / 3, 8.0 / 3])
        (out,) = [l for l in circuit.links if l.source == merge_sid("j")]
        assert out.target == "k" and out.rate == 2.5
        # Replicas and merge inherit the base's host by default.
        assert all(
            circuit.placement[sid] == 0
            for sid in (*fams["j"]["replicas"], fams["j"]["merge"])
        )

    def test_merge_restores_original_exactly(self):
        original = join_circuit()
        up = replicate_operator(original, "j", 3)
        down = merge_replicas(up.circuit, "j")
        assert down.applied
        assert circuit_shape(down.circuit) == circuit_shape(original)

    def test_rescale_and_refusals(self):
        up = replicate_operator(join_circuit(), "j", 3).circuit
        rescaled = replicate_operator(up, "j", 2)
        assert rescaled.applied
        assert replica_families(rescaled.circuit)["j"]["count"] == 2
        assert not replicate_operator(join_circuit(), "s1", 3).applied  # source
        assert not replicate_operator(join_circuit(), "k", 3).applied  # sink
        assert not replicate_operator(join_circuit(), "j", 1).applied  # no-op
        assert not replicate_operator(up, "j", 3).applied  # already at k


class TestKeyPartitionExactness:
    """Replicated and unreplicated twins deliver identical sink multisets."""

    def run_plane(self, circuit, scalar=False, seed=7):
        plane = DataPlane(make_overlay(circuit), RuntimeConfig(seed=seed))
        plane.sink_log = []
        for _ in range(TICKS):
            plane.step_scalar() if scalar else plane.step()
            assert plane.accounting()["balanced"]
        return plane

    def test_static_k3_matches_unreplicated(self):
        flat = self.run_plane(join_circuit())
        split = self.run_plane(replicate_operator(join_circuit(), "j", 3).circuit)
        assert len(flat.sink_log) > 0
        assert sorted(split.sink_log) == sorted(flat.sink_log)

    def test_scalar_twin_matches_too(self):
        flat = self.run_plane(join_circuit())
        split = self.run_plane(
            replicate_operator(join_circuit(), "j", 3).circuit, scalar=True
        )
        assert sorted(split.sink_log) == sorted(flat.sink_log)

    def test_scale_round_trip_matches_continuous_run(self):
        """k=1 → k=3 → k=1 mid-run delivers the uninterrupted run's tuples."""
        flat = self.run_plane(join_circuit())
        overlay = make_overlay(join_circuit())
        plane = DataPlane(overlay, RuntimeConfig(seed=7))
        plane.sink_log = []
        for _ in range(15):
            plane.step()
        up = replicate_operator(overlay.circuits["t"], "j", 3)
        assert up.applied
        overlay.replace_circuit(up.circuit)
        for _ in range(15):
            plane.step()
        down = merge_replicas(overlay.circuits["t"], "j")
        assert down.applied
        overlay.replace_circuit(down.circuit)
        for _ in range(TICKS - 30):
            plane.step()
        assert plane.accounting()["balanced"]
        assert plane.recompiles >= 2
        assert sorted(plane.sink_log) == sorted(flat.sink_log)


class TestTwinEquivalenceUnderScaling:
    """Vectorized and scalar twins stay tick-for-tick equal through
    scale events, live migration, churn, and backpressure."""

    def test_tick_for_tick_through_scale_events(self):
        planes = []
        for _ in range(2):
            overlay = make_overlay(join_circuit())
            planes.append(
                (overlay, DataPlane(overlay, RuntimeConfig(seed=7, node_capacity=30.0)))
            )
        for t in range(TICKS):
            recs = []
            for (overlay, plane), scalar in zip(planes, (False, True)):
                if t == 10:
                    up = replicate_operator(
                        overlay.circuits["t"], "j", 3, placement=[0, 4, 8]
                    )
                    overlay.replace_circuit(up.circuit)
                if t == 20:
                    overlay.apply_migration("t", replica_sid("j", 1), 5)
                if t == 30:
                    down = replicate_operator(overlay.circuits["t"], "j", 1)
                    overlay.replace_circuit(down.circuit)
                recs.append(plane.step_scalar() if scalar else plane.step())
            rv, rs = recs
            assert (rv.emitted, rv.delivered, rv.dropped, rv.processed) == (
                rs.emitted,
                rs.delivered,
                rs.dropped,
                rs.processed,
            ), t
            assert abs(rv.cpu_cost - rs.cpu_cost) < 1e-9, t
            for _, plane in planes:
                assert plane.accounting()["balanced"], t

    @pytest.mark.parametrize("reliable", [False, True])
    def test_simulation_twins_with_churn_and_trace_completeness(self, reliable):
        """Full tick loop with churn: twins emit equal records and the
        per-span trace completeness invariant holds on every tick —
        including the scale-event and merge ticks.

        Replica hosts 4 and 8 are forced down from tick 12 through the
        merge at tick 20 without being reported failed, so nothing
        evacuates them: with ``reliable`` the merge re-routes parked
        tuples by key, and they are redelivered once the hosts return.
        """
        sims = []
        for _ in range(2):
            overlay = make_overlay(join_circuit())
            obs = Observability(tracing=True, trace_rate=1.0, metrics=True)
            churn = ChurnProcess(
                overlay.num_nodes,
                fail_prob=0.03,
                recover_prob=0.3,
                protected={0, 1, 2, 3},
                seed=3,
            )
            sims.append(
                Simulation(
                    overlay,
                    churn=_Outage(churn, nodes=[4, 8], ticks=range(12, 21)),
                    config=SimulationConfig(reopt_interval=0),
                    data_plane=DataPlane(
                        overlay, RuntimeConfig(seed=9, reliable=reliable)
                    ),
                    obs=obs,
                )
            )
        parked_at_scale_event = 0
        for t in range(30):
            recs = []
            if t in (8, 20):
                parked_at_scale_event += sims[0].data_plane.accounting()["buffered"]
            for sim, scalar in zip(sims, (False, True)):
                if t == 8:
                    up = replicate_operator(
                        sim.overlay.circuits["t"], "j", 3, placement=[0, 4, 8]
                    )
                    sim.overlay.replace_circuit(up.circuit)
                if t == 20:
                    down = merge_replicas(sim.overlay.circuits["t"], "j")
                    sim.overlay.replace_circuit(down.circuit)
                recs.append(sim.step_scalar() if scalar else sim.step())
                res = sim.data_plane.trace_completeness()
                assert res["ok"], (t, res["violations"])
                assert sim.data_plane.accounting()["balanced"], t
            assert recs[0] == recs[1], t
        if reliable:
            assert parked_at_scale_event > 0
            assert sims[0].data_plane.redelivered > 0


class TestHostileScaleUp:
    """A scale-up asking for more replicas than there are alive nodes."""

    def test_more_replicas_than_alive_nodes(self):
        """``_spread_hints`` spreads the new replicas over every other
        alive node and pads the rest onto the base host; the rewrite
        applies, the step / scalar twins agree through the swap and
        conservation holds."""
        config = AutoScalerConfig(budget=0.05, breach_ticks=1, cooldown=100, k_max=12)
        sims = []
        for _ in range(2):
            overlay = make_overlay(join_circuit())
            plane = DataPlane(overlay, RuntimeConfig(seed=7))
            sims.append(
                Simulation(
                    overlay,
                    config=SimulationConfig(reopt_interval=0),
                    data_plane=plane,
                    autoscaler=AutoScaler(overlay, plane, config),
                )
            )
        alive = int(sims[0].overlay.alive_mask().sum())
        assert config.k_max > alive
        for t in range(TICKS):
            vec, ref = sims[0].step(), sims[1].step_scalar()
            # The estimated usage sums a 12-way split's link rates in a
            # different order on the two paths (one ulp apart); every
            # measured field agrees exactly.
            assert vec.network_usage == pytest.approx(ref.network_usage, rel=1e-12)
            assert replace(vec, network_usage=0.0) == replace(ref, network_usage=0.0), t
            for sim in sims:
                assert sim.data_plane.accounting()["balanced"], t
        for sim in sims:
            assert sim.autoscaler.scale_ups == 1
            circuit = sim.overlay.circuits["t"]
            family = replica_families(circuit)["j"]
            assert family["count"] == config.k_max
            hosts = [circuit.host_of(sid) for sid in family["replicas"]]
            # Replica 0 keeps the base's host; one new replica on every
            # other alive node, the remaining ones padded onto the base.
            assert hosts[0] == 0
            assert set(hosts) == set(range(alive))
            assert hosts[alive:] == [0] * (config.k_max - alive)
            assert sim.data_plane.recompiles == 1
        assert sims[0].overlay.circuits["t"].placement == (
            sims[1].overlay.circuits["t"].placement
        )
