"""Unit tests for the unified CPU-cost model (the one load currency).

Covers the :class:`LoadModel` itself, the data plane's cost measurement
and cost-based admission, the overlay's measured-load feed, the
load-process cost units, and the controller's CPU write-back and
quantile calibration.
"""

import dataclasses

import numpy as np
import pytest

from repro.control import ControlConfig, Controller
from repro.core.circuit import Circuit, Service
from repro.core.cost_space import CostSpace, CostSpaceSpec
from repro.core.load_model import (
    KIND_AGGREGATE,
    KIND_FILTER,
    KIND_JOIN,
    KIND_RELAY,
    LoadModel,
)
from repro.network.dynamics import HotspotEvent, LoadProcess
from repro.network.latency import LatencyMatrix
from repro.query.operators import ServiceSpec
from repro.runtime import DataPlane, RuntimeConfig
from repro.sbon.overlay import Overlay


def planted_overlay(n=12, seed=0):
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, 100.0, size=(n, 2))
    diff = points[:, None, :] - points[None, :, :]
    latencies = LatencyMatrix(np.sqrt((diff ** 2).sum(axis=-1)))
    spec = CostSpaceSpec.latency_load(vector_dims=2)
    space = CostSpace.from_embedding(spec, points, {"cpu_load": np.zeros(n)})
    return Overlay(latencies, space)


def chain_circuit(name="c0", producer=0, middle=1, sink=2, rate=6.0, sel=0.5):
    circuit = Circuit(name=name)
    circuit.add_service(Service(f"{name}/src", ServiceSpec.relay(), producer, frozenset(("P",))))
    circuit.add_service(Service(f"{name}/f", ServiceSpec.filter(sel), None, frozenset(("P",))))
    circuit.add_service(Service(f"{name}/sink", ServiceSpec.relay(), sink, frozenset(("P",))))
    circuit.add_link(f"{name}/src", f"{name}/f", rate)
    circuit.add_link(f"{name}/f", f"{name}/sink", rate * sel)
    circuit.assign(f"{name}/f", middle)
    return circuit


class TestLoadModel:
    def test_defaults_are_positive_and_join_heavy(self):
        model = LoadModel()
        assert model.join_cost > model.relay_cost
        assert model.probe_cost > 0
        assert model != LoadModel.unit()

    def test_unit_model_is_counting(self):
        unit = LoadModel.unit()
        assert (unit.aggregate_batch_cost, unit.probe_cost) == (0.0, 0.0)
        np.testing.assert_array_equal(unit.kind_costs(), np.ones(4))
        for kind in (KIND_RELAY, KIND_FILTER, KIND_AGGREGATE, KIND_JOIN):
            assert unit.cost_of(kind, probes=7, batch=9) == 1.0

    def test_kind_costs_order(self):
        model = LoadModel(
            relay_cost=1.0, filter_cost=2.0, aggregate_cost=3.0, join_cost=4.0
        )
        np.testing.assert_array_equal(
            model.kind_costs(), [1.0, 2.0, 3.0, 4.0]
        )

    def test_cost_of_terms(self):
        model = LoadModel(
            join_cost=2.0, probe_cost=0.5, aggregate_cost=1.5,
            aggregate_batch_cost=0.25,
        )
        assert model.cost_of(KIND_JOIN, probes=4) == 4.0
        assert model.cost_of(KIND_AGGREGATE, batch=8) == 3.5
        assert model.cost_of(KIND_RELAY) == model.relay_cost

    def test_validation(self):
        with pytest.raises(ValueError):
            LoadModel(relay_cost=0.0)
        with pytest.raises(ValueError):
            LoadModel(probe_cost=-0.1)
        with pytest.raises(ValueError):
            LoadModel(aggregate_batch_cost=-1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "name",
        [f.name for f in dataclasses.fields(LoadModel)],
    )
    def test_non_finite_coefficient_rejected(self, name, value):
        # nan <= 0 is False, so a sign check alone lets nan through.
        with pytest.raises(ValueError, match="finite"):
            LoadModel(**{name: value})


class TestDataPlaneCostAccounting:
    def test_unit_model_cost_equals_count(self):
        overlay = planted_overlay()
        overlay.install_circuit(chain_circuit())
        plane = DataPlane(overlay, RuntimeConfig(seed=1))
        for _ in range(15):
            record = plane.step()
            assert record.cpu_cost == record.processed
            np.testing.assert_array_equal(
                plane.tick_node_cpu, plane.tick_node_processed.astype(float)
            )
        assert plane.cpu_cost_total == plane.processed

    def test_per_kind_costs_attributed_to_hosts(self):
        overlay = planted_overlay()
        overlay.install_circuit(chain_circuit(producer=0, middle=1, sink=2))
        model = LoadModel(relay_cost=1.0, filter_cost=2.0)
        plane = DataPlane(overlay, RuntimeConfig(seed=2, load_model=model))
        for _ in range(25):
            plane.step()
        # Filter tuples cost 2 on node 1, sink tuples cost 1 on node 2.
        assert plane.cpu_by_node[1] == 2.0 * plane.processed_by_node[1]
        assert plane.cpu_by_node[2] == 1.0 * plane.processed_by_node[2]
        assert plane.cpu_by_node[0] == 0.0  # sources are never delivered to
        assert plane.cpu_cost_total == plane.cpu_by_node.sum()

    def test_tick_cpu_sums_match_record(self):
        overlay = planted_overlay()
        overlay.install_circuit(chain_circuit())
        plane = DataPlane(overlay, RuntimeConfig(seed=3, load_model=LoadModel()))
        for _ in range(10):
            record = plane.step()
            assert record.cpu_cost == pytest.approx(plane.tick_node_cpu.sum())

    def test_cost_based_admission_admits_fewer_expensive_tuples(self):
        # Capacity 10 cost units with filter cost 2: at most 5 filter
        # tuples per tick are admitted, where counting would admit 10.
        overlay = planted_overlay()
        overlay.install_circuit(chain_circuit(rate=20.0, sel=0.5))
        model = LoadModel(relay_cost=1.0, filter_cost=2.0)
        plane = DataPlane(
            overlay, RuntimeConfig(seed=4, node_capacity=10.0, load_model=model)
        )
        before = 0
        for _ in range(20):
            plane.step()
            admitted = int(plane.processed_by_node[1]) - before
            before = int(plane.processed_by_node[1])
            assert admitted <= 5
        assert plane.dropped_capacity > 0
        # Rejected demand is accounted at its admission price.
        assert plane.cpu_dropped_total == 2.0 * plane.dropped_capacity
        assert plane.accounting()["balanced"]

    def test_unit_model_admission_matches_count_gate(self):
        a_overlay = planted_overlay(seed=7)
        b_overlay = planted_overlay(seed=7)
        a_overlay.install_circuit(chain_circuit(rate=20.0))
        b_overlay.install_circuit(chain_circuit(rate=20.0))
        unit = DataPlane(
            a_overlay,
            RuntimeConfig(seed=5, node_capacity=7.0, load_model=LoadModel.unit()),
        )
        default = DataPlane(b_overlay, RuntimeConfig(seed=5, node_capacity=7.0))
        for _ in range(15):
            assert unit.step() == default.step()
        assert unit.accounting() == default.accounting()

    def test_accounting_exports_cpu_totals(self):
        overlay = planted_overlay()
        overlay.install_circuit(chain_circuit())
        plane = DataPlane(overlay, RuntimeConfig(seed=6, load_model=LoadModel()))
        for _ in range(10):
            plane.step()
        acct = plane.accounting()
        assert acct["cpu_cost"] == plane.cpu_cost_total > 0
        assert acct["cpu_dropped"] == plane.cpu_dropped_total

    def test_buffered_backlog_names_services(self):
        overlay = planted_overlay()
        overlay.install_circuit(chain_circuit(middle=1))
        plane = DataPlane(overlay, RuntimeConfig(seed=7, reliable=True))
        assert plane.buffered_backlog() == {}
        mask = np.ones(overlay.num_nodes, dtype=bool)
        mask[1] = False
        overlay.apply_liveness(mask)
        for _ in range(8):
            plane.step()
        backlog = plane.buffered_backlog()
        assert backlog.get(("c0", "c0/f"), 0) > 0
        assert set(backlog) == {("c0", "c0/f")}


class TestOverlayMeasuredCpu:
    def test_measured_feed_raises_loads_on_both_paths(self):
        overlay = planted_overlay(n=6)
        base_v = overlay.loads().copy()
        base_s = overlay.loads_scalar().copy()
        np.testing.assert_allclose(base_v, base_s)
        measured = np.linspace(0.0, 0.9, 6)
        overlay.set_measured_cpu(measured)
        np.testing.assert_allclose(overlay.loads(), np.clip(base_v + measured, 0, 1))
        np.testing.assert_allclose(overlay.loads(), overlay.loads_scalar())
        overlay.clear_measured_cpu()
        np.testing.assert_allclose(overlay.loads(), base_v)

    def test_measured_feed_reaches_cost_space(self):
        overlay = planted_overlay(n=6)
        overlay.set_measured_cpu(np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0]))
        overlay.refresh_cost_space()
        penalties = overlay.cost_space.scalar_penalties()
        assert penalties[1] > penalties[0]

    def test_validation(self):
        overlay = planted_overlay(n=4)
        with pytest.raises(ValueError):
            overlay.set_measured_cpu(np.zeros(3))
        with pytest.raises(ValueError):
            overlay.set_measured_cpu(np.array([0.0, 0.5, 2.0, 0.0]))
        with pytest.raises(ValueError):
            overlay.set_measured_cpu(np.array([0.0, -0.5, 0.2, 0.0]))


class TestLoadProcessCostUnits:
    def test_cost_units_normalize_to_fractions(self):
        process = LoadProcess(
            8, mean_load=50.0, sigma=5.0, seed=1, cpu_capacity=200.0
        )
        cost = process.loads_cost()
        np.testing.assert_allclose(process.loads(), cost / 200.0)
        assert process.max_load == 200.0  # default 1.0 promoted
        assert np.all(process.loads() <= 1.0)

    def test_hotspot_expressed_in_cost_units(self):
        process = LoadProcess(
            4, mean_load=10.0, sigma=0.0, theta=0.0, seed=2, cpu_capacity=100.0
        )
        process.add_hotspot(HotspotEvent(0, 10, (1,), extra_load=80.0))
        cost = process.loads_cost()
        assert cost[1] == pytest.approx(cost[0] + 80.0)
        assert process.loads()[1] == pytest.approx(cost[1] / 100.0)
        np.testing.assert_allclose(process.loads(), process.loads_scalar())

    def test_fraction_mode_unchanged(self):
        a = LoadProcess(6, seed=3)
        b = LoadProcess(6, seed=3, cpu_capacity=None)
        np.testing.assert_array_equal(a.step(3), b.step(3))

    def test_validation(self):
        with pytest.raises(ValueError):
            LoadProcess(4, cpu_capacity=0.0)


class TestCostWiredBackground:
    """The fraction-typed background plumbing is retired end to end.

    A cost-typed load process (``cpu_capacity`` set) feeds the overlay
    raw cost units through :meth:`Overlay.set_background_cost`; with
    aligned capacities the run must match a fraction-typed twin tick
    for tick, and the overlay must share its ``cpu_ref`` with the
    controller.
    """

    def make_sim(self, cpu_capacity, mean, sigma=0.05, seed=4):
        from repro.sbon.simulator import Simulation, SimulationConfig

        overlay = planted_overlay(n=12, seed=7)
        overlay.install_circuit(chain_circuit())
        plane = DataPlane(overlay, RuntimeConfig(seed=seed))
        load = LoadProcess(
            12, mean_load=mean, sigma=sigma, seed=11, cpu_capacity=cpu_capacity
        )
        sim = Simulation(
            overlay,
            load_process=load,
            config=SimulationConfig(reopt_interval=0),
            data_plane=plane,
        )
        return overlay, sim

    def test_cost_wired_run_matches_fraction_twin(self):
        # Same walk in two currencies: cost units against capacity C
        # normalize to exactly the fraction twin's background.
        C = 80.0
        ov_cost, sim_cost = self.make_sim(cpu_capacity=C, mean=0.15 * C, sigma=0.05 * C)
        ov_frac, sim_frac = self.make_sim(cpu_capacity=None, mean=0.15, sigma=0.05)
        for _ in range(15):
            rc, rf = sim_cost.step(), sim_frac.step()
            assert rc.mean_load == pytest.approx(rf.mean_load, rel=1e-12)
            assert rc.max_load == pytest.approx(rf.max_load, rel=1e-12)
            assert (rc.emitted, rc.delivered, rc.dropped) == (
                rf.emitted,
                rf.delivered,
                rf.dropped,
            )
            np.testing.assert_allclose(
                ov_cost.loads(), ov_frac.loads(), rtol=1e-12
            )
        assert ov_cost.cpu_reference() == C
        assert ov_frac.cpu_reference() is None

    def test_overlay_ref_reaches_controller(self):
        C = 64.0
        _, sim = self.make_sim(cpu_capacity=C, mean=0.1 * C)
        sim.step()
        ctl = Controller(sim.data_plane, ControlConfig())
        # No cfg.cpu_ref, no node_capacity: the overlay's shared ref wins.
        assert ctl.cpu_reference() == C

    def test_set_background_cost_validation(self):
        overlay = planted_overlay(n=4)
        with pytest.raises(ValueError):
            overlay.set_background_cost(np.zeros(4), cpu_ref=0.0)
        with pytest.raises(ValueError):
            overlay.set_background_cost(np.zeros(3), cpu_ref=10.0)
        overlay.set_background_cost(np.array([5.0, 10.0, 0.0, 20.0]), cpu_ref=10.0)
        np.testing.assert_allclose(
            overlay.loads(), np.clip([0.5, 1.0, 0.0, 2.0], 0, 1), atol=1e-12
        )
        assert overlay.cpu_reference() == 10.0


def join_circuit(name="j0", a=0, b=1, host=2, sink=3, rate=6.0):
    circuit = Circuit(name=name)
    circuit.add_service(Service(f"{name}/pa", ServiceSpec.relay(), a, frozenset(("A",))))
    circuit.add_service(Service(f"{name}/pb", ServiceSpec.relay(), b, frozenset(("B",))))
    circuit.add_service(Service(f"{name}/j", ServiceSpec.join(), None, frozenset(("A", "B"))))
    circuit.add_service(Service(f"{name}/sink", ServiceSpec.relay(), sink, frozenset(("ALL",))))
    circuit.add_link(f"{name}/pa", f"{name}/j", rate)
    circuit.add_link(f"{name}/pb", f"{name}/j", rate)
    circuit.add_link(f"{name}/j", f"{name}/sink", rate * 0.5)
    circuit.assign(f"{name}/j", host)
    return circuit


class TestDriftCalibration:
    """The cost-drift feedback loop: fitted costs reprice admission."""

    def make_join_plane(self, seed=3):
        overlay = planted_overlay()
        overlay.install_circuit(join_circuit())
        model = LoadModel()  # probe_cost = 0.5: joins under-priced at base
        plane = DataPlane(overlay, RuntimeConfig(seed=seed, load_model=model))
        return plane, model

    def test_admission_prices_track_measured_drift(self):
        plane, model = self.make_join_plane()
        ctl = Controller(
            plane,
            ControlConfig(
                warmup=4, calibrate_interval=5, drift_calibrate=True,
                drop_threshold=None, cpu_calibrate=False,
            ),
        )
        for _ in range(30):
            ctl.step(plane.step())
        live = plane.load_model
        # The fit folded the measured probe term into the join base and
        # retired the dynamic coefficient; relays were priced right all
        # along, so their coefficient survives re-quantization exactly.
        assert live is not model
        assert live.probe_cost == 0.0
        assert live.join_cost > model.join_cost
        assert live.relay_cost == model.relay_cost
        # Unseen kinds keep their priced coefficients and dynamic terms.
        assert live.filter_cost == model.filter_cost
        assert live.aggregate_cost == model.aggregate_cost
        assert live.aggregate_batch_cost == model.aggregate_batch_cost
        # Dyadic re-quantization preserved: every coefficient on the
        # 1/256 grid, so cost accumulation stays exact.
        for c in live.kind_costs():
            assert c * 256.0 == round(c * 256.0)
        # Admission now prices joins at the flat effective cost.
        adm = plane._admission_costs()
        np.testing.assert_array_equal(
            adm[plane._kind == KIND_JOIN], live.join_cost
        )
        # Post-push fits see priced == fitted: the drift ratio settles
        # at 1 (prices track the measured cost) and a further apply is
        # a no-op rather than a ratchet.
        assert ctl.cost_drift[KIND_JOIN] == pytest.approx(1.0, abs=1e-9)
        assert ctl.cost_drift[KIND_RELAY] == pytest.approx(1.0, abs=1e-9)
        assert ctl.apply_cost_drift() is None
        assert plane.accounting()["balanced"]

    def test_drift_calibrate_defaults_off(self):
        plane, model = self.make_join_plane()
        ctl = Controller(
            plane,
            ControlConfig(
                warmup=4, calibrate_interval=5,
                drop_threshold=None, cpu_calibrate=False,
            ),
        )
        for _ in range(30):
            ctl.step(plane.step())
        assert plane.load_model is model
        assert ctl.cost_drift is not None
        assert ctl.cost_drift[KIND_JOIN] > 1.0  # drift measured, not applied

    def test_scalar_twin_applies_identical_model(self):
        plane_v, _ = self.make_join_plane()
        plane_s, _ = self.make_join_plane()
        cfg = ControlConfig(
            warmup=4, calibrate_interval=5, drift_calibrate=True,
            drop_threshold=None, cpu_calibrate=False,
        )
        vec = Controller(plane_v, cfg)
        scal = Controller(plane_s, cfg)
        for _ in range(25):
            rv = vec.step(plane_v.step())
            rs = scal.step_scalar(plane_s.step())
            assert rv == rs
        assert plane_v.load_model == plane_s.load_model
        assert plane_v.load_model.probe_cost == 0.0


class TestControllerCpuLoop:
    def make_plane(self, rate=6.0, model=None, capacity=None, seed=2):
        overlay = planted_overlay()
        overlay.install_circuit(chain_circuit(rate=rate))
        plane = DataPlane(
            overlay,
            RuntimeConfig(seed=seed, load_model=model, node_capacity=capacity),
        )
        return overlay, plane

    def test_cpu_reference_priority(self):
        overlay, plane = self.make_plane(capacity=40.0)
        ctl = Controller(plane, ControlConfig(cpu_ref=7.0))
        assert ctl.cpu_reference() == 7.0
        ctl = Controller(plane)
        assert ctl.cpu_reference() == 40.0
        _, bare = self.make_plane()
        ctl = Controller(bare, ControlConfig(shed_limit=11.0))
        assert ctl.cpu_reference() == 11.0
        ctl = Controller(bare)
        assert ctl.cpu_reference() is None
        assert ctl.calibrate_cpu() == 0  # no reference: write-back skipped

    def test_calibrate_cpu_writes_load_dimension(self):
        overlay, plane = self.make_plane(model=LoadModel(filter_cost=2.0))
        ctl = Controller(
            plane,
            ControlConfig(warmup=2, calibrate_interval=3, cpu_ref=5.0,
                          drop_threshold=None),
        )
        for _ in range(12):
            ctl.step(plane.step())
        assert ctl.cpu_calibrations > 0
        penalties = overlay.cost_space.scalar_penalties()
        # The filter host runs hot in cost units; its load coordinate
        # now reflects the measured pressure.
        assert penalties[1] > 0
        assert penalties[1] == penalties.max()

    def test_cpu_calibrate_false_keeps_load_dimension_cold(self):
        overlay, plane = self.make_plane(model=LoadModel(filter_cost=2.0))
        ctl = Controller(
            plane,
            ControlConfig(warmup=2, calibrate_interval=3, cpu_ref=5.0,
                          cpu_calibrate=False, drop_threshold=None),
        )
        for _ in range(12):
            ctl.step(plane.step())
        assert ctl.cpu_calibrations == 0
        assert overlay.cost_space.scalar_penalties().max() == 0.0

    def test_shed_policy_gates_on_cpu_cost(self):
        # 6 tuples/tick at filter cost 4 = 24 cost units: a cost shed
        # limit of 12 trips even though the tuple count stays under 12.
        overlay, plane = self.make_plane(model=LoadModel(filter_cost=4.0))
        ctl = Controller(
            plane,
            ControlConfig(warmup=3, shed_limit=12.0, drop_threshold=None,
                          calibrate_interval=1000, cpu_calibrate=False),
        )
        shed = False
        for _ in range(20):
            record = ctl.step(plane.step())
            shed = shed or bool(record.shed_nodes)
        assert shed, "cost-unit shed limit never tripped"
        assert plane.dropped_shed > 0
        assert plane.accounting()["balanced"]

    def test_calibrate_quantile_provisions_above_the_mean(self):
        # Bursty λ: the p95-calibrated rate sits above the EWMA mean.
        ov_q, plane_q = self.make_plane(seed=9)
        ov_m, plane_m = self.make_plane(seed=9)
        cfg = ControlConfig(
            warmup=4, calibrate_interval=5, min_observations=3,
            drop_threshold=None,
        )
        quantile = Controller(
            plane_q, dataclasses.replace(cfg, calibrate_quantile=0.95)
        )
        assert quantile.config.calibrate_quantile == 0.95
        mean = Controller(plane_m, cfg)
        for _ in range(40):
            quantile.step(plane_q.step())
            mean.step(plane_m.step())
        key = ("c0", "c0/src", "c0/f")
        rate_q = ov_q.circuits["c0"].links[0].rate
        rate_m = ov_m.circuits["c0"].links[0].rate
        assert quantile.calibrations > 0 and mean.calibrations > 0
        assert rate_q > rate_m * 1.2, (rate_q, rate_m)
        assert rate_q > quantile.link_rates.rate(key)

    def test_calibrate_quantile_validation(self):
        with pytest.raises(ValueError):
            ControlConfig(calibrate_quantile=1.5)
        with pytest.raises(ValueError):
            ControlConfig(cpu_ref=0.0)
        with pytest.raises(ValueError):
            ControlConfig(buffer_evacuate_backlog=0)
