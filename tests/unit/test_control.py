"""Unit tests for the control plane: estimator, controller, drift."""

import numpy as np
import pytest

from repro.control import ControlConfig, Controller, KeyedRateEstimator, RateEstimator
from repro.core.circuit import Circuit, Service
from repro.core.cost_space import CostSpace, CostSpaceSpec
from repro.core.reoptimizer import (
    Reoptimizer,
    _CircuitKernel,
    _ReoptArena,
    refresh_kernel_rates,
)
from repro.network.latency import LatencyMatrix
from repro.query.operators import ServiceSpec
from repro.runtime import DataPlane, ParameterDrift, RuntimeConfig
from repro.sbon.overlay import Overlay
from tests.unit.test_obs import _planted_plane


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


class TestRateEstimator:
    def test_first_observation_initializes_ewma(self):
        est = RateEstimator(alpha=0.5)
        est.observe(np.array([10.0, 4.0]), keys=["a", "b"])
        assert est.rate("a") == 10.0 and est.rate("b") == 4.0
        est.observe(np.array([0.0, 8.0]), keys=["a", "b"])
        assert est.rate("a") == pytest.approx(5.0)
        assert est.rate("b") == pytest.approx(6.0)

    def test_unknown_key_defaults(self):
        est = RateEstimator()
        est.observe(np.array([1.0]), keys=["a"])
        assert est.rate("zzz", default=-1.0) == -1.0
        assert est.seen("zzz") == 0

    def test_late_key_growth_and_quantiles(self):
        est = RateEstimator(alpha=0.5, window=8)
        keys1 = ["a"]
        est.observe(np.array([4.0]), keys=keys1)
        est.observe(np.array([4.0]), keys=keys1)
        keys2 = ["a", "b"]
        est.observe(np.array([4.0, 10.0]), keys=keys2)
        # b's earlier non-existence counts as zero samples.
        qa, qb = est.quantile(1.0, keys=["a", "b"])
        assert qa == 4.0 and qb == 10.0
        assert est.quantile(0.0, keys=["b"])[0] == 0.0

    def test_implicit_integer_keys(self):
        est = RateEstimator()
        est.observe(np.array([1.0, 2.0, 3.0]))
        assert list(est.rates()) == [1.0, 2.0, 3.0]
        assert est.keys() == [0, 1, 2]

    def test_scalar_twin_bit_identical(self):
        rng = np.random.default_rng(3)
        a = RateEstimator(alpha=0.3, window=6)
        b = KeyedRateEstimator(alpha=0.3, window=6)
        keys = ["x", "y", "z"]
        for t in range(20):
            values = rng.poisson(5.0, size=3).astype(float)
            use = keys if t % 3 else keys[:2]  # sometimes omit a key
            a.observe(values[: len(use)], keys=use)
            b.observe(values[: len(use)], keys=use)
            np.testing.assert_array_equal(a.rates(keys), b.rates(keys))
            np.testing.assert_array_equal(
                a.quantile(0.9, keys), b.quantile(0.9, keys)
            )

    def test_duplicate_keys_sum_and_twins_agree(self):
        # Aliased keys (e.g. parallel circuit links with one (source,
        # target) pair) sum into one sample on both paths.
        a, b = RateEstimator(alpha=0.5), KeyedRateEstimator(alpha=0.5)
        keys = ["x", "x", "y"]
        for values in ([2.0, 3.0, 1.0], [4.0, 0.0, 7.0]):
            a.observe(np.array(values), keys=keys)
            b.observe(np.array(values), keys=keys)
            np.testing.assert_array_equal(a.rates(["x", "y"]), b.rates(["x", "y"]))
        assert a.rate("x") == pytest.approx(4.5)  # ewma over sums 5, 4
        assert a.seen("x") == 2

    def test_identity_fast_path_matches_keyed_observations(self):
        fast, keyed = RateEstimator(alpha=0.3), RateEstimator(alpha=0.3)
        rng = np.random.default_rng(1)
        keys = list(range(5))
        for _ in range(10):
            values = rng.poisson(4.0, size=5).astype(float)
            fast.observe(values)
            keyed.observe(values, keys=keys)
            np.testing.assert_array_equal(fast.rates(), keyed.rates(keys))
        assert fast.keys() == keys

    def test_steady_state_observe_neither_sorts_nor_scatter_adds(self, monkeypatch):
        # The column layout of a key list is derived once per list
        # object; afterwards a call without aliased keys writes its
        # ring row by assignment.
        keyed, identity = RateEstimator(), RateEstimator()
        keys = ["a", "b", "c"]
        keyed.observe(np.array([1.0, 2.0, 3.0]), keys=keys)
        identity.observe(np.array([1.0, 2.0, 3.0]))

        def boom(*args, **kwargs):
            raise AssertionError("steady-state observe sorted or scatter-added")

        class NoAt:
            at = staticmethod(boom)

        monkeypatch.setattr(np, "unique", boom)
        monkeypatch.setattr(np, "add", NoAt())
        for t in range(5):
            keyed.observe(np.array([4.0, 5.0, 6.0]) + t, keys=keys)
            identity.observe(np.array([4.0, 5.0, 6.0]) + t)
        monkeypatch.undo()
        np.testing.assert_array_equal(keyed.rates(keys), identity.rates())
        assert keyed.seen("a") == 6

    def test_seen_counts_match_seen_on_both_paths(self):
        a, b = RateEstimator(), KeyedRateEstimator()
        for keys in (["x", "y"], ["y"], ["y", "z", "y"]):
            values = np.ones(len(keys))
            a.observe(values, keys=keys)
            b.observe(values, keys=keys)
        probe = ["x", "y", "z", "never"]
        expected = [a.seen(k) for k in probe]
        assert expected == [1, 3, 1, 0]
        np.testing.assert_array_equal(a.seen_counts(probe), expected)
        np.testing.assert_array_equal(b.seen_counts(probe), expected)

    def test_cached_lookup_follows_key_set_growth(self):
        # A key list resolved before a key was first observed must see
        # the key once it is.
        est = RateEstimator(alpha=0.5)
        probe = ["a", "b"]
        est.observe(np.array([2.0]), keys=["a"])
        np.testing.assert_array_equal(est.rates(probe), [2.0, 0.0])
        est.observe(np.array([4.0, 6.0]), keys=["a", "b"])
        np.testing.assert_array_equal(est.rates(probe), [3.0, 6.0])
        np.testing.assert_array_equal(est.seen_counts(probe), [2, 1])
        np.testing.assert_array_equal(est.quantile(1.0, probe), [4.0, 6.0])

    def test_validation(self):
        for cls in (RateEstimator, KeyedRateEstimator):
            with pytest.raises(ValueError):
                cls(alpha=0.0)
            with pytest.raises(ValueError):
                cls(window=0)
            est = cls()
            with pytest.raises(ValueError):
                est.observe(np.array([1.0, 2.0]), keys=["a"])


class TestParameterDrift:
    def test_linear_ramp(self):
        drift = ParameterDrift("c", "s", "selectivity", 0.2, 0.8, begin=10, duration=10)
        assert drift.value(0) == 0.2
        assert drift.value(10) == 0.2
        assert drift.value(15) == pytest.approx(0.5)
        assert drift.value(20) == 0.8
        assert drift.value(99) == 0.8

    def test_step_change(self):
        drift = ParameterDrift("c", "s", "source_rate", 1.0, 9.0, begin=5, duration=0)
        assert drift.value(5) == 1.0
        assert drift.value(6) == 9.0

    def test_validation(self):
        nan = float("nan")
        for param, start, end in (
            ("nope", 0.1, 0.9),
            ("selectivity", -0.1, 0.9),
            ("selectivity", nan, 0.9),
            ("source_rate", 1.0, nan),
            ("source_rate", float("inf"), 6.0),
            ("source_rate", 6.0, float("inf")),
        ):
            with pytest.raises(ValueError):
                ParameterDrift("c", "s", param, start, end)

    def test_drift_moves_realized_selectivity(self):
        overlay = planted_overlay()
        overlay.install_circuit(chain_circuit(sel=0.25))
        drift = ParameterDrift("c0", "c0/f", "selectivity", 0.25, 1.0, begin=5, duration=5)
        plane = DataPlane(overlay, RuntimeConfig(seed=1, drift=(drift,)))
        op = plane._op_index[("c0", "c0/f")]
        plane.step()
        assert plane._op_sel[op] == 0.25
        for _ in range(12):
            plane.step()
        assert plane._op_sel[op] == 1.0
        # true_link_rates reflects the drifted truth, not the estimate.
        rates = plane.true_link_rates()
        assert rates[("c0", "c0/f", "c0/sink")] == pytest.approx(6.0)

    def test_source_rate_drift_changes_emissions(self):
        overlay = planted_overlay()
        overlay.install_circuit(chain_circuit())
        drift = ParameterDrift("c0", "c0/src", "source_rate", 6.0, 0.0, begin=3, duration=0)
        plane = DataPlane(overlay, RuntimeConfig(seed=1, drift=(drift,)))
        early = sum(plane.step().emitted for _ in range(3))
        late = sum(plane.step().emitted for _ in range(10))
        assert early > 0 and late == 0


class TestDriftValidation:
    """A plane refuses, at build or when its circuit is installed, a drift
    spec that can never apply to that circuit: a missing service, or a
    parameter its kind never reads."""

    @pytest.mark.parametrize(
        "service, param",
        [
            ("c0/f", "source_rate"),  # a filter emits nothing of its own
            ("c0/src", "selectivity"),  # a source is no filter
            ("c0/nope", "selectivity"),  # no such service
            ("c0/src", "match_probability"),
            ("c0/sink", "aggregate_factor"),
            ("c0/sink", "source_rate"),  # a sink has an in-link
        ],
    )
    def test_inert_spec_raises(self, service, param):
        with pytest.raises(ValueError, match="can never apply"):
            _planted_plane(drift=[ParameterDrift("c0", service, param, 0.5, 1.0)])

    @pytest.mark.parametrize("path", ["step", "step_scalar"])
    def test_inert_spec_on_later_circuit_raises_at_its_install(self, path):
        drift = (
            ParameterDrift("c0", "c0/nope", "selectivity", 0.5, 1.0),
            ParameterDrift("c0", "c0/src", "selectivity", 0.5, 1.0),
        )
        overlay = planted_overlay()
        plane = DataPlane(overlay, RuntimeConfig(seed=1, drift=drift))
        overlay.install_circuit(chain_circuit())
        for _ in range(2):  # a refused install writes nothing, so it repeats
            with pytest.raises(ValueError, match="can never apply"):
                getattr(plane, path)()
            assert plane.tick == 0
            assert not plane._arena.segments and plane._arena.num_ops == 0
            assert plane._op_index == {} and plane._gid_by_key == {}
        # Nor does it commit the plane to a step path.
        overlay.uninstall("c0")
        other = "step_scalar" if path == "step" else "step"
        assert getattr(plane, other)().emitted == 0 and plane.tick == 1

    def test_applicable_and_later_circuit_specs_build(self):
        _planted_plane(
            drift=[
                ParameterDrift("c0", "c0/f", "selectivity", 0.5, 1.0),
                ParameterDrift("c0", "c0/src", "source_rate", 6.0, 9.0),
                # Names a circuit not installed yet: checked at its install.
                ParameterDrift("c9", "c9/src", "selectivity", 0.5, 1.0),
            ]
        )


class TestControlConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("drop_threshold", float("nan")),
            ("drop_threshold", -1.0),
            ("latency_threshold_ms", float("nan")),
            ("exclude_drop_rate", float("nan")),
            ("min_rate", float("nan")),
            ("cpu_ref", float("nan")),
        ],
    )
    def test_rejects(self, field, value):
        with pytest.raises(ValueError):
            ControlConfig(**{field: value})

    def test_unbounded_thresholds_stay_legal(self):
        inf = float("inf")
        ControlConfig(
            drop_threshold=inf, latency_threshold_ms=inf, exclude_drop_rate=inf
        )


class TestTrueLinkRates:
    def test_chain_propagation(self):
        overlay = planted_overlay()
        overlay.install_circuit(chain_circuit(rate=6.0, sel=0.5))
        plane = DataPlane(overlay, RuntimeConfig(seed=0))
        rates = plane.true_link_rates()
        assert rates[("c0", "c0/src", "c0/f")] == pytest.approx(6.0)
        assert rates[("c0", "c0/f", "c0/sink")] == pytest.approx(3.0)

    def test_estimator_converges_to_true_rates(self):
        overlay = planted_overlay()
        overlay.install_circuit(chain_circuit(rate=6.0, sel=0.5))
        plane = DataPlane(overlay, RuntimeConfig(seed=5))
        est = RateEstimator(alpha=0.05, window=64)
        for _ in range(400):
            plane.step()
            est.observe(plane.tick_link_tuples.astype(float), plane.link_keys())
        for key, true_rate in plane.true_link_rates().items():
            assert est.rate(key) == pytest.approx(true_rate, rel=0.25)


class TestKernelRateHook:
    """Kernels hold structure only: every pass reads the circuits' columns."""

    def test_calibrated_column_reprices_the_arena(self):
        overlay = planted_overlay()
        circuit = chain_circuit()
        kernel = _CircuitKernel(circuit)
        arena = _ReoptArena([kernel])
        arena.read_rates([circuit])
        evaluator = overlay.estimate_evaluator()
        hosts = kernel.hosts(circuit)
        (before,) = arena.totals(hosts, evaluator, evaluator.penalty_array, 1.0)
        circuit.set_link_rates(np.array([12.0, 6.0]))
        arena.read_rates([circuit])
        (after,) = arena.totals(hosts, evaluator, evaluator.penalty_array, 1.0)
        assert after > before
        np.testing.assert_array_equal(arena.link_rates, [12.0, 6.0])
        # Spring weights follow the new rates too.
        assert arena.seg_weight[0] == pytest.approx(18.0)

    def test_read_rates_refuses_columns_that_do_not_tile_the_kernels(self):
        circuit = chain_circuit()
        arena = _ReoptArena([_CircuitKernel(circuit)])
        circuit.add_link("c0/src", "c0/sink", 1.0)
        with pytest.raises(ValueError, match="align"):
            arena.read_rates([circuit])

    def test_each_circuit_prices_its_own_column(self):
        overlay = planted_overlay()
        cache: dict = {}
        reopt = Reoptimizer(overlay.cost_space, kernel_cache=cache)
        circuit = chain_circuit()
        circuit.set_link_rates([9.0, 3.0])
        kernel = reopt._kernel(circuit)
        other = chain_circuit()  # same name, different object
        assert reopt._kernel(other) is not kernel
        for owner, want in ((circuit, [9.0, 3.0]), (other, [6.0, 3.0])):
            arena = _ReoptArena([reopt._kernel(owner)])
            arena.read_rates([owner])
            np.testing.assert_array_equal(arena.link_rates, want)
        # The by-name hook has nothing left to refresh.
        assert not refresh_kernel_rates(cache, circuit, np.array([1.0, 1.0]))
        assert circuit.link_rates == [9.0, 3.0]

    def test_calibration_path_reprices_circuit_usage_rows_and_next_pass(self):
        # The production path: Overlay.set_link_rates, then the cached
        # arena of the next step_all pass.
        from repro.core.reoptimizer import _ARENA_KEY

        overlay = planted_overlay()
        circuit = chain_circuit()
        overlay.install_circuit(circuit)
        cache: dict = {}
        reopt = Reoptimizer(overlay.cost_space, kernel_cache=cache)
        reopt.step_all([circuit])
        arena = cache[_ARENA_KEY]
        overlay.set_link_rates("c0", np.array([4.0, 2.0]))
        assert [l.rate for l in circuit.links] == [4.0, 2.0]
        assert all(type(l.rate) is float for l in circuit.links)
        assert overlay._u_rate.tolist() == [4.0, 2.0]
        reopt.step_all([circuit])
        assert cache[_ARENA_KEY] is arena
        np.testing.assert_array_equal(arena.link_rates, [4.0, 2.0])

    def test_circuit_set_link_rates_validation(self):
        circuit = chain_circuit()
        with pytest.raises(ValueError):
            circuit.set_link_rates([1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_circuit_set_link_rates_rejects_hostile_rates(self, bad):
        circuit = chain_circuit()
        before = list(circuit.link_rates)
        with pytest.raises(ValueError, match="finite and non-negative"):
            circuit.set_link_rates([2.0, bad])
        assert circuit.link_rates == before
        assert [l.rate for l in circuit.links] == before


class TestController:
    def make_plane(self, sel=0.5, drift_to=None, seed=2):
        overlay = planted_overlay()
        overlay.install_circuit(chain_circuit(rate=6.0, sel=sel))
        drift = ()
        if drift_to is not None:
            drift = (
                ParameterDrift("c0", "c0/f", "selectivity", sel, drift_to, 0, 0),
            )
        plane = DataPlane(overlay, RuntimeConfig(seed=seed, drift=drift))
        return overlay, plane

    def run_controller(self, plane, controller, ticks):
        for _ in range(ticks):
            controller.step(plane.step())

    def test_calibration_moves_estimates_toward_measured(self):
        overlay, plane = self.make_plane(sel=0.1, drift_to=0.9)
        controller = Controller(
            plane, ControlConfig(warmup=4, calibrate_interval=5, alpha=0.2)
        )
        self.run_controller(plane, controller, 40)
        circuit = overlay.circuits["c0"]
        out_rate = circuit.links[1].rate
        # Estimated 0.6 tuples/tick; realized 5.4: calibration rewrote it.
        assert out_rate == pytest.approx(5.4, rel=0.35)
        assert controller.calibrations > 0

    def test_oracle_calibrates_to_true_rates(self):
        overlay, plane = self.make_plane(sel=0.1, drift_to=0.9)
        controller = Controller(
            plane,
            ControlConfig(warmup=1, calibrate_interval=1),
            oracle=True,
        )
        self.run_controller(plane, controller, 3)
        circuit = overlay.circuits["c0"]
        assert circuit.links[0].rate == pytest.approx(6.0)
        assert circuit.links[1].rate == pytest.approx(5.4)

    def test_calibration_reprices_the_overlays_usage_rows(self):
        overlay, plane = self.make_plane(sel=0.1, drift_to=0.9)
        # Warmup past the run: only the explicit call below calibrates.
        cfg = ControlConfig(warmup=1000)
        controller = Controller(plane, cfg)
        self.run_controller(plane, controller, cfg.min_observations + 2)
        assert controller.calibrate() > 0
        circuit = overlay.circuits["c0"]
        rates = [link.rate for link in circuit.links]
        assert rates != [6.0, 0.6]
        base, count = overlay._u_seg["c0"]
        assert overlay._u_rate[base : base + count].tolist() == rates
        assert overlay.total_network_usage() == pytest.approx(
            overlay.total_network_usage_scalar(), rel=1e-9
        )

    def test_young_links_keep_their_priors(self):
        overlay, plane = self.make_plane(sel=0.5)
        controller = Controller(
            plane,
            ControlConfig(warmup=1, calibrate_interval=1, min_observations=50),
        )
        self.run_controller(plane, controller, 5)
        # Too few observations: estimates untouched.
        assert overlay.circuits["c0"].links[0].rate == 6.0

    def test_trigger_fires_on_drop_breach_with_cooldown(self):
        # Zero node capacity: every delivery is dropped, so the
        # measured drop fraction breaches immediately after warmup.
        overlay = planted_overlay(seed=9)
        overlay.install_circuit(chain_circuit(rate=6.0, sel=0.5))
        plane = DataPlane(overlay, RuntimeConfig(seed=2, node_capacity=0.0))
        controller = Controller(
            plane,
            ControlConfig(
                warmup=3, drop_threshold=0.2, trigger_cooldown=5,
                exclude_drop_rate=0.5, calibrate_interval=100,
            ),
        )
        triggers = []
        for _ in range(12):
            record = controller.step(plane.step())
            triggers.append(record.replace_triggered)
            if record.replace_triggered:
                assert record.excluded_nodes  # drop-hot nodes named
        fired = [i for i, t in enumerate(triggers) if t]
        assert fired, "drop breach never triggered"
        assert all(b - a >= 5 for a, b in zip(fired, fired[1:]))

    def test_shed_policy_caps_and_releases(self):
        overlay = planted_overlay(seed=4)
        overlay.install_circuit(chain_circuit(rate=20.0, sel=0.5))
        drift = (
            ParameterDrift("c0", "c0/src", "source_rate", 20.0, 0.0, 30, 0),
        )
        plane = DataPlane(overlay, RuntimeConfig(seed=2, drift=drift))
        controller = Controller(
            plane,
            ControlConfig(
                warmup=3, shed_limit=10.0, shed_release=0.5, alpha=0.4,
                drop_threshold=None, calibrate_interval=1000,
            ),
        )
        shed_seen = released_seen = False
        shed_drops = 0
        for _ in range(60):
            record = plane.step()
            shed_drops += record.shed
            ctl = controller.step(record)
            shed_seen = shed_seen or bool(ctl.shed_nodes)
            released_seen = released_seen or bool(ctl.released_nodes)
        assert shed_seen, "overload never shed"
        assert released_seen, "cap never released after the load stopped"
        assert shed_drops > 0
        assert plane.dropped_shed == shed_drops
        assert plane.accounting()["balanced"]

    def test_path_commitment(self):
        # The first tick picks the estimator class of every bank; the
        # other step path then raises, as the data plane's does.
        _, plane = self.make_plane()
        controller = Controller(plane)
        controller.step(plane.step())
        assert isinstance(controller.link_rates, RateEstimator)
        with pytest.raises(RuntimeError):
            controller.step_scalar(plane.step())

        _, plane = self.make_plane()
        controller = Controller(plane)
        controller.step_scalar(plane.step_scalar())
        assert isinstance(controller.node_cpu, KeyedRateEstimator)
        with pytest.raises(RuntimeError):
            controller.step(plane.step_scalar())

    @pytest.mark.parametrize("limit", [float("nan"), -1.0])
    def test_shed_limit_validation(self, limit):
        # A NaN limit would cap its node at nothing and blame capacity;
        # both bad limits must fail when set, not at the first shed.
        with pytest.raises(ValueError):
            ControlConfig(shed_limit=limit)
        plane = DataPlane(planted_overlay(), RuntimeConfig(seed=1))
        with pytest.raises(ValueError):
            plane.set_shed_limit(0, limit)
        # An unbounded limit stays legal on both.
        ControlConfig(shed_limit=float("inf"))
        plane.set_shed_limit(0, float("inf"))

    def test_simulation_control_true_wires_default_controller(self):
        from repro.sbon.simulator import Simulation

        overlay, plane = self.make_plane()
        sim = Simulation(overlay, data_plane=plane, control=True)
        assert sim.controller is not None
        assert sim.controller.data_plane is plane
        sim.run(3)
        assert sim.controller.ticks == 3

    def test_simulation_passes_read_the_calibrated_rates(self, monkeypatch):
        # Calibration must re-price what the simulation's passes read, or
        # step() and step_scalar() optimize different objectives.  A
        # controller's own kernel_cache is accepted and plays no part.
        from repro.sbon.simulator import Simulation, SimulationConfig

        overlay, plane = self.make_plane()
        controller = Controller(
            plane,
            ControlConfig(warmup=2, calibrate_interval=3, min_observations=2),
            kernel_cache={},
        )
        sim = Simulation(
            overlay,
            config=SimulationConfig(reopt_interval=2),
            data_plane=plane,
            control=controller,
        )
        reads = []
        read_rates = _ReoptArena.read_rates

        def recorded(arena, circuits):
            read_rates(arena, circuits)
            reads.append((arena.link_rates.tolist(), list(circuits[0].link_rates)))

        monkeypatch.setattr(_ReoptArena, "read_rates", recorded)
        sim.run(12)
        circuit = overlay.circuits["c0"]
        assert controller.calibrations > 0
        assert [l.rate for l in circuit.links] != [6.0, 3.0]
        assert len(reads) == 6
        assert all(seen == column for seen, column in reads)
        assert any(seen != [6.0, 3.0] for seen, _ in reads)

    def test_simulation_control_requires_data_plane(self):
        from repro.sbon.simulator import Simulation

        overlay, _ = self.make_plane()
        with pytest.raises(ValueError):
            Simulation(overlay, control=True)


def reference_rates(controller, circuit):
    """The per-circuit calibration rule, one link at a time: the
    reference :meth:`Controller.calibrate`'s gather must match."""
    cfg = controller.config
    truth = controller.data_plane.true_link_rates() if controller.oracle else None
    key_uses: dict[tuple, int] = {}
    for link in circuit.links:
        key = (circuit.name, link.source, link.target)
        key_uses[key] = key_uses.get(key, 0) + 1
    qvals = None
    if truth is None and cfg.calibrate_quantile is not None:
        qvals = controller.link_rates.quantile(
            cfg.calibrate_quantile,
            [(circuit.name, l.source, l.target) for l in circuit.links],
        )
    rates = []
    for i, link in enumerate(circuit.links):
        key = (circuit.name, link.source, link.target)
        if key_uses[key] > 1:
            value = None
        elif truth is not None:
            value = truth.get(key)
        elif controller.link_rates.seen(key) >= cfg.min_observations:
            value = (
                float(qvals[i])
                if qvals is not None
                else controller.link_rates.rate(key)
            )
        else:
            value = None
        rates.append(link.rate if value is None else max(cfg.min_rate, value))
    return rates


class TestCalibrationGather:
    """One gather over every installed link equals the per-circuit rule."""

    @pytest.mark.parametrize(
        "mode", ["ewma", "quantile", "oracle", "ewma-scalar", "quantile-scalar"]
    )
    def test_gather_matches_per_circuit_reference(self, mode):
        overlay = planted_overlay()
        aliased = chain_circuit("c0", rate=6.0, sel=0.5)
        # A parallel link: one (source, target) key, summed counts.
        aliased.add_link("c0/f", "c0/sink", 1.5)
        overlay.install_circuit(aliased)
        overlay.install_circuit(
            chain_circuit("c1", producer=3, middle=4, sink=5, rate=4.0, sel=0.25)
        )
        overlay.install_circuit(
            chain_circuit("c2", producer=6, middle=7, sink=8, rate=2.0, sel=0.9)
        )
        drift = (ParameterDrift("c1", "c1/f", "selectivity", 0.25, 0.75, 6, 10),)
        plane = DataPlane(overlay, RuntimeConfig(seed=4, drift=drift))
        reopt = Reoptimizer(overlay.cost_space, kernel_cache={})
        controller = Controller(
            plane,
            ControlConfig(
                calibrate_interval=10_000,
                min_observations=3,
                calibrate_quantile=0.95 if mode.startswith("quantile") else None,
            ),
            oracle=mode == "oracle",
        )
        step = controller.step_scalar if mode.endswith("scalar") else controller.step
        calibrated = 0
        for tick in range(30):
            if tick == 14:
                # A replaced circuit object is a structural change: the
                # gather must price and write the installed copy.
                overlay.replace_circuit(overlay.circuits["c2"].copy())
            step(plane.step())
            if tick % 4:
                continue
            before = {n: [l.rate for l in c.links] for n, c in overlay.circuits.items()}
            expected = {
                n: reference_rates(controller, c) for n, c in overlay.circuits.items()
            }
            moved = sum(
                int(a != b)
                for n in before
                for a, b in zip(before[n], expected[n])
            )
            assert controller.calibrate() == moved, tick
            calibrated += moved
            circuits = list(overlay.circuits.values())
            arena = _ReoptArena([reopt._kernel(c) for c in circuits])
            arena.read_rates(circuits)
            for k, circuit in enumerate(circuits):
                rates = [l.rate for l in circuit.links]
                assert rates == expected[circuit.name], (tick, circuit.name)
                assert circuit.link_rates == rates
                l0, l1 = arena.link_offsets[k], arena.link_offsets[k + 1]
                assert arena.link_rates[l0:l1].tolist() == rates
            # The aliased pair keeps its priors.
            assert [l.rate for l in overlay.circuits["c0"].links[1:]] == [3.0, 1.5]
        assert calibrated > 0
