"""The one adapter between the benchmark and the program under test.

This is the only module of ``bench/`` that imports ``repro``.  It builds
the four workloads from primitive public constructors with every
load-shaping argument written out, so that a later change of a default
in ``src/`` cannot silently change a workload, and it names none of the
program's retained-generation switches or scenario helpers: those can be
deleted without an edit here.

It also holds the table of public entry points the traced pass wraps
(:data:`ENTRY_POINTS`).  They are resolved by name at run time; one that
no longer exists drops its span and is reported as missing.

What the seed drives.  The substrate (topology, all-pairs latencies,
Vivaldi embedding) and each workload's standing population are one fixed
*instance* (:data:`INSTANCE_SEED`): measured over ten instances, the
closed-loop tick p95 ranged from 12 to 24 ms purely by which topology
and query set was drawn, which would drown any change a later PR makes.
``--seed`` drives everything that happens *during* a run — the per-tick
source draws, the background-load walk, node churn, and the stream of
arriving queries on the two install workloads.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.control.controller import ControlConfig, Controller  # noqa: E402
from repro.core.circuit import Circuit, Service  # noqa: E402
from repro.core.costs import CostSpaceEvaluator, GroundTruthEvaluator  # noqa: E402
from repro.core.load_model import LoadModel  # noqa: E402
from repro.core.optimizer import IntegratedOptimizer  # noqa: E402
from repro.core.physical_mapping import (  # noqa: E402
    CatalogMapper,
    ExhaustiveMapper,
    build_catalog,
)
from repro.core.virtual_placement import relaxation_placement  # noqa: E402
from repro.core.weighting import squared  # noqa: E402
from repro.network.dynamics import ChurnProcess, LoadProcess  # noqa: E402
from repro.network.topology import TransitStubParams, transit_stub_topology  # noqa: E402
from repro.obs import Observability  # noqa: E402
from repro.query.model import Consumer, Producer, QuerySpec  # noqa: E402
from repro.query.operators import ServiceSpec  # noqa: E402
from repro.query.selectivity import Statistics  # noqa: E402
from repro.runtime.dataplane import DataPlane, RuntimeConfig  # noqa: E402
from repro.scaling.autoscaler import AutoScaler, AutoScalerConfig  # noqa: E402
from repro.sbon.overlay import Overlay  # noqa: E402
from repro.sbon.simulator import Simulation, SimulationConfig  # noqa: E402

__all__ = [
    "WORKLOADS",
    "SCALES",
    "Scale",
    "Workload",
    "build",
    "instrument",
    "twin_check",
    "ENTRY_POINTS",
]

#: Seed of the fixed instance (substrate + standing population).
INSTANCE_SEED = 0

#: Workload names are permanent: later issues cite them verbatim.
WORKLOADS = ("closed_loop", "dataplane_only", "tenant_churn", "optimize_dht")


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark scale.

    Attributes:
        stub: transit-stub shape (transit domains, transit nodes per
            domain, stub domains per transit node, nodes per stub).
        circuits: standing circuits of ``closed_loop`` and standing
            tenants of ``tenant_churn``.
        chains: hand-built join chains of ``dataplane_only``.
        population: rolling installed population of ``optimize_dht``.
        warmup: untimed operations before the measured window, per
            workload.
        ops: timed operations of one pass — fixed, so every commit
            does the same work.
    """

    stub: tuple[int, int, int, int]
    circuits: int
    chains: int
    population: int
    warmup: dict[str, int]
    ops: int

    @property
    def nodes(self) -> int:
        a, b, c, d = self.stub
        return a * b * (1 + c * d)


SCALES = {
    # The CLI's ``--nodes 1000`` transit-stub shape: 1200 nodes.
    "full": Scale(
        stub=(8, 6, 4, 6),
        circuits=100,
        chains=400,
        population=50,
        warmup={
            "closed_loop": 100,
            "dataplane_only": 100,
            "tenant_churn": 100,
            "optimize_dht": 30,
        },
        ops=400,
    ),
    # Test-only; never the source of a reported number.
    "smoke": Scale(
        stub=(2, 3, 2, 5),
        circuits=6,
        chains=6,
        population=4,
        warmup=dict.fromkeys(WORKLOADS, 5),
        ops=30,
    ),
    # The step() vs step_scalar() twin of the correctness gate.
    "twin": Scale(
        stub=(2, 3, 2, 12),
        circuits=20,
        chains=0,
        population=0,
        warmup=dict.fromkeys(WORKLOADS, 0),
        ops=40,
    ),
}


@dataclass
class Workload:
    """One built workload, ready to be driven in a closed loop.

    Attributes:
        op: the timed operation, called with its index (negative during
            warm-up).
        after: untimed glue run after each operation with its index and
            result (bookkeeping that is the benchmark's, not the
            program's).
        exact: returns the seed-exact counters of the measured window
            (call :attr:`begin` when the window opens).
        balanced: the data plane's conservation check (True when the
            workload has no data plane).
        inputs: the generated inputs as primitives, for ``inputs_sha``.
        phases: cumulative ``PhaseProfiler`` totals by path, or None
            when no profiler is attached.
    """

    op: object
    exact: object
    begin: object
    after: object = lambda i, result: None
    balanced: object = lambda: True
    inputs: list = field(default_factory=list)
    phases: object = lambda: None
    failed: int = 0

    def inputs_sha(self) -> str:
        return hashlib.sha256(repr(self.inputs).encode()).hexdigest()[:16]


# -- inputs -----------------------------------------------------------------


def _overlay(scale: Scale, inputs: list) -> Overlay:
    a, b, c, d = scale.stub
    topology = transit_stub_topology(
        TransitStubParams(
            num_transit_domains=a,
            transit_nodes_per_domain=b,
            stub_domains_per_transit_node=c,
            nodes_per_stub_domain=d,
            intra_transit_latency=(20.0, 50.0),
            inter_transit_latency=(50.0, 120.0),
            transit_stub_latency=(5.0, 20.0),
            intra_stub_latency=(1.0, 5.0),
            extra_stub_edge_prob=0.3,
        ),
        seed=INSTANCE_SEED,
    )
    inputs.append([(link.u, link.v, link.latency_ms) for link in topology.links])
    return Overlay.build(
        topology,
        vector_dims=2,
        load_weighting=squared(100.0),
        include_load_dimension=True,
        embedding_rounds=40,
        seed=INSTANCE_SEED,
    )


def _query(rng: random.Random, name: str, num_nodes: int, producers: int, inputs: list):
    """One random join query: distinct pinned nodes, uniform rates in
    [1, 20], log-uniform pairwise selectivities in [0.01, 0.5]."""
    nodes = rng.sample(range(num_nodes), producers + 1)
    names = [f"{name}.P{i + 1}" for i in range(producers)]
    rates = {pname: rng.uniform(1.0, 20.0) for pname in names}
    sels = {
        frozenset((x, y)): math.exp(rng.uniform(math.log(0.01), math.log(0.5)))
        for i, x in enumerate(names)
        for y in names[i + 1 :]
    }
    inputs.append((name, nodes, list(rates.values()), list(sels.values())))
    query = QuerySpec(
        name=name,
        producers=[
            Producer(name=pname, node=node, rate=rates[pname])
            for pname, node in zip(names, nodes)
        ],
        consumer=Consumer(name=f"{name}.C", node=nodes[-1]),
        filters={},
        aggregate_factor=None,
    )
    return query, Statistics(rates, sels, default_selectivity=1.0)


def _join_chain(rng: np.random.Generator, name: str, num_nodes: int, joins: int, inputs: list) -> Circuit:
    """A hand-placed chain of ``joins`` joins (the E24 shape)."""
    circuit = Circuit(name=name)
    sources = [int(v) for v in rng.choice(num_nodes, size=joins + 1, replace=False)]
    for a, node in enumerate(sources):
        circuit.add_service(
            Service(f"{name}/p{a}", ServiceSpec.relay(), node, frozenset((f"P{a}",)))
        )
    spec = [sources]
    prev, prev_rate = f"{name}/p0", float(rng.uniform(4.0, 10.0))
    for j in range(joins):
        sid = f"{name}/j{j}"
        circuit.add_service(
            Service(sid, ServiceSpec.join(), None, frozenset((f"P{j}", f"X{j}")))
        )
        other_rate = float(rng.uniform(4.0, 10.0))
        host = int(rng.integers(num_nodes))
        circuit.add_link(prev, sid, prev_rate)
        circuit.add_link(f"{name}/p{j + 1}", sid, other_rate)
        circuit.assign(sid, host)
        spec.append((prev_rate, other_rate, host))
        prev, prev_rate = sid, float(rng.uniform(0.3, 0.8)) * min(prev_rate, other_rate)
    sink_node = int(rng.integers(num_nodes))
    circuit.add_service(
        Service(f"{name}/sink", ServiceSpec.relay(), sink_node, frozenset(("ALL",)))
    )
    circuit.add_link(prev, f"{name}/sink", prev_rate)
    spec.append((prev_rate, sink_node))
    inputs.append(spec)
    return circuit


# -- program objects, every load-shaping argument written out ----------------


def _optimizer(overlay: Overlay, mapper, placement_fn) -> IntegratedOptimizer:
    return IntegratedOptimizer(
        overlay.cost_space,
        mapper=mapper,
        evaluator=CostSpaceEvaluator(overlay.cost_space),
        placement_fn=placement_fn,
        max_candidate_plans=16,
        load_weight=1.0,
        refinement_candidates=0,
    )


def _placement(recorder):
    """Spring relaxation with its budget pinned; wrapped when tracing."""

    def placement_fn(circuit, pinned_positions):
        return relaxation_placement(
            circuit, pinned_positions, max_iterations=400, tolerance=1e-4
        )

    if recorder is None:
        return placement_fn
    return recorder.wrap(placement_fn, "core.virtual_placement.relaxation_placement")


def _data_plane(overlay: Overlay, seed: int, node_capacity: float, reliable: bool) -> DataPlane:
    return DataPlane(
        overlay,
        RuntimeConfig(
            window=20,
            tick_ms=10.0,
            node_capacity=node_capacity,
            eviction_slack=None,
            seed=seed,
            reliable=reliable,
            retransmit_buffer=4096,
            drift=(),
            load_model=LoadModel(
                relay_cost=1.0,
                filter_cost=1.25,
                aggregate_cost=1.5,
                aggregate_batch_cost=0.125,
                join_cost=2.0,
                probe_cost=0.5,
            ),
            compact_threshold=0.25,
        ),
    )


def _simulation(overlay, plane, reopt_interval, obs, **parts) -> Simulation:
    return Simulation(
        overlay,
        latency_drift=None,
        config=SimulationConfig(
            reopt_interval=reopt_interval,
            migration_threshold=0.02,
            use_ground_truth_for_reopt=False,
            load_weight=1.0,
        ),
        data_plane=plane,
        obs=obs,
        **parts,
    )


def _profiling(recorder):
    """The program's own phase profiler, attached in the traced pass only."""
    if recorder is None:
        return None
    return Observability(
        tracing=False, trace_rate=0.01, trace_salt=0xB5, metrics=False, profiling=True
    )


class _TickCounters:
    """Seed-exact counters of a tick workload's measured window."""

    def __init__(self, sim: Simulation, plane: DataPlane, obs) -> None:
        self.sim, self.plane, self.obs = sim, plane, obs
        self._start: dict = {}
        self._first = 0
        self._in_flight = 0

    def _cumulative(self) -> dict:
        acct = self.plane.accounting()
        sim = self.sim
        out = {
            "off_wire": acct["transport_delivered"],
            "dropped": acct["dropped"],
            "emitted": acct["emitted"],
            "processed": acct["processed"],
            "sink_delivered": acct["delivered"],
            "cpu_cost": acct["cpu_cost"],
            "reopt_accepts": sim.reopt_accepts,
            "reopt_rejects": sim.reopt_rejects,
        }
        if sim.controller is not None:
            out["calibrations"] = sim.controller.calibrations
            out["triggers"] = sim.controller.triggers
        if sim.autoscaler is not None:
            out["scale_events"] = sim.autoscaler.scale_ups + sim.autoscaler.scale_downs
        return out

    def begin(self) -> None:
        self._start = self._cumulative()
        self._first = len(self.sim.series.records)
        self._in_flight = 0

    def sample(self) -> None:
        """Transport depth at tick end (no per-tick record carries it)."""
        self._in_flight += self.plane.accounting()["in_flight"]

    def exact(self) -> dict:
        end = self._cumulative()
        out = {key: end[key] - self._start[key] for key in end}
        records = self.sim.series.records[self._first :]
        out["ticks"] = len(records)
        out["data_usage"] = math.fsum(r.data_usage for r in records)
        for name in ("migrations", "failures", "redelivered", "recompiles"):
            out[name] = sum(getattr(r, name) for r in records)
        out["buffered_peak"] = max(r.buffered for r in records)
        out["in_flight_sum"] = self._in_flight
        return out

    def balanced(self) -> bool:
        return bool(self.plane.accounting()["balanced"])

    def phases(self):
        if self.obs is None:
            return None
        return {path: total for path, total, _ in self.obs.profiler.summary()}


def _tick_workload(sim, plane, obs, inputs, op=None, after=None, extra=None) -> Workload:
    """A workload that ticks: ``op`` defaults to one ``Simulation.step``;
    ``after`` is further untimed glue, ``extra`` further exact counters."""
    counters = _TickCounters(sim, plane, obs)

    def glue(i: int, result) -> None:
        counters.sample()
        if after is not None:
            after(i, result)

    return Workload(
        op=op or (lambda i: sim.step()),
        exact=lambda: {**counters.exact(), **(extra or {})},
        begin=counters.begin,
        after=glue,
        balanced=counters.balanced,
        inputs=inputs,
        phases=counters.phases,
    )


# -- the four workloads ------------------------------------------------------


def _closed_loop_parts(scale: Scale, seed: int, recorder):
    """ROADMAP's standing configuration: every layer works."""
    inputs: list = []
    overlay = _overlay(scale, inputs)
    n = overlay.num_nodes
    optimizer = _optimizer(
        overlay, ExhaustiveMapper(overlay.cost_space, excluded=set()), _placement(recorder)
    )
    rng = random.Random(INSTANCE_SEED)
    for i in range(scale.circuits):
        overlay.install(optimizer.optimize(*_query(rng, f"q{i}", n, 3, inputs)))
    plane = _data_plane(overlay, seed, node_capacity=60.0, reliable=True)
    controller = Controller(
        plane,
        config=ControlConfig(
            alpha=0.3,
            quantile_window=32,
            # The one non-default: 31, not 8.  With drops at 9 % against
            # the 5 % threshold the controller fires as often as its
            # 10-tick cooldown allows, so its first re-placement fixes a
            # phase against the 10-tick reopt schedule for the whole
            # run.  Armed at tick 8 that phase is the seed's (ticks 15,
            # 16, 20, 20 on four seeds), and when the two share a tick
            # the tail of the tick distribution is another one (p95 17.5
            # ms, not 12).  Armed at 31, breach long established, every
            # seed fires at ticks 31, 41, 51, ...
            warmup=31,
            calibrate_interval=5,
            min_observations=4,
            min_rate=1e-3,
            drop_threshold=0.05,
            latency_threshold_ms=None,
            trigger_cooldown=10,
            exclude_drop_rate=1.0,
            shed_limit=None,
            shed_release=0.8,
            calibrate_quantile=None,
            cpu_ref=None,
            cpu_calibrate=True,
            buffer_evacuate_backlog=None,
            drift_calibrate=False,
        ),
        kernel_cache=None,
        oracle=False,
    )
    autoscaler = AutoScaler(
        overlay,
        plane,
        AutoScalerConfig(
            budget=120.0,
            up_threshold=1.0,
            down_threshold=0.35,
            breach_ticks=3,
            cold_ticks=5,
            cooldown=10,
            reopt_hold=0,
            k_max=8,
            target_util=0.7,
            alpha=0.4,
        ),
    )
    obs = _profiling(recorder)
    sim = _simulation(
        overlay,
        plane,
        10,
        obs,
        load_process=LoadProcess(
            n,
            mean_load=0.3,
            theta=0.1,
            sigma=0.05,
            max_load=1.0,
            seed=seed,
            hotspots=[],
            cpu_capacity=None,
        ),
        # No protected nodes: pinned hosts fail too, so the reliable
        # transport really buffers and redelivers.
        churn=ChurnProcess(
            n, fail_prob=0.0005, recover_prob=0.1, protected=set(), seed=seed + 1
        ),
        control=controller,
        autoscaler=autoscaler,
    )
    return sim, plane, obs, inputs


def _closed_loop(scale: Scale, seed: int, recorder) -> Workload:
    return _tick_workload(*_closed_loop_parts(scale, seed, recorder))


def _dataplane_only(scale: Scale, seed: int, recorder) -> Workload:
    """Hand-built join chains, no optimizer, no control, no dynamics."""
    inputs: list = []
    overlay = _overlay(scale, inputs)
    rng = np.random.default_rng(INSTANCE_SEED)
    for c in range(scale.chains):
        overlay.install_circuit(_join_chain(rng, f"c{c}", overlay.num_nodes, 3, inputs))
    plane = _data_plane(overlay, seed, node_capacity=1e9, reliable=False)
    obs = _profiling(recorder)
    sim = _simulation(overlay, plane, 0, obs)
    return _tick_workload(sim, plane, obs, inputs)


def _placed_usage(judge: GroundTruthEvaluator, circuit: Circuit) -> float:
    return judge.evaluate(circuit, load_weight=1.0).network_usage


def _tenant_churn(scale: Scale, seed: int, recorder) -> Workload:
    """Writes beside reads: every round replaces one tenant, then ticks."""
    inputs: list = []
    overlay = _overlay(scale, inputs)
    n = overlay.num_nodes
    optimizer = _optimizer(
        overlay, ExhaustiveMapper(overlay.cost_space, excluded=set()), _placement(recorder)
    )
    standing = random.Random(INSTANCE_SEED)
    tenants = []
    for i in range(scale.circuits):
        overlay.install(optimizer.optimize(*_query(standing, f"t{i}", n, 3, inputs)))
        tenants.append(f"t{i}")
    arrivals_rng = random.Random(seed)
    warmup = scale.warmup["tenant_churn"]
    arrivals = {
        i: _query(arrivals_rng, f"a{i + warmup}", n, 3, inputs)
        for i in range(-warmup, scale.ops)
    }
    plane = _data_plane(overlay, seed, node_capacity=60.0, reliable=False)
    obs = _profiling(recorder)
    sim = _simulation(overlay, plane, 0, obs)
    judge = GroundTruthEvaluator(overlay.latencies, loads=None, load_weighting=squared(100.0))
    placed = {"installs": 0, "placed_usage": 0.0, "candidates": 0}

    def op(i: int):
        overlay.uninstall(tenants.pop(0))
        result = optimizer.optimize(*arrivals[i])
        overlay.install(result)
        sim.step()
        return result

    def after(i: int, result) -> None:
        tenants.append(result.circuit.name)
        if i >= 0:
            placed["installs"] += 1
            placed["placed_usage"] += _placed_usage(judge, result.circuit)
            placed["candidates"] += result.placements_evaluated

    return _tick_workload(sim, plane, obs, inputs, op=op, after=after, extra=placed)


def _optimize_dht(scale: Scale, seed: int, recorder) -> Workload:
    """The paper's contribution alone, mapped through the Hilbert/Chord catalog."""
    inputs: list = []
    overlay = _overlay(scale, inputs)
    n = overlay.num_nodes
    mapper = CatalogMapper(
        overlay.cost_space,
        build_catalog(overlay.cost_space, bits=10, ring_size=64, alive=overlay.alive_flags()),
        scan_width=8,
        excluded=set(),
    )
    optimizer = _optimizer(overlay, mapper, _placement(recorder))
    rng = random.Random(seed)
    warmup = scale.warmup["optimize_dht"]
    arrivals = {
        i: _query(rng, f"d{i + warmup}", n, 4, inputs) for i in range(-warmup, scale.ops)
    }
    judge = GroundTruthEvaluator(overlay.latencies, loads=None, load_weighting=squared(100.0))
    installed: list[str] = []
    placed = {"installs": 0, "placed_usage": 0.0, "candidates": 0, "dht_hops": 0}

    def op(i: int):
        result = optimizer.optimize(*arrivals[i])
        overlay.install(result)
        return result

    def after(i: int, result) -> None:
        circuit = result.circuit
        installed.append(circuit.name)
        if len(installed) > scale.population:
            overlay.uninstall(installed.pop(0))
        if i < 0:
            return
        alive = overlay.alive_flags()
        if not circuit.is_fully_placed() or not all(alive[h] for h in circuit.hosts()):
            workload.failed += 1
        placed["installs"] += 1
        placed["placed_usage"] += _placed_usage(judge, circuit)
        placed["candidates"] += result.placements_evaluated
        placed["dht_hops"] += result.mapping.total_dht_hops

    workload = Workload(
        op=op, after=after, exact=lambda: dict(placed), begin=lambda: None, inputs=inputs
    )
    return workload


_BUILDERS = {
    "closed_loop": _closed_loop,
    "dataplane_only": _dataplane_only,
    "tenant_churn": _tenant_churn,
    "optimize_dht": _optimize_dht,
}


def build(name: str, scale: Scale, seed: int, recorder=None) -> Workload:
    """Build workload ``name``; with a recorder, the traced variant."""
    return _BUILDERS[name](scale, seed, recorder)


# -- the correctness twin ----------------------------------------------------

_FLOAT_TOLERANCE = 1e-9


def twin_check() -> str | None:
    """Step a small ``closed_loop`` twin pair 40 ticks; None when equal.

    One simulation runs :meth:`Simulation.step`, its twin the retained
    per-tuple reference :meth:`Simulation.step_scalar`; the records must
    agree field for field (floats to 1e-9, the tolerance the program's
    own equivalence tests use for summed usage).
    """
    scale = SCALES["twin"]
    fast, scalar = (_closed_loop_parts(scale, 1, None)[0] for _ in range(2))
    for tick in range(scale.ops):
        a = fast.step()
        b = scalar.step_scalar()
        for name, x in vars(a).items():
            y = getattr(b, name)
            same = (
                math.isclose(x, y, rel_tol=_FLOAT_TOLERANCE, abs_tol=_FLOAT_TOLERANCE)
                if isinstance(x, float)
                else x == y
            )
            if not same:
                return f"twin tick {tick + 1}: {name} {x!r} != scalar {y!r}"
    return None


# -- entry points wrapped by the traced pass ---------------------------------


def _count_targets(args, result) -> dict:
    return {"core.physical_mapping.targets": len(args[1])}


def _count_candidates(args, result) -> dict:
    return {"core.optimizer.candidates": result.placements_evaluated}


def _count_batch_hops(args, result) -> dict:
    stats = result[1]
    return {
        "dht.catalog.hops": sum(s.dht_hops for s in stats),
        "dht.catalog.lookups": len(stats),
    }


def _count_hops(args, result) -> dict:
    return {"dht.catalog.hops": result[1].dht_hops, "dht.catalog.lookups": 1}


#: layer -> [(module, class or None, attribute, count hook or None)].
#: A module-level function is patched in the module that *looks it up*.
ENTRY_POINTS = {
    "sbon.simulator": [("repro.sbon.simulator", "Simulation", "step", None)],
    "network.dynamics": [
        ("repro.network.dynamics", "LoadProcess", "step", None),
        ("repro.network.dynamics", "ChurnProcess", "step", None),
        ("repro.network.dynamics", "ChurnProcess", "alive_mask", None),
    ],
    "sbon.overlay": [
        ("repro.sbon.overlay", "Overlay", attr, None)
        for attr in (
            "apply_liveness",
            "alive_mask",
            "refresh_cost_space",
            "apply_migration",
            "set_background_loads",
            "set_background_cost",
            "set_measured_cpu",
            "loads",
            "total_network_usage",
            "install",
            "uninstall",
        )
    ],
    "core.reoptimizer": [
        ("repro.core.reoptimizer", "Reoptimizer", "step_all", None),
        ("repro.core.reoptimizer", "Reoptimizer", "evacuate", None),
        ("repro.control.controller", None, "refresh_kernel_rates", None),
    ],
    "core.physical_mapping": [
        ("repro.core.physical_mapping", "ExhaustiveMapper", "map_coordinates", _count_targets),
        ("repro.core.physical_mapping", "CatalogMapper", "map_coordinates", _count_targets),
        ("repro.core.optimizer", None, "map_circuit", None),
    ],
    "core.cost_space": [
        ("repro.core.cost_space", "CostSpace", attr, None)
        for attr in ("update_metrics", "nearest_nodes", "distances_from", "scalar_penalties")
    ],
    "core.optimizer": [
        ("repro.core.optimizer", "IntegratedOptimizer", "optimize", _count_candidates),
        ("repro.core.optimizer", "IntegratedOptimizer", "candidate_plans", None),
        ("repro.core.optimizer", "IntegratedOptimizer", "place_plan", None),
        ("repro.core.optimizer", "IntegratedOptimizer", "refine_placement", None),
    ],
    # relaxation_placement is handed to the optimizer already wrapped.
    "core.virtual_placement": [],
    "dht.catalog": [
        ("repro.dht.catalog", "CoordinateCatalog", "nearest_batch", _count_batch_hops),
        ("repro.dht.catalog", "CoordinateCatalog", "nearest", _count_hops),
    ],
    "runtime.dataplane": [("repro.runtime.dataplane", "DataPlane", "step", None)],
    "runtime.transport": [
        ("repro.runtime.transport", "ArrayTransport", "send", None),
        ("repro.runtime.transport", "ArrayTransport", "due", None),
        ("repro.runtime.transport", "ArrayTransport", "remap_ops", None),
        ("repro.runtime.transport", "ReliableTransport", "buffer", None),
        ("repro.runtime.transport", "ReliableTransport", "redeliver", None),
    ],
    "runtime.arena": [
        ("repro.runtime.arena", "CircuitArena", attr, None)
        for attr in ("append", "tombstone", "apply_compaction")
    ],
    "control.controller": [
        ("repro.control.controller", "Controller", attr, None)
        for attr in ("step", "calibrate", "calibrate_cpu")
    ],
    "control.estimator": [
        ("repro.control.estimator", "RateEstimator", attr, None)
        for attr in ("observe", "rates", "quantile")
    ],
    "scaling.autoscaler": [("repro.scaling.autoscaler", "AutoScaler", "step", None)],
}


def instrument(recorder) -> None:
    """Wrap every entry point of :data:`ENTRY_POINTS` that still exists.

    Classes are patched, not instances: the program builds its own
    re-optimizers, mappers, transports and arena.  Call
    ``recorder.restore()`` when the pass ends.
    """
    for layer, points in ENTRY_POINTS.items():
        for module_name, class_name, attr, count in points:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            if owner is not None and class_name is not None:
                owner = getattr(owner, class_name, None)
            recorder.patch(owner, attr, f"{layer}.{attr}", count)
