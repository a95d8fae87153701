"""The SBON overlay: nodes + latency ground truth + cost space, glued.

:class:`Overlay` is the main assembly point of the library: it owns the
physical substrate (topology → latency matrix), embeds it into a cost
space (Vivaldi by default), tracks per-node load, and hands out
optimizers wired to the current state.  The typical flow::

    topo    = transit_stub_topology(seed=1)
    overlay = Overlay.build(topo, vector_dims=2, seed=1)
    result  = overlay.integrated_optimizer().optimize(query, stats)
    overlay.install(result)          # circuit starts consuming CPU
    overlay.refresh_cost_space()     # loads appear in the coordinates

Performance architecture (struct-of-arrays)
-------------------------------------------

Load and memory state lives in contiguous ``(n,)`` arrays maintained
incrementally by the circuit-lifecycle methods: ``set_background_loads``
is a single array write, :meth:`loads` / :meth:`memory_loads` are single
vectorized expressions, and :meth:`total_network_usage` is one dot
product of a dense (link-endpoint, rate) index with the latency matrix:
one row per installed link, one segment per circuit, rewritten by each
call that moves an endpoint or a rate (:meth:`apply_migration`,
:meth:`set_link_rates`) and never rebuilt.  These
arrays are the only store of node state: liveness, capacities and
background load are ``(n,)`` arrays too, and the one hosting record is
``_host_of``, mapping ``(circuit, service id)`` to ``(node, load,
state_units)``: the hosting node and the two numbers the install added
to ``_induced`` and ``_memory`` (priced once by
:func:`~repro.query.operators.processing_load` and
:func:`~repro.query.operators.state_units`), which an eviction
subtracts again.  Batch liveness changes go through
:meth:`apply_liveness`, capacity changes through
:meth:`set_node_capacity`.  The per-node reference loops are retained
as ``loads_scalar`` (which recounts induced load from ``_host_of``) and
``total_network_usage_scalar``.

An installed service moves only through :meth:`apply_migration`, which
bumps ``placement_epoch``: the data plane re-reads its host column only
when that counter has moved.
"""

from __future__ import annotations

import numpy as np

from repro.core.cost_space import CostSpace, CostSpaceSpec
from repro.core.costs import CostSpaceEvaluator
from repro.core.circuit import Circuit
from repro.core.optimizer import (
    IntegratedOptimizer,
    OptimizationResult,
    RandomOptimizer,
    TwoStepOptimizer,
)
from repro.core.physical_mapping import CatalogMapper, ExhaustiveMapper, build_catalog
from repro.core.multi_query import MultiQueryOptimizer
from repro.core.reoptimizer import Reoptimizer
from repro.core.weighting import WeightingFunction, squared
from repro.network.latency import LatencyMatrix
from repro.network.topology import Topology
from repro.network.vivaldi import embed_latency_matrix
from repro.query.operators import processing_load, state_units

__all__ = ["Overlay"]


class Overlay:
    """A running SBON: substrate state + cost space + deployed circuits."""

    def __init__(
        self,
        latencies: LatencyMatrix,
        cost_space: CostSpace,
        topology: Topology | None = None,
    ):
        if cost_space.num_nodes != latencies.num_nodes:
            raise ValueError("cost space and latency matrix disagree on node count")
        self.latencies = latencies
        self.cost_space = cost_space
        self.topology = topology
        n = latencies.num_nodes
        # Per-node liveness; written only by apply_liveness.
        self._alive = np.ones(n, dtype=bool)
        self.circuits: dict[str, Circuit] = {}
        # Array-backed load/memory state (source of truth for loads()).
        self._background = np.zeros(n)
        self._induced = np.zeros(n)
        self._memory = np.zeros(n)
        # Measured CPU load fractions, fed by the control plane's cost
        # accounting (see set_measured_cpu); inactive until first write.
        self._measured_cpu = np.zeros(n)
        self._measured_active = False
        self._capacity = np.ones(n)
        self._memory_capacity = np.full(n, 10_000.0)
        # CPU-cost reference a cost-unit background feed was normalized
        # with (set_background_cost); None until the load process speaks
        # the unified cost currency.
        self._cpu_ref: float | None = None
        # (circuit name, service id) -> (hosting node, load, state units):
        # the one hosting record, behind _induced / _memory.
        self._host_of: dict[tuple[str, str], tuple[int, float, float]] = {}
        # Entries of _host_of per node, so a failure that hits only
        # empty nodes skips the scan of _host_of.
        self._hosted = np.zeros(n, dtype=np.int64)
        # Usage index: one (source host, target host, rate) row per
        # installed link, exactly the live rows.  _u_seg maps a circuit
        # to its segment (base, count); the segments tile the rows in
        # install order.  Every call that moves an endpoint or a rate
        # rewrites the rows it moved.
        self._u_src = np.zeros(0, dtype=int)
        self._u_dst = np.zeros(0, dtype=int)
        self._u_rate = np.zeros(0)
        self._u_seg: dict[str, tuple[int, int]] = {}
        # Moves of installed services so far (apply_migration).
        self.placement_epoch = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        topology: Topology,
        vector_dims: int = 2,
        load_weighting: WeightingFunction | None = None,
        include_load_dimension: bool = True,
        embedding_rounds: int = 50,
        seed: int = 0,
    ) -> "Overlay":
        """Construct an overlay from a topology: embed, then assemble.

        Args:
            topology: the physical network.
            vector_dims: latency-embedding dimensionality.
            load_weighting: weighting of the CPU-load dimension
                (squared, per the paper, if None).
            include_load_dimension: False builds a pure latency space.
            embedding_rounds: Vivaldi gossip rounds.
            seed: embedding RNG seed.
        """
        latencies = LatencyMatrix.from_topology(topology)
        embedding = embed_latency_matrix(
            latencies, dimensions=vector_dims, rounds=embedding_rounds, seed=seed
        )
        if include_load_dimension:
            spec = CostSpaceSpec.latency_load(
                vector_dims=vector_dims,
                load_weighting=load_weighting or squared(),
            )
            metrics = {"cpu_load": np.zeros(latencies.num_nodes)}
        else:
            spec = CostSpaceSpec.latency_only(vector_dims=vector_dims)
            metrics = None
        space = CostSpace.from_embedding(spec, embedding.coordinates, metrics)
        return cls(latencies=latencies, cost_space=space, topology=topology)

    @property
    def num_nodes(self) -> int:
        return self.latencies.num_nodes

    # -- load & liveness ---------------------------------------------------

    def loads(self) -> np.ndarray:
        """Current effective load of every node (one vectorized pass).

        The estimated part — background plus the hosted services'
        modeled load, over capacity — is topped up by the *measured*
        CPU load fraction once the control plane starts writing it
        (:meth:`set_measured_cpu`), so the cost space's load dimension
        tracks real compute pressure, not just the model.
        """
        raw = np.clip((self._background + self._induced) / self._capacity, 0.0, 1.0)
        if self._measured_active:
            raw = np.clip(raw + self._measured_cpu, 0.0, 1.0)
        return raw

    def loads_scalar(self) -> np.ndarray:
        """Per-node loop over the hosting record (retained scalar reference).

        Recounts every node's induced load from ``_host_of`` instead of
        reading the incrementally maintained ``_induced`` array.
        """
        induced = [0.0] * self.num_nodes
        for node, load, _ in self._host_of.values():
            induced[node] += load
        base = np.array(
            [
                min(max((background + load) / capacity, 0.0), 1.0)
                for background, load, capacity in zip(
                    self._background.tolist(), induced, self._capacity.tolist()
                )
            ]
        )
        if self._measured_active:
            base = np.array(
                [min(1.0, b + m) for b, m in zip(base, self._measured_cpu)]
            )
        return base

    def memory_loads(self) -> np.ndarray:
        """Current memory pressure of every node (one vectorized pass)."""
        return np.clip(self._memory / self._memory_capacity, 0.0, 1.0)

    def set_background_loads(self, loads: np.ndarray | list[float]) -> None:
        """Update background loads (from a :class:`LoadProcess`): one array write."""
        loads = np.asarray(loads, dtype=float)
        if loads.shape != (self.num_nodes,):
            raise ValueError("load vector has wrong shape")
        if np.isnan(loads).any():
            raise ValueError("background loads must not be NaN")
        self._background = loads.astype(float, copy=True)

    def set_background_cost(
        self, costs: np.ndarray | list[float], cpu_ref: float
    ) -> None:
        """Update background demand given in CPU *cost units per tick*.

        The unified-currency twin of :meth:`set_background_loads`: a
        load process that speaks the runtime's cost currency
        (``LoadProcess(cpu_capacity=...)``) hands its raw per-node cost
        output here together with the per-tick cost capacity it walks
        against; the overlay normalizes once (``cost / cpu_ref``) and
        stores the fraction, so :meth:`loads` / :meth:`loads_scalar`
        and every downstream consumer behave identically to the
        fraction-fed path.  ``cpu_ref`` is remembered and served by
        :meth:`cpu_reference` so the control plane can share the same
        reference instead of guessing its own.
        """
        if not cpu_ref > 0:  # also rejects NaN
            raise ValueError("cpu_ref must be positive")
        costs = np.asarray(costs, dtype=float)
        if costs.shape != (self.num_nodes,):
            raise ValueError("cost vector has wrong shape")
        self.set_background_loads(np.clip(costs / cpu_ref, 0.0, 1.0))
        self._cpu_ref = float(cpu_ref)

    def cpu_reference(self) -> float | None:
        """The CPU-cost reference of the background feed, if cost-typed.

        None until :meth:`set_background_cost` has been called — i.e.
        while background load arrives as plain fractions.
        """
        return self._cpu_ref

    def set_measured_cpu(self, fractions: np.ndarray | list[float]) -> None:
        """Feed measured per-node CPU load into the load dimension.

        ``fractions`` are measured cost rates normalized to [0, 1] of a
        full node (the controller's ``calibrate_cpu`` write-back —
        CPU cost units per tick over the cost-rate reference).  They
        add on top of the estimated load in :meth:`loads` until
        :meth:`clear_measured_cpu`, so placement decisions price real
        compute pressure in the same currency as the kernels charge it.
        """
        fractions = np.asarray(fractions, dtype=float)
        if fractions.shape != (self.num_nodes,):
            raise ValueError("measured CPU vector has wrong shape")
        if not np.all((fractions >= 0) & (fractions <= 1)):  # also rejects NaN
            raise ValueError("measured CPU fractions must be in [0, 1]")
        self._measured_cpu = fractions.copy()
        self._measured_active = True

    def clear_measured_cpu(self) -> None:
        """Drop the measured CPU component from :meth:`loads`."""
        self._measured_cpu = np.zeros(self.num_nodes)
        self._measured_active = False

    def set_node_capacity(
        self,
        node: int,
        capacity: float | None = None,
        memory_capacity: float | None = None,
    ) -> None:
        """Change a node's CPU and/or memory capacity (infinite is legal)."""
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} outside overlay")
        # ``not x > 0`` also rejects NaN.
        if capacity is not None:
            if not capacity > 0:
                raise ValueError("capacity must be positive")
            self._capacity[node] = float(capacity)
        if memory_capacity is not None:
            if not memory_capacity > 0:
                raise ValueError("memory capacity must be positive")
            self._memory_capacity[node] = float(memory_capacity)

    def alive_flags(self) -> list[bool]:
        return self._alive.tolist()

    def alive_mask(self) -> np.ndarray:
        """Per-node liveness as a boolean array (a copy)."""
        return self._alive.copy()

    def failed_nodes(self) -> set[int]:
        return set(np.flatnonzero(~self._alive).tolist())

    def apply_liveness(self, alive: np.ndarray | list[bool]) -> tuple[list[int], list[int]]:
        """Apply a liveness mask (from churn) in one batched diff.

        Only nodes whose flag changed are touched: newly-failed nodes
        are downed and their hosted services dropped (the caller is
        expected to evacuate the affected circuits); newly-recovered
        nodes come back empty-handed.

        Returns:
            ``(newly_failed, newly_recovered)`` node index lists.
        """
        alive = np.asarray(alive, dtype=bool)
        if alive.shape != (self.num_nodes,):
            raise ValueError("liveness mask has wrong shape")
        current = self._alive
        newly_failed = np.flatnonzero(current & ~alive).tolist()
        newly_recovered = np.flatnonzero(~current & alive).tolist()
        current[:] = alive
        if newly_failed and self._hosted[newly_failed].any():
            down = set(newly_failed)
            for key in [k for k, entry in self._host_of.items() if entry[0] in down]:
                del self._host_of[key]
            self._induced[newly_failed] = 0.0
            self._memory[newly_failed] = 0.0
            self._hosted[newly_failed] = 0
        return newly_failed, newly_recovered

    def refresh_cost_space(self) -> None:
        """Recompute the scalar dimensions from current node state.

        Supplies every metric the space's spec declares in one
        ``update_metrics`` batch; supported providers are ``cpu_load``
        and ``memory``.
        """
        declared = {d.metric for d in self.cost_space.spec.scalar_dimensions}
        if not declared:
            return
        providers = {"cpu_load": self.loads, "memory": self.memory_loads}
        unknown = declared - set(providers)
        if unknown:
            raise ValueError(f"no metric providers for {sorted(unknown)}")
        self.cost_space.update_metrics(
            {metric: providers[metric]() for metric in declared}
        )

    # -- circuit lifecycle ---------------------------------------------------

    def _require_alive(self, nodes) -> None:
        """Raise RuntimeError if any of ``nodes`` is down.

        Every hosting method calls it before its first write, so a
        refused install, replacement or migration changes nothing.
        """
        for node in nodes:
            if not self._alive[node]:
                raise RuntimeError(f"node {node} is down")

    def _host_service(self, circuit: Circuit, service_id: str, node: int) -> None:
        """Host one of a circuit's services on a node the caller has
        checked with :meth:`_require_alive`."""
        spec = circuit.services[service_id].spec
        rate = circuit.input_rate(service_id)
        load, units = processing_load(spec, rate), state_units(spec, rate)
        self._induced[node] += load
        self._memory[node] += units
        self._hosted[node] += 1
        self._host_of[(circuit.name, service_id)] = (node, load, units)

    def _evict_service(self, circuit_name: str, service_id: str) -> None:
        """Evict one service, releasing exactly the load it was hosted with."""
        entry = self._host_of.pop((circuit_name, service_id), None)
        if entry is None:
            return
        node, load, units = entry
        self._induced[node] -= load
        self._memory[node] -= units
        self._hosted[node] -= 1

    def install(self, result: OptimizationResult) -> None:
        """Deploy an optimized circuit: host its services on nodes."""
        self.install_circuit(result.circuit)

    def install_circuit(self, circuit: Circuit) -> None:
        """Deploy an already-placed circuit."""
        if circuit.name in self.circuits:
            raise ValueError(f"circuit {circuit.name} already installed")
        if not circuit.is_fully_placed():
            raise ValueError("circuit must be fully placed before installation")
        unpinned = circuit.unpinned_ids()
        self._require_alive(circuit.host_of(sid) for sid in unpinned)
        for sid in unpinned:
            self._host_service(circuit, sid, circuit.host_of(sid))
        self.circuits[circuit.name] = circuit
        self._usage_append(circuit)

    def replace_circuit(self, circuit: Circuit) -> None:
        """Swap an installed circuit for a rewritten version in place.

        The scale-event path: the autoscaler rewrites a circuit
        (replicate / merge) and swaps it under the same name.  The old
        version's unpinned services are evicted, the new version's are
        hosted, and the ``circuits`` dict entry is updated *in place* —
        preserving the dict's key order.  The data plane lays its arena
        segments out in that order and draws its sources in op-row
        order, so dict order is draw order and an executing twin pair
        stays tick-for-tick equivalent across the swap.  The data
        plane notices the new object identity on its next ``_sync`` and
        makes a segment swap: it derives this circuit alone, gathers the
        new segment into the old one's place and re-homes keyed state.
        """
        old = self.circuits.get(circuit.name)
        if old is None:
            raise KeyError(f"no circuit {circuit.name} installed")
        if not circuit.is_fully_placed():
            raise ValueError("circuit must be fully placed before installation")
        unpinned = circuit.unpinned_ids()
        self._require_alive(circuit.host_of(sid) for sid in unpinned)
        for sid in old.unpinned_ids():
            self._evict_service(circuit.name, sid)
        for sid in unpinned:
            self._host_service(circuit, sid, circuit.host_of(sid))
        self.circuits[circuit.name] = circuit
        # Link count usually changes (split links appear/disappear), so
        # the old usage segment is closed and the new one appended.
        self._usage_remove(circuit.name)
        self._usage_append(circuit)

    def uninstall(self, circuit_name: str) -> None:
        """Tear a circuit down, releasing its load everywhere."""
        if circuit_name not in self.circuits:
            raise KeyError(f"no circuit {circuit_name}")
        circuit = self.circuits[circuit_name]
        for sid in circuit.unpinned_ids():
            self._evict_service(circuit_name, sid)
        del self.circuits[circuit_name]
        self._usage_remove(circuit_name)

    def apply_migration(self, circuit_name: str, service_id: str, to_node: int) -> None:
        """Move one hosted service to a new node (post-reoptimization).

        The only way an installed service moves; bumps ``placement_epoch``.
        Only unpinned services are hosted, so a pinned one raises
        ValueError, like a dead target's RuntimeError, before any write.
        """
        circuit = self.circuits[circuit_name]
        if circuit.services[service_id].is_pinned:
            raise ValueError(f"cannot migrate pinned service {service_id}")
        self._require_alive((to_node,))
        # assign validates the move before the hosting record changes.
        circuit.assign(service_id, to_node)
        self._evict_service(circuit_name, service_id)
        self._host_service(circuit, service_id, to_node)
        self._usage_write(circuit)
        self.placement_epoch += 1

    def set_link_rates(self, circuit_name: str, rates) -> None:
        """Re-price an installed circuit's links (the controller's
        calibration): :meth:`Circuit.set_link_rates`, then its usage rows.

        An unknown name raises KeyError and a refused rate vector
        ValueError, both before any write.
        """
        circuit = self.circuits[circuit_name]
        circuit.set_link_rates(rates)
        self._usage_write(circuit)

    # -- usage index ---------------------------------------------------------

    def _usage_append(self, circuit: Circuit) -> None:
        """Append a newly installed circuit's segment at the tail."""
        m = len(circuit.links)
        self._u_seg[circuit.name] = (self._u_rate.size, m)
        self._u_src, self._u_dst, self._u_rate = (
            np.concatenate((column, np.zeros(m, dtype=column.dtype)))
            for column in (self._u_src, self._u_dst, self._u_rate)
        )
        self._usage_write(circuit)

    def _usage_remove(self, name: str) -> None:
        """Close an uninstalled circuit's segment and rebase the later ones."""
        base, m = self._u_seg.pop(name)
        self._u_src, self._u_dst, self._u_rate = (
            np.concatenate((column[:base], column[base + m :]))
            for column in (self._u_src, self._u_dst, self._u_rate)
        )
        for other, (b, k) in self._u_seg.items():
            if b > base:
                self._u_seg[other] = (b - m, k)

    def _usage_write(self, circuit: Circuit) -> None:
        """(Re)write a circuit's (source host, target host, rate) rows."""
        base, _ = self._u_seg[circuit.name]
        placement = circuit.placement
        # Element writes: circuits have a handful of links, where three
        # array builds per call would cost several times more.
        for row, link in enumerate(circuit.links, start=base):
            self._u_src[row] = placement[link.source]
            self._u_dst[row] = placement[link.target]
            self._u_rate[row] = link.rate

    # -- factories ---------------------------------------------------------

    def estimate_evaluator(self) -> CostSpaceEvaluator:
        """Evaluator pricing circuits with cost-space estimates."""
        return CostSpaceEvaluator(self.cost_space)

    def exhaustive_mapper(self) -> ExhaustiveMapper:
        return ExhaustiveMapper(self.cost_space, excluded=self.failed_nodes())

    def catalog_mapper(self, bits: int = 10, ring_size: int = 64) -> CatalogMapper:
        """Decentralized mapper over a freshly published catalog."""
        catalog = build_catalog(
            self.cost_space, bits=bits, ring_size=ring_size, alive=self.alive_flags()
        )
        return CatalogMapper(self.cost_space, catalog)

    def integrated_optimizer(self, **kwargs) -> IntegratedOptimizer:
        kwargs.setdefault("mapper", self.exhaustive_mapper())
        return IntegratedOptimizer(self.cost_space, **kwargs)

    def two_step_optimizer(self, **kwargs) -> TwoStepOptimizer:
        kwargs.setdefault("mapper", self.exhaustive_mapper())
        return TwoStepOptimizer(self.cost_space, **kwargs)

    def random_optimizer(self, seed: int = 0, **kwargs) -> RandomOptimizer:
        return RandomOptimizer(self.cost_space, seed=seed, **kwargs)

    def multi_query_optimizer(self, radius: float, **kwargs) -> MultiQueryOptimizer:
        kwargs.setdefault("mapper", self.exhaustive_mapper())
        return MultiQueryOptimizer(self.cost_space, radius, **kwargs)

    def reoptimizer(self, **kwargs) -> Reoptimizer:
        kwargs.setdefault("mapper", self.exhaustive_mapper())
        return Reoptimizer(self.cost_space, **kwargs)

    # -- reporting ---------------------------------------------------------

    def total_network_usage(self) -> float:
        """True Σ rate×latency over all installed circuits (one reduce).

        The latency matrix diagonal is zero, so colocated links
        contribute nothing, exactly as in the per-link scalar loop.
        """
        latency = self.latencies.values[self._u_src, self._u_dst]
        return float(np.dot(self._u_rate, latency))

    def total_network_usage_scalar(self) -> float:
        """Per-circuit per-link Python loop (retained scalar reference)."""
        from repro.core.costs import network_usage

        return sum(
            network_usage(circuit, self.latencies.latency)
            for circuit in self.circuits.values()
        )
