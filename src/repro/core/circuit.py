"""Circuits: instantiated queries in the SBON (§3).

A *circuit* is the instantiation of a query: pinned services (producers
and consumer, with pre-defined network locations) plus unpinned services
(joins, aggregates) that the optimizer is free to place, connected by
directed links each carrying an estimated stream rate.

``Circuit.from_plans`` compiles a query's candidate plans into one
circuit each, building what the plans share once (``from_plan`` is its
one-plan case); placement is recorded in ``circuit.placement`` and filled in
by the physical-mapping stage.

A circuit's link rates live in one column, ``Circuit.link_rates``, in
link order: a :class:`CircuitLink` holds its endpoints and reads its rate
from that column, so re-pricing a circuit (``set_link_rates``, the
control plane's calibration) writes the column once and rebuilds no
link, and every consumer — evaluators, the re-optimizer's arena, the
overlay's usage rows — reads the same numbers.  A link belongs to one
circuit: ``copy`` gives the copy its own links and column.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.query.model import QuerySpec
from repro.query.operators import ServiceKind, ServiceSpec
from repro.query.plan import JoinNode, LeafNode, LogicalPlan, PlanNode
from repro.query.selectivity import Statistics

__all__ = [
    "ReplicaInfo",
    "Service",
    "CircuitLink",
    "Circuit",
    "effective_statistics",
]


@dataclass(frozen=True)
class ReplicaInfo:
    """Replication metadata carried by key-partitioned replica services.

    A replicated family is the base service split into ``count``
    key-range replicas plus one downstream merge relay.  The *family*
    link rates of the unreplicated original are stored here exactly
    (not divided and re-multiplied, which would drift in float64) so
    the data plane can derive window domains and match probabilities
    bitwise-identically to the unreplicated circuit — the key-partition
    exactness invariant depends on it.

    Attributes:
        base: service id of the original (unreplicated) service.
        index: replica index in ``0..count-1``; ``-1`` marks the merge
            relay that re-interleaves the replicas' outputs.
        count: number of replicas in the family (the split factor k).
        in_rates: the original service's input-link rates, in port
            order — the family rates each replica derives its operator
            parameters from.
        out_rate: the original service's (first) output-link rate.
    """

    base: str
    index: int
    count: int
    in_rates: tuple[float, ...]
    out_rate: float

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("replica count must be >= 1")
        if not -1 <= self.index < self.count:
            raise ValueError("replica index must be -1 (merge) or in [0, count)")

    @property
    def is_merge(self) -> bool:
        return self.index < 0


@dataclass(frozen=True)
class Service:
    """One service instance in a circuit.

    Attributes:
        service_id: unique id within the circuit (e.g. ``"q1/join0"``).
        spec: the service's kind and parameters.
        pinned_node: physical node for pinned services, None if unpinned.
        producers: the set of producer names whose data this service's
            output reflects — the *reuse key* for multi-query
            optimization (two services with equal kind and producer set
            compute the same stream).
        replica: replication metadata when this service is one replica
            (or the merge relay) of a key-partitioned family; None for
            ordinary services.
    """

    service_id: str
    spec: ServiceSpec
    pinned_node: int | None
    producers: frozenset[str]
    replica: ReplicaInfo | None = None

    @property
    def is_pinned(self) -> bool:
        return self.pinned_node is not None

    @property
    def kind(self) -> ServiceKind:
        return self.spec.kind

    def reuse_key(self) -> tuple:
        """Key under which identical services can be merged (§2.2).

        A replica computes only its key slice of the stream, so the key
        carries the replica identity — multi-query reuse must never
        merge a replica with the unreplicated original or a sibling.
        """
        if self.replica is not None:
            return (
                self.spec.kind,
                self.producers,
                self.replica.index,
                self.replica.count,
            )
        return (self.spec.kind, self.producers)


class CircuitLink:
    """A directed stream link between two services of a circuit.

    Made by :meth:`Circuit.add_link` and owned by that one circuit:
    ``rate`` reads the circuit's rate column (always a Python
    ``float``), so a re-priced circuit re-prices its links in place.
    Links compare by endpoints and current rate.
    """

    __slots__ = ("source", "target", "_column", "_index")

    def __init__(self, source: str, target: str, column: list[float], index: int):
        self.source = source
        self.target = target
        self._column = column
        self._index = index

    @property
    def rate(self) -> float:
        return self._column[self._index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CircuitLink):
            return NotImplemented
        return (self.source, self.target, self.rate) == (
            other.source, other.target, other.rate
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target))

    def __repr__(self) -> str:
        return (
            f"CircuitLink(source={self.source!r}, target={self.target!r}, "
            f"rate={self.rate!r})"
        )


@dataclass
class Circuit:
    """A query circuit: services, links, and a (partial) placement.

    Attributes:
        name: circuit identifier.
        services: service id -> :class:`Service`.
        links: directed links (made by :meth:`add_link`, removed by
            :meth:`drop_links`).
        link_rates: the links' current rates, in link order — the one
            rate store every link reads; read-only outside this class
            (write through :meth:`set_link_rates`).
        placement: service id -> physical node; pinned services are
            pre-assigned, unpinned ones appear once mapped.
    """

    name: str
    services: dict[str, Service] = field(default_factory=dict)
    links: list[CircuitLink] = field(default_factory=list, init=False)
    placement: dict[str, int] = field(default_factory=dict)
    link_rates: list[float] = field(
        default_factory=list, init=False, repr=False, compare=False
    )
    # (services dict, its size, pinned ids, unpinned ids): the split
    # pinned_ids / unpinned_ids serve, rebuilt when the services dict
    # is replaced or changes size (add_service).
    _split: tuple | None = field(default=None, init=False, repr=False, compare=False)

    # -- construction ------------------------------------------------------

    def add_service(self, service: Service) -> None:
        if service.service_id in self.services:
            raise ValueError(f"duplicate service id {service.service_id}")
        self.services[service.service_id] = service
        if service.is_pinned:
            self.placement[service.service_id] = service.pinned_node

    def add_link(self, source: str, target: str, rate: float) -> None:
        services = self.services
        if source not in services or target not in services:
            raise ValueError("link endpoints must be existing services")
        rate = float(rate)
        if not (math.isfinite(rate) and rate >= 0):
            raise ValueError("link rate must be finite and non-negative")
        if source == target:
            raise ValueError("link endpoints must differ")
        column = self.link_rates
        self.links.append(CircuitLink(source, target, column, len(column)))
        column.append(rate)

    def drop_links(self, doomed: Callable[[CircuitLink], bool]) -> None:
        """Remove every link ``doomed`` accepts; the rest keep their order."""
        kept = [link for link in self.links if not doomed(link)]
        self.link_rates[:] = [link.rate for link in kept]
        for index, link in enumerate(kept):
            link._index = index
        self.links[:] = kept

    @classmethod
    def from_plan(
        cls,
        plan: LogicalPlan,
        query: QuerySpec,
        stats: Statistics,
        name: str | None = None,
        taps: dict[frozenset[str], int] | None = None,
    ) -> "Circuit":
        """Compile one logical plan: the one-plan case of :meth:`from_plans`."""
        return cls.from_plans([plan], query, stats, name, taps)[0]

    @classmethod
    def from_plans(
        cls,
        plans: Sequence[LogicalPlan],
        query: QuerySpec,
        stats: Statistics,
        name: str | None = None,
        taps: dict[frozenset[str], int] | None = None,
    ) -> list["Circuit"]:
        """Compile every candidate plan of ``query`` into its circuit.

        Producers become pinned RELAY sources at their producer nodes;
        each join node becomes an unpinned JOIN service; an optional
        aggregate (``query.aggregate_factor``) is appended before the
        pinned consumer sink.  Link rates come from the product-form
        rate model over *effective* (post-filter) statistics.

        ``taps`` maps a join subtree's producer set to a node: that
        subtree's output stream already runs there (multi-query reuse),
        so it compiles to one RELAY ``tap{n}`` pinned to the node, and
        producers only it consumed get no source.

        What the plans share is built once per call: the effective
        statistics, the pinned source and sink services (frozen, so
        every circuit holds the same objects), the aggregate and the
        output rate of each producer set (the same function of the same
        inputs, so every rate is the one a plan compiled alone gets).
        Each plan then costs one walk of its tree.
        """
        everyone = frozenset(query.producer_names)
        if any(plan.producers != everyone for plan in plans):
            raise ValueError("plan covers different producers than the query")
        taps = taps or {}
        effective = effective_statistics(query, stats)
        circuit_name = name or query.name
        relay, join = ServiceSpec.relay(), ServiceSpec.join()
        sources = {
            producer.name: Service(
                service_id=f"{circuit_name}/src:{producer.name}",
                spec=relay,
                pinned_node=producer.node,
                producers=frozenset((producer.name,)),
            )
            for producer in query.producers
        }
        aggregate = None
        if query.aggregate_factor is not None:
            aggregate = Service(
                service_id=f"{circuit_name}/agg",
                spec=ServiceSpec.aggregate(),
                pinned_node=None,
                producers=everyone,
            )
        sink = Service(
            service_id=f"{circuit_name}/sink:{query.consumer.name}",
            spec=relay,
            pinned_node=query.consumer.node,
            producers=everyone,
        )
        rates: dict[frozenset[str], float] = {}

        def rate(node: PlanNode) -> float:
            """The node's output rate, computed once per producer set."""
            value = rates.get(node.producers)
            if value is None:
                value = rates[node.producers] = node.output_rate(effective)
            return value

        def sourced(node: PlanNode) -> set[str]:
            """Producers the compiled circuit still reads directly."""
            if isinstance(node, LeafNode):
                return {node.producer}
            if node.producers in taps:
                return set()
            return sourced(node.left) | sourced(node.right)

        def compile_plan(plan: LogicalPlan) -> "Circuit":
            circuit = cls(name=circuit_name)
            needed = sourced(plan.root) if taps else everyone
            for producer in query.producers:
                if producer.name in needed:
                    circuit.add_service(sources[producer.name])
            counter = 0

            def build(node: PlanNode) -> str:
                """Recursively add services; return the node's service id."""
                nonlocal counter
                if isinstance(node, LeafNode):
                    return sources[node.producer].service_id
                tap = taps.get(node.producers)
                if tap is not None:
                    sid = f"{circuit_name}/tap{counter}"
                    counter += 1
                    circuit.add_service(Service(sid, relay, tap, node.producers))
                    return sid
                left_id = build(node.left)
                right_id = build(node.right)
                sid = f"{circuit_name}/join{counter}"
                counter += 1
                circuit.add_service(Service(sid, join, None, node.producers))
                circuit.add_link(left_id, sid, rate(node.left))
                circuit.add_link(right_id, sid, rate(node.right))
                return sid

            tail_id = build(plan.root)
            # ``build`` calls itself through its closure, a cycle that
            # would hold the circuit until the cyclic collector runs;
            # dropping the name frees both by reference counting.
            del build
            tail_rate = rate(plan.root)
            if aggregate is not None:
                circuit.add_service(aggregate)
                circuit.add_link(tail_id, aggregate.service_id, tail_rate)
                tail_id, tail_rate = (
                    aggregate.service_id,
                    tail_rate * query.aggregate_factor,
                )
            circuit.add_service(sink)
            circuit.add_link(tail_id, sink.service_id, tail_rate)
            return circuit

        return [compile_plan(plan) for plan in plans]

    # -- structure queries -------------------------------------------------

    def _pinned_split(self) -> tuple:
        services = self.services
        split = self._split
        if split is None or split[0] is not services or split[1] != len(services):
            pinned = [sid for sid, s in services.items() if s.is_pinned]
            unpinned = [sid for sid, s in services.items() if not s.is_pinned]
            split = self._split = (services, len(services), pinned, unpinned)
        return split

    def pinned_ids(self) -> list[str]:
        """Ids of pinned services, in insertion order (a fresh list)."""
        return list(self._pinned_split()[2])

    def unpinned_ids(self) -> list[str]:
        """Ids of unpinned services, in insertion order (a fresh list)."""
        return list(self._pinned_split()[3])

    def neighbors(self, service_id: str) -> list[tuple[str, float]]:
        """Services linked to ``service_id`` with the connecting rate."""
        if service_id not in self.services:
            raise KeyError(f"no service {service_id}")
        out: list[tuple[str, float]] = []
        for link in self.links:
            if link.source == service_id:
                out.append((link.target, link.rate))
            elif link.target == service_id:
                out.append((link.source, link.rate))
        return out

    def input_rate(self, service_id: str) -> float:
        """Total stream rate entering a service."""
        return sum(
            rate
            for link, rate in zip(self.links, self.link_rates)
            if link.target == service_id
        )

    def output_links(self, service_id: str) -> list[CircuitLink]:
        return [l for l in self.links if l.source == service_id]

    def sink_ids(self) -> list[str]:
        """Services with no outgoing links (the consumer side)."""
        sources = {l.source for l in self.links}
        return [sid for sid in self.services if sid not in sources]

    # -- placement ---------------------------------------------------------

    def assign(self, service_id: str, node: int) -> None:
        """Place an unpinned service on a physical node."""
        service = self.services.get(service_id)
        if service is None:
            raise KeyError(f"no service {service_id}")
        if service.is_pinned and node != service.pinned_node:
            raise ValueError(f"cannot move pinned service {service_id}")
        if node < 0:
            raise ValueError("node index must be non-negative")
        self.placement[service_id] = node

    def host_of(self, service_id: str) -> int:
        """Physical node hosting a service (raises if unplaced)."""
        if service_id not in self.placement:
            raise KeyError(f"service {service_id} is not placed")
        return self.placement[service_id]

    def is_fully_placed(self) -> bool:
        return all(sid in self.placement for sid in self.services)

    def hosts(self) -> set[int]:
        """All physical nodes used by the current placement."""
        return set(self.placement.values())

    def set_link_rates(self, rates) -> None:
        """Re-estimate every link's rate in place (calibration).

        ``rates`` aligns with :attr:`links` order.  The whole vector is
        validated, then written into the rate column once; no link is
        rebuilt.  Used by the control plane to replace stale estimates
        with measured rates; structure and placement are untouched, so
        an executing data plane keeps its compiled realized behavior
        while every *pricing* consumer (evaluators, re-optimizers) sees
        the calibrated numbers.  An installed circuit is re-priced
        through
        :meth:`Overlay.set_link_rates <repro.sbon.overlay.Overlay.set_link_rates>`,
        which also rewrites the overlay's usage rows for it.
        """
        column = np.asarray(rates, dtype=float)
        if column.shape != (len(self.links),):
            raise ValueError("rates must align with the circuit's links")
        values = column.tolist()
        if not all(0.0 <= value < math.inf for value in values):
            raise ValueError("link rate must be finite and non-negative")
        self.link_rates[:] = values

    def copy(self) -> "Circuit":
        """Deep-enough copy: shared immutable services, fresh placement,
        and links of its own over its own rate column."""
        clone = Circuit(
            name=self.name,
            services=dict(self.services),
            placement=dict(self.placement),
        )
        column = clone.link_rates
        column.extend(self.link_rates)
        clone.links = [
            CircuitLink(link.source, link.target, column, index)
            for index, link in enumerate(self.links)
        ]
        return clone


def effective_statistics(query: QuerySpec, stats: Statistics) -> Statistics:
    """Statistics with the query's pushed-down filters applied to rates."""
    rates = {}
    for producer in query.producers:
        base = stats.rate(producer.name)
        rates[producer.name] = base * query.filters.get(producer.name, 1.0)
    return Statistics(
        rates, dict(stats.selectivities), stats.default_selectivity
    )
