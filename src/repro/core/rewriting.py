"""Local plan rewriting during re-optimization (§3.3).

"As part of re-optimization, a node can perform limited plan re-writing
as long as it is running all affected services.  This could involve the
reordering of services, the decomposition of existing services into
sub-services to reduce load, or the re-composition of services to
reduce network communication."

Four rewrite groups are implemented, each strictly local (it only
touches services that share a host, or a single service family):

* :func:`recompose_colocated_joins` — two adjacent JOIN services hosted
  on the *same* node are merged into one multi-way join service.  The
  inter-service link disappears (it was intra-node and free, but the
  merged service has lower fixed overhead and one less migration unit).
* :func:`decompose_join` — the inverse: a multi-way join whose host is
  overloaded is split back into a two-way join tree so the pieces can
  be placed on different nodes.
* :func:`reorder_adjacent_joins` — for two adjacent joins on one host,
  try the alternative associations of their three inputs and keep the
  one with the lowest intermediate rate (a classic local join
  reordering, valid because the host runs both services).
* :func:`replicate_operator` / :func:`merge_replicas` — elastic
  scaling (PR 9): split a CPU-hot join/aggregate into ``k``
  key-partitioned replicas plus one downstream merge relay, or fold a
  family back into its single base service.  Upstream links are
  expanded in place into one link per replica — the data plane's
  hash-router delivers each tuple to exactly one of them by SplitMix64
  key bucket — and the merge relay re-interleaves the replicas'
  outputs onto the base's original out-links.  The original *family*
  rates are carried exactly on :class:`~repro.core.circuit.ReplicaInfo`
  (never divided and re-multiplied) so the compiled operator
  parameters are bitwise-identical to the unreplicated circuit's: a
  k=1→k→1 round-trip restores the exact original behavior.

All rewrites take and return :class:`~repro.core.circuit.Circuit`
objects; they never touch services on other hosts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.circuit import Circuit, ReplicaInfo, Service
from repro.query.operators import ServiceKind, ServiceSpec
from repro.query.selectivity import Statistics, rate_of_subset

__all__ = [
    "RewriteResult",
    "colocated_join_pairs",
    "recompose_colocated_joins",
    "decompose_join",
    "reorder_adjacent_joins",
    "replicate_operator",
    "merge_replicas",
    "replica_families",
    "replica_sid",
    "merge_sid",
]


@dataclass(frozen=True)
class RewriteResult:
    """Outcome of a rewrite attempt.

    Attributes:
        circuit: the rewritten circuit (a fresh object; input untouched).
        applied: True if a rewrite actually happened.
        description: human-readable summary of what changed.
    """

    circuit: Circuit
    applied: bool
    description: str = ""


def _adjacent_join_pairs(circuit: Circuit) -> list[tuple[str, str]]:
    """(upstream, downstream) pairs of directly linked JOIN services."""
    pairs = []
    for link in circuit.links:
        src = circuit.services.get(link.source)
        dst = circuit.services.get(link.target)
        if (
            src is not None
            and dst is not None
            and src.kind is ServiceKind.JOIN
            and dst.kind is ServiceKind.JOIN
        ):
            pairs.append((link.source, link.target))
    return pairs


def colocated_join_pairs(circuit: Circuit) -> list[tuple[str, str]]:
    """Adjacent join pairs whose services share a physical host."""
    if not circuit.is_fully_placed():
        raise ValueError("circuit must be placed to find colocated services")
    return [
        (up, down)
        for up, down in _adjacent_join_pairs(circuit)
        if circuit.host_of(up) == circuit.host_of(down)
    ]


def recompose_colocated_joins(
    circuit: Circuit, upstream: str, downstream: str
) -> RewriteResult:
    """Merge two colocated adjacent joins into one multi-way join.

    The merged service keeps the downstream id (its output links are
    unchanged), absorbs the upstream's inputs, and covers the union of
    producers.  Only valid when both run on the same host (§3.3).
    """
    if circuit.host_of(upstream) != circuit.host_of(downstream):
        raise ValueError("recomposition requires colocated services")
    up_svc = circuit.services[upstream]
    down_svc = circuit.services[downstream]
    if up_svc.kind is not ServiceKind.JOIN or down_svc.kind is not ServiceKind.JOIN:
        raise ValueError("recomposition applies to JOIN services")

    merged = Circuit(name=circuit.name)
    for sid, service in circuit.services.items():
        if sid == upstream:
            continue
        if sid == downstream:
            service = Service(
                service_id=sid,
                spec=down_svc.spec,
                pinned_node=down_svc.pinned_node,
                producers=up_svc.producers | down_svc.producers,
            )
        merged.services[sid] = service
    for link in circuit.links:
        if link.source == upstream and link.target == downstream:
            continue  # the intra-node link disappears
        source = downstream if link.source == upstream else link.source
        target = downstream if link.target == upstream else link.target
        merged.add_link(source, target, link.rate)
    for sid, node in circuit.placement.items():
        if sid != upstream:
            merged.placement[sid] = node
    return RewriteResult(
        circuit=merged,
        applied=True,
        description=f"merged {upstream} into {downstream}",
    )


def decompose_join(
    circuit: Circuit,
    service_id: str,
    stats: Statistics,
) -> RewriteResult:
    """Split a multi-way join back into a two-way join plus a sub-join.

    The inputs are partitioned greedily: the most selective input pair
    (lowest joint output rate) becomes the new sub-service, which feeds
    the remaining join.  The sub-service starts on the same host (a
    later re-optimization pass is free to migrate it — that is the
    point of decomposing "to reduce load").

    Returns ``applied=False`` when the service has only two inputs.
    """
    service = circuit.services[service_id]
    if service.kind is not ServiceKind.JOIN:
        raise ValueError("decomposition applies to JOIN services")
    in_links = [l for l in circuit.links if l.target == service_id]
    if len(in_links) <= 2:
        return RewriteResult(circuit.copy(), False, "already a two-way join")

    def input_producers(link) -> frozenset[str]:
        return circuit.services[link.source].producers

    # Pick the pair of inputs with the smallest combined output rate.
    best_pair = None
    best_rate = float("inf")
    for i in range(len(in_links)):
        for j in range(i + 1, len(in_links)):
            joint = input_producers(in_links[i]) | input_producers(in_links[j])
            rate = rate_of_subset(stats, joint)
            if rate < best_rate:
                best_rate = rate
                best_pair = (in_links[i], in_links[j])
    assert best_pair is not None
    a, b = best_pair

    sub_id = f"{service_id}.sub"
    rewritten = circuit.copy()
    rewritten.drop_links(lambda l: l in (a, b))

    sub_producers = input_producers(a) | input_producers(b)
    rewritten.services[sub_id] = Service(
        service_id=sub_id,
        spec=ServiceSpec.join(),
        pinned_node=None,
        producers=sub_producers,
    )
    rewritten.add_link(a.source, sub_id, a.rate)
    rewritten.add_link(b.source, sub_id, b.rate)
    rewritten.add_link(sub_id, service_id, best_rate)
    rewritten.placement[sub_id] = circuit.host_of(service_id)
    return RewriteResult(
        rewritten, True, f"split {service_id}: new sub-join {sub_id} over {sorted(sub_producers)}"
    )


def reorder_adjacent_joins(
    circuit: Circuit,
    upstream: str,
    downstream: str,
    stats: Statistics,
) -> RewriteResult:
    """Try the alternative associations of two colocated adjacent joins.

    With upstream = (X ⋈ Y) feeding downstream = (· ⋈ Z), the host can
    locally re-associate to (X ⋈ Z)·Y or (Y ⋈ Z)·X.  The association
    with the lowest intermediate rate wins; if the current one is
    already best, nothing changes.

    Only the upstream's *producer grouping* changes — both services
    stay on their host, so this is a legal local rewrite.
    """
    if circuit.host_of(upstream) != circuit.host_of(downstream):
        raise ValueError("reordering requires colocated services")
    up_svc = circuit.services[upstream]
    up_inputs = [l for l in circuit.links if l.target == upstream]
    down_inputs = [
        l for l in circuit.links if l.target == downstream and l.source != upstream
    ]
    if len(up_inputs) != 2 or len(down_inputs) != 1:
        return RewriteResult(circuit.copy(), False, "shape not reorderable")

    x_link, y_link = up_inputs
    z_link = down_inputs[0]
    x = circuit.services[x_link.source].producers
    y = circuit.services[y_link.source].producers
    z = circuit.services[z_link.source].producers

    options = {
        "xy": (x | y, x_link, y_link, z_link),
        "xz": (x | z, x_link, z_link, y_link),
        "yz": (y | z, y_link, z_link, x_link),
    }
    rates = {
        key: rate_of_subset(stats, group)
        for key, (group, *_rest) in options.items()
    }
    best_key = min(rates, key=rates.get)
    if best_key == "xy":
        return RewriteResult(circuit.copy(), False, "current association optimal")

    group, first, second, third = options[best_key]
    rewritten = circuit.copy()
    rewritten.services[upstream] = Service(
        service_id=upstream,
        spec=up_svc.spec,
        pinned_node=up_svc.pinned_node,
        producers=group,
    )
    # The three inputs are re-wired, and the upstream -> downstream link
    # is re-added last with the new group's rate (no re-wired input
    # runs upstream -> downstream, so one pass drops all four).
    rewritten.drop_links(
        lambda l: l in (x_link, y_link, z_link)
        or (l.source == upstream and l.target == downstream)
    )
    rewritten.add_link(first.source, upstream, first.rate)
    rewritten.add_link(second.source, upstream, second.rate)
    rewritten.add_link(third.source, downstream, third.rate)
    rewritten.add_link(upstream, downstream, rates[best_key])
    return RewriteResult(
        rewritten, True, f"re-associated {upstream} to join {sorted(group)}"
    )


# -- elastic scaling: key-partitioned replication (PR 9) -------------------

_REPLICABLE = (ServiceKind.JOIN, ServiceKind.AGGREGATE)


def replica_sid(base: str, index: int) -> str:
    """Service id of replica ``index`` of ``base``."""
    return f"{base}@r{index}"


def merge_sid(base: str) -> str:
    """Service id of the merge relay of ``base``'s replica family."""
    return f"{base}@merge"


def replica_families(circuit: Circuit) -> dict[str, dict]:
    """Replica families present in a circuit, keyed by base service id.

    Each value is ``{"replicas": [sid, ...] (index order), "merge":
    sid | None, "count": k}``.  Used by the rewrite primitives, the
    autoscaler, and the replica-count metric.
    """
    families: dict[str, dict] = {}
    for sid, service in circuit.services.items():
        info = service.replica
        if info is None:
            continue
        fam = families.setdefault(
            info.base, {"replicas": [None] * info.count, "merge": None, "count": info.count}
        )
        if info.is_merge:
            fam["merge"] = sid
        else:
            fam["replicas"][info.index] = sid
    return families


def _resolve_base(circuit: Circuit, service_id: str) -> str | None:
    """The family base a service id refers to, or None if unreplicated."""
    service = circuit.services.get(service_id)
    if service is not None and service.replica is not None:
        return service.replica.base
    if service is None and service_id in replica_families(circuit):
        return service_id
    return None


def _unreplicate(circuit: Circuit, base: str) -> Circuit:
    """Fold a replica family back into its single base service.

    The base reappears at replica 0's position in the service order
    (and on replica 0's host); the stored family rates restore every
    original link exactly.
    """
    fam = replica_families(circuit)[base]
    replicas: list[str] = fam["replicas"]
    family = set(replicas)
    if fam["merge"] is not None:
        family.add(fam["merge"])
    r0 = circuit.services[replicas[0]]
    info = r0.replica
    restored = Service(
        service_id=base,
        spec=r0.spec,
        pinned_node=None,
        producers=r0.producers,
    )
    flat = Circuit(name=circuit.name)
    for sid, service in circuit.services.items():
        if sid == replicas[0]:
            flat.services[base] = restored
        elif sid not in family:
            flat.services[sid] = service
    port = 0
    out_seen = False
    for link in circuit.links:
        if link.target in family:
            if link.source in family:
                continue  # internal replica -> merge link
            if link.target == replicas[0]:
                flat.add_link(link.source, base, info.in_rates[port])
                port += 1
            # Split copies to the other replicas collapse away.
        elif link.source in family:
            # Merge out-links carry the original downstream rates.
            flat.add_link(base, link.target, link.rate)
            out_seen = True
        else:
            flat.add_link(link.source, link.target, link.rate)
    assert out_seen, "replica family had no downstream links"
    for sid, node in circuit.placement.items():
        if sid == replicas[0]:
            flat.placement[base] = node
        elif sid not in family:
            flat.placement[sid] = node
    return flat


def _replicate(
    circuit: Circuit, base: str, k: int, hints: list[int | None] | None
) -> Circuit:
    """Split an unreplicated service into ``k`` replicas plus a merge.

    ``hints`` optionally places replica ``i`` on ``hints[i]``; missing
    hints (and the merge relay) default to the base's current host.
    """
    service = circuit.services[base]
    in_links = [l for l in circuit.links if l.target == base]
    out_links = [l for l in circuit.links if l.source == base]
    in_rates = tuple(l.rate for l in in_links)
    out_rate = out_links[0].rate
    rep_sids = [replica_sid(base, i) for i in range(k)]
    m_sid = merge_sid(base)

    rewritten = Circuit(name=circuit.name)
    for sid, svc in circuit.services.items():
        if sid == base:
            for i in range(k):
                rewritten.services[rep_sids[i]] = Service(
                    service_id=rep_sids[i],
                    spec=service.spec,
                    pinned_node=None,
                    producers=service.producers,
                    replica=ReplicaInfo(base, i, k, in_rates, out_rate),
                )
            rewritten.services[m_sid] = Service(
                service_id=m_sid,
                spec=ServiceSpec.relay(),
                pinned_node=None,
                producers=service.producers,
                replica=ReplicaInfo(base, -1, k, in_rates, out_rate),
            )
        else:
            rewritten.services[sid] = svc
    out_seen = False
    for link in circuit.links:
        if link.target == base:
            # Expand in place into one split link per replica, so each
            # replica's in-port order equals the base's in-port order.
            for sid in rep_sids:
                rewritten.add_link(link.source, sid, link.rate / k)
        elif link.source == base:
            if not out_seen:
                for sid in rep_sids:
                    rewritten.add_link(sid, m_sid, out_rate / k)
                out_seen = True
            rewritten.add_link(m_sid, link.target, link.rate)
        else:
            rewritten.add_link(link.source, link.target, link.rate)

    home = circuit.placement.get(base)
    for sid, node in circuit.placement.items():
        if sid != base:
            rewritten.placement[sid] = node
    for i, sid in enumerate(rep_sids):
        node = hints[i] if hints is not None and i < len(hints) else None
        node = home if node is None else node
        if node is not None:
            rewritten.placement[sid] = node
    if home is not None:
        rewritten.placement[m_sid] = home
    return rewritten


def replicate_operator(
    circuit: Circuit,
    service_id: str,
    k: int,
    placement: list[int | None] | None = None,
) -> RewriteResult:
    """Scale a join/aggregate to ``k`` key-partitioned replicas.

    ``service_id`` may name an unreplicated service, the base of an
    existing family, or any member of one — rescaling an existing
    family folds it flat first and re-splits with the new ``k``
    (replica sids for indices below the old count are preserved, as
    are their hosts unless ``placement`` overrides them).  ``k == 1``
    on a family merges it back (see :func:`merge_replicas`).

    Only unpinned JOIN / AGGREGATE services with both inputs and
    outputs replicate; everything else returns ``applied=False``.
    Join families partition their state by key, so the merged output
    is exactly the unreplicated circuit's (canonical order);
    aggregate families are rate-preserving (the credit decimation is
    batch-order dependent across replicas).
    """
    if k < 1:
        raise ValueError("replica count must be >= 1")
    base = _resolve_base(circuit, service_id)
    if base is not None:
        fam = replica_families(circuit)[base]
        current = fam["count"]
        if k == current:
            return RewriteResult(circuit.copy(), False, f"{base} already at k={k}")
        hints = placement
        if hints is None:
            hints = [circuit.placement.get(sid) for sid in fam["replicas"]]
        flat = _unreplicate(circuit, base)
        if k == 1:
            return RewriteResult(
                flat, True, f"merged {base} back to a single instance"
            )
        return RewriteResult(
            _replicate(flat, base, k, hints),
            True,
            f"rescaled {base} from {current} to {k} replicas",
        )
    service = circuit.services.get(service_id)
    if service is None:
        raise KeyError(f"no service {service_id}")
    if service.kind not in _REPLICABLE:
        return RewriteResult(
            circuit.copy(), False, "only join/aggregate services replicate"
        )
    if service.is_pinned:
        return RewriteResult(
            circuit.copy(), False, "pinned services cannot replicate"
        )
    has_in = any(l.target == service_id for l in circuit.links)
    has_out = any(l.source == service_id for l in circuit.links)
    if not has_in or not has_out:
        return RewriteResult(
            circuit.copy(), False, "sources and sinks cannot replicate"
        )
    if k == 1:
        return RewriteResult(
            circuit.copy(), False, "k=1 is the unreplicated form"
        )
    return RewriteResult(
        _replicate(circuit, service_id, k, placement),
        True,
        f"split {service_id} into {k} key-partitioned replicas",
    )


def merge_replicas(circuit: Circuit, service_id: str) -> RewriteResult:
    """Fold a replica family back into its single base service.

    ``service_id`` may name the family base or any member.  Returns
    ``applied=False`` when the service is not replicated.
    """
    base = _resolve_base(circuit, service_id)
    if base is None:
        return RewriteResult(circuit.copy(), False, f"{service_id} is not replicated")
    return RewriteResult(
        _unreplicate(circuit, base),
        True,
        f"merged {base}'s replicas back to a single instance",
    )
