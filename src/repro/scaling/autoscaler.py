"""Autoscaling controller over key-partitioned operator replicas.

The :class:`AutoScaler` closes the *vertical* loop the placement
controller cannot: when one operator's measured CPU cost outgrows any
single node's budget, no migration helps — the operator itself must
split.  Each tick the autoscaler folds the data plane's per-operator
measured CPU (:attr:`~repro.runtime.dataplane.DataPlane.tick_op_cpu`)
into a per-family EWMA and compares the *per-replica* share against a
budget:

* **scale up** — after ``breach_ticks`` consecutive ticks with the
  per-replica EWMA above ``up_threshold * budget``, the family is
  re-split to ``ceil(ewma / (target_util * budget))`` replicas (capped
  at ``k_max``), with the *new* replicas placed on the least-CPU alive
  nodes so the split spreads instead of herding onto the hot host
  (replicas beyond the alive-node count stay on the base host);
* **scale down** — after ``cold_ticks`` consecutive ticks below
  ``down_threshold * budget`` per replica, the family shrinks toward
  the same sizing target (folding back to the single base at k=1).

The hysteresis band (``down_threshold`` well under ``up_threshold``
over ``target_util``) plus a per-family ``cooldown`` prevents flapping.
Decisions are pure functions of measured state — no RNG — so twin
simulations stepped through :meth:`~repro.sbon.simulator.Simulation.
step` and :meth:`~repro.sbon.simulator.Simulation.step_scalar` make
identical scaling decisions on identical ticks.

The monitor is array-resident; the trigger is rare.  Every scalable
family of the installed circuits lives in one :class:`_FamilyTable` —
member op rows, the family index of each row, k and the highest
member row (-1 while a member is not compiled) — rebuilt only when the data plane re-syncs its
structure (a new :meth:`~repro.runtime.dataplane.DataPlane.link_keys`
list) or an installed circuit object is replaced.  The per-family
policy state (EWMA, breach / cold counters, cooldown and reopt-hold
deadlines) are arrays aligned with the table, carried across rebuilds
by ``(circuit, base)``; a family whose circuit is uninstalled is
forgotten.  A tick costs one weighted ``bincount`` of the op CPU into
families (summed in member order from 0.0, bit-equal to a per-member
Python sum), a few array expressions for the EWMA and counters, and
Python only for the families whose counters crossed a threshold.

Rewrites go through :func:`repro.core.rewriting.replicate_operator`
(which preserves the family's exact link rates) and are installed with
:meth:`repro.sbon.overlay.Overlay.replace_circuit`, always applied to
the circuit currently installed — two families of one circuit can
re-split in the same tick.  The data plane detects the replaced
circuit on its next sync and migrates in-flight tuples and per-key
operator state onto the new replica homes.

Observability: ``scale_up`` / ``scale_down`` structured events (with
the service, old/new k, and the trigger reason) when an
:class:`~repro.obs.events.EventLog` is attached, plus a per-family
``replica_count`` keyed gauge when a registry is attached — both at
decision rate, never inside the tuple hot loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.query.operators import ServiceKind
from repro.core.rewriting import replica_families, replicate_operator

__all__ = ["AutoScalerConfig", "AutoScaler"]

_SCALABLE = (ServiceKind.JOIN, ServiceKind.AGGREGATE)


@dataclass(frozen=True)
class AutoScalerConfig:
    """Policy knobs of the scaling loop.

    Attributes:
        budget: CPU cost units per tick one replica is sized for — the
            same currency as ``LoadModel`` costs and the controller's
            overload limit.
        up_threshold: per-replica EWMA fraction of ``budget`` above
            which a tick counts as a breach.
        down_threshold: fraction below which a tick counts as cold;
            keep well under ``target_util`` for hysteresis.
        breach_ticks: consecutive breach ticks required to scale up.
        cold_ticks: consecutive cold ticks required to scale down.
        cooldown: ticks after any scale event during which the family
            holds its k (counters keep accumulating).
        reopt_hold: ticks after a scale event during which the family's
            members are reported by :meth:`AutoScaler.frozen_services`
            so the re-optimizer leaves them in place while per-key
            state and in-flight tuples settle onto the new replica
            homes.  Defaults to 0 (off): the placement pass is itself
            CPU-aware (measured CPU is calibrated into the cost
            space), so freezing it measurably *delays* overload relief
            on the flash-crowd benchmark — enable only for
            latency-dominated deployments where placement churn after
            scale events is the binding concern.
        k_max: replica-count ceiling per family.
        target_util: sizing target — after a scale event each replica
            should carry about ``target_util * budget``.
        alpha: EWMA smoothing weight for the family CPU measurement.
    """

    budget: float = 200.0
    up_threshold: float = 1.0
    down_threshold: float = 0.35
    breach_ticks: int = 3
    cold_ticks: int = 5
    cooldown: int = 10
    reopt_hold: int = 0
    k_max: int = 8
    target_util: float = 0.7
    alpha: float = 0.4

    def __post_init__(self) -> None:
        # ``not x > 0`` / ``not x >= 0`` also reject NaN (an inf budget
        # or threshold stays legal).
        if not self.budget > 0:
            raise ValueError("budget must be positive")
        if not 0 < self.target_util <= 1:
            raise ValueError("target_util must be in (0, 1]")
        if not 0 <= self.down_threshold < self.up_threshold:
            raise ValueError(
                "down_threshold must be non-negative and below up_threshold"
            )
        if self.breach_ticks < 1 or self.cold_ticks < 1:
            raise ValueError("breach_ticks and cold_ticks must be >= 1")
        if self.cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if self.reopt_hold < 0:
            raise ValueError("reopt_hold must be >= 0")


class _FamilyTable:
    """Every scalable family of the installed circuits, as arrays.

    Family ``f`` is ``keys[f] == (circuit name, base)`` with k
    ``k[f]`` and member sids ``members[f]`` (replicas in index order,
    then the merge relay).  ``rows`` / ``fam_of`` list the arena op
    row of every member of every *complete* family (all members
    compiled), in member order; ``max_row`` is -1 for an incomplete
    family.  The policy-state arrays are aligned with ``keys``.
    """

    STATE = ("ewma", "seen", "breach", "cold", "hold", "reopt")

    __slots__ = (
        "circuits", "link_keys", "keys", "members", "k", "rows", "fam_of", "max_row",
    ) + STATE

    def __init__(self, circuits, link_keys, op_index, old: _FamilyTable | None):
        self.circuits = circuits
        self.link_keys = link_keys
        self.keys: list[tuple[str, str]] = []
        self.members: list[list[str]] = []
        k: list[int] = []
        for circuit in circuits:
            for base, count, members in _scalable_families(circuit):
                self.keys.append((circuit.name, base))
                self.members.append(members)
                k.append(count)
        n = len(self.keys)
        self.k = np.asarray(k, dtype=np.int64)
        rows: list[int] = []
        fam_of: list[int] = []
        self.max_row = np.full(n, -1, dtype=np.int64)
        for f, ((name, _base), members) in enumerate(zip(self.keys, self.members)):
            found = [op_index.get((name, sid)) for sid in members]
            if None in found:
                continue
            rows.extend(found)
            fam_of.extend([f] * len(found))
            self.max_row[f] = max(found)
        self.rows = np.asarray(rows, dtype=np.int64)
        self.fam_of = np.asarray(fam_of, dtype=np.int64)
        self.ewma = np.zeros(n)
        self.seen = np.zeros(n, dtype=bool)
        self.breach = np.zeros(n, dtype=np.int64)
        self.cold = np.zeros(n, dtype=np.int64)
        self.hold = np.zeros(n, dtype=np.int64)
        self.reopt = np.zeros(n, dtype=np.int64)
        if old is not None and old.keys:
            where = {key: f for f, key in enumerate(old.keys)}
            src = np.fromiter(
                (where.get(key, -1) for key in self.keys), dtype=np.int64, count=n
            )
            have = src >= 0
            for name in self.STATE:
                getattr(self, name)[have] = getattr(old, name)[src[have]]

    def current(self, circuits, link_keys) -> bool:
        """Still describes this circuit set and data-plane layout."""
        return (
            link_keys is self.link_keys
            and len(circuits) == len(self.circuits)
            and all(a is b for a, b in zip(circuits, self.circuits))
        )


def _scalable_families(circuit):
    """Every scalable family of one circuit: (base, k, member sids).

    Replicated families (replicas plus the merge relay) come first, in
    service order of their first member; then every unreplicated,
    unpinned join / aggregate with inputs and outputs, as a k=1 family
    of itself.
    """
    for base, fam in replica_families(circuit).items():
        members = [sid for sid in fam["replicas"] if sid is not None]
        if fam["merge"] is not None:
            members.append(fam["merge"])
        yield base, fam["count"], members
    has_in: set[str] = set()
    has_out: set[str] = set()
    for link in circuit.links:
        has_in.add(link.target)
        has_out.add(link.source)
    for sid, service in circuit.services.items():
        if (
            service.replica is None
            and service.kind in _SCALABLE
            and not service.is_pinned
            and sid in has_in
            and sid in has_out
        ):
            yield sid, 1, [sid]


class AutoScaler:
    """Watches measured per-family CPU; splits hot operators, folds cold ones.

    Attributes:
        events: optional :class:`~repro.obs.events.EventLog`; receives
            ``scale_up`` / ``scale_down`` structured events.
        registry: optional :class:`~repro.obs.metrics.MetricsRegistry`;
            receives the per-family ``replica_count`` keyed gauge.
        scale_ups / scale_downs: cumulative decision counters.
    """

    def __init__(self, overlay, data_plane, config: AutoScalerConfig | None = None):
        self.overlay = overlay
        self.data_plane = data_plane
        self.config = config or AutoScalerConfig()
        self.events = None
        self.registry = None
        self.tick = 0
        self.scale_ups = 0
        self.scale_downs = 0
        self._table: _FamilyTable | None = None

    def _families(self) -> _FamilyTable:
        """The family table, rebuilt only after a structural change."""
        circuits = tuple(self.overlay.circuits.values())
        link_keys = self.data_plane.link_keys()
        table = self._table
        if table is None or not table.current(circuits, link_keys):
            table = _FamilyTable(
                circuits, link_keys, self.data_plane._op_index, table
            )
            self._table = table
        return table

    def frozen_services(self) -> set[tuple[str, str]]:
        """Member sids of families still inside a ``reopt_hold`` window.

        The simulator feeds these to the re-optimizer (its ``frozen``
        set) so a freshly re-split family is not migrated while its
        per-key state and in-flight tuples are still settling onto the
        new replica homes — without the hold-down the two control loops
        can fight over the same operators: a scale-up spreads replicas
        onto cold nodes and the very next placement pass herds them
        back.  Empty unless ``config.reopt_hold`` > 0 (see the config
        docstring for why the default leaves the placement pass free).
        """
        t = self._families()
        return {
            (t.keys[f][0], sid)
            for f in np.flatnonzero(t.reopt > self.tick)
            for sid in t.members[f]
        }

    def _spread_hints(
        self, circuit, base: str, old_k: int, new_k: int, members: list[str]
    ) -> list[int | None]:
        """Placement for the re-split: keep surviving replicas home,
        put *new* replicas on the least-CPU alive nodes."""
        if old_k > 1:
            kept = [circuit.placement.get(sid) for sid in members[:old_k]]
        else:
            kept = [circuit.placement.get(base)]
        kept = kept[:new_k]
        need = new_k - len(kept)
        if need <= 0:
            return kept
        node_cpu = np.asarray(self.data_plane.tick_node_cpu, dtype=float)
        alive = self.overlay.alive_mask()
        order = np.argsort(node_cpu, kind="stable")
        used = {n for n in kept if n is not None}
        fresh: list[int | None] = []
        for node in order:
            node = int(node)
            if not alive[node] or node in used:
                continue
            fresh.append(node)
            used.add(node)
            if len(fresh) == need:
                break
        while len(fresh) < need:
            fresh.append(None)  # fall back to the base host
        return kept + fresh

    # -- the decision loop ---------------------------------------------

    def step(self) -> int:
        """One decision pass; returns the number of scale events applied."""
        self.tick += 1
        cfg = self.config
        t = self._families()
        cpu = self.data_plane.tick_op_cpu
        n = len(t.keys)
        # A family is measured this tick only when every member has a
        # row in the tick's CPU vector (a fresh rewrite compiles on the
        # data plane's next sync).
        measured = (t.max_row >= 0) & (t.max_row < cpu.size)
        family_cpu = (
            np.bincount(t.fam_of, weights=cpu.take(t.rows, mode="clip"), minlength=n)
            if cpu.size
            else np.zeros(n)
        )
        blend = cfg.alpha * family_cpu + (1.0 - cfg.alpha) * t.ewma
        t.ewma = np.where(measured, np.where(t.seen, blend, family_cpu), t.ewma)
        t.seen |= measured
        per_replica = t.ewma / t.k
        hot = measured & (per_replica > cfg.up_threshold * cfg.budget)
        cool = (
            measured & ~hot & (t.k > 1)
            & (per_replica < cfg.down_threshold * cfg.budget)
        )
        t.breach = np.where(hot, t.breach + 1, np.where(measured, 0, t.breach))
        t.cold = np.where(cool, t.cold + 1, np.where(measured, 0, t.cold))
        due = measured & (self.tick >= t.hold)
        up = due & (t.breach >= cfg.breach_ticks) & (t.k < cfg.k_max)
        down = due & ~up & (t.cold >= cfg.cold_ticks) & (t.k > 1)
        k_now = t.k.astype(float)
        scaled = 0
        for f in np.flatnonzero(up | down):
            k_new = self._rescale(t, int(f), bool(up[f]))
            if k_new:
                scaled += 1
                k_now[f] = k_new
        if self.registry is not None and n:
            self.registry.keyed_gauge(
                "replica_count",
                ("circuit", "service"),
                help="key-partitioned replicas per operator family",
            ).set(t.keys, k_now)
        return scaled

    def _rescale(self, t: _FamilyTable, f: int, grow: bool) -> int:
        """Re-split family ``f`` of the installed circuit.

        Returns the new k, or 0 when the rewrite did not apply.
        """
        cfg = self.config
        name, base = t.keys[f]
        k = int(t.k[f])
        ewma = float(t.ewma[f])
        target = max(1, math.ceil(ewma / (cfg.target_util * cfg.budget)))
        if grow:
            k_new = min(cfg.k_max, max(k + 1, target))
        else:
            k_new = max(1, min(k - 1, target))
        # The installed object, not the table's: an earlier rewrite this
        # tick may already have replaced this circuit.
        circuit = self.overlay.circuits[name]
        hints = (
            self._spread_hints(circuit, base, k, k_new, t.members[f])
            if k_new > 1
            else None
        )
        result = replicate_operator(circuit, base, k_new, placement=hints)
        if not result.applied:
            return 0
        self.overlay.replace_circuit(result.circuit)
        t.hold[f] = self.tick + cfg.cooldown
        if cfg.reopt_hold > 0:
            t.reopt[f] = self.tick + cfg.reopt_hold
        t.breach[f] = 0
        t.cold[f] = 0
        if grow:
            self.scale_ups += 1
        else:
            self.scale_downs += 1
        if self.events is not None:
            self.events.emit(
                self.tick,
                "scale_up" if grow else "scale_down",
                circuit=name,
                service=base,
                k_from=k,
                k_to=k_new,
                reason="cpu_breach" if grow else "cold",
                family_cpu=round(ewma, 3),
            )
        return k_new
