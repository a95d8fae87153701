"""The data-plane coordinator: all installed circuits, executed per tick.

:class:`DataPlane` compiles every circuit installed on an
:class:`~repro.sbon.overlay.Overlay` into flat arrays (CSR outgoing-link
index, per-operator kind/parameter columns) and then, each simulation
tick, moves actual tuple batches through all of them concurrently:

1. **Sources emit** — one Poisson draw across every source of every
   circuit, one uniform draw for all join keys.
2. **Delivery rounds** — the transport hands back every due batch;
   round 1 is everything in flight, later rounds are the zero-delay
   cascade outputs of the previous round (colocated services).
3. **Backpressure** — each node accepts at most
   ``RuntimeConfig.node_capacity`` **CPU cost units** per tick (further
   capped by controller shed limits, attributed separately); the excess
   is dropped *with accounting* (per-node counters).  Tuples delivered
   to a failed node are dropped the same way — or, with
   ``RuntimeConfig.reliable``, parked in the transport's bounded
   retransmit buffer and redelivered once the host returns.
4. **Operators run in batch** — relays forward, filters hash-thin,
   aggregates decimate with per-operator credit, joins match arrivals
   against windowed state in one chain walk per delivery round over
   all joins at once.  Join state is one slot table
   (:class:`~repro.runtime.join_state.JoinState`): an append-only row
   pool chained per (op, side, key) slot that counts its own live rows
   per (op, side), so inserts cost O(batch), eviction is one histogram
   row per tick, and dead rows leave only when a full pool compacts.
5. **Results are measured** — sink deliveries, end-to-end tuple
   latencies, per-link carried traffic, and Σ latency over every tuple
   actually sent (the *measured* network usage).  Each event is
   counted once, into the tick; at tick close the tick is published
   (the ``TrafficRecord``, ``tick_link_tuples``, ``tick_node_*``) and
   folded into the cumulative ledgers, so the two agree by
   construction.
   :meth:`DataPlane.true_link_rates` propagates the *realized*
   parameters analytically for oracle experiments.  Realized operator
   parameters can drift away from the compiled estimates on a
   deterministic schedule (:class:`ParameterDrift`) — the fixture
   behind the closed-loop control experiments.

The cost-unit convention
------------------------

All "load" in the runtime is expressed in the CPU cost units of
:class:`~repro.core.load_model.LoadModel` (one currency from the
operator kernels to placement):

* Every *processed* tuple is charged to the node that hosted its
  target operator: relays/filters/sinks cost their flat base, each
  tuple of an aggregate's delivery-round batch of ``m`` costs
  ``c₀ + c₁·m``, and each join arrival costs ``c₀ + c₂·probes`` where
  *probes* counts the windowed state entries it was matched against.
  The per-tick vector is exported as :attr:`tick_node_cpu` (and the
  tick totals as ``TrafficRecord.cpu_cost``).
* **Admission** prices each delivery at the target operator's
  *expected* per-tuple cost for this tick (state-dependent probe
  expectations are frozen at tick start, so both step paths price
  identically): a node admits deliveries, in canonical order, while
  its admitted cost this tick is below ``node_capacity`` (∧ shed
  limits).  With ``LoadModel.unit()`` — the default — every tuple
  costs 1 and this reproduces the historical count-based gate exactly.
* Rejected admission demand is accounted in cost units too
  (``TrafficRecord.cpu_dropped``: capacity + shed rejections at their
  admission price).

The default coefficients are dyadic rationals, so the batched kernels
and the per-tuple scalar reference accumulate bit-identical cost
columns (twin discipline holds for the cost currency).

Churn and migration safety: in-flight tuples address their target
*service*, and the hosting node is resolved at delivery time from the
circuit's current placement — when the re-optimizer migrates a service
(or churn forces an evacuation), tuples already on the wire re-home
automatically.  Uninstalling a circuit drops its in-flight tuples with
explicit accounting.  The conservation invariant, checkable at any
tick via :meth:`DataPlane.accounting`::

    sent == transport-delivered + in_flight + buffered
    transport-delivered == processed + dropped

(``buffered`` is 0 without ``RuntimeConfig.reliable``) so no tuple is ever
silently lost.

The global circuit arena
------------------------

All circuits compile into **one** contiguous set of flat arrays (the
global CSR arena): op columns and link rows span every installed
circuit, and each circuit owns a contiguous *segment* of them
(:class:`~repro.runtime.arena.CircuitArena` keeps the bookkeeping).
Each tick therefore runs a constant number of array kernels over all
circuits at once — there is no per-circuit Python dispatch in the hot
path.  The arena has one way to change: installs append a new segment
(the initial build is one batched install), uninstalls tombstone the
old one (in-flight / state / estimator columns survive untouched), and
the arena compacts in one gather pass, into overlay circuit order,
when the dead fraction crosses ``RuntimeConfig.compact_threshold``.  A
same-name replacement (every scale event) is a *segment swap*: the old
segment retires, the new circuit appends, and a compaction puts it
back in its circuit's place and re-homes the retired rows' tuples,
join state and aggregate credit.  Only the swapped circuit is derived;
swaps are counted in ``TrafficRecord.recompiles``.

The arena's columns and segments are the plane's only record of its
structure: hosts and source rates are op columns, each segment carries
its circuit, and the derived indexes (live links, sources) are
recomputed at the end of every structural sync.  The per-tick draw
reads the sources in op-row order, which is overlay circuit order.

Scalar oracle
-------------

:meth:`DataPlane.step_scalar` runs the per-tuple oracle of
:mod:`repro.runtime.oracle` on this plane's tick frame and columns; its
first tick swaps in the oracle's transport and join tables, and an
instance stays on the path it first stepped.

Randomness discipline: the only RNG draws are the per-tick source
draws.  Filter predicates and join match thinning are deterministic
hashes of tuple content (SplitMix64 buckets), which keeps the batched
and per-tuple paths exactly equivalent without coupling their
per-candidate draw order.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from repro.core.load_model import (
    KIND_AGGREGATE,
    KIND_FILTER,
    KIND_JOIN,
    KIND_RELAY,
    LoadModel,
)
from repro.query.operators import ServiceKind
from repro.runtime.arena import ArenaSegment, CircuitArena
from repro.runtime import oracle
from repro.runtime.hashing import filter_bucket, pair_bucket, route_bucket
from repro.runtime.join_state import JoinState
from repro.runtime.transport import ArrayTransport

_LOG = logging.getLogger(__name__)

__all__ = ["ParameterDrift", "RuntimeConfig", "TrafficRecord", "DataPlane"]

# Operator behavior codes (what an op does with a delivered tuple);
# shared with the LoadModel's kind-cost convention.
_RELAY, _FILTER, _AGG, _JOIN = KIND_RELAY, KIND_FILTER, KIND_AGGREGATE, KIND_JOIN


# Largest tick the batched path's int32 (ts, e) state columns can hold.
_TICK_LIMIT = int(np.iinfo(np.int32).max)

# The global arena's columns, each name mapped to its dtype: one row
# per op and one row per link (grouped by source op).  A source is an
# op row with no in-link and an out-link; its emission rate sits in
# ``_op_rate`` (0 elsewhere), and the per-tick draw reads the live
# sources in row order.  Empty init, segment install and compaction all
# iterate these tables.
_OP_COLUMNS = {
    "_kind": np.int8,
    "_in_deg": np.int64,
    "_op_sel": np.float64,
    "_op_factor": np.float64,
    "_op_pmatch": np.float64,
    "_op_domain": np.float64,
    "_op_replicas": np.int64,
    "_slack": np.int64,
    "_out_deg": np.int64,
    "_out_offsets": np.int64,
    "_is_sink": np.bool_,
    "_kind_cost": np.float64,
    "_gid": np.int64,
    "_agg_credit": np.float64,
    "_op_rate": np.float64,
    "_host": np.int64,
}
_LINK_COLUMNS = {
    "_link_dst": np.int64,
    "_link_port": np.int64,
    "_link_src_op": np.int64,
    "_link_group": np.int64,
    "_link_index": np.int64,
    "_link_tuples": np.int64,
    "_link_size": np.float64,
}

def _capacity_gate(
    nodes: np.ndarray,
    node_used: np.ndarray,
    cap: np.ndarray,
    costs: np.ndarray,
) -> np.ndarray:
    """First-come-first-served per-node admission in canonical order.

    A tuple is admitted while its node's admitted *cost* so far this
    tick is below the cap, so the admitted set per node is a prefix in
    canonical order (costs are positive, the running total only
    grows).  With unit costs the condition degenerates to the
    historical count rule ``rank + used < cap``.  Mutates
    ``node_used`` with the admitted costs; returns the keep mask.

    One ``bincount`` totals the round per node.  A node whose
    ``used + total`` is below its cap admits every tuple (a tuple's
    cost before it is at most ``total`` minus its own cost), so only
    the tuples of the remaining *tight* nodes are sorted by node and
    walked.  Exactness: admission prices sit on the 1/256 grid
    (``DataPlane._admission_costs``) and ``node_used`` only ever sums
    them, so every partial sum here — in whatever order it is taken —
    is exact while it stays below 2^45 cost units (53 mantissa bits
    less the grid's 8), and the mask and ``node_used`` are
    bit-identical to a per-tuple walk in canonical order.
    """
    total = np.bincount(nodes, weights=costs, minlength=node_used.size)
    tight = node_used + total >= cap
    np.add(node_used, total, out=node_used, where=~tight)
    keep = np.ones(nodes.size, dtype=bool)
    # A tight node (say one already at its cap) may have no tuple in
    # this round at all.
    rows = np.flatnonzero(tight[nodes])
    if not rows.size:
        return keep
    order = rows[np.argsort(nodes[rows], kind="stable")]
    sn = nodes[order]
    sc = costs[order]
    edge = np.empty(sn.size, dtype=bool)
    edge[0] = True
    np.not_equal(sn[1:], sn[:-1], out=edge[1:])
    starts = np.flatnonzero(edge)
    cum = np.cumsum(sc)
    cnts = np.diff(starts, append=sn.size)
    group_base = np.repeat(cum[starts] - sc[starts], cnts)
    # Group-local running cost before self; once it crosses the cap
    # every later tuple's total is larger too, so the admitted set is
    # a prefix and "before" equals the admitted cost within it.
    before = cum - group_base - sc
    keep_sorted = before + node_used[sn] < cap[sn]
    keep[order] = keep_sorted
    node_used += np.bincount(
        sn[keep_sorted], weights=sc[keep_sorted], minlength=node_used.size
    )
    return keep


def _canonical_order(op: np.ndarray, port: np.ndarray, seq: np.ndarray) -> np.ndarray:
    """The permutation sorting a delivery batch by (op, port, seq).

    The order ``np.lexsort((seq, port, op))`` gives, from one in-place
    sort of a packed int64 key: ``op·P + port`` (``P`` the batch's port
    count, 2 where only joins have two inputs), then ``seq − min seq``
    in ``w`` bits (the batch's seq span), then the row's position in
    ``b`` bits (its size).  Sequence numbers are unique, so the position
    bits never decide the order; they only read it back.  Raises
    OverflowError when the key would need more than 63 bits, as
    ``_TICK_LIMIT`` does for the int32 tick columns.
    """
    n = op.size
    lo = int(seq.min())
    w = (int(seq.max()) - lo).bit_length()
    b = n.bit_length()
    ports = int(port.max()) + 1
    if (int(op.max()) * ports + ports - 1).bit_length() + w + b > 63:
        raise OverflowError(
            f"delivery batch of {n} tuples over {ports} ports with a seq "
            f"span of 2^{w} needs a sort key past 63 bits"
        )
    key = op * ports
    key += port
    key <<= w
    key |= seq - lo
    key <<= b
    key |= np.arange(n)
    key.sort()
    key &= (1 << b) - 1
    return key


@dataclass(frozen=True)
class ParameterDrift:
    """A deterministic drift of one *realized* operator parameter.

    The data plane compiles its operator parameters from the circuits'
    *estimated* link rates; a drift spec makes the realized behavior
    walk away from those estimates over time — the fixture behind the
    control plane's estimate→measure gap.  The trajectory is a linear
    ramp from ``start`` to ``end`` over ``[begin, begin + duration]``
    ticks (clamped outside), fully deterministic so twin data planes
    stay tick-for-tick equivalent.  Building a :class:`DataPlane` with
    a spec that can never apply to its installed circuit raises
    ``ValueError``; a spec naming a circuit installed later is not
    checked.

    Attributes:
        circuit: circuit name the drifting service belongs to.
        service: service id whose parameter drifts.
        param: one of ``"selectivity"`` (filters),
            ``"match_probability"`` (joins), ``"aggregate_factor"``
            (aggregates), or ``"source_rate"`` (source emission λ).
        start: realized value before ``begin``.
        end: realized value after ``begin + duration``.
        begin: first tick of the ramp.
        duration: ramp length in ticks (0 = step change at ``begin``).
        gated: when True the spec is inert until its ramp begins
            (``tick <= begin`` applies *no* value instead of ``start``).
            Lets two specs share one parameter sequentially — e.g. a
            flash-crowd ramp-up followed by a gated ramp-down — without
            the later spec's pre-``begin`` plateau clobbering the
            earlier one's trajectory.
    """

    circuit: str
    service: str
    param: str
    start: float
    end: float
    begin: int = 0
    duration: int = 1
    gated: bool = False

    _PARAMS = ("selectivity", "match_probability", "aggregate_factor", "source_rate")

    def __post_init__(self) -> None:
        if self.param not in self._PARAMS:
            raise ValueError(f"param must be one of {self._PARAMS}")
        if self.begin < 0 or self.duration < 0:
            raise ValueError("begin and duration must be non-negative")
        # ``not 0 <= x < inf`` also rejects NaN.
        if not (0 <= self.start < math.inf and 0 <= self.end < math.inf):
            raise ValueError("drift values must be finite and non-negative")

    def value(self, tick: int) -> float:
        """The realized parameter value at ``tick`` (linear ramp)."""
        if tick <= self.begin or self.duration == 0:
            return self.start if tick <= self.begin else self.end
        frac = min(1.0, (tick - self.begin) / self.duration)
        return self.start + (self.end - self.start) * frac


@dataclass(frozen=True)
class RuntimeConfig:
    """Knobs of the data-plane runtime.

    Attributes:
        window: join window in ticks (state retention and match bound).
        tick_ms: milliseconds per tick (converts latency to delay).
        node_capacity: CPU cost units one node may accept per tick
            (admission prices each delivery via ``load_model``); None
            disables backpressure.  Under the default unit model a
            tuple costs 1, so this is the historical tuples-per-tick
            bound.
        eviction_slack: extra ticks of join-state retention beyond the
            window; None derives each join's path staleness from the
            placement at compile time.
        seed: RNG seed of the per-tick source draws.
        reliable: buffer tuples bound to failed nodes in a bounded
            retransmit buffer (redelivered when the host recovers or
            the service migrates) instead of dropping them.
        retransmit_buffer: retransmit-buffer bound (tuples); overflow
            is dropped with explicit accounting.
        drift: deterministic :class:`ParameterDrift` specs applied to
            the realized operator parameters each tick.
        load_model: per-tuple CPU cost of each operator kind — the
            unified load currency measured per node every tick and
            priced at admission.  None uses :meth:`LoadModel.unit`
            (every tuple costs 1: cost == count).
        compact_threshold: tombstone fraction above which the arena
            compacts its dead rows (installs append a segment,
            uninstalls tombstone one; see
            :class:`~repro.runtime.arena.CircuitArena`).

    Every field shapes behaviour; none selects an implementation.  The
    batched path has one layout (slot-table join state that counts its
    own rows, incrementally maintained arena) and one reference,
    :meth:`DataPlane.step_scalar`.
    """

    window: int = 20
    tick_ms: float = 10.0
    node_capacity: float | None = None
    eviction_slack: int | None = None
    seed: int = 0
    reliable: bool = False
    retransmit_buffer: int = 4096
    drift: tuple[ParameterDrift, ...] = ()
    load_model: LoadModel | None = None
    compact_threshold: float = 0.25

    def __post_init__(self) -> None:
        if self.window < 0:
            raise ValueError("window must be non-negative")
        if not 0 < self.tick_ms < math.inf:
            raise ValueError("tick_ms must be positive and finite")
        # ``not x >= 0`` also rejects NaN, which every comparison fails.
        if self.node_capacity is not None and not self.node_capacity >= 0:
            raise ValueError("node_capacity must be non-negative")
        if self.eviction_slack is not None and self.eviction_slack < 0:
            raise ValueError("eviction_slack must be non-negative")
        if self.retransmit_buffer < 0:
            raise ValueError("retransmit_buffer must be non-negative")


@dataclass(frozen=True)
class TrafficRecord:
    """What the data plane carried during one tick.

    Attributes:
        tick: data-plane tick counter.
        emitted: tuples produced by sources this tick.
        delivered: tuples that reached a consumer sink this tick.
        dropped: tuples dropped this tick (capacity + shed + dead
            nodes + retransmit overflow + uninstalls), never silently
            lost.
        processed: tuples accepted and processed by services.
        in_flight: tuples still on the wire after the tick.
        usage: measured network usage this tick — Σ link latency over
            every tuple actually sent (rate × latency, realized).
        latency_p50: median end-to-end latency (ms) of this tick's
            deliveries (0 when none).
        latency_p95: 95th percentile of the same.
        latency_p99: 99th percentile of the same.
        shed: tuples dropped this tick by a controller-set shed limit
            (subset of ``dropped``).
        redelivered: buffered tuples re-injected this tick from the
            retransmit buffer.
        buffered: tuples parked in the retransmit buffer after the
            tick (0 without ``reliable``).
        cpu_cost: measured CPU cost units consumed this tick, summed
            over all nodes (Σ of :attr:`DataPlane.tick_node_cpu`).
        cpu_dropped: CPU cost units of admission demand rejected this
            tick (capacity + shed rejections at their admission price).
        recompiles: segment swaps made by this tick's sync — one per
            same-name circuit replacement (including scale events);
            installs and uninstalls append and tombstone segments —
            the observable for compile churn.
    """

    tick: int
    emitted: int = 0
    delivered: int = 0
    dropped: int = 0
    processed: int = 0
    in_flight: int = 0
    usage: float = 0.0
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    latency_p99: float = 0.0
    shed: int = 0
    redelivered: int = 0
    buffered: int = 0
    cpu_cost: float = 0.0
    cpu_dropped: float = 0.0
    recompiles: int = 0


class _NoPhases:
    """The profiler of an unprofiled tick: its phases record nothing."""

    __slots__ = ()

    def begin(self, name: str) -> None:
        pass

    def end(self) -> None:
        pass


NO_PHASES = _NoPhases()


@dataclass(slots=True)
class _Tick:
    """One tick's inputs, fixed when it opens, and the only store of
    its counts and measurements.

    :meth:`DataPlane._open_tick` builds it for either step path, whose
    operator loops count each event into it once, and
    :meth:`DataPlane._close_tick` publishes it and folds it into the
    ledgers.  Drops are counted by cause.  ``op_cost`` and the
    ``link_*`` arrays are per arena row, ``node_kind`` per ``node * 4 +
    kind`` (a node's processed count is its kinds' sum).
    """

    now: int
    host: np.ndarray
    alive: np.ndarray
    lat: np.ndarray
    cap: np.ndarray | None
    node_used: np.ndarray | None
    adm: np.ndarray | None
    trace: object
    prof: object
    op_cost: np.ndarray
    node_kind: np.ndarray
    node_drops: np.ndarray
    link_tuples: np.ndarray
    link_size: np.ndarray
    uninstalled: int = 0
    recompiles: int = 0
    emitted: int = 0
    delivered: int = 0
    processed: int = 0
    dead: int = 0
    capacity: int = 0
    shed: int = 0
    overflow: int = 0
    redelivered: int = 0
    usage: float = 0.0
    cpu_dropped: float = 0.0

    @property
    def dropped(self) -> int:
        return self.dead + self.capacity + self.shed + self.overflow + self.uninstalled


class DataPlane:
    """Executes every installed circuit on the overlay, tick for tick."""

    def __init__(self, overlay, config: RuntimeConfig | None = None):
        self.overlay = overlay
        self.config = config or RuntimeConfig()
        self._model = self.config.load_model or LoadModel.unit()
        self.tick = 0
        self._rng = np.random.default_rng(self.config.seed)
        # The batched path's transport and join state; the first
        # step_scalar() swaps in the oracle's (see _open_tick).
        self._transport = ArrayTransport(
            self.config.retransmit_buffer if self.config.reliable else 0
        )
        self._stepped = False
        self._next_seq = 0
        # Cumulative ledgers, written only by _close_tick's fold.
        self.emitted = 0
        self.sink_delivered = 0
        self.processed = 0
        self.dropped_capacity = 0
        self.dropped_dead = 0
        self.dropped_uninstalled = 0
        self.dropped_shed = 0
        self.dropped_overflow = 0
        self.redelivered = 0
        self._usage_total = 0.0
        n = overlay.num_nodes
        self.dropped_by_node = np.zeros(n, dtype=np.int64)
        self.processed_by_node = np.zeros(n, dtype=np.int64)
        # Measured CPU cost, in the load model's cost units.
        self.cpu_cost_total = 0.0
        self.cpu_dropped_total = 0.0
        self.cpu_by_node = np.zeros(n)
        # The last closed tick's statistics (tick_link_tuples is sized
        # once the arena is built): per (node, kind) counts are the
        # controller's cost-drift regressors, per-op CPU the
        # autoscaler's signal.
        self.tick_node_drops = np.zeros(n, dtype=np.int64)
        self.tick_node_processed = np.zeros(n, dtype=np.int64)
        self.tick_node_cpu = np.zeros(n)
        self.tick_node_kind_processed = np.zeros((n, 4), dtype=np.int64)
        self.tick_op_cpu = np.zeros(0)
        if self.config.node_capacity is None:
            self._cap = None
        else:
            self._cap = np.full(n, float(self.config.node_capacity))
        # Controller-set per-node shed limits (inf = inactive).
        self._shed = np.full(n, np.inf)
        self._shed_active = 0
        # Join state: its layout and live-row counts follow every arena
        # change.
        self._join = JoinState()
        # Per-(circuit, link) stats of tombstoned segments.
        self._link_stats_folded: dict[tuple[str, str, str], list] = {}
        # Global circuit arena: segment bookkeeping, stable global op
        # ids (hash salts that survive row moves).
        self._arena = CircuitArena(self.config.compact_threshold)
        self._next_gid = 0
        # Persistent gid registry: (circuit, service-family) -> salt;
        # replica siblings share their base's entry (see _resolve_gid).
        self._gid_by_key: dict[tuple[str, str], int] = {}
        # Optional sink capture for exactness tests: set to a list and
        # every sink delivery appends (service, key, ts, size).  None
        # keeps the hot loop at a single attribute check.
        self.sink_log: list | None = None
        # Segment swaps (same-name replacements, scale events).
        self.recompiles = 0
        # Attached observability layer (repro.obs.Observability), or
        # None.  Handles are resolved once per tick; with no layer the
        # hot loop pays a single attribute check.
        self._obs = None
        # The arena starts empty; the first sync installs every circuit.
        for name, dtype in {**_OP_COLUMNS, **_LINK_COLUMNS}.items():
            setattr(self, name, np.zeros(0, dtype=dtype))
        self._op_index: dict[tuple[str, str], int] = {}
        self._op_names: list[tuple[str, str]] = []
        self._link_names: list[tuple[str, str, str]] = []
        # Derived indexes, refreshed by every structural sync.
        self._live_links = np.zeros(0, dtype=np.int64)
        self._live_link_names: list[tuple[str, str, str]] = []
        self._src_ops = np.zeros(0, dtype=np.int64)
        self._has_partitioned = False
        # The overlay's move counter the _host column was last read at.
        self._host_epoch = overlay.placement_epoch
        self._sync()
        self.tick_link_tuples = np.zeros(self._live_links.size, dtype=np.int64)

    # -- compilation -------------------------------------------------------

    def _derive_circuit(self, circuit) -> dict:
        """Compile one circuit into segment-local flat columns.

        Returns the circuit's slice of every arena column, keyed by
        column name, plus its ``sids``, ``link_names`` and ``gid_keys``.
        All op/link indices in the returned columns are segment-local;
        :meth:`_install_segments` shifts them by the segment base and
        resolves the gids.  Hosts are read from the current placement.
        Reads no plane state, so a sync derives before it writes.
        """
        sids = list(circuit.services.keys())
        local = {(circuit.name, sid): i for i, sid in enumerate(sids)}
        n = len(sids)
        kind = np.zeros(n, dtype=np.int8)
        in_deg = np.zeros(n, dtype=np.int64)
        out_lists: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        op_sel = np.ones(n, dtype=np.float64)
        op_factor = np.full(n, 0.5, dtype=np.float64)
        op_pmatch = np.ones(n, dtype=np.float64)
        op_domain = np.ones(n, dtype=np.float64)
        slack = np.zeros(n, dtype=np.int64)
        op_rate = np.zeros(n, dtype=np.float64)

        incoming: dict[str, list] = {sid: [] for sid in circuit.services}
        outgoing: dict[str, list] = {sid: [] for sid in circuit.services}
        port_of: dict[int, int] = {}
        for link in circuit.links:
            port_of[id(link)] = len(incoming[link.target])
            incoming[link.target].append(link)
            outgoing[link.source].append(link)

        def family_rates(sid, service):
            """(in-rates tuple, out-rate) a service derives params from.

            Replicas use the *family* rates stored on their
            :class:`ReplicaInfo` — not their split in-links — so every
            compiled operator parameter (domain, pmatch, factor) is
            bitwise-identical to the unreplicated circuit's.
            """
            info = service.replica
            if info is not None and not info.is_merge:
                return info.in_rates, info.out_rate
            outs = outgoing[sid]
            return (
                tuple(l.rate for l in incoming[sid]),
                outs[0].rate if outs else 0.0,
            )

        # Key domain realizing the largest implied join selectivity:
        # the binding join matches on key equality alone, the others
        # thin further via the deterministic match bucket.
        w = self.config.window
        needs = []
        for sid, service in circuit.services.items():
            if service.kind is not ServiceKind.JOIN:
                continue
            rin, ro = family_rates(sid, service)
            if len(rin) != 2:
                continue
            r0, r1 = rin
            if r0 > 0 and r1 > 0 and ro > 0:
                needs.append(r0 * r1 * (2 * w + 1) / ro)
        domain = int(np.clip(int(min(needs)), 1, 1 << 31)) if needs else 2 * w + 1

        op_replicas = np.ones(n, dtype=np.int64)
        tgt_group = np.ones(n, dtype=np.int64)
        tgt_index = np.zeros(n, dtype=np.int64)
        gid_keys: list[tuple[str, str]] = []
        for sid, service in circuit.services.items():
            op = local[(circuit.name, sid)]
            info = service.replica
            if info is not None and not info.is_merge:
                op_replicas[op] = info.count
                tgt_group[op] = info.count
                tgt_index[op] = info.index
                # Siblings share the base's gid, so their hash salts —
                # and thus per-key match decisions — equal the
                # unreplicated op's (key-partition exactness).
                gid_keys.append((circuit.name, info.base))
            else:
                gid_keys.append((circuit.name, sid))
            op_domain[op] = domain
            in_deg[op] = len(incoming[sid])
            for port, link in enumerate(incoming[sid]):
                src = local[(circuit.name, link.source)]
                out_lists[src].append((op, port))
            rin, ro = family_rates(sid, service)
            if service.kind is ServiceKind.JOIN and len(rin) == 2:
                kind[op] = _JOIN
                r0, r1 = rin
                if r0 > 0 and r1 > 0:
                    p = ro * domain / (r0 * r1 * (2 * w + 1))
                    op_pmatch[op] = min(1.0, p)
            elif service.kind is ServiceKind.FILTER:
                kind[op] = _FILTER
                inr = sum(rin)
                if service.spec.selectivity is not None:
                    op_sel[op] = service.spec.selectivity
                elif outgoing[sid] and inr > 0:
                    op_sel[op] = min(1.0, ro / inr)
            elif service.kind is ServiceKind.AGGREGATE:
                kind[op] = _AGG
                inr = sum(rin)
                if outgoing[sid] and inr > 0:
                    op_factor[op] = min(1.0, ro / inr)
            else:
                kind[op] = _RELAY
            if not incoming[sid] and outgoing[sid]:
                first = outgoing[sid][0]
                rate = first.rate
                tgt = circuit.services[first.target]
                tgt_info = tgt.replica
                if tgt_info is not None and not tgt_info.is_merge:
                    # Out-links were expanded into k split links; the
                    # source's emission rate is the family in-rate of
                    # the port this link lands on, not the /k share.
                    rate = tgt_info.in_rates[port_of[id(first)]]
                op_rate[op] = rate

        self._assign_slack(circuit, incoming, local, slack)

        # Segment-local CSR: link rows grouped by source op in op order.
        out_deg = np.array([len(lst) for lst in out_lists], dtype=np.int64)
        out_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(out_deg, out=out_offsets[1:])
        num_links = int(out_offsets[-1])
        link_dst = np.zeros(num_links, dtype=np.int64)
        link_port = np.zeros(num_links, dtype=np.int64)
        link_src = np.zeros(num_links, dtype=np.int64)
        link_names: list[tuple[str, str, str]] = []
        for op, lst in enumerate(out_lists):
            base = out_offsets[op]
            for i, (dst, port) in enumerate(lst):
                link_dst[base + i] = dst
                link_port[base + i] = port
                link_src[base + i] = op
                link_names.append((circuit.name, sids[op], sids[dst]))
        # Hash-router columns: a link into replica i of a k-family only
        # accepts tuples whose key bucket is i (group 1 links accept
        # everything).
        link_group = tgt_group[link_dst]
        link_index = tgt_index[link_dst]
        return {
            "sids": sids,
            "link_names": link_names,
            "gid_keys": gid_keys,
            "_kind": kind,
            "_in_deg": in_deg,
            "_op_sel": op_sel,
            "_op_factor": op_factor,
            "_op_pmatch": op_pmatch,
            "_op_domain": op_domain,
            "_op_replicas": op_replicas,
            "_slack": slack,
            "_out_deg": out_deg,
            "_out_offsets": out_offsets[:-1],
            "_is_sink": (out_deg == 0) & (in_deg > 0),
            "_kind_cost": self._model.kind_costs()[kind],
            "_agg_credit": np.zeros(n),
            "_op_rate": op_rate,
            "_host": np.fromiter(
                (circuit.placement[sid] for sid in sids), dtype=np.int64, count=n
            ),
            "_link_dst": link_dst,
            "_link_port": link_port,
            "_link_src_op": link_src,
            "_link_group": link_group,
            "_link_index": link_index,
            "_link_tuples": np.zeros(num_links, dtype=np.int64),
            "_link_size": np.zeros(num_links),
        }

    def _resolve_gid(self, gid_key: tuple[str, str]) -> int:
        """Persistent gid of a (circuit, service-family) key.

        First appearance draws from the monotone counter and registers;
        later installs — including replaced circuits and scale events —
        get the same salt back, keeping hash decisions stable across
        the topology change.
        """
        g = self._gid_by_key.get(gid_key)
        if g is None:
            g = self._next_gid
            self._next_gid += 1
            self._gid_by_key[gid_key] = g
        return g

    def _scale_transitions(self, carry: dict, swapped) -> tuple[dict, list]:
        """Diff replica families across a segment swap into key routes.

        ``carry`` maps every retired row's ``(circuit, sid)`` to its
        ``(old row, old service)``; ``swapped`` are the replacement
        circuits, already gathered into :attr:`_op_index`.  Returns
        ``(key_split, credit_moves)``: ``key_split[old_op] =
        (targets, port)`` re-homes that op's in-flight tuples and join
        state by key bucket (the same routing rule the hash-router
        applies at send time), covering scale-up (base splits to the
        family), rescale (every old member re-buckets into the new
        family), and merge-down (members fold into the restored base;
        the old merge relay's in-flight output forwards to the base's
        downstream target).  ``credit_moves`` carries aggregate credit
        of split ops into the first target.
        """
        op_index = self._op_index
        new_fams: dict[tuple[str, str], list[int]] = {}
        for circuit in swapped:
            for sid, svc in circuit.services.items():
                info = svc.replica
                if info is None or info.is_merge:
                    continue
                fam = new_fams.setdefault(
                    (circuit.name, info.base), [-1] * info.count
                )
                fam[info.index] = op_index[(circuit.name, sid)]
        complete = {k for k, rows in new_fams.items() if all(r >= 0 for r in rows)}

        key_split: dict[int, tuple[np.ndarray, int | None]] = {}
        credit_moves: list[tuple[int, int]] = []
        for key, (old_i, svc) in carry.items():
            if svc is None:
                continue
            info = svc.replica
            if info is None:
                if key in complete and key not in op_index:
                    # Scale-up: the unreplicated base became a family.
                    targets = np.asarray(new_fams[key], dtype=np.int64)
                    key_split[old_i] = (targets, None)
                    credit_moves.append((old_i, int(targets[0])))
                continue
            fam_key = (key[0], info.base)
            if info.is_merge:
                if fam_key in complete:
                    continue  # rescale: the merge relay survives by sid
                base_row = op_index.get(fam_key)
                if base_row is not None and int(self._out_deg[base_row]) > 0:
                    # Merge-down: relay output in flight forwards past
                    # the restored base to its downstream target (it is
                    # base *output*, not join input).
                    li = int(self._out_offsets[base_row])
                    key_split[old_i] = (
                        np.asarray([int(self._link_dst[li])], dtype=np.int64),
                        int(self._link_port[li]),
                    )
                continue
            if fam_key in complete:
                rows = new_fams[fam_key]
                if len(rows) == info.count and key in op_index:
                    continue  # family unchanged; plain mapping applies
                targets = np.asarray(rows, dtype=np.int64)
                key_split[old_i] = (targets, None)
                credit_moves.append((old_i, int(targets[0])))
            else:
                base_row = op_index.get(fam_key)
                if base_row is not None:
                    key_split[old_i] = (
                        np.asarray([base_row], dtype=np.int64),
                        None,
                    )
                    credit_moves.append((old_i, base_row))
        return key_split, credit_moves

    def _assign_slack(self, circuit, incoming, op_index, slack) -> None:
        """Per-join state-retention slack = path staleness at compile.

        A tuple can arrive at a join delayed by its whole upstream path,
        so join state must outlive the window by that delay.  Uses the
        placement current at compile time;
        ``RuntimeConfig.eviction_slack`` overrides with a flat value.
        """
        if self.config.eviction_slack is not None:
            for sid, service in circuit.services.items():
                if service.kind is ServiceKind.JOIN:
                    slack[op_index[(circuit.name, sid)]] = self.config.eviction_slack
            return
        lat = self.overlay.latencies
        tick_ms = self.config.tick_ms
        memo: dict[str, int] = {}

        def delay(link) -> int:
            u = circuit.host_of(link.source)
            v = circuit.host_of(link.target)
            if u == v:
                return 0
            return max(0, int(np.rint(lat.latency(u, v) / tick_ms)))

        def staleness(sid: str) -> int:
            if sid in memo:
                return memo[sid]
            worst = 0
            for link in incoming[sid]:
                worst = max(worst, staleness(link.source) + delay(link))
            memo[sid] = worst
            return worst

        for sid, service in circuit.services.items():
            if service.kind is ServiceKind.JOIN:
                slack[op_index[(circuit.name, sid)]] = staleness(sid)

    def _sync(self) -> int:
        """Bring the arena in line with the overlay's circuit set.

        Uninstalls tombstone their segment and installs append one.  A
        same-name replacement (every scale event) is a *segment swap*:
        the old segment is retired — tombstoned, its in-flight tuples
        and join state left in place — and the new circuit is appended
        with this sync's installs; one compaction then gathers the
        segments back into overlay order and re-homes the retired rows
        onto the new ones (:meth:`_compact_arena`).  Only new circuits
        are derived, before any write, so :meth:`_check_drift` refuses an
        install cleanly.  Returns the in-flight tuples dropped, which the
        opening tick counts as ``uninstalled``.
        """
        installed = self.overlay.circuits
        segments = self._arena.segments
        # Segments follow overlay order after every sync, so an
        # unchanged circuit set is a pairwise identity match.
        if len(segments) == len(installed) and all(
            seg.circuit is circuit
            for seg, circuit in zip(segments.values(), installed.values())
        ):
            return 0
        old_by_name = {name: seg.circuit for name, seg in segments.items()}
        fresh = [c for c in installed.values() if old_by_name.get(c.name) is not c]
        derived = [self._derive_circuit(c) for c in fresh]
        installs = zip(fresh, derived)
        self._check_drift({c.name: d for c, d in installs if c.name not in old_by_name})
        dropped = 0
        for name in old_by_name:
            if name not in installed:
                dropped += self._uninstall_segment(name)
        carry: dict[tuple[str, str], tuple[int, object]] = {}
        swapped = []
        for circuit in fresh:
            old = old_by_name.get(circuit.name)
            if old is None:
                continue
            swapped.append(circuit)
            self.recompiles += 1
            seg = self._retire_segment(circuit.name)
            for row in range(seg.op_base, seg.op_base + seg.num_ops):
                key = self._op_names[row]
                carry[key] = (row, old.services.get(key[1]))
        self._install_segments(fresh, derived)
        if swapped or self._arena.needs_compaction:
            dropped += self._compact_arena(carry, swapped)
        if swapped:
            _LOG.debug("data-plane segment swap: %d circuits", len(swapped))
        self._refresh_derived()
        return dropped

    # -- incremental arena maintenance -------------------------------------

    def _refresh_derived(self) -> None:
        """Recompute the indexes derived from the arena's columns.

        Called once at the end of every structural sync: the live-link
        rows and their published key list (a fresh list, whose identity
        signals estimator column caches to rebuild), the live sources in
        row order (the per-tick draw's order), and whether any live link
        is hash-partitioned.
        """
        self._live_links = self._arena.live_link_rows()
        self._live_link_names = [self._link_names[i] for i in self._live_links]
        self._src_ops = np.flatnonzero(
            (self._in_deg == 0) & (self._out_deg > 0) & self._arena.op_alive
        )
        self._has_partitioned = bool((self._link_group[self._live_links] > 1).any())

    def _install_segments(self, circuits, derived) -> None:
        """Append circuits as new live segments at the arena end, in order.

        ``derived`` holds each circuit's :meth:`_derive_circuit` columns;
        every column grows with one concatenate for the whole batch (a
        concatenate per circuit would make an N-circuit build quadratic
        in copies).  Gids resolve in batch order, which is overlay order.
        """
        if not circuits:
            return
        parts = {name: [getattr(self, name)] for name in (*_OP_COLUMNS, *_LINK_COLUMNS)}
        for circuit, cols in zip(circuits, derived):
            cols["_gid"] = np.asarray(
                [self._resolve_gid(k) for k in cols["gid_keys"]], dtype=np.int64
            )
            sids = cols["sids"]
            seg = self._arena.append(
                circuit.name, len(sids), len(cols["link_names"]), circuit, sids
            )
            base = seg.op_base
            cols["_out_offsets"] += seg.link_base
            for name in ("_link_dst", "_link_src_op"):
                cols[name] += base
            for name, col in parts.items():
                col.append(cols[name])
            self._link_names.extend(cols["link_names"])
            for i, sid in enumerate(sids):
                self._op_index[(circuit.name, sid)] = base + i
                self._op_names.append((circuit.name, sid))
        self._join.extend(
            np.concatenate(parts["_kind"][1:]),
            np.concatenate(parts["_op_domain"][1:]),
        )
        for name, cols in parts.items():
            setattr(self, name, np.concatenate(cols))

    def _retire_segment(self, name: str) -> ArenaSegment:
        """Tombstone one circuit's segment, leaving its tuples and state.

        Copies the segment's per-link totals into the retired-link
        ledger (``link_stats`` and the published tick arrays read live
        rows only) and unindexes its ops; its sources leave the draw at
        the sync's index refresh.
        What becomes of the rows' in-flight tuples, join state and
        aggregate credit is the caller's (dropped on uninstall, re-homed
        by a swap's compaction).
        """
        seg = self._arena.tombstone(name)
        op_end = seg.op_base + seg.num_ops
        link_end = seg.link_base + seg.num_links
        for i in range(seg.link_base, link_end):
            if self._link_tuples[i] or self._link_size[i]:
                entry = self._link_stats_folded.setdefault(
                    self._link_names[i], [0, 0.0]
                )
                entry[0] += int(self._link_tuples[i])
                entry[1] += float(self._link_size[i])
        for row in range(seg.op_base, op_end):
            self._op_index.pop(self._op_names[row], None)
        return seg

    def _uninstall_segment(self, name: str) -> int:
        """Tombstone one circuit's segment; returns in-flight drops."""
        seg = self._retire_segment(name)
        self._agg_credit[seg.op_base : seg.op_base + seg.num_ops] = 0.0
        # Tombstoned ops' join state stays (never probed, masked by
        # ``op_alive``) until a compaction maps the ops to -1.
        return self._transport.remap_ops(self._arena.op_mapping())

    def _compact_arena(self, carry: dict, swapped) -> int:
        """Gather the live segments into overlay order over every column.

        Global op ids (the hash salts) move with their rows, and state
        and in-flight tuples are remapped old->new.  Without a swap
        (empty ``carry``) the live order is unchanged and compaction is
        unobservable in records.  With one, ``carry`` maps each retired
        row's ``(circuit, sid)`` to ``(old row, old service)``: the
        retired row's tuples, join state and aggregate credit move to
        the replacement's row of the same sid, or by key bucket where
        the replica family changed (:meth:`_scale_transitions`).
        Returns the in-flight tuples dropped (retired rows with no
        successor).
        """
        op_gather, link_gather, op_map, _link_map = self._arena.compaction(
            tuple(self.overlay.circuits)
        )
        old_credit = self._agg_credit
        for name in _OP_COLUMNS:
            setattr(self, name, getattr(self, name)[op_gather])
        for name in _LINK_COLUMNS:
            setattr(self, name, getattr(self, name)[link_gather])
        self._link_dst = op_map[self._link_dst]
        self._link_src_op = op_map[self._link_src_op]
        # Live link rows stay grouped by (live) source op in row order,
        # so offsets rebuild from the gathered out-degrees.
        self._out_offsets = np.cumsum(self._out_deg) - self._out_deg
        self._link_names = [self._link_names[i] for i in link_gather]
        self._op_names = [self._op_names[i] for i in op_gather]
        self._op_index = {name: i for i, name in enumerate(self._op_names)}
        mapping, key_split = op_map, None
        if carry:
            key_split, credit_moves = self._scale_transitions(carry, swapped)
            for key, (old_i, _svc) in carry.items():
                new_i = self._op_index.get(key)
                if new_i is None:
                    continue
                mapping[old_i] = new_i
                # Members of a changed replica family re-home by key
                # bucket instead (a rescale keeps low-index sids on
                # both sides — the plain copy would leave their state
                # on a stale key range).
                if old_i not in key_split:
                    self._agg_credit[new_i] = old_credit[old_i]
            for old_i, dest in credit_moves:
                self._agg_credit[dest] = (
                    self._agg_credit[dest] + old_credit[old_i]
                ) % 1.0
        dropped = self._transport.remap_ops(mapping, key_split or None)
        self._remap_state(mapping, key_split or None)
        self._arena.apply_compaction()
        _LOG.debug(
            "arena compacted: %d ops / %d links live",
            self._arena.num_ops,
            len(self._link_names),
        )
        return dropped

    def _remap_state(
        self, mapping: np.ndarray, key_split: dict | None = None
    ) -> None:
        """Re-address join state after a compaction (both step paths).

        ``key_split`` (see the transports) re-homes split ops' state by
        key bucket — the partition each key's state lands on is the
        replica the router will deliver that key's future tuples to,
        which is what keeps replicated join results exact across scale
        events.
        """
        if isinstance(self._join, oracle.KeyTables):
            self._join.remap(mapping, key_split, self.config.window + self._slack)
            return
        # The slot table is re-laid out for the new op rows; within a
        # new slot, equal keys come from one old slot (split siblings
        # own disjoint key ranges), so their position order — their
        # insertion order — survives the table's (slot, position) sort.
        pair, key, ts, _e = self._join.rows()
        ops = pair >> 1
        new_ops = mapping[ops]
        if key_split:
            for old, (targets, _port) in key_split.items():
                mask = ops == old
                if mask.any():
                    new_ops[mask] = targets[route_bucket(key[mask], len(targets))]
        # Stored expiries are recomputed against the *new* slack column
        # (placement-dependent, re-derived by a swap); the scalar oracle
        # derives its eviction threshold from the live slack every
        # tick, so the remapped rows must too.
        keep = new_ops >= 0
        e = ts.astype(np.int64) + self.config.window
        e[keep] += self._slack[new_ops[keep]]
        keep &= e >= self.tick
        self._join.remap(
            2 * new_ops + (pair & 1), e, keep, self._kind, self._op_domain, self.tick
        )

    # -- shared per-tick helpers -------------------------------------------

    def _host_array(self) -> np.ndarray:
        """Current hosting node of every op, from live placements.

        Read at the start of each tick, which is what re-homes in-flight
        tuples across migrations for free: delivery looks the target
        service's node up *now*, not at send time.

        An installed service moves only through
        ``Overlay.apply_migration``, which bumps the overlay's
        ``placement_epoch``; a sync writes the hosts of the segments it
        derives.  So the ``_host`` op column is re-read from every
        segment's placement only on a tick after that counter moved.
        """
        host = self._host
        epoch = self.overlay.placement_epoch
        if epoch != self._host_epoch:
            for seg in self._arena.segments.values():
                placement = seg.circuit.placement
                for row, sid in enumerate(seg.sids, start=seg.op_base):
                    host[row] = placement[sid]
            self._host_epoch = epoch
        return host

    def _draw_tick(self) -> tuple[np.ndarray, np.ndarray]:
        """The tick's source randomness (shared by both step paths)."""
        counts = self._rng.poisson(self._op_rate[self._src_ops]).astype(np.int64)
        u = self._rng.random(int(counts.sum()))
        return counts, u

    def _alive(self) -> np.ndarray:
        return self.overlay.alive_mask()

    def _check_drift(self, installs: dict[str, dict]) -> None:
        """Raise ``ValueError`` for a drift spec that can never apply.

        ``installs`` maps each circuit a sync installs to its derived
        columns.  A spec naming one must name one of its services whose
        kind reads the parameter: ``selectivity`` a filter,
        ``match_probability`` a join, ``aggregate_factor`` an aggregate,
        ``source_rate`` a source (no in-link, an out-link).  Swaps are
        not re-checked: a re-split family leaves its base's specs inert.
        """
        for spec in self.config.drift:
            cols = installs.get(spec.circuit)
            if cols is None:
                continue
            sids, kind = cols["sids"], cols["_kind"]
            op = sids.index(spec.service) if spec.service in sids else None
            reads = op is not None and {
                "selectivity": kind[op] == _FILTER,
                "match_probability": kind[op] == _JOIN,
                "aggregate_factor": kind[op] == _AGG,
                "source_rate": cols["_in_deg"][op] == 0 and cols["_out_deg"][op] > 0,
            }[spec.param]
            if not reads:
                raise ValueError(
                    f"drift of {spec.param!r} on {spec.circuit}/{spec.service}"
                    " can never apply: the circuit has no such service, or "
                    "its kind does not read that parameter"
                )

    def _apply_drift(self, now: int) -> None:
        """Walk the realized operator parameters along their drift specs.

        Deterministic (no RNG) and applied identically by both step
        paths, so twin data planes remain tick-for-tick equivalent; the
        specs re-assert themselves after segment swaps because this runs
        at the start of every tick.
        """
        for spec in self.config.drift:
            op = self._op_index.get((spec.circuit, spec.service))
            if op is None:
                continue
            if spec.gated and now <= spec.begin:
                continue
            value = spec.value(now)
            if spec.param == "selectivity":
                self._op_sel[op] = min(1.0, value)
            elif spec.param == "match_probability":
                self._op_pmatch[op] = min(1.0, value)
            elif spec.param == "aggregate_factor":
                self._op_factor[op] = min(1.0, value)
            else:  # source_rate
                self._op_rate[op] = value

    def _effective_cap(self) -> np.ndarray | None:
        """Per-node admission limit: capacity ∧ controller shed limits."""
        if self._shed_active == 0:
            return self._cap
        if self._cap is None:
            return self._shed
        return np.minimum(self._cap, self._shed)

    def state_rows(self) -> np.ndarray:
        """Live join-state rows per (op, side), shape ``(num_ops, 2)``.

        Rows are arena op rows (a tombstoned op reads 0): the join
        state's own counts, masked by ``op_alive``.  On the batched path
        that is O(ops) and equals the full recount
        (:meth:`_state_counts`); the oracle's tables recount on read.
        """
        counts = self._join.live.reshape(self._arena.num_ops, 2).astype(np.float64)
        counts[~self._arena.op_alive] = 0.0
        return counts

    def _state_counts(self) -> np.ndarray:
        """The slot table's live rows per (op, side), recounted.

        The O(state) full scan the slot table's counts must equal: only
        live rows of live ops count, exactly the rows the oracle's
        eagerly evicting tables hold for live ops.
        """
        pair, _key, _ts, e = self._join.rows()
        live = (e >= self.tick) & self._arena.op_alive[pair >> 1]
        counts = np.bincount(pair[live], minlength=2 * self._arena.num_ops)
        return counts.reshape(self._arena.num_ops, 2).astype(np.float64)

    def _admission_costs(self) -> np.ndarray:
        """Expected per-tuple admission cost of every (op, in-port).

        Frozen once per tick (right after state eviction, before any
        delivery round), so both step paths price admission from the
        identical tick-start state: joins charge their base plus the
        probe cost of the *expected* candidate count — the opposite
        side's current state over the key domain — and aggregates their
        base plus one batch increment.  Deterministic (no RNG, no
        mid-tick state), hence twin-safe; prices are quantized to 1/256
        cost units so dropped-demand totals accumulate exactly in any
        summation order (the dyadic-exactness discipline).
        """
        model = self._model
        adm = np.repeat(self._kind_cost[:, None], 2, axis=1)
        if model.aggregate_batch_cost:
            adm[self._kind == _AGG] += model.aggregate_batch_cost
        if model.probe_cost:
            joins = self._kind == _JOIN
            if joins.any():
                counts = self.state_rows()
                # A k-replica join sees only its domain/k key slice, so
                # the expected candidates per admitted tuple scale by k.
                expected = counts[:, ::-1] / np.maximum(
                    self._op_domain[:, None] / self._op_replicas[:, None],
                    1.0,
                )
                np.add(adm, model.probe_cost * expected, out=adm, where=joins[:, None])
        return np.round(adm * 256.0) / 256.0

    def set_shed_limit(self, node: int, limit: float | None) -> None:
        """Set (or clear, with None) a controller shed limit on a node.

        The limit is in CPU cost units per tick, like ``node_capacity``
        (== tuples/tick under the default unit model).  Tuples rejected
        because of a shed limit are dropped with their own attribution
        (``dropped_shed``), distinct from capacity backpressure.
        """
        if not 0 <= node < self.overlay.num_nodes:
            raise ValueError(f"node {node} outside overlay")
        if limit is not None and not limit >= 0:
            raise ValueError("shed limit must be non-negative")
        was_active = bool(np.isfinite(self._shed[node]))
        self._shed[node] = np.inf if limit is None else float(limit)
        is_active = limit is not None
        self._shed_active += int(is_active) - int(was_active)

    @property
    def load_model(self) -> LoadModel:
        """The model currently pricing admission and cost attribution.

        Starts as ``config.load_model`` (unit model when None) and moves
        with :meth:`set_load_model` — readers wanting the live pricing
        basis (e.g. the controller's drift feedback) must use this, not
        the frozen config.
        """
        return self._model

    def set_load_model(self, model: LoadModel) -> None:
        """Swap the active load model (the controller's calibration hook).

        Takes effect at the next tick's admission pricing and cost
        attribution: the per-op kind-cost column is re-gathered.  Keep
        coefficients dyadic (1/256 grid) to preserve the
        exact-accumulation discipline.
        """
        self._model = model
        self._kind_cost = model.kind_costs()[self._kind]

    def _shed_attribution(self, nodes: np.ndarray) -> np.ndarray:
        """True where an admission drop at ``nodes`` is shed-attributed.

        A node's drop counts as *shed* when the controller's limit is
        the binding constraint (tighter than the configured capacity).
        """
        base = (
            np.full(nodes.shape, np.inf)
            if self._cap is None
            else self._cap[nodes]
        )
        return self._shed[nodes] < base

    @staticmethod
    def _percentiles(lat: np.ndarray) -> tuple[float, float, float]:
        if lat.size == 0:
            return 0.0, 0.0, 0.0
        p50, p95, p99 = np.percentile(lat, [50.0, 95.0, 99.0])
        return float(p50), float(p95), float(p99)

    def _open_tick(self, layout: type) -> _Tick:
        """Open one tick on the path whose join state is a ``layout``.

        Everything both paths do before sources emit: arena sync (its
        in-flight drops and swaps are the tick's first counts), the
        clock, parameter drift, state eviction, admission prices frozen
        from the post-eviction state, and reliable redelivery.
        """
        if self._stepped and not isinstance(self._join, layout):
            raise RuntimeError(
                "DataPlane committed to the other step path; build a twin "
                "instance to compare step() against step_scalar()"
            )
        obs = self._obs
        trace = None if obs is None else obs.tracer
        prof = NO_PHASES if obs is None or obs.profiler is None else obs.profiler
        self._transport.trace = trace
        if trace is not None:
            trace.begin_tick(self.tick + 1)
        recompiles = self.recompiles
        prof.begin("compile")
        uninstalled = self._sync()
        prof.end()
        if not isinstance(self._join, layout):
            # The oracle's first tick swaps in its transport and join
            # tables once its sync has passed (the batched ones are
            # still empty), so a refused install commits to no path.
            self._transport = oracle.HeapTransport(self._transport.max_buffer)
            self._transport.trace = trace
            self._join = oracle.KeyTables()
            self._join.extend(self._kind, self._op_domain)
        self._stepped = True
        horizon = self.tick + 1 + self.config.window
        if self._slack.size:
            horizon += int(self._slack.max())
        if horizon > _TICK_LIMIT:
            raise OverflowError(
                f"tick {self.tick + 1} would store join-state expiries up to "
                f"{horizon}, past the int32 tick columns' limit {_TICK_LIMIT}"
            )
        self.tick += 1
        now = self.tick
        self._apply_drift(now)
        host = self._host_array()
        alive = self._alive()
        cap = self._effective_cap()
        n = self.overlay.num_nodes

        prof.begin("evict")
        self._join.advance(now)
        prof.end()
        prof.begin("pricing")
        t = _Tick(
            now=now,
            host=host,
            alive=alive,
            lat=self.overlay.latencies.values,
            cap=cap,
            node_used=None if cap is None else np.zeros(n),
            adm=self._admission_costs() if cap is not None else None,
            trace=trace,
            prof=prof,
            op_cost=np.zeros(self._arena.num_ops),
            node_kind=np.zeros(4 * n, dtype=np.int64),
            node_drops=np.zeros(n, dtype=np.int64),
            link_tuples=np.zeros(self._link_tuples.size, dtype=np.int64),
            link_size=np.zeros(self._link_size.size),
            uninstalled=uninstalled,
            recompiles=self.recompiles - recompiles,
        )
        prof.end()

        # Buffered tuples whose target service's current host is alive
        # again rejoin this tick's first round.
        if self.config.reliable:
            prof.begin("redeliver")
            t.redelivered = self._transport.redeliver(alive[host], now)
            prof.end()
        return t

    def _close_tick(self, t: _Tick, tick_lat: list) -> TrafficRecord:
        """Publish the tick's record and ``tick_*`` statistics, and fold
        its counts into the cumulative ledgers, before obs flushes.

        ``tick_lat`` holds the tick's sink latencies (ms), as arrays or
        single floats.
        """
        t.prof.begin("record")
        n = self.overlay.num_nodes
        node_kind = t.node_kind.reshape(n, 4)
        node_processed = node_kind.sum(axis=1)
        # Hosts are fixed within a tick (migrations happen between).
        node_cpu = np.bincount(t.host, weights=t.op_cost, minlength=n)
        cpu_cost = float(t.op_cost.sum())
        # Live link rows only, in link_keys() order.
        self.tick_link_tuples = t.link_tuples[self._live_links]
        self.tick_node_drops = t.node_drops
        self.tick_node_processed = node_processed
        self.tick_node_kind_processed = node_kind
        self.tick_node_cpu = node_cpu
        self.tick_op_cpu = t.op_cost
        # The fold: the only writes to the cumulative ledgers.
        self.emitted += t.emitted
        self.sink_delivered += t.delivered
        self.processed += t.processed
        self.dropped_dead += t.dead
        self.dropped_capacity += t.capacity
        self.dropped_shed += t.shed
        self.dropped_overflow += t.overflow
        self.dropped_uninstalled += t.uninstalled
        self.redelivered += t.redelivered
        self.processed_by_node += node_processed
        self.dropped_by_node += t.node_drops
        self.cpu_by_node += node_cpu
        self._link_tuples += t.link_tuples
        self._link_size += t.link_size
        self.cpu_cost_total += cpu_cost
        self.cpu_dropped_total += t.cpu_dropped
        self._usage_total += t.usage

        lat_all = np.hstack(tick_lat) if tick_lat else np.empty(0, dtype=np.float64)
        p50, p95, p99 = self._percentiles(lat_all)
        if self._obs is not None:
            self._obs.data_plane_tick(self, lat_all)
        record = TrafficRecord(
            tick=t.now,
            emitted=t.emitted,
            delivered=t.delivered,
            dropped=t.dropped,
            processed=t.processed,
            in_flight=self._transport.in_flight,
            usage=t.usage,
            latency_p50=p50,
            latency_p95=p95,
            latency_p99=p99,
            shed=t.shed,
            redelivered=t.redelivered,
            buffered=self._transport.buffered,
            cpu_cost=cpu_cost,
            cpu_dropped=t.cpu_dropped,
            recompiles=t.recompiles,
        )
        t.prof.end()
        return record

    # -- vectorized path ---------------------------------------------------

    def step(self) -> TrafficRecord:
        """Advance one tick through the batched kernels."""
        t = self._open_tick(JoinState)
        now, host, alive = t.now, t.host, t.alive
        cap, node_used, adm = t.cap, t.node_used, t.adm
        trace, prof = t.trace, t.prof
        reliable = self.config.reliable
        nn = self.overlay.num_nodes
        tick_lat: list[np.ndarray] = []

        # 1. Sources emit (one Poisson draw + one uniform draw, total).
        prof.begin("sources")
        counts, u = self._draw_tick()
        if u.size:
            up = alive[host[self._src_ops]]
            if not up.all():
                # Every source draws; a dead source's tuples are dropped.
                u = u[np.repeat(up, counts)]
                counts = np.where(up, counts, 0)
            ops = np.repeat(self._src_ops, counts)
            keys = np.floor(
                u * np.repeat(self._op_domain[self._src_ops], counts)
            ).astype(np.int64)
            m = ops.size
            if m:
                t.emitted = m
                self._send_array(
                    t, ops, keys, np.full(m, now, dtype=np.int64), np.ones(m), emit=True
                )
        prof.end()

        # 2. Delivery rounds until nothing further is due this tick.
        prof.begin("delivery")
        while True:
            prof.begin("extract")
            batch = self._transport.due(now)
            if batch is None:
                prof.end()
                break
            order = _canonical_order(batch["op"], batch["port"], batch["seq"])
            op, port, key, ts, size, seq = (
                batch[name][order]
                for name in ("op", "port", "key", "ts", "size", "seq")
            )
            node = host[op]
            prof.end()
            prof.begin("admission")
            if trace is not None:
                trace.record(trace.DELIVER, seq, op, node)

            live = alive[node]
            ndead = int(op.size - live.sum())
            if ndead:
                if reliable:
                    dead = ~live
                    overflow = self._transport.buffer(
                        op[dead], port[dead], key[dead], ts[dead], size[dead], seq[dead]
                    )
                    t.overflow += overflow
                    if trace is not None:
                        # buffer() accepts a canonical-order prefix, so
                        # the accepted/overflowed split is positional.
                        accept = ndead - overflow
                        dseq, dop, dnode = seq[dead], op[dead], node[dead]
                        trace.record(
                            trace.BUFFER, dseq[:accept], dop[:accept], dnode[:accept]
                        )
                        trace.record(
                            trace.DROP_OVERFLOW,
                            dseq[accept:], dop[accept:], dnode[accept:],
                        )
                else:
                    t.dead += ndead
                    if trace is not None:
                        dead = ~live
                        trace.record(trace.DROP_DEAD, seq[dead], op[dead], node[dead])
                op, port, key, ts, size, node = (
                    a[live] for a in (op, port, key, ts, size, node)
                )
                if trace is not None:
                    seq = seq[live]
            if cap is not None and op.size:
                costs = adm[op, np.minimum(port, 1)]
                keep = _capacity_gate(node, node_used, cap, costs)
                ncap = int(op.size - keep.sum())
                if ncap:
                    rejected = node[~keep]
                    shed_mask = self._shed_attribution(rejected)
                    nshed = int(shed_mask.sum())
                    t.shed += nshed
                    t.capacity += ncap - nshed
                    t.cpu_dropped += float(costs[~keep].sum())
                    t.node_drops += np.bincount(rejected, minlength=nn)
                    if trace is not None:
                        rseq, rop = seq[~keep], op[~keep]
                        trace.record(
                            trace.DROP_SHED,
                            rseq[shed_mask], rop[shed_mask], rejected[shed_mask],
                        )
                        trace.record(
                            trace.DROP_CAPACITY,
                            rseq[~shed_mask], rop[~shed_mask], rejected[~shed_mask],
                        )
                    op, port, key, ts, size = (
                        a[keep] for a in (op, port, key, ts, size)
                    )
                    if trace is not None:
                        seq = seq[keep]
            prof.end()
            m = op.size
            if m == 0:
                continue
            t.processed += m
            hop = host[op]
            t.node_kind += np.bincount(hop * 4 + self._kind[op], minlength=4 * nn)
            if trace is not None:
                trace.record(trace.PROCESS, seq, op, hop)
            # Base per-tuple kind costs; aggregates and joins add their
            # batch / probe terms inside _process_array.
            t.op_cost += np.bincount(
                op, weights=self._kind_cost[op], minlength=self._arena.num_ops
            )

            sink = self._is_sink[op]
            ns = int(sink.sum())
            if ns:
                t.delivered += ns
                tick_lat.append(
                    (now - ts[sink]).astype(np.float64) * self.config.tick_ms
                )
                if self.sink_log is not None:
                    so, sk, st, ssz = op[sink], key[sink], ts[sink], size[sink]
                    self.sink_log.extend(
                        (
                            self._op_names[int(so[i])][1],
                            int(sk[i]),
                            int(st[i]),
                            float(ssz[i]),
                        )
                        for i in range(ns)
                    )
            rest = ~sink
            if rest.any():
                pos = np.flatnonzero(rest)
                prof.begin("operators")
                out = self._process_array(
                    t, op[rest], port[rest], key[rest], ts[rest], size[rest], pos
                )
                prof.end()
                if out is not None:
                    prof.begin("fanout")
                    self._send_array(t, *out)
                    prof.end()
        prof.end()
        return self._close_tick(t, tick_lat)

    def _process_array(self, t, op, port, key, ts, size, pos):
        """Run one round's kept non-sink arrivals through the operators.

        Outputs are reassembled in canonical order — (input position,
        match rank) — so downstream sequence numbers match the
        per-tuple reference exactly.
        """
        k = self._kind[op]
        outs: list[tuple] = []

        m = k == _RELAY
        if m.any():
            outs.append((op[m], key[m], ts[m], size[m], pos[m], np.zeros(int(m.sum()), dtype=np.int64)))
        m = k == _FILTER
        if m.any():
            b = filter_bucket(key[m], self._gid[op[m]])
            keep = b < self._op_sel[op[m]]
            if keep.any():
                outs.append(
                    (op[m][keep], key[m][keep], ts[m][keep], size[m][keep], pos[m][keep],
                     np.zeros(int(keep.sum()), dtype=np.int64))
                )
        m = k == _AGG
        if m.any():
            ops_a = op[m]
            uniq, starts, cnts = np.unique(ops_a, return_index=True, return_counts=True)
            rank = np.arange(ops_a.size) - np.repeat(starts, cnts)
            c = self._agg_credit[ops_a]
            f = self._op_factor[ops_a]
            emit = np.floor(c + (rank + 1) * f) > np.floor(c + rank * f)
            self._agg_credit[uniq] = (
                self._agg_credit[uniq] + cnts * self._op_factor[uniq]
            ) % 1.0
            if self._model.aggregate_batch_cost:
                # Each of the batch's m tuples costs an extra c₁·m.
                t.op_cost[uniq] += (
                    self._model.aggregate_batch_cost * cnts.astype(float) * cnts
                )
            if emit.any():
                outs.append(
                    (ops_a[emit], key[m][emit], ts[m][emit], size[m][emit], pos[m][emit],
                     np.zeros(int(emit.sum()), dtype=np.int64))
                )
        m = k == _JOIN
        if m.any():
            # The scalar oracle handles an op's port-0 arrivals before
            # its port-1 ones: port 1 sees this round's port-0 inserts,
            # port 0 none of this round's port-1 inserts.
            jop, jport, jkey, jts, jsize = op[m], port[m], key[m], ts[m], size[m]
            p0 = jport == 0
            p1 = ~p0
            self._insert_state_array(jop[p0], jkey[p0], jts[p0], jsize[p0], side=0)
            pairs = self._probe_array(t, jop, jport, jkey, jts, jsize, pos[m])
            if pairs is not None:
                outs.append(pairs)
            self._insert_state_array(jop[p1], jkey[p1], jts[p1], jsize[p1], side=1)

        if not outs:
            return None
        o_op = np.concatenate([o[0] for o in outs])
        o_key = np.concatenate([o[1] for o in outs])
        o_ts = np.concatenate([o[2] for o in outs])
        o_size = np.concatenate([o[3] for o in outs])
        o_pos = np.concatenate([o[4] for o in outs])
        o_rank = np.concatenate([o[5] for o in outs])
        order = np.lexsort((o_rank, o_pos))
        return o_op[order], o_key[order], o_ts[order], o_size[order]

    def _probe_array(self, t, op, port, key, ts, size, pos):
        """Match arrivals against the other side's windowed join state.

        One walk over all joins' arrivals at once (port ``p`` probes
        side ``1 - p``): each chain is enumerated newest-first and rank
        is minus the depth, so the canonical ``(input position, match
        rank)`` output order is the scalar oracle's per-key insertion
        order.  Probe costs charge every live equal-key row walked —
        exactly the rows the eagerly evicting oracle still holds.
        """
        slot = self._join.slots(2 * op + 1 - port, key)
        rep, rank, sts, ssize = self._join.walk(slot, key, self.tick)
        if not rep.size:
            return None
        rop = op[rep]
        if self._model.probe_cost:
            t.op_cost += self._model.probe_cost * np.bincount(
                rop, minlength=self._arena.num_ops
            )
        # The window test first, so only in-window pairs are hashed.
        ats = ts[rep]
        win = np.flatnonzero(np.abs(ats - sts) <= self.config.window)
        rep, rop, ats, sts = rep[win], rop[win], ats[win], sts[win]
        rkey = key[rep]
        ok = np.flatnonzero(
            pair_bucket(rkey, ats, sts, self._gid[rop]) < self._op_pmatch[rop]
        )
        if not ok.size:
            return None
        hit = win[ok]
        rep = rep[ok]
        return (
            rop[ok],
            rkey[ok],
            np.maximum(ats[ok], sts[ok]),
            size[rep] + ssize[hit],
            pos[rep],
            rank[hit],
        )

    def _insert_state_array(self, op, key, ts, size, side: int) -> None:
        """Append new join state to the slot table (O(batch))."""
        if op.size == 0:
            return
        # Stored expiry, clamped up to the insert tick: rows dead on
        # arrival stay probe-visible until the next tick start, exactly
        # as under eager tick-start eviction.
        e = np.maximum(ts + self.config.window + self._slack[op], self.tick)
        self._join.insert(2 * op + side, key, ts, size, e, self.tick)

    def _send_array(self, t, ops, keys, ts, sizes, emit=False) -> None:
        """Fan outputs out over their CSR out-links and hand to transport."""
        if ops.size == 0:
            return
        deg = self._out_deg[ops]
        total = int(deg.sum())
        if total == 0:
            return
        first = self._out_offsets[ops]
        if total == ops.size and deg.min() == 1:
            # One out-link each (every chain op): no fan-out to expand.
            rep = slice(None)
            link = first
        else:
            rep = np.repeat(np.arange(ops.size), deg)
            # Link j of an op's run is its first link + j.
            link = np.repeat(first - (np.cumsum(deg) - deg), deg)
            link += np.arange(total)
        if self._has_partitioned:
            # Hash-router: a link into replica i of a k-family only
            # carries tuples whose key bucket is i, so each tuple
            # traverses exactly one split link (group-1 links carry
            # everything).  Zero RNG draws — both step paths route
            # identically — and the filter runs before sequence
            # assignment so seq stays dense in canonical order.
            group = self._link_group[link]
            if (group > 1).any():
                route = (group == 1) | (
                    route_bucket(keys[rep], group) == self._link_index[link]
                )
                rep = np.arange(ops.size)[rep][route]
                link = link[route]
                total = int(link.size)
                if total == 0:
                    return
        dst = self._link_dst[link]
        sizes = sizes[rep]
        u = t.host[ops[rep]]
        v = t.host[dst]
        l = t.lat[u, v]
        dt = np.rint(l / self.config.tick_ms).astype(np.int64)
        seq = np.arange(self._next_seq, self._next_seq + total, dtype=np.int64)
        self._next_seq += total
        trace = t.trace
        if trace is not None:
            # A wire tuple's span is keyed by its target op (like every
            # delivery-side event); the node column carries the sender.
            trace.record(trace.EMIT if emit else trace.SEND, seq, dst, u)
        nl = t.link_size.size
        t.link_tuples += np.bincount(link, minlength=nl)
        t.link_size += np.bincount(link, weights=sizes, minlength=nl)
        t.usage += float(l.sum())
        self._transport.send(
            t.now + dt, dst, self._link_port[link], keys[rep], ts[rep], sizes, seq
        )

    # -- per-tuple reference path ------------------------------------------

    def step_scalar(self) -> TrafficRecord:
        """Advance one tick through the per-tuple oracle
        (:func:`repro.runtime.oracle.step`)."""
        return oracle.step(self)

    # -- reporting ---------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Total tuples explicitly dropped, summed over all attributions
        (capacity + shed + dead + uninstall + retransmit overflow)."""
        return (
            self.dropped_capacity
            + self.dropped_shed
            + self.dropped_dead
            + self.dropped_uninstalled
            + self.dropped_overflow
        )

    def accounting(self) -> dict:
        """Conservation balance: every tuple delivered, dropped, in
        flight, or parked in the retransmit buffer.

        ``balanced`` is True iff no tuple was silently lost::

            sent == transport_delivered + in_flight + buffered
            transport_delivered == processed + dropped

        (``buffered`` is 0 without ``RuntimeConfig.reliable``, which
        collapses the first line to the PR-3 invariant.)
        """
        tr = self._transport
        sent, delivered = tr.sent, tr.delivered
        return {
            "emitted": self.emitted,
            "sent": sent,
            "transport_delivered": delivered,
            "in_flight": tr.in_flight,
            "buffered": tr.buffered,
            "processed": self.processed,
            "dropped": self.dropped,
            "delivered": self.sink_delivered,
            "cpu_cost": self.cpu_cost_total,
            "cpu_dropped": self.cpu_dropped_total,
            "balanced": (
                sent == delivered + tr.in_flight + tr.buffered
                and delivered == self.processed + self.dropped
            ),
        }

    def measured_cpu_rate(self) -> float:
        """Mean measured CPU cost per tick, summed over all nodes."""
        return self.cpu_cost_total / self.tick if self.tick else 0.0

    # -- observability -----------------------------------------------------

    def attach_obs(self, obs) -> None:
        """Attach an observability layer (``repro.obs.Observability``).

        Only before the first tick — the trace-completeness invariant
        assumes every live tuple's birth was recorded — so a plane that
        has ticked raises ``RuntimeError``.
        """
        if self._stepped:
            raise RuntimeError("attach_obs must precede the plane's first tick")
        self._obs = obs

    def trace_completeness(self) -> dict:
        """Check the attached tracer's completeness invariant now.

        Every sampled span must have exactly one birth and terminate at
        most once; open spans must be exactly the sampled part of the
        live in-flight + buffered population.  At ``sample_rate=1.0``
        the per-terminal event counts are additionally reconciled
        against the drop/processed accounting — the per-span refinement
        of :meth:`accounting`'s conservation balance.
        """
        tracer = None if self._obs is None else self._obs.tracer
        if tracer is None:
            raise RuntimeError("no tracer attached (see attach_obs)")
        tr = self._transport
        totals = None
        if tracer.sample_rate >= 1.0:
            totals = {
                "births": tr.sent,
                "process": self.processed,
                "drop_dead": self.dropped_dead,
                "drop_capacity": self.dropped_capacity,
                "drop_shed": self.dropped_shed,
                "drop_uninstall": self.dropped_uninstalled,
                "drop_overflow": self.dropped_overflow,
                "redeliver": self.redelivered,
                "buffer": tr.buffered_total,
            }
        return tracer.check_completeness(
            tr.inflight_seqs(), tr.buffered_seqs(), totals
        )

    def buffered_backlog(self) -> dict[tuple[str, str], int]:
        """Retransmit-buffer backlog per service, keyed (circuit, sid).

        Empty without the reliable transport (or when nothing is
        buffered).  The control plane's buffer-pressure policy reads
        this to force re-placement of services whose backlog grows.
        """
        tr = self._transport
        if tr.buffered == 0:
            return {}
        counts = tr.buffered_by_op(self._arena.num_ops)
        return {
            self._op_names[op]: int(c) for op, c in enumerate(counts) if c
        }

    def link_keys(self) -> list[tuple[str, str, str]]:
        """The *live* links' (circuit, source, target) keys, in the
        order :attr:`tick_link_tuples` reports counts.

        The returned list object is reused until the next structural
        sync (install, uninstall or segment swap), so estimators can
        cache index maps keyed by its identity.
        """
        return self._live_link_names

    def true_link_rates(self) -> dict[tuple[str, str, str], float]:
        """Expected realized tuples/tick per link, from current params.

        Propagates the *realized* parameter arrays (sources' Poisson λ,
        drifted selectivities/factors/match probabilities) through each
        circuit DAG in topological order — the analytic ground truth
        the control plane's measured-rate estimator should converge to,
        and the oracle input for closed-loop experiments.  Join outputs
        use the expected-match model the compiler inverted:
        ``r0·r1·(2w+1)·pmatch/domain``.
        """
        num_ops = self._arena.num_ops
        in_sum = np.zeros(num_ops)
        join_in = np.zeros((num_ops, 2))
        out_rate = np.zeros(num_ops)
        pending = self._in_deg.copy()
        w = self.config.window
        ready = [op for op in range(num_ops) if pending[op] == 0]
        while ready:
            op = ready.pop()
            kind = int(self._kind[op])
            if self._in_deg[op] == 0:
                out = float(self._op_rate[op])
            elif kind == _FILTER:
                out = float(in_sum[op] * self._op_sel[op])
            elif kind == _AGG:
                out = float(in_sum[op] * self._op_factor[op])
            elif kind == _JOIN:
                out = float(
                    join_in[op, 0]
                    * join_in[op, 1]
                    * (2 * w + 1)
                    * self._op_pmatch[op]
                    # A k-replica join matches within its key slice: its
                    # compiled (family) parameters over 1/k-rate inputs
                    # predict family_out/k², one factor of k too low for
                    # the replica's actual family_out/k share.
                    * self._op_replicas[op]
                    / self._op_domain[op]
                )
            else:
                out = float(in_sum[op])
            out_rate[op] = out
            base = int(self._out_offsets[op])
            for li in range(base, base + int(self._out_deg[op])):
                dst = int(self._link_dst[li])
                port = int(self._link_port[li])
                # A partitioned link carries its replica's key share.
                share = out / float(self._link_group[li])
                in_sum[dst] += share
                if port < 2:
                    join_in[dst, port] += share
                pending[dst] -= 1
                if pending[dst] == 0:
                    ready.append(dst)
        return {
            name: float(out_rate[self._link_src_op[i]] / self._link_group[i])
            for i, name in zip(self._live_links, self._live_link_names)
        }

    def measured_usage_rate(self) -> float:
        """Mean measured network usage per tick (Σ tuple × link latency)."""
        return self._usage_total / self.tick if self.tick else 0.0

    def link_stats(self) -> dict[tuple[str, str, str], dict[str, float]]:
        """Measured per-link traffic, keyed (circuit, source, target)."""
        out: dict[tuple[str, str, str], dict[str, float]] = {}
        for name, (tuples, sized) in self._link_stats_folded.items():
            out[name] = {"tuples": float(tuples), "size": sized}
        for i, name in zip(self._live_links, self._live_link_names):
            entry = out.setdefault(name, {"tuples": 0.0, "size": 0.0})
            entry["tuples"] += float(self._link_tuples[i])
            entry["size"] += float(self._link_size[i])
        for entry in out.values():
            entry["rate"] = entry["tuples"] / self.tick if self.tick else 0.0
        return out
