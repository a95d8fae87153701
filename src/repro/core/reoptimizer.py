"""Dynamic re-optimization of running circuits (§3.3).

Long-running queries outlive the conditions they were optimized for.
The paper describes two recovery mechanisms, both implemented here:

* **Local re-optimization** — each node hosting part of a circuit can
  re-run virtual placement + physical mapping for the services it
  hosts, migrating a service to a better node.  This is cheap,
  decentralized, and runs continuously.  A *migration threshold*
  (relative cost improvement required) prevents oscillation, since
  migrations are not free in a real system.
* **Full re-optimization** — when drift is stronger (e.g. selectivity
  estimates changed as the circuit matured), a node triggers a complete
  integrated optimization while the original circuit still runs; if the
  new candidate is sufficiently cheaper, a "parallel circuit" replaces
  the original.

Performance architecture (struct-of-arrays)
-------------------------------------------

Each circuit compiles once into a :class:`_CircuitKernel` — a CSR-style
(service, neighbor, rate) incidence index plus flat link-endpoint
arrays, mirroring the virtual-placement ``_CircuitArrays`` discipline.
Every local pass runs over a :class:`_ReoptArena`, the kernels'
concatenation: :meth:`Reoptimizer.step_all` over the arena of all
circuits (cached across passes), :meth:`Reoptimizer.local_step` and
:meth:`Reoptimizer.evacuate` over an uncached arena of one (a *forced*
pass: the failed node's services move, and nothing else).  A pass:

1. computes the spring targets of *all* unpinned services in one
   segment-sum over the current host positions (Jacobi snapshot: all
   targets and candidate nodes are derived from the placement at the
   start of the pass; repeated passes converge to the same stable
   placements, and the scalar references below implement the *same*
   snapshot semantics so equivalence is testable);
2. maps all (forced) targets in one batched ``map_coordinates`` call;
3. prices each candidate migration with one speculative
   ``evaluator.latency_array`` sweep over the incidence table, and
   every circuit's snapshot total in a few batched expressions;
4. decides in one lockstep sweep: step *j* accepts or reverts the
   *j*-th unpinned service of every circuit at once.  Circuits share
   no state, so each still sees its own services in order against its
   own running total, and the hysteresis threshold always compares
   against the up-to-date total (Gauss–Seidel within a circuit over
   the Jacobi candidates).  A forced pass skips the threshold test.

The pre-vectorization per-candidate ``evaluator.evaluate`` loops are
retained as ``local_step_scalar`` / ``step_all_scalar`` /
``evacuate_scalar`` oracles and pinned to the arena pass by
``tests/property/test_vectorized_equivalence.py`` and
``tests/property/test_arena_properties.py``.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.core.circuit import Circuit
from repro.core.coordinates import CostCoordinate
from repro.core.costs import CircuitCost, CostEvaluator, CostSpaceEvaluator
from repro.core.cost_space import CostSpace
from repro.core.optimizer import IntegratedOptimizer, OptimizationResult
from repro.core.physical_mapping import CatalogMapper, ExhaustiveMapper
from repro.core.virtual_placement import relaxation_placement
from repro.query.model import QuerySpec
from repro.query.selectivity import Statistics

__all__ = [
    "Migration",
    "ReoptimizationReport",
    "Reoptimizer",
    "refresh_kernel_rates",
]


@dataclass(frozen=True)
class Migration:
    """One service movement decided by local re-optimization."""

    service_id: str
    from_node: int
    to_node: int
    cost_before: float
    cost_after: float

    @property
    def improvement(self) -> float:
        return self.cost_before - self.cost_after


@dataclass
class ReoptimizationReport:
    """What one re-optimization pass did to a circuit."""

    migrations: list[Migration] = field(default_factory=list)
    cost_before: CircuitCost | None = None
    cost_after: CircuitCost | None = None
    full_reoptimization: bool = False
    replaced_plan: bool = False

    @property
    def migrated(self) -> bool:
        return bool(self.migrations)

    @property
    def improvement(self) -> float:
        if self.cost_before is None or self.cost_after is None:
            return 0.0
        return self.cost_before.total - self.cost_after.total


class _CircuitKernel:
    """Flat link/incidence arrays of one circuit (structure only).

    Placement-independent: compiled once per circuit structure and
    reused across passes/ticks; the per-pass state is a ``hosts`` int
    array indexed by service row.

    Attributes:
        sids: all service ids, row order.
        unpinned_sids / unpinned_rows: the migratable services;
            unpinned_pos maps a service id to its position among them.
        link_src / link_dst / link_rates: flat link-endpoint rows.
        inc_seg / inc_nbr / inc_rates: CSR-style (unpinned service,
            neighbor row, link rate) incidence entries, grouped by
            service in circuit-link order — exactly the enumeration
            ``circuit.neighbors`` produces.
    """

    def __init__(self, circuit: Circuit):
        self.sids = list(circuit.services)
        self.row_of = {sid: i for i, sid in enumerate(self.sids)}
        self.unpinned_sids = circuit.unpinned_ids()
        unpinned_pos = {sid: k for k, sid in enumerate(self.unpinned_sids)}
        self.unpinned_rows = np.array(
            [self.row_of[sid] for sid in self.unpinned_sids], dtype=int
        )
        src, dst, rates = [], [], []
        seg, nbr, inc_link = [], [], []
        for li, link in enumerate(circuit.links):
            s_row = self.row_of[link.source]
            t_row = self.row_of[link.target]
            src.append(s_row)
            dst.append(t_row)
            rates.append(link.rate)
            if link.source in unpinned_pos:
                seg.append(unpinned_pos[link.source])
                nbr.append(t_row)
                inc_link.append(li)
            if link.target in unpinned_pos:
                seg.append(unpinned_pos[link.target])
                nbr.append(s_row)
                inc_link.append(li)
        self.link_src = np.asarray(src, dtype=int)
        self.link_dst = np.asarray(dst, dtype=int)
        order = np.argsort(np.asarray(seg, dtype=int), kind="stable")
        self.inc_seg = np.asarray(seg, dtype=int)[order]
        self.inc_nbr = np.asarray(nbr, dtype=int)[order]
        self.inc_link = np.asarray(inc_link, dtype=int)[order]
        self.unpinned_pos = unpinned_pos
        self.seg_count = np.bincount(self.inc_seg, minlength=len(self.unpinned_sids))
        self.set_rates(np.asarray(rates, dtype=float))

    def set_rates(self, rates: np.ndarray) -> None:
        """Re-price the kernel's links in place (calibrated rates).

        Structure (incidence) is placement- and
        rate-independent, so the control plane can push measured rates
        into a cached kernel without recompiling: one gather refreshes
        the incidence weights and one segment-sum the spring weights.
        """
        rates = np.asarray(rates, dtype=float)
        if rates.shape != self.link_src.shape:
            raise ValueError("rates must align with the circuit's links")
        self.link_rates = rates.copy()
        self.inc_rates = self.link_rates[self.inc_link]
        m = len(self.unpinned_sids)
        self.seg_weight = np.zeros(m)
        np.add.at(self.seg_weight, self.inc_seg, self.inc_rates)

    def hosts(self, circuit: Circuit) -> np.ndarray:
        """Current placement as a row-indexed node array."""
        placement = circuit.placement
        return np.fromiter(
            (placement[sid] for sid in self.sids), dtype=int, count=len(self.sids)
        )


#: Kernel-cache key the fused reopt arena is cached under.  It is not a
#: ``str``, so no circuit name can equal it.
_ARENA_KEY = object()


class _ReoptArena:
    """Fused concatenation of circuit kernels: every local pass's tables.

    One global CSR incidence/link table spanning the given kernels, with
    per-kernel row/segment/link offsets, so a pass runs **one**
    segment-sum for all spring targets, **one** batched
    ``map_coordinates``, **one** ``latency_array`` sweep each for
    current link usage and speculative candidate pricing, and **one**
    lockstep accept sweep (:meth:`sweep`).  An arena of one kernel is
    how a single circuit is re-optimized or evacuated.

    Every reduction visits each circuit's entries contiguously and in
    the kernel's own order (``np.add.at`` is unbuffered, the evaluators
    are elementwise and each circuit's dot products are row-by-column
    ``np.matmul``), so a circuit's decisions do not depend on which
    other circuits share its arena.  The arena and vectorized
    equivalence tests pin them to the scalar oracles.

    The arena's structure is cached across passes; its rate columns are
    *copies* of the kernels', re-read once per pass
    (:meth:`refresh_rates`), so in-place re-pricing
    (``_CircuitKernel.set_rates``, driven by the control plane through
    :func:`refresh_kernel_rates`) reaches the next pass with no
    invalidation.  The sweep tables are built on the first
    :meth:`totals`, so an evacuation with nothing to move never pays
    for them.
    """

    def __init__(self, kernels: list["_CircuitKernel"]):
        self.kernels = list(kernels)
        row_counts = [len(k.sids) for k in self.kernels]
        seg_counts = [len(k.unpinned_sids) for k in self.kernels]
        link_counts = [k.link_src.size for k in self.kernels]
        self.row_offsets = np.concatenate(([0], np.cumsum(row_counts)))
        self.seg_offsets = np.concatenate(([0], np.cumsum(seg_counts)))
        self.link_offsets = np.concatenate(([0], np.cumsum(link_counts)))
        self.num_rows = int(self.row_offsets[-1])
        self.num_segments = int(self.seg_offsets[-1])

        def cat(parts, dtype):
            if not parts:
                return np.zeros(0, dtype=dtype)
            return np.concatenate(parts).astype(dtype, copy=False)

        self.inc_seg = cat(
            [k.inc_seg + s for k, s in zip(self.kernels, self.seg_offsets)], int
        )
        self.inc_nbr = cat(
            [k.inc_nbr + r for k, r in zip(self.kernels, self.row_offsets)], int
        )
        self.unpinned_rows = cat(
            [k.unpinned_rows + r for k, r in zip(self.kernels, self.row_offsets)],
            int,
        )
        self.link_src = cat(
            [k.link_src + r for k, r in zip(self.kernels, self.row_offsets)], int
        )
        self.link_dst = cat(
            [k.link_dst + r for k, r in zip(self.kernels, self.row_offsets)], int
        )
        self.seg_count = cat([k.seg_count for k in self.kernels], int)
        self._steps: list[tuple] | None = None
        self.refresh_rates()

    def refresh_rates(self) -> None:
        """Re-copy every kernel's rate columns (once per pass)."""
        for name in ("inc_rates", "seg_weight", "link_rates"):
            parts = [getattr(k, name) for k in self.kernels]
            setattr(self, name, np.concatenate(parts) if parts else np.zeros(0))

    def matches(self, kernels: list["_CircuitKernel"]) -> bool:
        """True when built from exactly these kernel objects, in order."""
        return len(kernels) == len(self.kernels) and all(
            a is b for a, b in zip(kernels, self.kernels)
        )

    def targets(self, hosts: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        """Spring targets of every unpinned service of every circuit.

        One global segment-sum: the rate-weighted centroid of each
        service's neighbors' host vectors (``Reoptimizer._local_target``);
        the unweighted mean when all its rates are zero; its own host
        vector when isolated.
        """
        m = self.num_segments
        dims = vectors.shape[1]
        points = vectors[hosts[self.inc_nbr]]
        weighted = np.zeros((m, dims))
        np.add.at(weighted, self.inc_seg, self.inc_rates[:, None] * points)
        out = np.empty((m, dims))
        has_weight = self.seg_weight > 0
        out[has_weight] = (
            weighted[has_weight] / self.seg_weight[has_weight, None]
        )
        zero_weight = ~has_weight & (self.seg_count > 0)
        if np.any(zero_weight):
            sums = np.zeros((m, dims))
            np.add.at(sums, self.inc_seg, points)
            out[zero_weight] = (
                sums[zero_weight] / self.seg_count[zero_weight, None]
            )
        isolated = self.seg_count == 0
        if np.any(isolated):
            out[isolated] = vectors[hosts[self.unpinned_rows[isolated]]]
        return out

    def speculative_usage(
        self,
        hosts: np.ndarray,
        candidates: np.ndarray,
        evaluator: CostEvaluator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-service incident usage, old vs candidate, fused.

        Two ``latency_array`` sweeps over the whole incidence table,
        segment-summed per service: the speculative usage delta
        :meth:`sweep` uses for every service none of whose neighbors
        has moved yet.
        """
        inc_nbr_hosts = hosts[self.inc_nbr]
        inc_old = self.inc_rates * evaluator.latency_array(
            hosts[self.unpinned_rows[self.inc_seg]], inc_nbr_hosts
        )
        inc_new = self.inc_rates * evaluator.latency_array(
            candidates[self.inc_seg], inc_nbr_hosts
        )
        old_usage = np.zeros(self.num_segments)
        new_usage = np.zeros(self.num_segments)
        np.add.at(old_usage, self.inc_seg, inc_old)
        np.add.at(new_usage, self.inc_seg, inc_new)
        return old_usage, new_usage

    def _build_sweep(self) -> None:
        """Lockstep sweep tables (structure only), built on first use.

        Step *j* holds the *j*-th unpinned service of every circuit with
        more than *j* of them: its segments, their circuits and rows,
        its incidence entries (step-local segment index, neighbor row)
        and its *peers* — every unpinned row of each segment's circuit,
        the host multiset the load penalty counts.  Circuits are grouped
        by link count, each group with a ``(g, n)`` link-index matrix.
        """
        seg_counts = np.diff(self.seg_offsets)
        self.seg_circ = np.repeat(np.arange(len(self.kernels)), seg_counts)
        self.seg_pos = np.arange(self.num_segments) - self.seg_offsets[self.seg_circ]
        self.inc_start = np.cumsum(self.seg_count) - self.seg_count
        ent_pos = self.seg_pos[self.inc_seg]
        local = np.empty(self.num_segments, dtype=int)
        self._steps = []
        for j in range(int(seg_counts.max())):
            segs = np.flatnonzero(self.seg_pos == j)
            circ = self.seg_circ[segs]
            local[segs] = np.arange(segs.size)
            ents = np.flatnonzero(ent_pos == j)
            m = seg_counts[circ]
            peers = np.arange(m.sum()) + np.repeat(
                self.seg_offsets[circ] - (np.cumsum(m) - m), m
            )
            self._steps.append(
                (
                    segs,
                    circ,
                    self.unpinned_rows[segs],
                    local[self.inc_seg[ents]],
                    self.inc_nbr[ents],
                    np.repeat(np.arange(segs.size), m),
                    self.unpinned_rows[peers],
                )
            )
        link_counts = np.diff(self.link_offsets)
        self._link_groups = []
        for n in np.unique(link_counts):
            circs = np.flatnonzero(link_counts == n)
            self._link_groups.append(
                (circs, self.link_offsets[circs][:, None] + np.arange(n))
            )

    def totals(
        self,
        hosts: np.ndarray,
        evaluator: CostEvaluator,
        penalty_of,
        load_weight: float,
    ) -> np.ndarray:
        """Every circuit's scalarized total at ``hosts``: link usage plus
        ``load_weight`` times the load penalty of its distinct unpinned
        hosts (``penalty_of`` prices nodes).

        Each link-count group's usage is one row-by-column ``np.matmul``,
        bit-equal to a per-circuit ``np.dot``; colocated links cost zero
        latency in both evaluators, so no ``u != v`` mask is needed.  The
        penalty sums each circuit's distinct unpinned hosts in first-seen
        order.
        """
        if self._steps is None:
            self._build_sweep()
        link_lat = evaluator.latency_array(
            hosts[self.link_src], hosts[self.link_dst]
        )
        usage = np.empty(len(self.kernels))
        for circs, idx in self._link_groups:
            usage[circs] = np.matmul(
                self.link_rates[idx][:, None, :], link_lat[idx][:, :, None]
            )[:, 0, 0]
        unpinned = hosts[self.unpinned_rows]
        _, first = np.unique(
            self.seg_circ * (int(unpinned.max()) + 1) + unpinned,
            return_index=True,
        )
        first.sort()
        penalty = np.bincount(
            self.seg_circ[first],
            penalty_of(unpinned[first]),
            minlength=len(self.kernels),
        )
        return usage + load_weight * penalty

    def _reprice(
        self,
        segs: np.ndarray,
        old: np.ndarray,
        cand: np.ndarray,
        hosts: np.ndarray,
        evaluator: CostEvaluator,
    ) -> np.ndarray:
        """Incident usage delta of moving ``segs``, against the live hosts.

        Grouped by slice length, so each slice reduces with the
        row-by-column ``np.matmul`` (the per-service ``np.dot`` pair).
        """
        lengths = self.seg_count[segs]
        out = np.empty(segs.size)
        for n in np.unique(lengths):
            sel = lengths == n
            idx = self.inc_start[segs[sel]][:, None] + np.arange(n)
            nbr = hosts[self.inc_nbr[idx]].ravel()
            rates = self.inc_rates[idx][:, None, :]
            new = evaluator.latency_array(np.repeat(cand[sel], n), nbr)
            was = evaluator.latency_array(np.repeat(old[sel], n), nbr)
            out[sel] = (
                np.matmul(rates, new.reshape(-1, n, 1))
                - np.matmul(rates, was.reshape(-1, n, 1))
            )[:, 0, 0]
        return out

    def sweep(
        self,
        hosts: np.ndarray,
        candidates: np.ndarray,
        evaluator: CostEvaluator,
        load_weight: float,
        threshold: float,
        frozen: np.ndarray | None = None,
        force: np.ndarray | None = None,
    ) -> tuple[list[np.ndarray], int]:
        """Lockstep accept/revert sweep over every circuit at once.

        Step *j* decides the *j*-th unpinned service of every circuit.
        Circuits share no state, so each still sees its own services in
        kernel order against its own running total and host multiset:
        every decision is the one a per-circuit loop makes.  A service
        whose neighbor already moved is re-priced against the live
        hosts; the rest take the speculative delta.  A move is accepted
        when it cuts its circuit's total by ``threshold``; unmoved and
        ``frozen`` segments are skipped, not rejected.  With a ``force``
        mask (an evacuation) every forced segment moves to its candidate,
        whatever ``threshold`` and ``frozen`` say, and no other segment
        moves.

        Updates ``hosts``; returns the accepted moves as ``[segments,
        from, to, total before, total after]`` in segment order, and the
        reject count.
        """
        old_usage, new_usage = self.speculative_usage(hosts, candidates, evaluator)
        involved = np.unique(
            np.concatenate((hosts[self.unpinned_rows], candidates))
        )
        penalties = evaluator.penalty_array(involved)

        def penalty_of(nodes: np.ndarray) -> np.ndarray:
            return penalties[np.searchsorted(involved, nodes)]

        current = self.totals(hosts, evaluator, penalty_of, load_weight)
        moved = np.zeros(self.num_rows, dtype=bool)
        moves = []
        rejects = 0
        for segs, circ, rows, ent_loc, ent_nbr, peer_loc, peer_row in self._steps:
            old = hosts[rows]
            cand = candidates[segs]
            act = cand != old
            if force is not None:
                act &= force[segs]
            elif frozen is not None:
                act &= ~frozen[segs]
            if not act.any():
                continue
            delta = new_usage[segs] - old_usage[segs]
            if moves:
                conflict = act & (
                    np.bincount(ent_loc, moved[ent_nbr], minlength=segs.size) > 0
                )
                if conflict.any():
                    delta[conflict] = self._reprice(
                        segs[conflict], old[conflict], cand[conflict], hosts, evaluator
                    )
            peer_hosts = hosts[peer_row]
            n_cand = np.bincount(
                peer_loc, peer_hosts == cand[peer_loc], minlength=segs.size
            )
            n_old = np.bincount(
                peer_loc, peer_hosts == old[peer_loc], minlength=segs.size
            )
            dpen = np.where(n_cand == 0, penalty_of(cand), 0.0) - np.where(
                n_old == 1, penalty_of(old), 0.0
            )
            before = current[circ]
            after = before + delta + load_weight * dpen
            ok = act if force is not None else act & (after < before * (1 - threshold))
            rejects += int(np.count_nonzero(act) - np.count_nonzero(ok))
            if ok.any():
                hosts[rows[ok]] = cand[ok]
                moved[rows[ok]] = True
                current[circ[ok]] = after[ok]
                moves.append((segs[ok], old[ok], cand[ok], before[ok], after[ok]))
        if not moves:
            return [np.zeros(0, dtype=int)] * 5, rejects
        columns = [np.concatenate(col) for col in zip(*moves)]
        order = np.argsort(columns[0])
        return [col[order] for col in columns], rejects


def refresh_kernel_rates(
    kernel_cache: dict | None, circuit: Circuit, rates: np.ndarray
) -> bool:
    """Push calibrated link rates into a cached circuit kernel, if any.

    The calibrated-rate pricing hook the control plane uses: the
    simulator's kernel cache maps circuit name to ``(weakref, kernel)``;
    when the cached kernel still belongs to this circuit object its
    prices are refreshed in place (``_CircuitKernel.set_rates``), so
    the next re-optimization pass prices the *measured* objective
    without recompiling structure.  Returns True when a kernel was
    refreshed.

    The fused reopt arena (cached under a non-``str`` key in the same
    cache) re-reads the kernels' rate columns at the start of every
    pass, so a refresh here reaches the fused path with no explicit
    invalidation.
    """
    if not kernel_cache:
        return False
    cached = kernel_cache.get(circuit.name)
    if cached is None:
        return False
    ref, kernel = cached
    if ref() is not circuit:
        return False
    kernel.set_rates(rates)
    return True


class Reoptimizer:
    """Re-optimizes running circuits against a *current* cost space.

    The cost space passed in is expected to be refreshed externally
    (``CostSpace.update_metrics`` / ``update_vector``) as the network
    drifts; the re-optimizer only reads it.

    Args:
        cost_space: current cost-space snapshot.
        mapper: physical-mapping backend for migrations.
        evaluator: circuit pricing (cost-space estimates by default).
        migration_threshold: minimum *relative* total-cost improvement
            required to perform a migration (hysteresis); finite, >= 0.
        load_weight: load-penalty weight, as in the optimizers; finite,
            >= 0.
        kernel_cache: optional dict that persists compiled circuit
            kernels across Reoptimizer instances (the simulator passes
            one so structure is compiled once per circuit, not per
            tick).
    """

    def __init__(
        self,
        cost_space: CostSpace,
        mapper: ExhaustiveMapper | CatalogMapper | None = None,
        evaluator: CostEvaluator | None = None,
        migration_threshold: float = 0.02,
        load_weight: float = 1.0,
        kernel_cache: dict | None = None,
    ):
        for name, value in (
            ("migration_threshold", migration_threshold),
            ("load_weight", load_weight),
        ):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative")
        self.cost_space = cost_space
        self.mapper = mapper or ExhaustiveMapper(cost_space)
        self.evaluator = evaluator or CostSpaceEvaluator(cost_space)
        self.migration_threshold = migration_threshold
        self.load_weight = load_weight
        self._kernels = kernel_cache if kernel_cache is not None else {}
        # Decision counters (observability): accepted vs hysteresis-
        # rejected candidate moves, and fused-arena rebuilds.  Pure
        # increments — they never influence a decision.
        self.accepts = 0
        self.rejects = 0
        self.arena_builds = 0
        # (circuit name, service id) pairs excluded from this pass's
        # accept sweeps — the simulator populates it with the
        # autoscaler's cooldown families so placement doesn't migrate
        # operators whose replicas were just re-split (their state and
        # in-flight tuples are still settling).  Frozen services are
        # skipped before pricing, not priced-and-rejected, so the
        # accept/reject counters and the running total stay unbiased.
        self.frozen: set[tuple[str, str]] = set()

    def _kernel(self, circuit: Circuit) -> _CircuitKernel:
        # Keyed by name, validated by object identity via weakref: a
        # replaced (or GC'd-and-reallocated) circuit can never be
        # served a stale kernel, and dead entries are overwritten.
        cached = self._kernels.get(circuit.name)
        if cached is not None:
            ref, kernel = cached
            if ref() is circuit:
                return kernel
        kernel = _CircuitKernel(circuit)
        self._kernels[circuit.name] = (weakref.ref(circuit), kernel)
        return kernel

    # -- local re-optimization ----------------------------------------------

    def local_step(self, circuit: Circuit) -> ReoptimizationReport:
        """One decentralized pass: re-place and maybe migrate each service.

        The fused pass over an arena of this one circuit, built fresh
        rather than cached: routed through :meth:`_arena` it would evict
        the many-circuit arena a shared kernel cache holds.  Unlike
        :meth:`step_all` the report carries the circuit's full cost
        breakdowns before and after.
        """
        if not circuit.is_fully_placed():
            raise ValueError("circuit must be placed before re-optimization")
        cost_before = self.evaluator.evaluate(circuit, load_weight=self.load_weight)
        report = self._pass([circuit], _ReoptArena)[0]
        report.cost_before = cost_before
        report.cost_after = (
            self.evaluator.evaluate(circuit, load_weight=self.load_weight)
            if report.migrations
            else cost_before
        )
        return report

    def local_step_scalar(self, circuit: Circuit) -> ReoptimizationReport:
        """Per-candidate ``evaluator.evaluate`` loop (retained reference).

        Same Jacobi-snapshot semantics as :meth:`local_step`, priced
        with the pre-vectorization full-circuit evaluation per
        candidate.
        """
        if not circuit.is_fully_placed():
            raise ValueError("circuit must be placed before re-optimization")
        report = ReoptimizationReport()
        report.cost_before = self.evaluator.evaluate(
            circuit, load_weight=self.load_weight
        )
        current_cost = report.cost_before
        scalar_dims = len(self.cost_space.spec.scalar_dimensions)
        targets = {
            sid: self._local_target(circuit, sid) for sid in circuit.unpinned_ids()
        }

        for sid in circuit.unpinned_ids():
            if self.frozen and (circuit.name, sid) in self.frozen:
                continue
            target = CostCoordinate.from_arrays(
                targets[sid], np.zeros(scalar_dims)
            )
            candidate_node, _ = self.mapper.map_coordinate(target)
            old_node = circuit.host_of(sid)
            if candidate_node == old_node:
                continue
            circuit.assign(sid, candidate_node)
            new_cost = self.evaluator.evaluate(circuit, load_weight=self.load_weight)
            required = current_cost.total * (1 - self.migration_threshold)
            if new_cost.total < required:
                report.migrations.append(
                    Migration(
                        service_id=sid,
                        from_node=old_node,
                        to_node=candidate_node,
                        cost_before=current_cost.total,
                        cost_after=new_cost.total,
                    )
                )
                current_cost = new_cost
                self.accepts += 1
            else:
                circuit.assign(sid, old_node)  # revert
                self.rejects += 1

        report.cost_after = current_cost
        return report

    def _collect_active(self, circuits: list[Circuit]):
        """Compiled kernels + host snapshots of the circuits with unpinned work."""
        kernels: list[_CircuitKernel] = []
        hosts_list: list[np.ndarray] = []
        active: list[int] = []
        for i, circuit in enumerate(circuits):
            if not circuit.is_fully_placed():
                raise ValueError("circuit must be placed before re-optimization")
            kernel = self._kernel(circuit)
            if not kernel.unpinned_sids:
                continue
            kernels.append(kernel)
            hosts_list.append(kernel.hosts(circuit))
            active.append(i)
        return kernels, hosts_list, active

    def _arena(self, kernels: list[_CircuitKernel]) -> _ReoptArena:
        """The fused arena for these kernels: structure cached, rates re-read."""
        arena = self._kernels.get(_ARENA_KEY)
        if arena is None or not arena.matches(kernels):
            arena = _ReoptArena(kernels)
            self._kernels[_ARENA_KEY] = arena
            self.arena_builds += 1
        else:
            arena.refresh_rates()
        return arena

    def _target_coords(self, arena: _ReoptArena, hosts: np.ndarray) -> np.ndarray:
        """(segments, dims) spring targets with ideal (zero) scalar parts."""
        targets = np.zeros((arena.num_segments, self.cost_space.spec.dims))
        targets[:, : self.cost_space.spec.vector_dims] = arena.targets(
            hosts, self.cost_space.vector_matrix()
        )
        return targets

    def _frozen_segments(
        self, arena: _ReoptArena, circuits: list[Circuit]
    ) -> np.ndarray | None:
        """Arena segments of ``self.frozen``, found pair by pair."""
        if not self.frozen:
            return None
        index = {circuit.name: c for c, circuit in enumerate(circuits)}
        mask = np.zeros(arena.num_segments, dtype=bool)
        for name, sid in self.frozen:
            c = index.get(name)
            k = None if c is None else arena.kernels[c].unpinned_pos.get(sid)
            if k is not None:
                mask[arena.seg_offsets[c] + k] = True
        return mask

    def _pass(
        self, circuits: list[Circuit], arena_of, failed: int | None = None
    ) -> list[ReoptimizationReport]:
        """One local pass over ``circuits`` through the arena ``arena_of`` builds.

        The active kernels' concatenation costs **one** spring-target
        segment-sum, **one** batched ``map_coordinates`` and **one**
        lockstep accept sweep (:meth:`_ReoptArena.sweep`) deciding every
        circuit's *j*-th service at once.  The accepted moves are then
        assigned in (circuit, position) order.  Reports carry migrations
        only.

        With ``failed`` the pass is forced: only the unpinned services on
        ``failed`` are mapped (none: it returns before mapping), each moves
        whatever the threshold and ``frozen`` say, nothing else moves, and
        the accept/reject counters are left alone.
        """
        reports = [ReoptimizationReport() for _ in circuits]
        kernels, hosts_list, active = self._collect_active(circuits)
        if not active:
            return reports
        arena = arena_of(kernels)
        hosts = np.concatenate(hosts_list)
        force = frozen = None
        if failed is None:
            targets = self._target_coords(arena, hosts)
            candidates, _ = self.mapper.map_coordinates(targets)
            frozen = self._frozen_segments(arena, [circuits[i] for i in active])
        else:
            candidates = hosts[arena.unpinned_rows]
            force = candidates == failed
            if not force.any():
                return reports
            targets = self._target_coords(arena, hosts)[force]
            candidates[force], _ = self.mapper.map_coordinates(targets)
        moves, rejects = arena.sweep(
            hosts, candidates, self.evaluator, self.load_weight,
            self.migration_threshold, frozen, force,
        )
        segs = moves[0]
        if force is None:
            self.accepts += segs.size
            self.rejects += rejects
        for c, k, *move in zip(
            arena.seg_circ[segs].tolist(),
            arena.seg_pos[segs].tolist(),
            *(col.tolist() for col in moves[1:]),
        ):
            sid = arena.kernels[c].unpinned_sids[k]
            circuits[active[c]].assign(sid, move[1])
            reports[active[c]].migrations.append(Migration(sid, *move))
        return reports

    def step_all(self, circuits: list[Circuit]) -> list[ReoptimizationReport]:
        """One fused local pass over many circuits (the arena path).

        :meth:`_pass` over the arena cached across passes
        (:meth:`_arena`).  Makes the same migrations as
        :meth:`step_all_scalar`, its oracle.  Reports carry migrations
        only — the full :class:`CircuitCost` breakdowns (which need the
        consumer-latency DP) are skipped in this bulk path.
        """
        return self._pass(circuits, self._arena)

    def step_all_scalar(self, circuits: list[Circuit]) -> list[ReoptimizationReport]:
        """Per-circuit scalar passes (retained reference for step_all)."""
        return [self.local_step_scalar(circuit) for circuit in circuits]

    def _local_target(self, circuit: Circuit, service_id: str) -> np.ndarray:
        """Rate-weighted centroid of a service's neighbors' current hosts.

        The single-service spring equilibrium: the local analogue of
        relaxation placement, computable by the hosting node alone.
        """
        vectors = self.cost_space.vector_matrix()
        neighbors = circuit.neighbors(service_id)
        if not neighbors:
            return vectors[circuit.host_of(service_id)].copy()
        hosts = [circuit.host_of(neighbor) for neighbor, _ in neighbors]
        points = vectors[hosts]
        weights_arr = np.fromiter(
            (rate for _, rate in neighbors), dtype=float, count=len(neighbors)
        )
        total = weights_arr.sum()
        if total <= 0:
            return points.mean(axis=0)
        return weights_arr @ points / total

    # -- local plan rewriting ------------------------------------------------

    def rewrite_step(
        self, circuit: Circuit, stats: Statistics
    ) -> tuple[Circuit, list[str]]:
        """Apply profitable local plan rewrites (§3.3).

        For every pair of adjacent joins colocated on one host (the only
        situation where a node may rewrite "as long as it is running all
        affected services"):

        1. try :func:`reorder_adjacent_joins` — keep it if the estimated
           circuit cost drops;
        2. try :func:`recompose_colocated_joins` — keep it if the cost
           does not increase (merging colocated joins removes a
           migration unit for free).

        Returns:
            (possibly rewritten circuit, descriptions of applied
            rewrites).  The input circuit is never mutated.
        """
        from repro.core.rewriting import (
            colocated_join_pairs,
            recompose_colocated_joins,
            reorder_adjacent_joins,
        )

        current = circuit.copy()
        applied: list[str] = []
        progress = True
        while progress:
            progress = False
            for upstream, downstream in colocated_join_pairs(current):
                cost_before = self.evaluator.evaluate(
                    current, load_weight=self.load_weight
                ).total
                reordered = reorder_adjacent_joins(
                    current, upstream, downstream, stats
                )
                if reordered.applied:
                    cost_after = self.evaluator.evaluate(
                        reordered.circuit, load_weight=self.load_weight
                    ).total
                    if cost_after < cost_before - 1e-12:
                        current = reordered.circuit
                        applied.append(reordered.description)
                        progress = True
                        break
                merged = recompose_colocated_joins(current, upstream, downstream)
                cost_after = self.evaluator.evaluate(
                    merged.circuit, load_weight=self.load_weight
                ).total
                if cost_after <= cost_before + 1e-12:
                    current = merged.circuit
                    applied.append(merged.description)
                    progress = True
                    break
        return current, applied

    # -- full re-optimization -------------------------------------------------

    def full_reoptimize(
        self,
        circuit: Circuit,
        query: QuerySpec,
        stats: Statistics,
        replace_threshold: float = 0.05,
    ) -> tuple[ReoptimizationReport, OptimizationResult | None]:
        """Re-run integrated optimization; replace the circuit if it pays.

        Models the paper's "stronger form of re-optimization": deploy a
        parallel circuit and cancel the original iff the new one is at
        least ``replace_threshold`` (relative) cheaper under *current*
        statistics and network state.

        Returns:
            (report, new_result) — ``new_result`` is None if the
            original circuit was kept.
        """
        if replace_threshold < 0:
            raise ValueError("replace_threshold must be non-negative")
        report = ReoptimizationReport(full_reoptimization=True)
        report.cost_before = self.evaluator.evaluate(
            circuit, load_weight=self.load_weight
        )
        optimizer = IntegratedOptimizer(
            self.cost_space,
            mapper=self.mapper,
            evaluator=self.evaluator,
            load_weight=self.load_weight,
        )
        fresh = optimizer.optimize(query, stats)
        required = report.cost_before.total * (1 - replace_threshold)
        if fresh.cost.total < required:
            report.replaced_plan = True
            report.cost_after = fresh.cost
            return report, fresh
        report.cost_after = report.cost_before
        return report, None

    # -- failure handling -------------------------------------------------

    def evacuate(self, circuit: Circuit, failed_node: int) -> list[Migration]:
        """Force every unpinned service off a failed node.

        A forced :meth:`_pass` over an uncached arena of this one circuit
        (the shared cache's many-circuit arena survives every churn
        evacuation), with ``failed_node`` excluded from the mapper for
        the call: each service on it moves to its snapshot target
        whatever ``migration_threshold`` and ``frozen`` say, and the
        migrations carry the circuit's running totals.
        """
        was_excluded = failed_node in self.mapper.excluded
        self.mapper.exclude(failed_node)
        try:
            return self._pass([circuit], _ReoptArena, failed_node)[0].migrations
        finally:
            if not was_excluded:
                self.mapper.include(failed_node)

    def evacuate_scalar(self, circuit: Circuit, failed_node: int) -> list[Migration]:
        """Per-candidate evaluate loop (retained reference for evacuate)."""
        migrations: list[Migration] = []
        was_excluded = failed_node in self.mapper.excluded
        self.mapper.exclude(failed_node)
        try:
            scalar_dims = len(self.cost_space.spec.scalar_dimensions)
            affected = [
                sid
                for sid in circuit.unpinned_ids()
                if circuit.host_of(sid) == failed_node
            ]
            targets = {sid: self._local_target(circuit, sid) for sid in affected}
            for sid in affected:
                target = CostCoordinate.from_arrays(
                    targets[sid], np.zeros(scalar_dims)
                )
                before = self.evaluator.evaluate(
                    circuit, load_weight=self.load_weight
                ).total
                new_node, _ = self.mapper.map_coordinate(target)
                circuit.assign(sid, new_node)
                after = self.evaluator.evaluate(
                    circuit, load_weight=self.load_weight
                ).total
                migrations.append(
                    Migration(sid, failed_node, new_node, before, after)
                )
        finally:
            if not was_excluded:
                self.mapper.include(failed_node)
        return migrations
