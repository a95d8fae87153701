"""Virtual placement: ideal coordinates for unpinned services (§3.2).

Virtual placement runs *before* any service is instantiated: given the
circuit's link structure, the pinned endpoints' vector coordinates, and
the link data rates, compute the coordinate in the **vector dimensions
only** where each unpinned service would ideally sit.  (Scalar
dimensions are ideal at zero and join at physical-mapping time.)

Algorithms, per the paper:

* **Relaxation placement** [Pietzuch et al., TR-26-04] — circuits are
  modelled as springs whose constant equals the link data rate and
  whose extension is the latency; services are massless bodies.  The
  equilibrium minimizes Σ rate·dist² (a proxy for the network
  utilization Σ rate·dist): each unpinned service sits at the
  rate-weighted centroid of its neighbors.
* **Centroid placement** — the same equilibrium with unit springs.
* **Gradient descent placement** [Bonfils & Bonnet] — minimizes the
  *true* utilization objective Σ rate·dist with Weiszfeld-style
  iterations (each service moves to the rate/distance-weighted centroid
  of its neighbors).

All three return a :class:`VirtualPlacement` mapping each unpinned
service id to a vector coordinate, plus convergence diagnostics.

The spring energy is a strictly convex quadratic, so relaxation's
fixed point is computed directly: one graph-Laplacian solve per
dimension (:func:`_spring_equilibrium`), not a loop of centroid moves.
The iterated form is the incremental, decentralized one — each service
needs only its neighbors' coordinates — and the re-optimizer's one
spring step per pass (:mod:`repro.core.reoptimizer`) is that form.

The Weiszfeld weights divide by the current link lengths, so that
descent iterates.  The circuit's link structure is compiled once per
placement into a CSR-style neighbor index (:class:`_CircuitArrays`:
flat segment / neighbor / rate arrays over a dense position matrix
whose first rows are the unpinned services).  Each sweep then updates
*every* unpinned service simultaneously from the previous iterate
(Jacobi) with segment-sum matrix operations — no per-service or
per-dimension Python loop: one ``take`` of the neighbour coordinates
from the flat matrix, one multiply and one ``bincount`` over the flat
``(service, dimension)`` cells.

Scalar reference implementations of one sweep and of both objectives
are retained (``sweep_scalar``, ``placement_energy_scalar``,
``placement_utilization_scalar``) as the ground truth for equivalence
tests and before/after benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.circuit import Circuit

__all__ = [
    "VirtualPlacement",
    "relaxation_placement",
    "centroid_placement",
    "gradient_descent_placement",
    "placement_energy",
    "placement_utilization",
    "placement_energy_scalar",
    "placement_utilization_scalar",
    "sweep_scalar",
]

#: Circuits with at least this many unpinned services use the sparse
#: Laplacian solver; below it the dense solve is faster and allocates
#: trivially.
SPARSE_SOLVER_THRESHOLD = 64


@dataclass
class VirtualPlacement:
    """Result of a virtual-placement run.

    Attributes:
        positions: unpinned service id -> vector coordinate (ndarray).
        iterations: Weiszfeld sweeps performed; 0 for the spring
            placements, which are solved, not iterated.
        converged: True if movement fell below tolerance before the
            iteration cap; always True for the spring placements.
        objective: final value of the algorithm's objective function
            (the spring energy, or the utilization for Weiszfeld).
    """

    positions: dict[str, np.ndarray]
    iterations: int
    converged: bool
    objective: float

    def position_of(self, service_id: str) -> np.ndarray:
        if service_id not in self.positions:
            raise KeyError(f"no virtual position for {service_id}")
        return self.positions[service_id]


def _pinned_and_unpinned(
    circuit: Circuit, pinned_positions: dict[str, np.ndarray]
) -> tuple[dict[str, np.ndarray], list[str]]:
    """Validate inputs; return (pinned positions, unpinned ids)."""
    pinned_ids = set(circuit.pinned_ids())
    missing = pinned_ids - set(pinned_positions)
    if missing:
        raise ValueError(f"missing vector positions for pinned services {sorted(missing)}")
    unpinned = circuit.unpinned_ids()
    positions = {sid: np.asarray(p, dtype=float) for sid, p in pinned_positions.items()}
    dims = {p.shape for p in positions.values()}
    if len(dims) > 1:
        raise ValueError("pinned positions have inconsistent dimensionality")
    return positions, unpinned


class _CircuitArrays:
    """CSR-style neighbor index over a dense position matrix.

    Rows ``0..num_unpinned-1`` of :attr:`matrix` are the unpinned
    services (in ``circuit.unpinned_ids()`` order, initialized to the
    pinned centroid); the remaining rows are the pinned services.  The
    flat arrays enumerate every (unpinned service, neighbor) incidence
    in circuit-link order, exactly as ``circuit.neighbors`` would:

    * ``seg[e]`` — unpinned row the entry belongs to,
    * ``nbr[e]`` — matrix row of the neighbor,
    * ``rates[e]`` — the connecting link's rate.

    A sweep works on the flat ``(rows · d)`` view of the matrix: entry
    ``e`` in dimension ``k`` reads cell ``nbr[e]·d + k`` and sums into
    cell ``seg[e]·d + k`` (the unpinned rows come first, so that is also
    the service's own cell).  Both flat indices, and the buffer the
    neighbour coordinates are gathered into, are built here once.
    """

    def __init__(self, circuit: Circuit, positions: dict[str, np.ndarray], unpinned: list[str]):
        self.unpinned = unpinned
        num_unpinned = len(unpinned)
        pinned = circuit.pinned_ids()
        row_of = {sid: i for i, sid in enumerate(unpinned + pinned)}

        dims = next(iter(positions.values())).shape[0] if positions else 2
        pinned_matrix = np.array([positions[sid] for sid in pinned]).reshape(-1, dims)
        self.matrix = np.empty((len(row_of), dims), dtype=float)
        self.matrix[:num_unpinned] = pinned_matrix.sum(axis=0) / len(pinned)
        self.matrix[num_unpinned:] = pinned_matrix

        # Per-service incidence lists in link order (the order
        # ``circuit.neighbors`` yields), then flattened.
        per_service: list[list[tuple[int, float]]] = [[] for _ in unpinned]
        for link in circuit.links:
            source, target = row_of[link.source], row_of[link.target]
            if source < num_unpinned:
                per_service[source].append((target, link.rate))
            if target < num_unpinned:
                per_service[target].append((source, link.rate))
        self.seg = np.array(
            [i for i, entries in enumerate(per_service) for _ in entries], dtype=int
        )
        self.nbr = np.array(
            [row for entries in per_service for row, _ in entries], dtype=int
        )
        self.rates = np.array(
            [rate for entries in per_service for _, rate in entries], dtype=float
        )
        # Flat (incidence, dimension) indices, incidence-major: where
        # each entry's neighbour coordinate sits in the flat matrix, and
        # the flat accumulator cell it sums into.
        columns = np.arange(dims)
        self._gather = (self.nbr[:, None] * dims + columns).ravel()
        self._bins = (self.seg[:, None] * dims + columns).ravel()
        self._entries = np.empty(self._gather.size)
        self._flat = self.matrix.reshape(-1)
        self._head = self.matrix[:num_unpinned]

    def sweep(self) -> float:
        """One simultaneous Weiszfeld sweep over all unpinned services, in-place.

        Returns the largest movement distance.  The sweep works on the
        flat matrix: one ``take`` of every neighbour coordinate into a
        buffer the arrays own, the rate/distance weights of the current
        link lengths, one multiply by them and one ``bincount`` over the
        flat ``seg·d + k`` cells, then an in-place divide and subtract.
        Each cell sums its entries in incidence order, as a
        per-dimension segment sum would.  A service whose weights sum to
        zero (no link, or zero-rate links only) stays where it is.
        """
        if self.seg.size == 0:
            return 0.0
        entries = self._entries
        self._flat.take(self._gather, out=entries)
        dims = self.matrix.shape[1]
        diff = self.matrix[self.seg] - entries.reshape(self.nbr.size, -1)
        dist = np.sqrt(np.einsum("ed,ed->e", diff, diff))
        weights = self.rates / np.maximum(dist, 1e-9)
        totals = np.bincount(self.seg, weights=weights, minlength=len(self.unpinned))
        movable = totals > 0
        entries *= np.repeat(weights, dims)
        totals = np.repeat(totals, dims)
        new = np.bincount(self._bins, weights=entries, minlength=totals.size)
        old = self._flat[: totals.size]
        if movable.all():
            new /= totals
        else:
            movable = np.repeat(movable, dims)
            new[movable] /= totals[movable]
            new[~movable] = old[~movable]
        old -= new
        # sqrt is monotone and correctly rounded: sqrt(max) == max(sqrt).
        move = math.sqrt(np.einsum("ud,ud->u", self._head, self._head).max())
        old[:] = new
        return move

    def unpinned_positions(self) -> dict[str, np.ndarray]:
        return {
            sid: self.matrix[i].copy() for i, sid in enumerate(self.unpinned)
        }


def sweep_scalar(
    circuit: Circuit,
    positions: dict[str, np.ndarray],
    unpinned: list[str],
    rate_weighted: bool,
    distance_weighted: bool,
) -> float:
    """One simultaneous relaxation sweep, service by service (reference).

    The pre-vectorization per-service Python loop, retained as the
    equivalence/benchmark baseline for :meth:`_CircuitArrays.sweep`
    (``distance_weighted``) and, in its spring modes, as the iterated
    relaxation the Laplacian solve replaced.  All new positions are
    computed from the previous iterate and applied together, mirroring
    the simultaneous matrix sweep.
    """
    max_move = 0.0
    updates: dict[str, np.ndarray] = {}
    for sid in unpinned:
        weights = []
        points = []
        for neighbor, rate in circuit.neighbors(sid):
            weight = rate if rate_weighted else 1.0
            if distance_weighted:
                dist = float(np.linalg.norm(positions[sid] - positions[neighbor]))
                weight = weight / max(dist, 1e-9)
            weights.append(weight)
            points.append(positions[neighbor])
        if not points:
            continue
        weights_arr = np.asarray(weights, dtype=float)
        total = weights_arr.sum()
        if total <= 0:
            continue
        new_pos = (np.asarray(points) * weights_arr[:, None]).sum(axis=0) / total
        max_move = max(max_move, float(np.linalg.norm(new_pos - positions[sid])))
        updates[sid] = new_pos
    positions.update(updates)
    return max_move


def _link_geometry(
    circuit: Circuit, positions: dict[str, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """(rates, distances) over circuit links, one vectorized pass."""
    links = circuit.links
    if not links:
        return np.zeros(0), np.zeros(0)
    rates = np.fromiter((l.rate for l in links), dtype=float, count=len(links))
    source = np.array([positions[l.source] for l in links], dtype=float)
    target = np.array([positions[l.target] for l in links], dtype=float)
    diff = source - target
    return rates, np.sqrt(np.einsum("ld,ld->l", diff, diff))


def placement_energy(circuit: Circuit, positions: dict[str, np.ndarray]) -> float:
    """Spring energy Σ rate × dist² over circuit links (relaxation objective)."""
    rates, dist = _link_geometry(circuit, positions)
    return float(np.dot(rates, dist * dist))


def placement_utilization(circuit: Circuit, positions: dict[str, np.ndarray]) -> float:
    """Network utilization Σ rate × dist over circuit links (true objective)."""
    rates, dist = _link_geometry(circuit, positions)
    return float(np.dot(rates, dist))


def placement_energy_scalar(circuit: Circuit, positions: dict[str, np.ndarray]) -> float:
    """Per-link Python-loop spring energy (reference implementation)."""
    total = 0.0
    for link in circuit.links:
        d = float(np.linalg.norm(positions[link.source] - positions[link.target]))
        total += link.rate * d * d
    return total


def placement_utilization_scalar(
    circuit: Circuit, positions: dict[str, np.ndarray]
) -> float:
    """Per-link Python-loop network utilization (reference implementation)."""
    total = 0.0
    for link in circuit.links:
        d = float(np.linalg.norm(positions[link.source] - positions[link.target]))
        total += link.rate * d
    return total


def _spring_equilibrium(
    circuit: Circuit,
    pinned_positions: dict[str, np.ndarray],
    unit_springs: bool,
) -> VirtualPlacement:
    """The spring equilibrium, solved: one Laplacian solve per dimension.

    The spring energy Σ k·dist² (``k`` the link rate, or 1 with
    ``unit_springs``) is a convex quadratic, so its minimum satisfies,
    per unpinned service *i* and per dimension::

        (Σ_j k_ij) x_i - Σ_{j unpinned} k_ij x_j = Σ_{j pinned} k_ij p_j

    which is a (symmetric, diagonally dominant) linear system — the
    graph Laplacian restricted to unpinned services, assembled in one
    pass over the links.  Large circuits solve it with ``scipy.sparse``
    (the Laplacian has one entry per link, not O(n²)); small systems use
    a dense ``np.linalg.solve``.

    A service that no positive spring ties, through any path, to a
    pinned service has no unique minimum: its rows are singular.  It
    sits at the pinned centroid — where the iteration starts and where
    it leaves such a service — and only the anchored services, found by
    a search from those with a spring straight to a pinned service,
    enter the solve.
    """
    positions, unpinned = _pinned_and_unpinned(circuit, pinned_positions)
    if not unpinned:
        return VirtualPlacement({}, 0, True, placement_energy(circuit, positions))
    index = {sid: rank for rank, sid in enumerate(unpinned)}
    n = len(unpinned)
    dims = next(iter(positions.values())).shape[0] if positions else 2

    # COO assembly straight from the link list: one diagonal + one
    # off-diagonal (or right-hand-side) contribution per link endpoint.
    diag = np.zeros(n)
    rhs = np.zeros((n, dims))
    off_rows: list[int] = []
    off_cols: list[int] = []
    off_vals: list[float] = []
    springs: list[list[int]] = [[] for _ in unpinned]
    anchored = [False] * n
    for link in circuit.links:
        k = 1.0 if unit_springs else link.rate
        if k <= 0.0:
            continue
        source, target = index.get(link.source), index.get(link.target)
        for i, j, other in ((source, target, link.target), (target, source, link.source)):
            if i is None:
                continue
            diag[i] += k
            if j is None:
                rhs[i] += k * positions[other]
                anchored[i] = True
            else:
                off_rows.append(i)
                off_cols.append(j)
                off_vals.append(-k)
                springs[i].append(j)
    frontier = [i for i in range(n) if anchored[i]]
    while frontier:
        for j in springs[frontier.pop()]:
            if not anchored[j]:
                anchored[j] = True
                frontier.append(j)

    sparse = n >= SPARSE_SOLVER_THRESHOLD
    if sparse:
        from scipy.sparse import csr_matrix
        from scipy.sparse.linalg import factorized

        rows = np.concatenate([np.arange(n), np.asarray(off_rows, dtype=int)])
        cols = np.concatenate([np.arange(n), np.asarray(off_cols, dtype=int)])
        vals = np.concatenate([diag, np.asarray(off_vals, dtype=float)])
        laplacian = csr_matrix((vals, (rows, cols)), shape=(n, n))
    else:
        laplacian = np.diag(diag)
        np.add.at(laplacian, (off_rows, off_cols), off_vals)

    solution = np.empty((n, dims))
    keep = [i for i in range(n) if anchored[i]]
    if len(keep) < n:
        solution[:] = np.mean([positions[sid] for sid in circuit.pinned_ids()], axis=0)
        laplacian = laplacian[keep][:, keep]
        rhs = rhs[keep]
    if keep and sparse:
        solve = factorized(laplacian.tocsc())
        solution[keep] = np.column_stack([solve(rhs[:, k]) for k in range(dims)])
    elif keep:
        solution[keep] = np.linalg.solve(laplacian, rhs)

    placed = {sid: solution[rank] for rank, sid in enumerate(unpinned)}
    positions.update(placed)
    return VirtualPlacement(
        positions=placed,
        iterations=0,
        converged=True,
        objective=placement_energy(circuit, positions),
    )


def relaxation_placement(
    circuit: Circuit,
    pinned_positions: dict[str, np.ndarray],
    max_iterations: int = 400,
    tolerance: float = 1e-4,
) -> VirtualPlacement:
    """Spring relaxation: services settle at rate-weighted neighbor centroids.

    That fixed point is the global minimum of the spring energy
    Σ rate·dist² (the energy is strictly convex), solved directly by
    :func:`_spring_equilibrium`.  ``max_iterations`` and ``tolerance``
    bound nothing: they remain only because callers such as the
    ``bench`` harness still pass them.
    """
    return _spring_equilibrium(circuit, pinned_positions, unit_springs=False)


def centroid_placement(
    circuit: Circuit, pinned_positions: dict[str, np.ndarray]
) -> VirtualPlacement:
    """Unweighted centroid placement (rate-oblivious baseline): unit springs."""
    return _spring_equilibrium(circuit, pinned_positions, unit_springs=True)


def gradient_descent_placement(
    circuit: Circuit,
    pinned_positions: dict[str, np.ndarray],
    max_iterations: int = 1000,
    tolerance: float = 1e-5,
) -> VirtualPlacement:
    """Weiszfeld-style descent on the true utilization Σ rate·dist.

    Each unpinned service iterates toward the rate/distance-weighted
    centroid of its neighbors — the update of the classic Weiszfeld
    algorithm for the (weighted) geometric median, generalized to the
    circuit graph.  The descent starts with every unpinned service at
    the pinned centroid.
    """
    positions, unpinned = _pinned_and_unpinned(circuit, pinned_positions)
    if not unpinned:
        return VirtualPlacement({}, 0, True, placement_utilization(circuit, positions))
    arrays = _CircuitArrays(circuit, positions, unpinned)
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        if arrays.sweep() < tolerance:
            converged = True
            break
    placed = arrays.unpinned_positions()
    positions.update(placed)
    return VirtualPlacement(
        positions=placed,
        iterations=iterations,
        converged=converged,
        objective=placement_utilization(circuit, positions),
    )
