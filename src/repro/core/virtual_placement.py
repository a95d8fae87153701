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
  utilization Σ rate·dist), found by iterative relaxation: each
  unpinned service repeatedly moves to the rate-weighted centroid
  of its neighbors.
* **Centroid placement** — unweighted centroid of neighbors, iterated.
* **Gradient descent placement** [Bonfils & Bonnet] — minimizes the
  *true* utilization objective Σ rate·dist with Weiszfeld-style
  iterations (each service moves to the rate/distance-weighted centroid
  of its neighbors).

All three return a :class:`VirtualPlacement` mapping each unpinned
service id to a vector coordinate, plus convergence diagnostics.

Performance architecture (struct-of-arrays)
-------------------------------------------

The circuit's link structure is compiled once per placement into a
CSR-style neighbor index (:class:`_CircuitArrays`: flat segment /
neighbor / rate arrays over a dense position matrix whose first rows
are the unpinned services).  Each sweep then updates *every* unpinned
service simultaneously from the previous iterate with segment-sum
matrix operations — no per-service or per-dimension Python loop: one
``take`` of the neighbour coordinates from the flat matrix, one multiply
and one ``bincount`` over the flat ``(service, dimension)`` cells.  What
does not depend on the positions (the per-entry weights, their
per-service totals, the mask of services that can move) is computed on
the first sweep and kept for the rest of the solve; only the Weiszfeld
weights, which divide by the current link lengths, are recomputed per
sweep.  Simultaneous (Jacobi)
sweeps converge to the same unique equilibrium as the earlier in-place
(Gauss–Seidel) sweeps because the spring energy is strictly convex,
but propagate information about half as fast per sweep; the default
iteration budgets are doubled to compensate (a sweep is ~2 orders of
magnitude cheaper, so the net speedup stands).

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
    "exact_spring_equilibrium",
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
        iterations: relaxation sweeps performed.
        converged: True if movement fell below tolerance before the
            iteration cap.
        objective: final value of the algorithm's objective function.
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
        #: ``rate_weighted`` -> the sweep's position-independent arrays.
        self._fixed: dict[bool, tuple[np.ndarray, np.ndarray, np.ndarray | None]] = {}

    def _segment_sums(
        self, weights: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """``(per-entry weights, per-cell totals, movable cells)``.

        Every array is flat and repeats its per-incidence or per-service
        value once per dimension, aligned with the flat entries and the
        flat accumulator.  The mask is None when every service has
        positive total weight (the usual case), so the sweep can divide
        without masking.
        """
        dims = self.matrix.shape[1]
        totals = np.bincount(self.seg, weights=weights, minlength=len(self.unpinned))
        movable = totals > 0
        return (
            np.repeat(weights, dims),
            np.repeat(totals, dims),
            None if movable.all() else np.repeat(movable, dims),
        )

    def sweep(self, rate_weighted: bool, distance_weighted: bool) -> float:
        """One simultaneous sweep over all unpinned services, in-place.

        Returns the largest movement distance.  The sweep works on the
        flat matrix: one ``take`` of every neighbour coordinate into a
        buffer the arrays own, one multiply by the per-entry weights and
        one ``bincount`` over the flat ``seg·d + k`` cells, then an
        in-place divide and subtract.  Each cell sums its entries in
        incidence order, as a per-dimension segment sum would.  Without
        distance weighting the weights — and so their totals and the
        movable mask — do not change between sweeps: they are computed on
        the first sweep and kept.  The Weiszfeld weights depend on the
        current positions and are recomputed every sweep.
        """
        num_unpinned = len(self.unpinned)
        if self.seg.size == 0 or num_unpinned == 0:
            return 0.0
        entries = self._entries
        self._flat.take(self._gather, out=entries)
        fixed = None if distance_weighted else self._fixed.get(rate_weighted)
        if fixed is None:
            weights = self.rates if rate_weighted else np.ones_like(self.rates)
            if distance_weighted:
                diff = self.matrix[self.seg] - entries.reshape(self.nbr.size, -1)
                dist = np.sqrt(np.einsum("ed,ed->e", diff, diff))
                weights = weights / np.maximum(dist, 1e-9)
            fixed = self._segment_sums(weights)
            if not distance_weighted:
                self._fixed[rate_weighted] = fixed
        repeated, totals, movable = fixed
        entries *= repeated
        new = np.bincount(self._bins, weights=entries, minlength=totals.size)
        old = self._flat[: totals.size]
        if movable is None:
            new /= totals
        else:
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
    equivalence/benchmark baseline for :meth:`_CircuitArrays.sweep`.
    All new positions are computed from the previous iterate and
    applied together, mirroring the simultaneous matrix sweep.
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


def _iterate(
    circuit: Circuit,
    pinned_positions: dict[str, np.ndarray],
    rate_weighted: bool,
    distance_weighted: bool,
    max_iterations: int,
    tolerance: float,
    objective_fn,
) -> VirtualPlacement:
    positions, unpinned = _pinned_and_unpinned(circuit, pinned_positions)
    if not unpinned:
        return VirtualPlacement({}, 0, True, objective_fn(circuit, positions))
    arrays = _CircuitArrays(circuit, positions, unpinned)

    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        move = arrays.sweep(rate_weighted, distance_weighted)
        if move < tolerance:
            converged = True
            break
    placed = arrays.unpinned_positions()
    positions.update(placed)
    return VirtualPlacement(
        positions=placed,
        iterations=iterations,
        converged=converged,
        objective=objective_fn(circuit, positions),
    )


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


def relaxation_placement(
    circuit: Circuit,
    pinned_positions: dict[str, np.ndarray],
    max_iterations: int = 400,
    tolerance: float = 1e-4,
) -> VirtualPlacement:
    """Spring relaxation: services settle at rate-weighted neighbor centroids.

    The fixed point is the global minimum of the spring energy
    Σ rate·dist² (the energy is convex), so iteration order does not
    change the answer, only the convergence speed.  The default
    iteration budget assumes simultaneous sweeps (see module
    docstring); deep chain circuits may need more.
    """
    return _iterate(
        circuit,
        pinned_positions,
        rate_weighted=True,
        distance_weighted=False,
        max_iterations=max_iterations,
        tolerance=tolerance,
        objective_fn=placement_energy,
    )


def centroid_placement(
    circuit: Circuit,
    pinned_positions: dict[str, np.ndarray],
    max_iterations: int = 400,
    tolerance: float = 1e-4,
) -> VirtualPlacement:
    """Unweighted centroid placement (rate-oblivious baseline)."""
    return _iterate(
        circuit,
        pinned_positions,
        rate_weighted=False,
        distance_weighted=False,
        max_iterations=max_iterations,
        tolerance=tolerance,
        objective_fn=placement_energy,
    )


def exact_spring_equilibrium(
    circuit: Circuit,
    pinned_positions: dict[str, np.ndarray],
) -> VirtualPlacement:
    """Closed-form spring equilibrium via a linear solve.

    The spring energy Σ rate·dist² is a convex quadratic, so its
    minimum satisfies, per unpinned service *i* and per dimension::

        (Σ_j k_ij) x_i - Σ_{j unpinned} k_ij x_j = Σ_{j pinned} k_ij p_j

    which is a (symmetric, diagonally dominant) linear system — the
    graph Laplacian restricted to unpinned services.  Large circuits
    solve it with ``scipy.sparse`` (the Laplacian has one entry per
    link, not O(n²)); small systems use a dense ``np.linalg.solve``.
    This is the ground truth the iterative :func:`relaxation_placement`
    converges to; tests verify their agreement, and it is useful when
    exactness matters more than decentralizability.
    """
    positions, unpinned = _pinned_and_unpinned(circuit, pinned_positions)
    if not unpinned:
        return VirtualPlacement({}, 0, True, placement_energy(circuit, positions))
    index = {sid: rank for rank, sid in enumerate(unpinned)}
    n = len(unpinned)
    dims = next(iter(positions.values())).shape[0]

    # COO assembly straight from the link list: one diagonal + one
    # off-diagonal (or right-hand-side) contribution per link endpoint.
    diag = np.zeros(n)
    rhs = np.zeros((n, dims))
    off_rows: list[int] = []
    off_cols: list[int] = []
    off_vals: list[float] = []
    for link in circuit.links:
        for sid, other in ((link.source, link.target), (link.target, link.source)):
            i = index.get(sid)
            if i is None:
                continue
            diag[i] += link.rate
            j = index.get(other)
            if j is not None:
                off_rows.append(i)
                off_cols.append(j)
                off_vals.append(-link.rate)
            else:
                rhs[i] += link.rate * positions[other]

    # Isolated services (no links) keep a zero row; pin them to the
    # pinned centroid to keep the system solvable.
    isolated = diag == 0
    if np.any(isolated):
        center = np.mean(
            [positions[sid] for sid in circuit.pinned_ids()], axis=0
        )
        diag[isolated] = 1.0
        rhs[isolated] = center

    if n >= SPARSE_SOLVER_THRESHOLD:
        from scipy.sparse import csr_matrix
        from scipy.sparse.linalg import factorized

        rows = np.concatenate([np.arange(n), np.asarray(off_rows, dtype=int)])
        cols = np.concatenate([np.arange(n), np.asarray(off_cols, dtype=int)])
        vals = np.concatenate([diag, np.asarray(off_vals, dtype=float)])
        laplacian = csr_matrix((vals, (rows, cols)), shape=(n, n))
        solve = factorized(laplacian.tocsc())
        solution = np.column_stack([solve(rhs[:, k]) for k in range(dims)])
    else:
        laplacian = np.zeros((n, n))
        laplacian[np.arange(n), np.arange(n)] = diag
        np.add.at(laplacian, (off_rows, off_cols), off_vals)
        solution = np.linalg.solve(laplacian, rhs)

    placed = {sid: solution[index[sid]] for sid in unpinned}
    positions.update(placed)
    return VirtualPlacement(
        positions=placed,
        iterations=0,
        converged=True,
        objective=placement_energy(circuit, positions),
    )


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
    circuit graph.
    """
    return _iterate(
        circuit,
        pinned_positions,
        rate_weighted=True,
        distance_weighted=True,
        max_iterations=max_iterations,
        tolerance=tolerance,
        objective_fn=placement_utilization,
    )
