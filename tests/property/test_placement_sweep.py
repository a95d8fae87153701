"""The flattened Weiszfeld sweep against the per-dimension sweep it replaced,
and the spring placements against the Jacobi loop they replaced.

:meth:`_CircuitArrays.sweep` gathers every neighbour coordinate of the
flat position matrix with one ``take``, weights the entries with one
multiply and sums them with one ``bincount`` over ``seg·d + k``.
``ReferenceArrays`` below is the class it replaced, kept here verbatim
as the reference: it sums one dimension at a time, a ``bincount`` per
column.  Each accumulator cell adds the same products in the same
(incidence) order either way, so Weiszfeld runs must agree bit for bit —
positions by ``np.array_equal``, ``iterations``, ``converged`` and the
objective by ``==`` — including an isolated service (the movable mask),
zero-rate links and 1- to 3-dimensional vectors.

``ReferenceArrays`` also keeps the spring sweeps (rate-weighted and
unit), and :func:`reference_run` is the Jacobi loop that relaxation and
centroid placement ran before they became one Laplacian solve.  Run to
a tolerance of 1e-12, that loop's fixed point is the solve's answer to
within 1e-6 of the pinned spread; a service no positive spring ties to
a pinned one stays, in both, exactly at the pinned centroid.
``sweep_scalar`` stays the 1e-9 oracle in
``test_vectorized_equivalence.py``.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import virtual_placement as vp
from repro.core.circuit import Circuit, Service
from repro.query.operators import ServiceSpec

# -- the reference ------------------------------------------------------------


class ReferenceArrays:
    """CSR-style neighbor index over a dense position matrix (the replaced sweep).

    Rows ``0..num_unpinned-1`` of :attr:`matrix` are the unpinned
    services (in ``circuit.unpinned_ids()`` order, initialized to the
    pinned centroid); the remaining rows are the pinned services.  The
    flat arrays enumerate every (unpinned service, neighbor) incidence
    in circuit-link order, exactly as ``circuit.neighbors`` would:

    * ``seg[e]`` — unpinned row the entry belongs to,
    * ``nbr[e]`` — matrix row of the neighbor,
    * ``rates[e]`` — the connecting link's rate.
    """

    def __init__(self, circuit: Circuit, positions: dict[str, np.ndarray], unpinned: list[str]):
        self.unpinned = unpinned
        row_of = {sid: i for i, sid in enumerate(unpinned)}
        pinned = [sid for sid in circuit.services if sid not in row_of]
        for offset, sid in enumerate(pinned):
            row_of[sid] = len(unpinned) + offset

        dims = next(iter(positions.values())).shape[0] if positions else 2
        pinned_matrix = np.array([positions[sid] for sid in circuit.pinned_ids()])
        center = pinned_matrix.mean(axis=0)
        self.matrix = np.empty((len(circuit.services), dims), dtype=float)
        self.matrix[: len(unpinned)] = center
        for sid in pinned:
            self.matrix[row_of[sid]] = positions[sid]

        # Per-service incidence lists in link order (the order
        # ``circuit.neighbors`` yields), then flattened.
        per_service: list[list[tuple[int, float]]] = [[] for _ in unpinned]
        for link in circuit.links:
            if link.source in row_of and row_of[link.source] < len(unpinned):
                per_service[row_of[link.source]].append((row_of[link.target], link.rate))
            if link.target in row_of and row_of[link.target] < len(unpinned):
                per_service[row_of[link.target]].append((row_of[link.source], link.rate))
        seg: list[int] = []
        nbr: list[int] = []
        rates: list[float] = []
        for i, entries in enumerate(per_service):
            for neighbor_row, rate in entries:
                seg.append(i)
                nbr.append(neighbor_row)
                rates.append(rate)
        self.seg = np.asarray(seg, dtype=int)
        self.nbr = np.asarray(nbr, dtype=int)
        self.rates = np.asarray(rates, dtype=float)
        #: ``rate_weighted`` -> the sweep's position-independent arrays.
        self._fixed: dict[bool, tuple[np.ndarray, np.ndarray, np.ndarray | None]] = {}
        self._acc = np.empty((len(unpinned), dims))

    def _segment_sums(
        self, weights: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """``(weight column, per-service totals column, movable mask)``.

        The mask is None when every service has positive total weight
        (the usual case), so the sweep can divide without masking.
        """
        totals = np.bincount(self.seg, weights=weights, minlength=len(self.unpinned))
        movable = totals > 0
        return weights[:, None], totals[:, None], None if movable.all() else movable

    def sweep(self, rate_weighted: bool, distance_weighted: bool) -> float:
        """One simultaneous sweep over all unpinned services, in-place.

        Returns the largest movement distance.  All segment sums are
        single vectorized passes over the flat incidence arrays.  Without
        distance weighting the weights — and so their totals and the
        movable mask — do not change between sweeps: they are computed on
        the first sweep and kept.  The Weiszfeld weights depend on the
        current positions and are recomputed every sweep.
        """
        num_unpinned = len(self.unpinned)
        if self.seg.size == 0 or num_unpinned == 0:
            return 0.0
        neighbor_pos = self.matrix[self.nbr]
        fixed = None if distance_weighted else self._fixed.get(rate_weighted)
        if fixed is None:
            weights = self.rates if rate_weighted else np.ones_like(self.rates)
            if distance_weighted:
                diff = self.matrix[self.seg] - neighbor_pos
                dist = np.sqrt(np.einsum("ed,ed->e", diff, diff))
                weights = weights / np.maximum(dist, 1e-9)
            fixed = self._segment_sums(weights)
            if not distance_weighted:
                self._fixed[rate_weighted] = fixed
        column, totals, movable = fixed
        weighted = column * neighbor_pos
        acc = self._acc
        for k in range(acc.shape[1]):
            acc[:, k] = np.bincount(self.seg, weights=weighted[:, k], minlength=num_unpinned)
        old = self.matrix[:num_unpinned]
        if movable is None:
            new = acc / totals
        else:
            new = old.copy()
            new[movable] = acc[movable] / totals[movable]
        delta = new - old
        old[:] = new
        # sqrt is monotone and correctly rounded: sqrt(max) == max(sqrt).
        return math.sqrt(np.einsum("ud,ud->u", delta, delta).max())

    def unpinned_positions(self) -> dict[str, np.ndarray]:
        return {
            sid: self.matrix[i].copy() for i, sid in enumerate(self.unpinned)
        }


def reference_run(circuit, pinned_positions, rate_weighted, distance_weighted,
                  max_iterations, tolerance, objective_fn):
    """The Jacobi loop over :class:`ReferenceArrays`, from the pinned centroid."""
    positions, unpinned = vp._pinned_and_unpinned(circuit, pinned_positions)
    arrays = ReferenceArrays(circuit, positions, unpinned)
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        if arrays.sweep(rate_weighted, distance_weighted) < tolerance:
            converged = True
            break
    placed = arrays.unpinned_positions()
    positions.update(placed)
    return vp.VirtualPlacement(placed, iterations, converged, objective_fn(circuit, positions))


# -- inputs -------------------------------------------------------------------


@st.composite
def circuits(draw):
    """A random circuit, its pinned positions, and whether one service is isolated."""
    seed = draw(st.integers(min_value=0, max_value=1 << 16))
    dims = draw(st.integers(min_value=1, max_value=3))
    num_pinned = draw(st.integers(min_value=1, max_value=5))
    num_unpinned = draw(st.integers(min_value=1, max_value=16))
    zero_rates = draw(st.booleans())
    isolated = draw(st.booleans())
    rng = np.random.default_rng(seed)
    low = 0.0 if zero_rates else 0.5

    def rate():
        if zero_rates and rng.random() < 0.3:
            return 0.0
        return float(rng.uniform(low, 8.0))

    circuit = Circuit(name="t")
    pinned = {}
    for a in range(num_pinned):
        sid = f"t/p{a}"
        circuit.add_service(
            Service(sid, ServiceSpec.relay(), pinned_node=a, producers=frozenset((f"P{a}",)))
        )
        pinned[sid] = rng.uniform(-50.0, 50.0, size=dims)
    ids = list(circuit.services)
    for i in range(num_unpinned):
        sid = f"t/s{i}"
        circuit.add_service(
            Service(sid, ServiceSpec.join(), pinned_node=None, producers=frozenset((f"S{i}",)))
        )
        circuit.add_link(str(rng.choice(ids)), sid, rate())
        if rng.random() < 0.7:
            circuit.add_link(sid, str(rng.choice(ids)), rate())
        ids.append(sid)
    if isolated:
        circuit.add_service(
            Service("t/alone", ServiceSpec.join(), pinned_node=None, producers=frozenset(("Z",)))
        )
    return circuit, pinned


SPRING_MODES = [(vp.relaxation_placement, True), (vp.centroid_placement, False)]


def pinned_spread(pinned):
    """The pinned positions' bounding-box diagonal, at least 1."""
    return max(1.0, float(np.linalg.norm(np.ptp(np.array(list(pinned.values())), axis=0))))


# -- properties ---------------------------------------------------------------


@given(circuits())
@settings(max_examples=80, deadline=None)
def test_descent_equals_the_per_dimension_sweep_bit_for_bit(case):
    circuit, pinned = case
    got = vp.gradient_descent_placement(circuit, pinned)
    want = reference_run(circuit, pinned, True, True, 1000, 1e-5, vp.placement_utilization)
    assert (got.iterations, got.converged) == (want.iterations, want.converged)
    assert got.objective == want.objective
    assert list(got.positions) == list(want.positions)
    for sid, position in want.positions.items():
        assert np.array_equal(got.positions[sid], position)


@given(circuits())
@settings(max_examples=80, deadline=None)
def test_spring_placements_are_the_jacobi_fixed_point(case):
    """Relaxation and centroid solve what the rate-weighted / unit Jacobi loop converges to."""
    circuit, pinned = case
    bound = 1e-6 * pinned_spread(pinned)
    for placement_fn, rate_weighted in SPRING_MODES:
        got = placement_fn(circuit, pinned)
        want = reference_run(
            circuit, pinned, rate_weighted, False, 1_000_000, 1e-12, vp.placement_energy
        )
        assert want.converged
        assert (got.iterations, got.converged) == (0, True)
        assert list(got.positions) == list(want.positions)
        for sid, position in want.positions.items():
            assert np.linalg.norm(got.positions[sid] - position) <= bound
        if "t/alone" in want.positions:
            assert np.array_equal(got.positions["t/alone"], want.positions["t/alone"])
        assert got.objective == vp.placement_energy(circuit, {**pinned, **got.positions})


@given(circuits())
@settings(max_examples=40, deadline=None)
def test_every_sweep_moves_alike(case):
    """Sweep by sweep: the same largest move and the same matrix."""
    circuit, pinned = case
    positions, unpinned = vp._pinned_and_unpinned(circuit, pinned)
    arrays = vp._CircuitArrays(circuit, dict(positions), unpinned)
    reference = ReferenceArrays(circuit, dict(positions), unpinned)
    for _ in range(12):
        assert arrays.sweep() == reference.sweep(True, True)
        assert np.array_equal(arrays.matrix, reference.matrix)
