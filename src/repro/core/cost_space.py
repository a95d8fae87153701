"""The cost space: a metric space over physical nodes (§3.1).

A :class:`CostSpaceSpec` fixes the *semantics* of a space — how many
vector dimensions, which scalar metrics with which weighting functions —
which "must be known by all nodes in the SBON".  A :class:`CostSpace`
is then a concrete snapshot: one coordinate per physical node, built
from a latency embedding (vector part) and current node metrics (scalar
part).

An SBON can run multiple independent cost spaces for different
application classes; in this library that is simply multiple
``CostSpace`` instances over the same node population.

Performance architecture (struct-of-arrays)
-------------------------------------------

The snapshot's source of truth is a single contiguous ``(n, dims)``
float64 matrix (``full_matrix()``); :class:`CostCoordinate` objects are
thin *views* materialized lazily for API compatibility.  Every hot
query — :meth:`nearest_node`, :meth:`nodes_within`, :meth:`distance`,
:meth:`bounding_box` — is a single vectorized expression over that
matrix, and the batched forms :meth:`nearest_nodes` /
:meth:`distances_from` amortize one matrix pass over many targets
(physical mapping, reuse search).  Updates (:meth:`update_metrics`,
:meth:`update_vector`) write the matrix in place and invalidate the
coordinate-view cache.  ``full_matrix()``/``vector_matrix()`` return
read-only views of the live matrix — copy before mutating.

Scalar reference implementations of the queries are retained
(``nearest_node_scalar``, ``nodes_within_scalar``) as the ground truth
for equivalence tests and before/after benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.coordinates import CostCoordinate
from repro.core.weighting import WeightingFunction, squared

__all__ = [
    "ScalarDimension",
    "CostSpaceSpec",
    "CostSpace",
    "nearest_node_scalar",
    "nodes_within_scalar",
]

#: Elements in each of the two scratch buffers of the batched
#: nearest-node scan (512 KB of float64 apiece); targets are scanned in
#: blocks of ``_BLOCK_ELEMENTS // eligible nodes`` rows.
_BLOCK_ELEMENTS = 65_536


@dataclass(frozen=True)
class ScalarDimension:
    """Semantics of one scalar dimension: metric name + weighting."""

    metric: str
    weighting: WeightingFunction

    def describe(self) -> str:
        return f"{self.metric}:{self.weighting.describe()}"


@dataclass(frozen=True)
class CostSpaceSpec:
    """Shared semantics of a cost space (dimensions, units, weightings).

    Attributes:
        vector_dims: number of latency-embedding dimensions.
        scalar_dimensions: ordered scalar dimensions.
        name: identifier of the space (there may be several per SBON).
    """

    vector_dims: int
    scalar_dimensions: tuple[ScalarDimension, ...] = ()
    name: str = "default"

    def __post_init__(self) -> None:
        if self.vector_dims < 1:
            raise ValueError("cost space needs at least one vector dimension")
        metrics = [d.metric for d in self.scalar_dimensions]
        if len(metrics) != len(set(metrics)):
            raise ValueError("duplicate scalar metric names")

    @property
    def dims(self) -> int:
        return self.vector_dims + len(self.scalar_dimensions)

    @classmethod
    def latency_only(cls, vector_dims: int = 2, name: str = "latency") -> "CostSpaceSpec":
        """A pure latency space (the simplest space in §3.1)."""
        return cls(vector_dims=vector_dims, name=name)

    @classmethod
    def latency_load(
        cls,
        vector_dims: int = 2,
        load_weighting: WeightingFunction | None = None,
        name: str = "latency+load",
    ) -> "CostSpaceSpec":
        """Figure 2's space: latency dims plus a squared-CPU-load dim."""
        weighting = load_weighting or squared()
        return cls(
            vector_dims=vector_dims,
            scalar_dimensions=(ScalarDimension("cpu_load", weighting),),
            name=name,
        )

    @classmethod
    def latency_load_memory(
        cls,
        vector_dims: int = 2,
        load_weighting: WeightingFunction | None = None,
        memory_weighting: WeightingFunction | None = None,
        name: str = "latency+load+memory",
    ) -> "CostSpaceSpec":
        """Latency dims plus CPU-load and memory-consumption dims (§3.1).

        Memory consumption is the other scalar cost the paper names;
        the default weighting is squared, like the load dimension.
        """
        return cls(
            vector_dims=vector_dims,
            scalar_dimensions=(
                ScalarDimension("cpu_load", load_weighting or squared()),
                ScalarDimension("memory", memory_weighting or squared()),
            ),
            name=name,
        )


class CostSpace:
    """A snapshot of every node's coordinate in one cost space.

    Build with :meth:`from_embedding`; refresh scalar parts with
    :meth:`update_metrics` as node state changes (the iterative
    recomputation of §3.2).

    State lives in one ``(n, dims)`` float matrix (vector columns first,
    then one column per scalar dimension); ``coordinates`` /
    :meth:`coordinate` expose lazily-built :class:`CostCoordinate`
    views of its rows.
    """

    def __init__(
        self,
        spec: CostSpaceSpec,
        coordinates: list[CostCoordinate] | None = None,
    ):
        self.spec = spec
        coordinates = coordinates or []
        for coord in coordinates:
            self._check_shape(coord)
        matrix = np.empty((len(coordinates), spec.dims), dtype=float)
        for i, coord in enumerate(coordinates):
            matrix[i] = coord.full_array()
        self._matrix = matrix
        self._coord_cache: list[CostCoordinate] | None = (
            list(coordinates) if coordinates else None
        )
        self._penalty_cache: np.ndarray | None = None

    @classmethod
    def _from_matrix(cls, spec: CostSpaceSpec, matrix: np.ndarray) -> "CostSpace":
        """Internal: wrap an already-validated ``(n, dims)`` matrix."""
        space = cls(spec=spec)
        space._matrix = np.ascontiguousarray(matrix, dtype=float)
        space._coord_cache = None
        space._penalty_cache = None
        return space

    def _check_shape(self, coord: CostCoordinate) -> None:
        if coord.vector_dims != self.spec.vector_dims:
            raise ValueError(
                f"coordinate has {coord.vector_dims} vector dims, "
                f"space requires {self.spec.vector_dims}"
            )
        if coord.scalar_dims != len(self.spec.scalar_dimensions):
            raise ValueError(
                f"coordinate has {coord.scalar_dims} scalar dims, "
                f"space requires {len(self.spec.scalar_dimensions)}"
            )

    @classmethod
    def from_embedding(
        cls,
        spec: CostSpaceSpec,
        embedding: np.ndarray,
        metrics: dict[str, np.ndarray | list[float]] | None = None,
    ) -> "CostSpace":
        """Construct coordinates from an embedding plus node metrics.

        Args:
            spec: the space semantics.
            embedding: ``(n, spec.vector_dims)`` latency coordinates.
            metrics: raw metric arrays (length n) keyed by metric name;
                required for every scalar dimension in the spec.
        """
        embedding = np.asarray(embedding, dtype=float)
        if embedding.ndim != 2 or embedding.shape[1] != spec.vector_dims:
            raise ValueError(
                f"embedding must be (n, {spec.vector_dims}), got {embedding.shape}"
            )
        metrics = metrics or {}
        n = embedding.shape[0]
        scalar_columns = cls._weighted_scalars(spec, metrics, n)
        matrix = np.hstack([embedding, scalar_columns.T])
        return cls._from_matrix(spec, matrix)

    @staticmethod
    def _weighted_scalars(
        spec: CostSpaceSpec,
        metrics: dict[str, np.ndarray | list[float]],
        n: int,
    ) -> np.ndarray:
        """Weighted ``(scalar_dims, n)`` columns, one vectorized pass each."""
        columns = np.zeros((len(spec.scalar_dimensions), n))
        for row, dim in enumerate(spec.scalar_dimensions):
            if dim.metric not in metrics:
                raise ValueError(f"missing metric {dim.metric!r} for cost space")
            raw = np.asarray(metrics[dim.metric], dtype=float)
            if raw.shape != (n,):
                raise ValueError(
                    f"metric {dim.metric!r} must have shape ({n},), got {raw.shape}"
                )
            columns[row] = dim.weighting.apply_array(raw)
        return columns

    # -- access ----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self._matrix.shape[0]

    @property
    def coordinates(self) -> list[CostCoordinate]:
        """All coordinates as :class:`CostCoordinate` views (lazy, cached)."""
        if self._coord_cache is None:
            vd = self.spec.vector_dims
            self._coord_cache = [
                CostCoordinate(tuple(row[:vd]), tuple(row[vd:]))
                for row in self._matrix.tolist()
            ]
        return self._coord_cache

    def coordinate(self, node: int) -> CostCoordinate:
        """The full coordinate of a physical node."""
        return self.coordinates[node]

    def vector_matrix(self) -> np.ndarray:
        """``(n, vector_dims)`` read-only view of all vector parts."""
        view = self._matrix[:, : self.spec.vector_dims]
        view.flags.writeable = False
        return view

    def full_matrix(self) -> np.ndarray:
        """``(n, dims)`` read-only view of all full coordinates."""
        view = self._matrix[:]
        view.flags.writeable = False
        return view

    def distance(self, u: int, v: int) -> float:
        """Full cost-space distance between two nodes."""
        return float(np.linalg.norm(self._matrix[u] - self._matrix[v]))

    def vector_distance(self, u: int, v: int) -> float:
        """Latency-estimating distance (vector dims only)."""
        vd = self.spec.vector_dims
        return float(np.linalg.norm(self._matrix[u, :vd] - self._matrix[v, :vd]))

    def vector_distances(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """:meth:`vector_distance` over parallel node-index arrays.

        Each pair is ``sqrt`` of one row dot product — the kernel
        ``np.linalg.norm`` runs on a vector — so every entry equals the
        pair's :meth:`vector_distance` bit for bit.  (A ``diff²`` row
        sum, an ``einsum`` or a row-wise ``norm`` differ in the last bit
        on some pairs.)
        """
        vectors = self._matrix[:, : self.spec.vector_dims]
        diff = vectors[u] - vectors[v]
        return np.sqrt(np.vecdot(diff, diff))

    def scalar_penalty(self, node: int) -> float:
        """Euclidean magnitude of one node's scalar part (0 if none)."""
        return float(np.linalg.norm(self._matrix[node, self.spec.vector_dims:]))

    def scalar_penalties(self) -> np.ndarray:
        """Per-node scalar penalties, cached until the next update.

        The re-optimizer prices thousands of candidate migrations per
        tick against the same snapshot; the cache makes each lookup an
        O(1) fancy-index instead of an O(n) reduction.  Each entry is
        one row dot product, the kernel of :meth:`scalar_penalty`, so
        the two agree bit for bit.
        """
        if self._penalty_cache is None:
            scalars = self._matrix[:, self.spec.vector_dims:]
            self._penalty_cache = np.sqrt(np.vecdot(scalars, scalars))
            self._penalty_cache.flags.writeable = False
        return self._penalty_cache

    # -- updates ---------------------------------------------------------

    def update_metrics(self, metrics: dict[str, np.ndarray | list[float]]) -> None:
        """Recompute all scalar components from fresh metric values."""
        n = self.num_nodes
        columns = self._weighted_scalars(self.spec, metrics, n)
        self._matrix[:, self.spec.vector_dims:] = columns.T
        self._coord_cache = None
        self._penalty_cache = None

    def update_vector(self, node: int, vector: np.ndarray | list[float]) -> None:
        """Replace one node's vector part (embedding refinement)."""
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (self.spec.vector_dims,):
            raise ValueError(
                f"coordinate has {vector.shape[0] if vector.ndim == 1 else '?'} "
                f"vector dims, space requires {self.spec.vector_dims}"
            )
        self._matrix[node, : self.spec.vector_dims] = vector
        self._coord_cache = None
        self._penalty_cache = None

    def update_vectors(self, embedding: np.ndarray) -> None:
        """Replace every node's vector part in one batched write."""
        embedding = np.asarray(embedding, dtype=float)
        if embedding.shape != (self.num_nodes, self.spec.vector_dims):
            raise ValueError(
                f"embedding must be ({self.num_nodes}, {self.spec.vector_dims}), "
                f"got {embedding.shape}"
            )
        self._matrix[:, : self.spec.vector_dims] = embedding
        self._coord_cache = None
        self._penalty_cache = None

    # -- queries ---------------------------------------------------------

    def _target_array(self, target: CostCoordinate | np.ndarray) -> np.ndarray:
        if isinstance(target, CostCoordinate):
            self._check_shape(target)
            target = target.full_array()
        else:
            target = np.asarray(target, dtype=float)
            if target.shape != (self.spec.dims,):
                raise ValueError(
                    f"target must have {self.spec.dims} dims, got {target.shape}"
                )
        if not np.isfinite(target).all():
            raise ValueError("targets must be finite")
        return target

    def distances_from(self, target: CostCoordinate | np.ndarray) -> np.ndarray:
        """Full-space distance from ``target`` to every node, in one pass.

        Accepts a :class:`CostCoordinate` or a raw ``(dims,)`` array.
        This is the batched primitive behind physical mapping, the
        multi-query reuse search, and placement refinement.
        """
        t = self._target_array(target)
        diff = self._matrix - t
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))

    def nearest_node(
        self,
        target: CostCoordinate,
        exclude: set[int] | None = None,
    ) -> int:
        """Exhaustive nearest physical node to a target coordinate.

        The reference ("oracle") physical mapping; the decentralized
        catalog approximates this.  One vectorized matrix pass.
        """
        dists = self.distances_from(target)
        if exclude:
            for node in exclude:
                if 0 <= node < dists.shape[0]:
                    dists[node] = np.inf
        if dists.shape[0] == 0 or not np.isfinite(dists.min(initial=np.inf)):
            raise ValueError("no eligible node")
        return int(np.argmin(dists))

    def nearest_nodes(
        self,
        targets: np.ndarray | list[CostCoordinate],
        exclude: set[int] | None = None,
    ) -> np.ndarray:
        """Nearest node for each of ``m`` targets in one batched pass.

        Exact: a full scan of squared distances over the eligible
        nodes, ties going to the lowest node index.  Scratch memory is
        two buffers of at most ``_BLOCK_ELEMENTS`` floats, whatever
        ``m``.

        Args:
            targets: ``(m, dims)`` array or list of coordinates.

        Returns:
            ``(m,)`` int array of node indices.

        Raises:
            ValueError: a target is not finite, or no node is eligible
                (all excluded, or a NaN distance).
        """
        if len(targets) == 0:
            return np.zeros(0, dtype=int)
        if isinstance(targets, np.ndarray):
            t = np.asarray(targets, dtype=float)
            if t.ndim != 2 or t.shape[1] != self.spec.dims:
                raise ValueError(
                    f"targets must be (m, {self.spec.dims}), got {t.shape}"
                )
            if not np.isfinite(t).all():
                raise ValueError("targets must be finite")
        else:
            t = np.empty((len(targets), self.spec.dims), dtype=float)
            for i, coord in enumerate(targets):
                t[i] = self._target_array(coord)
        # Exact scan over the eligible nodes' columns, gathered once so
        # an excluded node never enters the arithmetic.  ``rows`` is
        # ascending, so argmin's first minimum is still the lowest node
        # index on ties.
        if exclude:
            keep = np.ones(self.num_nodes, dtype=bool)
            keep[[node for node in exclude if 0 <= node < self.num_nodes]] = False
            rows = np.flatnonzero(keep)
            cols = self._matrix.T.take(rows, axis=1)
        else:
            rows = None
            cols = self._matrix.T.copy()
        eligible = cols.shape[1]
        if eligible == 0:
            raise ValueError("no eligible node")
        # Squared distances, accumulated dimension by dimension from
        # direct differences (no expanded cross-term form, so no
        # cancellation), in blocks of target rows through two reused
        # buffers that stay in cache.  argmin returns the first NaN of a
        # row, so checking the chosen entry alone catches NaN and
        # all-inf rows.
        m = t.shape[0]
        block = max(1, _BLOCK_ELEMENTS // eligible)
        acc = np.empty((min(block, m), eligible))
        part = np.empty_like(acc)
        result = np.empty(m, dtype=int)
        for start in range(0, m, block):
            chunk = t[start:start + block]
            r = chunk.shape[0]
            d2, sq = acc[:r], part[:r]
            np.subtract.outer(chunk[:, 0], cols[0], out=d2)
            np.multiply(d2, d2, out=d2)
            for k in range(1, cols.shape[0]):
                np.subtract.outer(chunk[:, k], cols[k], out=sq)
                np.multiply(sq, sq, out=sq)
                np.add(d2, sq, out=d2)
            best = d2.argmin(axis=1)
            if not np.isfinite(d2[np.arange(r), best]).all():
                raise ValueError("no eligible node")
            result[start:start + r] = best
        return result if rows is None else rows[result]

    def nodes_within(
        self,
        target: CostCoordinate,
        radius: float,
        exclude: set[int] | None = None,
    ) -> list[int]:
        """All nodes within ``radius`` of ``target`` in the full space."""
        if not radius >= 0:
            raise ValueError("radius must be non-negative, not NaN")
        dists = self.distances_from(target)
        inside = np.flatnonzero(dists <= radius)
        if exclude:
            return [int(node) for node in inside if int(node) not in exclude]
        return [int(node) for node in inside]

    def bounding_box(self, margin: float = 0.05) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """(lows, highs) of all full coordinates, padded by ``margin``.

        Used to configure the Hilbert mapper of the catalog backend.
        """
        lows = self._matrix.min(axis=0)
        highs = self._matrix.max(axis=0)
        span = np.maximum(highs - lows, 1e-9)
        lows = lows - margin * span
        highs = highs + margin * span
        return (
            tuple(float(v) for v in lows),
            tuple(float(v) for v in highs),
        )


# -- scalar reference implementations ------------------------------------
#
# The pre-vectorization query paths, retained verbatim as the ground
# truth for equivalence tests and the before/after benchmark tables.


def nearest_node_scalar(
    space: CostSpace,
    target: CostCoordinate,
    exclude: set[int] | None = None,
) -> int:
    """Per-node Python-loop nearest node (reference implementation)."""
    space._target_array(target)
    exclude = exclude or set()
    best_node = -1
    best_dist = float("inf")
    for node, coord in enumerate(space.coordinates):
        if node in exclude:
            continue
        d = target.distance_to(coord)
        if d < best_dist:
            best_dist = d
            best_node = node
    if best_node < 0:
        raise ValueError("no eligible node")
    return best_node


def nodes_within_scalar(
    space: CostSpace,
    target: CostCoordinate,
    radius: float,
    exclude: set[int] | None = None,
) -> list[int]:
    """Per-node Python-loop radius query (reference implementation)."""
    space._target_array(target)
    if not radius >= 0:
        raise ValueError("radius must be non-negative, not NaN")
    exclude = exclude or set()
    return [
        node
        for node, coord in enumerate(space.coordinates)
        if node not in exclude and target.distance_to(coord) <= radius
    ]
