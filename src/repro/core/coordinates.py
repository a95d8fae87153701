"""Cost-space coordinates: vector (pairwise) + scalar (per-node) parts.

A point in a cost space (§3.1) has two kinds of components:

* **vector components** — produced by a network-coordinate embedding;
  the *difference* between two nodes' vector components estimates a
  pairwise cost (latency).
* **scalar components** — produced by a weighting function from local
  node state; their *absolute magnitude* is the cost (zero is ideal).

Distance between two full coordinates is Euclidean over all
components.  Distance between a *virtual placement target* (which has
ideal, i.e. zero, scalar components) and a node's full coordinate is
therefore ``sqrt(|Δvector|² + Σ scalar²)`` — this is how "node N1 is
closer in latency but seems far away once load is considered"
(Figure 3) falls out of plain geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CostCoordinate"]


@dataclass(frozen=True)
class CostCoordinate:
    """An immutable point in a cost space.

    Attributes:
        vector: tuple of vector components (latency-embedding coords).
        scalar: tuple of scalar components (weighted node-local costs),
            possibly empty.
    """

    vector: tuple[float, ...]
    scalar: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not self.vector:
            raise ValueError("a coordinate needs at least one vector component")
        for s in self.scalar:
            if s < 0:
                raise ValueError(f"scalar component {s} must be non-negative")

    @classmethod
    def from_arrays(
        cls, vector: np.ndarray | list[float], scalar: np.ndarray | list[float] = ()
    ) -> "CostCoordinate":
        return cls(
            tuple(float(v) for v in vector),
            tuple(float(s) for s in scalar),
        )

    @property
    def vector_dims(self) -> int:
        return len(self.vector)

    @property
    def scalar_dims(self) -> int:
        return len(self.scalar)

    @property
    def dims(self) -> int:
        """Total dimensionality of the coordinate."""
        return self.vector_dims + self.scalar_dims

    def vector_array(self) -> np.ndarray:
        return np.asarray(self.vector, dtype=float)

    def scalar_array(self) -> np.ndarray:
        return np.asarray(self.scalar, dtype=float)

    def full_array(self) -> np.ndarray:
        """Concatenated (vector, scalar) components as one array."""
        return np.asarray(self.vector + self.scalar, dtype=float)

    def distance_to(self, other: "CostCoordinate") -> float:
        """Euclidean distance in the full cost space."""
        self._check_compatible(other)
        return float(np.linalg.norm(self.full_array() - other.full_array()))

    def vector_distance_to(self, other: "CostCoordinate") -> float:
        """Distance in the vector dimensions only (latency estimate).

        This is the distance virtual placement optimizes (§3.2): scalar
        dimensions do not affect *where* a service ideally sits.
        """
        if self.vector_dims != other.vector_dims:
            raise ValueError("coordinates have different vector dimensionality")
        return float(np.linalg.norm(self.vector_array() - other.vector_array()))

    def scalar_penalty(self) -> float:
        """Euclidean magnitude of the scalar part (distance from ideal)."""
        if not self.scalar:
            return 0.0
        return float(np.linalg.norm(self.scalar_array()))

    def _check_compatible(self, other: "CostCoordinate") -> None:
        if (
            self.vector_dims != other.vector_dims
            or self.scalar_dims != other.scalar_dims
        ):
            raise ValueError(
                "coordinates belong to different cost-space shapes: "
                f"({self.vector_dims}+{self.scalar_dims}) vs "
                f"({other.vector_dims}+{other.scalar_dims})"
            )

    def __str__(self) -> str:
        vec = ", ".join(f"{v:.2f}" for v in self.vector)
        if not self.scalar:
            return f"({vec})"
        sca = ", ".join(f"{s:.2f}" for s in self.scalar)
        return f"({vec} | {sca})"
