"""Vivaldi decentralized network coordinates.

The paper's latency cost-space dimensions are produced by a network
coordinate system such as Vivaldi [Dabek et al., SIGCOMM'04]: every node
maintains a synthetic coordinate such that Euclidean distance between
coordinates predicts round-trip latency.  Coordinates are refined by a
distributed spring-relaxation process driven only by pairwise latency
samples, so the system needs no central infrastructure — the property
that makes cost spaces deployable in a wide-area SBON.

This implementation follows the adaptive-timestep Vivaldi algorithm with
confidence weights (the ``c_c``/``c_e`` constants of the paper) and
supports an optional *height* component modelling access-link delay.

Performance architecture (struct-of-arrays)
-------------------------------------------

Node state lives only in :class:`VivaldiSystem`'s ``positions``,
``heights`` and ``errors`` arrays.  :meth:`VivaldiSystem.run` applies a
whole round of samples with array math: per probe slot, every node
draws a random neighbor from one ``np.random.Generator`` call and all n
spring updates execute as a handful of (n, d) matrix expressions
against the slot-start snapshot.  Consecutive calls continue one gossip
schedule: ``run(5, k)`` then ``run(7, k)`` equals ``run(12, k)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.network.latency import LatencyMatrix

__all__ = [
    "VivaldiConfig",
    "VivaldiSystem",
    "EmbeddingResult",
    "embed_latency_matrix",
]


@dataclass(frozen=True)
class VivaldiConfig:
    """Tuning constants of the Vivaldi algorithm.

    Attributes:
        dimensions: number of Euclidean coordinate dimensions.
        cc: adaptive timestep gain (fraction of the sampled error moved).
        ce: weight of the moving-average local error update.
        use_height: include a non-Euclidean height term (access latency).
        initial_error: starting local error estimate for new nodes.
    """

    dimensions: int = 2
    cc: float = 0.25
    ce: float = 0.25
    use_height: bool = False
    initial_error: float = 1.0

    def __post_init__(self) -> None:
        if self.dimensions < 1:
            raise ValueError("dimensions must be >= 1")
        if not 0 < self.cc <= 1 or not 0 < self.ce <= 1:
            raise ValueError("cc and ce must be in (0, 1]")


@dataclass
class EmbeddingResult:
    """Outcome of embedding a latency matrix into coordinates.

    Attributes:
        coordinates: ``(n, d)`` array of node coordinates.
        median_relative_error: median of ``|pred - actual| / actual``
            over all node pairs.
        mean_relative_error: mean of the same ratio.
        samples_used: number of pairwise latency samples consumed.
    """

    coordinates: np.ndarray
    median_relative_error: float
    mean_relative_error: float
    samples_used: int

    @property
    def dimensions(self) -> int:
        return self.coordinates.shape[1]


class VivaldiSystem:
    """Simulates a population of Vivaldi nodes refining coordinates.

    Each round, every node samples a few random neighbors from the
    ground-truth latency matrix and applies the spring update, mimicking
    the gossip-style measurement exchange of a deployed system.
    """

    def __init__(
        self,
        latencies: LatencyMatrix,
        config: VivaldiConfig | None = None,
        seed: int = 0,
    ):
        self.latencies = latencies
        self.config = config or VivaldiConfig()
        # Start near the origin with a tiny random offset, drawn node by
        # node, so that two coincident nodes have a well-defined
        # repulsion direction.
        rng = random.Random(seed)
        n, d = latencies.num_nodes, self.config.dimensions
        self.positions = np.array(
            [[rng.uniform(-0.1, 0.1) for _ in range(d)] for _ in range(n)], dtype=float
        ).reshape(n, d)
        self.heights = np.zeros(n)
        self.errors = np.full(n, float(self.config.initial_error))
        self._np_rng = np.random.default_rng(seed)
        self.samples_used = 0

    def run(self, rounds: int = 50, neighbors_per_round: int = 8) -> None:
        """Run ``rounds`` of gossip; each node probes random neighbors.

        The whole round is applied with array math: per probe slot,
        every node's neighbor draw, error update, and spring step
        execute as batched (n, d) expressions against the slot-start
        snapshot (a synchronous variant of the per-sample update;
        Vivaldi is robust to sample ordering by design).
        """
        if rounds < 0 or neighbors_per_round < 1:
            raise ValueError("rounds must be >= 0 and neighbors_per_round >= 1")
        n = self.latencies.num_nodes
        if n < 2:
            return
        config = self.config
        rng = self._np_rng
        positions, errors, heights = self.positions, self.errors, self.heights
        latency_matrix = self.latencies.values
        rows = np.arange(n)

        for _ in range(rounds * neighbors_per_round):
            # Each node draws one neighbor j != i.
            j = rng.integers(0, n - 1, size=n)
            j += j >= rows
            measured = latency_matrix[rows, j]

            direction = positions - positions[j]
            norm = np.sqrt(np.einsum("nd,nd->n", direction, direction))
            predicted = norm + (heights + heights[j] if config.use_height else 0.0)
            sample_error = np.abs(predicted - measured) / np.maximum(measured, 1e-9)

            # Confidence-weighted adaptive timestep.
            total_error = errors + errors[j]
            weight = np.where(total_error > 0, errors / np.where(total_error > 0, total_error, 1.0), 0.5)
            errors = sample_error * config.ce * weight + errors * (1 - config.ce * weight)
            delta = config.cc * weight

            # Coincident nodes repel in a random direction.
            degenerate = norm < 1e-12
            if np.any(degenerate):
                direction[degenerate] = rng.standard_normal(
                    (int(degenerate.sum()), config.dimensions)
                )
                norm[degenerate] = np.sqrt(
                    np.einsum("nd,nd->n", direction[degenerate], direction[degenerate])
                )
            unit = direction / norm[:, None]

            force = measured - predicted
            positions = positions + (delta * force)[:, None] * unit
            if config.use_height:
                heights = np.maximum(0.0, heights + delta * force * 0.5)
            self.samples_used += n

        self.positions, self.errors, self.heights = positions, errors, heights

    def coordinates(self) -> np.ndarray:
        """Current ``(n, d)`` coordinate matrix."""
        return self.positions.copy()

    def relative_errors(self) -> np.ndarray:
        """Per-pair relative prediction errors (flattened upper triangle)."""
        n = self.latencies.num_nodes
        if n < 2:
            return np.zeros(0)
        positions = self.positions
        diff = positions[:, None, :] - positions[None, :, :]
        predicted = np.sqrt(np.einsum("uvd,uvd->uv", diff, diff))
        if self.config.use_height:
            predicted = predicted + self.heights[:, None] + self.heights[None, :]
        upper = np.triu_indices(n, k=1)
        actual = self.latencies.values[upper]
        return np.abs(predicted[upper] - actual) / np.maximum(actual, 1e-9)

    def result(self) -> EmbeddingResult:
        """Summarize the embedding as an :class:`EmbeddingResult`."""
        errors = self.relative_errors()
        return EmbeddingResult(
            coordinates=self.coordinates(),
            median_relative_error=float(np.median(errors)) if errors.size else 0.0,
            mean_relative_error=float(np.mean(errors)) if errors.size else 0.0,
            samples_used=self.samples_used,
        )


def embed_latency_matrix(
    latencies: LatencyMatrix,
    dimensions: int = 2,
    rounds: int = 50,
    neighbors_per_round: int = 8,
    seed: int = 0,
) -> EmbeddingResult:
    """Convenience wrapper: run Vivaldi to convergence-ish and summarize.

    This is the standard way the rest of the library obtains the vector
    (latency) dimensions of a cost space from a ground-truth matrix.
    """
    system = VivaldiSystem(
        latencies, VivaldiConfig(dimensions=dimensions), seed=seed
    )
    system.run(rounds=rounds, neighbors_per_round=neighbors_per_round)
    return system.result()
