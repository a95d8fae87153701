"""Centralized landmark (GNP/Lighthouse-style) latency embedding.

An alternative to Vivaldi for producing the vector dimensions of a cost
space: a small set of *landmark* nodes first embeds itself by minimizing
pairwise prediction error, then every other node positions itself using
only its latencies to the landmarks.  This mirrors GNP [Ng & Zhang,
INFOCOM'02] and Lighthouses [Pias et al., IPTPS'03], both cited by the
paper as cost-space constructions.

The optimizer is a simple coordinate-descent / random-restart downhill
search implemented from scratch (no ``scipy.optimize`` solver is
needed), which is plenty for the modest dimensionalities (2-8) the
paper considers.
"""

from __future__ import annotations

import random

import numpy as np

from repro.network.latency import LatencyMatrix
from repro.network.vivaldi import EmbeddingResult

__all__ = ["LandmarkEmbedding", "embed_with_landmarks"]


def _pairwise_error(coords: np.ndarray, target: np.ndarray) -> float:
    """Sum of squared relative errors between embedded and target distances."""
    n = coords.shape[0]
    total = 0.0
    for i in range(n):
        diffs = coords[i + 1 :] - coords[i]
        predicted = np.sqrt((diffs * diffs).sum(axis=1))
        actual = target[i, i + 1 :]
        denom = np.maximum(actual, 1e-9)
        rel = (predicted - actual) / denom
        total += float((rel * rel).sum())
    return total


def _downhill_refine(
    coords: np.ndarray,
    objective,
    rng: random.Random,
    iterations: int,
    initial_step: float,
) -> np.ndarray:
    """Greedy per-point random-direction descent with shrinking step."""
    best = coords.copy()
    best_score = objective(best)
    step = initial_step
    n, d = best.shape
    for it in range(iterations):
        improved = False
        for i in range(n):
            direction = np.array([rng.gauss(0, 1) for _ in range(d)])
            norm = np.linalg.norm(direction)
            if norm < 1e-12:
                continue
            direction /= norm
            for sign in (1.0, -1.0):
                candidate = best.copy()
                candidate[i] += sign * step * direction
                score = objective(candidate)
                if score < best_score:
                    best, best_score = candidate, score
                    improved = True
                    break
        if not improved:
            step *= 0.5
            if step < 1e-3:
                break
    return best


class LandmarkEmbedding:
    """Two-phase GNP-style embedding of a latency matrix.

    Phase 1 embeds ``num_landmarks`` randomly chosen landmarks against
    each other; phase 2 independently embeds every remaining node
    against the fixed landmark coordinates.  Phase 2 is embarrassingly
    parallel in a real deployment, which is why this design scales.
    """

    def __init__(
        self,
        latencies: LatencyMatrix,
        dimensions: int = 2,
        num_landmarks: int | None = None,
        seed: int = 0,
    ):
        if dimensions < 1:
            raise ValueError("dimensions must be >= 1")
        n = latencies.num_nodes
        if num_landmarks is None:
            num_landmarks = min(max(dimensions + 1, 8), n)
        if not dimensions + 1 <= num_landmarks <= n:
            raise ValueError(
                f"need between {dimensions + 1} and {n} landmarks, got {num_landmarks}"
            )
        self.latencies = latencies
        self.dimensions = dimensions
        self.num_landmarks = num_landmarks
        self._rng = random.Random(seed)
        self.landmarks: list[int] = sorted(
            self._rng.sample(range(n), num_landmarks)
        )
        self._coords: np.ndarray | None = None

    def embed(self, iterations: int = 60) -> EmbeddingResult:
        """Run both phases and return coordinates plus error summary."""
        n = self.latencies.num_nodes
        scale = max(self.latencies.max_latency(), 1.0)

        landmark_target = self.latencies.values[np.ix_(self.landmarks, self.landmarks)]
        init = np.array(
            [
                [self._rng.uniform(-scale / 2, scale / 2) for _ in range(self.dimensions)]
                for _ in range(self.num_landmarks)
            ]
        )
        landmark_coords = _downhill_refine(
            init,
            lambda c: _pairwise_error(c, landmark_target),
            self._rng,
            iterations=iterations,
            initial_step=scale / 4,
        )

        coords = np.zeros((n, self.dimensions))
        for rank, landmark in enumerate(self.landmarks):
            coords[landmark] = landmark_coords[rank]

        landmark_set = set(self.landmarks)
        for node in range(n):
            if node in landmark_set:
                continue
            coords[node] = self._embed_single(
                node, landmark_coords, scale, iterations
            )

        self._coords = coords
        errors = self._relative_errors(coords)
        return EmbeddingResult(
            coordinates=coords,
            median_relative_error=float(np.median(errors)) if errors.size else 0.0,
            mean_relative_error=float(np.mean(errors)) if errors.size else 0.0,
            samples_used=self.num_landmarks * n,
        )

    def _embed_single(
        self,
        node: int,
        landmark_coords: np.ndarray,
        scale: float,
        iterations: int,
    ) -> np.ndarray:
        """Position one ordinary node against the fixed landmarks."""
        targets = np.array(
            [self.latencies.latency(node, lm) for lm in self.landmarks]
        )

        def objective(point: np.ndarray) -> float:
            diffs = landmark_coords - point
            predicted = np.sqrt((diffs * diffs).sum(axis=1))
            denom = np.maximum(targets, 1e-9)
            rel = (predicted - targets) / denom
            return float((rel * rel).sum())

        # Initialize at the latency-weighted centroid of the landmarks.
        weights = 1.0 / np.maximum(targets, 1e-9)
        start = (landmark_coords * weights[:, None]).sum(axis=0) / weights.sum()

        best = start
        best_score = objective(best)
        step = scale / 4
        for _ in range(iterations):
            improved = False
            direction = np.array(
                [self._rng.gauss(0, 1) for _ in range(self.dimensions)]
            )
            norm = np.linalg.norm(direction)
            if norm < 1e-12:
                continue
            direction /= norm
            for sign in (1.0, -1.0):
                candidate = best + sign * step * direction
                score = objective(candidate)
                if score < best_score:
                    best, best_score = candidate, score
                    improved = True
                    break
            if not improved:
                step *= 0.7
                if step < 1e-3:
                    break
        return best

    def _relative_errors(self, coords: np.ndarray) -> np.ndarray:
        n = self.latencies.num_nodes
        errors = []
        for i in range(n):
            for j in range(i + 1, n):
                actual = self.latencies.latency(i, j)
                predicted = float(np.linalg.norm(coords[i] - coords[j]))
                errors.append(abs(predicted - actual) / max(actual, 1e-9))
        return np.array(errors)


def embed_with_landmarks(
    latencies: LatencyMatrix,
    dimensions: int = 2,
    num_landmarks: int | None = None,
    iterations: int = 60,
    seed: int = 0,
) -> EmbeddingResult:
    """Convenience wrapper mirroring :func:`embed_latency_matrix`."""
    embedding = LandmarkEmbedding(
        latencies, dimensions=dimensions, num_landmarks=num_landmarks, seed=seed
    )
    return embedding.embed(iterations=iterations)
