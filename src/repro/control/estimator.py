"""Measured-rate estimation for the control plane.

:class:`RateEstimator` turns the data plane's per-tick measured
statistics (per-link tuple counts, per-node drop/processed counts) into
calibrated rates: an exponentially weighted moving average per key plus
a windowed ring buffer of the raw samples for robust quantiles.

Performance architecture (struct-of-arrays)
-------------------------------------------

The production path is fully array-backed: keys map to columns of a
contiguous state block — ``ewma (m,)``, ``seen (m,)`` and a
``(window, m)`` sample ring — and one :meth:`observe` call updates
every observed column with a few vectorized expressions.  Everything
derived from a stable key list is cached by list identity (the data
plane reuses its ``link_keys()`` list object between structural
syncs): the column of every value, the sorted distinct columns and
whether any key repeats.  A steady-state call therefore does no
per-key Python work, no sort and no scatter-add — the ring row is
written by assignment.  Only an observation with *aliased* keys
(parallel circuit links sharing a (source, target) pair) sums its
duplicates with ``np.add.at``.  Integer-keyed banks (``keys=None``)
take the identity path: key k is column k, addressed by a slice.

:meth:`rates`, :meth:`quantile` and :meth:`seen_counts` resolve a key
list to columns once per list object and key-set size, so a caller
that keeps one key list per structural change (the controller's
calibration gather) pays for the lookup once.

Keyed reference
---------------

:class:`KeyedRateEstimator` is the per-key twin with the same calls:
plain dict lookups and Python-float EWMA updates over *identical*
inputs, sample-aligned with the ring (unobserved known keys record an
explicit 0, late keys are zero-backfilled), so both classes answer
bit-for-bit equally.  A :class:`~repro.control.controller.Controller`
picks one class for all its banks on its first tick.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Sequence

import numpy as np

__all__ = ["KeyedRateEstimator", "RateEstimator"]


def _check(alpha: float, window: int) -> None:
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    if window <= 0:
        raise ValueError("window must be positive")


def _as_keys(values: np.ndarray, keys: Sequence[Hashable] | None):
    if keys is None:
        return range(len(values))
    if len(keys) != len(values):
        raise ValueError("keys and values must have equal length")
    return keys


class RateEstimator:
    """EWMA + windowed-quantile estimator over keyed per-tick counts.

    Args:
        alpha: EWMA gain — weight of the newest sample.  The first
            observation of a key initializes its EWMA directly (no
            zero bias).
        window: ring depth for windowed quantiles.
    """

    def __init__(self, alpha: float = 0.3, window: int = 32):
        _check(alpha, window)
        self.alpha = alpha
        self.window = window
        self.ticks = 0
        self._index: dict[Hashable, int] = {}
        self._keys: list[Hashable] = []
        self._ewma = np.empty(0)
        self._seen = np.empty(0, dtype=np.int64)
        self._ring = np.zeros((window, 0))
        self._filled = 0
        self._cursor = 0
        # observe(): (keys, column per value, sorted distinct columns
        # or None when no key repeats) of the last keyed call.
        self._idx_cache: tuple | None = None
        # rates() / quantile() / seen_counts(): (keys, key count at
        # resolution, column per key with -1 for unknown keys).
        self._lookup_cache: tuple | None = None
        # True while every key ever observed came from a keys=None call
        # (so key k is column k) — enables the identity fast path.
        self._identity_keys = True

    @property
    def num_keys(self) -> int:
        return len(self._keys)

    def keys(self) -> list[Hashable]:
        """All keys ever observed, in first-observation order."""
        return list(self._keys)

    def _grow(self, extra: int) -> None:
        self._ewma = np.concatenate((self._ewma, np.zeros(extra)))
        self._seen = np.concatenate((self._seen, np.zeros(extra, dtype=np.int64)))
        self._ring = np.concatenate(
            (self._ring, np.zeros((self.window, extra))), axis=1
        )

    def _columns(self, values: np.ndarray, keys):
        """Where one observation lands: ``(cols, distinct)``.

        ``cols`` addresses each value's column (a slice on the identity
        path); ``distinct`` is the sorted distinct columns when keys
        repeat, else None.
        """
        n = len(values)
        if keys is None and self._identity_keys:
            # Key k IS column k: no per-key Python work.
            if n > len(self._keys):
                for k in range(len(self._keys), n):
                    self._index[k] = k
                    self._keys.append(k)
                self._grow(n - self._ewma.size)
            return slice(0, n), None
        cached = self._idx_cache
        if keys is not None and cached is not None:
            cached_obj, idx, distinct = cached
            if cached_obj is keys and idx.size == n:
                return idx, distinct
        self._identity_keys = False
        key_iter = _as_keys(values, keys)
        fresh = 0
        for key in key_iter:
            if key not in self._index:
                self._index[key] = len(self._keys)
                self._keys.append(key)
                fresh += 1
        if fresh:
            self._grow(fresh)
        idx = np.fromiter(
            (self._index[k] for k in key_iter), dtype=np.int64, count=n
        )
        distinct = np.unique(idx)
        if distinct.size == n:
            distinct = None
        if keys is not None:
            self._idx_cache = (keys, idx, distinct)
        return idx, distinct

    def observe(self, values: np.ndarray, keys: Sequence[Hashable] | None = None) -> None:
        """Ingest one tick of per-key counts (vectorized).

        ``keys`` defaults to the integer range ``0..len(values)-1``.
        Known keys absent from ``keys`` record an implicit 0 sample in
        the ring (their EWMA freezes); unseen keys grow the state.
        Duplicate keys in one observation are *summed* into one sample
        (in both classes), so aliased keys — e.g. parallel circuit
        links sharing a (source, target) pair — stay well-defined.
        """
        values = np.asarray(values, dtype=float)
        cols, distinct = self._columns(values, keys)
        self.ticks += 1
        row = self._ring[self._cursor]
        row[:] = 0.0
        if distinct is None:
            row[cols] = values
            summed = values
        else:
            np.add.at(row, cols, values)
            cols = distinct
            summed = row[cols]
        first = self._seen[cols] == 0
        blended = (1.0 - self.alpha) * self._ewma[cols] + self.alpha * summed
        self._ewma[cols] = np.where(first, summed, blended)
        self._seen[cols] += 1
        self._cursor = (self._cursor + 1) % self.window
        self._filled = min(self._filled + 1, self.window)

    def rate(self, key: Hashable, default: float = 0.0) -> float:
        """Current EWMA rate of one key (``default`` when never seen)."""
        col = self._index.get(key)
        return float(self._ewma[col]) if col is not None else default

    def seen(self, key: Hashable) -> int:
        """How many ticks actually observed this key."""
        col = self._index.get(key)
        return int(self._seen[col]) if col is not None else 0

    def _lookup(self, keys: Sequence[Hashable]) -> np.ndarray:
        """Column of every key (-1 when never observed).

        Cached per key-list object until the key set grows, so a caller
        passing the same list each time resolves it once.
        """
        cached = self._lookup_cache
        if cached is not None and cached[0] is keys and cached[1] == len(self._keys):
            return cached[2]
        cols = np.fromiter(
            (self._index.get(k, -1) for k in keys), dtype=np.int64, count=len(keys)
        )
        self._lookup_cache = (keys, len(self._keys), cols)
        return cols

    def _gather(self, column: np.ndarray, keys: Sequence[Hashable]) -> np.ndarray:
        cols = self._lookup(keys)
        out = np.zeros(cols.size, dtype=column.dtype)
        hit = cols >= 0
        out[hit] = column[cols[hit]]
        return out

    def seen_counts(self, keys: Sequence[Hashable]) -> np.ndarray:
        """:meth:`seen` for every key of ``keys``, as one array."""
        return self._gather(self._seen, keys)

    def rates(self, keys: Sequence[Hashable] | None = None) -> np.ndarray:
        """EWMA rates for ``keys`` (default: all, first-seen order)."""
        if keys is None:
            return self._ewma.copy()
        return self._gather(self._ewma, keys)

    def quantile(self, q: float, keys: Sequence[Hashable] | None = None) -> np.ndarray:
        """Windowed per-key quantile over the last ``window`` samples.

        Unobserved ticks count as explicit 0 samples.
        """
        if self._filled == 0:
            return np.zeros(self.num_keys if keys is None else len(keys))
        block = self._ring[: self._filled]
        if keys is None:
            return np.percentile(block, q * 100.0, axis=0)
        cols = self._lookup(keys)
        out = np.zeros(cols.size)
        hit = cols >= 0
        if hit.any():
            out[hit] = np.percentile(block[:, cols[hit]], q * 100.0, axis=0)
        return out


class KeyedRateEstimator:
    """Per-key twin of :class:`RateEstimator`: same arguments, calls and
    answers (see the module docstring)."""

    def __init__(self, alpha: float = 0.3, window: int = 32):
        _check(alpha, window)
        self.alpha = alpha
        self.window = window
        self.ticks = 0
        self._filled = 0
        self._ewma: dict[Hashable, float] = {}
        self._seen: dict[Hashable, int] = {}
        self._ring: dict[Hashable, deque] = {}

    @property
    def num_keys(self) -> int:
        return len(self._ewma)

    def keys(self) -> list[Hashable]:
        """All keys ever observed, in first-observation order."""
        return list(self._ewma)

    def observe(self, values: np.ndarray, keys: Sequence[Hashable] | None = None) -> None:
        """Ingest one tick of per-key counts, one key at a time."""
        values = np.asarray(values, dtype=float)
        key_list = _as_keys(values, keys)
        self.ticks += 1
        # Duplicate keys sum into one sample, as in RateEstimator.
        observed: dict[Hashable, float] = {}
        for key, value in zip(key_list, values):
            observed[key] = observed.get(key, 0.0) + float(value)
        for key, value in observed.items():
            if key not in self._ewma:
                # Zero-backfill so the per-key sample list aligns with
                # the array ring's pre-existing all-zero column.
                self._ring[key] = deque([0.0] * self._filled, maxlen=self.window)
                self._ewma[key] = value
                self._seen[key] = 1
            else:
                self._ewma[key] = (
                    (1.0 - self.alpha) * self._ewma[key] + self.alpha * value
                )
                self._seen[key] += 1
        for key, ring in self._ring.items():
            ring.append(observed.get(key, 0.0))
        self._filled = min(self._filled + 1, self.window)

    def rate(self, key: Hashable, default: float = 0.0) -> float:
        """Current EWMA rate of one key (``default`` when never seen)."""
        return self._ewma.get(key, default)

    def seen(self, key: Hashable) -> int:
        """How many ticks actually observed this key."""
        return self._seen.get(key, 0)

    def seen_counts(self, keys: Sequence[Hashable]) -> np.ndarray:
        """:meth:`seen` for every key of ``keys``, as one array."""
        return np.array([self._seen.get(k, 0) for k in keys], dtype=np.int64)

    def rates(self, keys: Sequence[Hashable] | None = None) -> np.ndarray:
        """EWMA rates for ``keys`` (default: all, first-seen order)."""
        if keys is None:
            return np.array(list(self._ewma.values()), dtype=float)
        return np.array([self._ewma.get(k, 0.0) for k in keys], dtype=float)

    def quantile(self, q: float, keys: Sequence[Hashable] | None = None) -> np.ndarray:
        """Windowed per-key quantile over the last ``window`` samples.

        Unobserved ticks count as explicit 0 samples.
        """
        if self._filled == 0:
            return np.zeros(self.num_keys if keys is None else len(keys))
        return np.array(
            [
                float(np.percentile(np.asarray(self._ring[k]), q * 100.0))
                if k in self._ring
                else 0.0
                for k in (self._ewma if keys is None else keys)
            ]
        )
