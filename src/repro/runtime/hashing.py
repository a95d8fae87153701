"""SplitMix64 hashing shared by the data plane, its oracle and the tracer.

All non-source randomness in the runtime is a deterministic hash of
tuple content (the randomness discipline: the only RNG draws are the
per-tick source draws).  The primitives live here so the batched
kernels, the per-tuple oracle (:mod:`repro.runtime.oracle`), the
transports' scale-event re-routing and the tracer's sampling consume
the *same* finalizer — in particular the key-partition routing rule::

    bucket(key, g) = SplitMix64(key * M1) mod g

is defined once (:func:`route_bucket` / :func:`route_bucket_int`) and
used identically by the vectorized fan-out, the per-tuple scalar
reference, and the in-flight/state re-routing on scale events, so a
tuple's home replica is a pure function of its key and the family size.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MASK64",
    "M1",
    "M2",
    "M3",
    "U64",
    "mix64",
    "mix64_int",
    "route_bucket",
    "route_bucket_int",
    "filter_bucket",
    "filter_bucket_int",
    "pair_bucket",
    "pair_bucket_int",
]

MASK64 = (1 << 64) - 1
M1 = 0x9E3779B97F4A7C15
M2 = 0xBF58476D1CE4E5B9
M3 = 0x94D049BB133111EB
U64 = np.uint64


def mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array (wrapping arithmetic)."""
    x = x ^ (x >> U64(30))
    x = x * U64(M2)
    x = x ^ (x >> U64(27))
    x = x * U64(M3)
    return x ^ (x >> U64(31))


def mix64_int(x: int) -> int:
    """SplitMix64 finalizer for one Python int (must match :func:`mix64`)."""
    x &= MASK64
    x ^= x >> 30
    x = (x * M2) & MASK64
    x ^= x >> 27
    x = (x * M3) & MASK64
    return x ^ (x >> 31)


def route_bucket(key: np.ndarray, group: np.ndarray | int) -> np.ndarray:
    """Key-partition bucket of each key within a replica group of
    ``group`` members — the deterministic routing rule (zero RNG)."""
    h = mix64(key.astype(U64) * U64(M1))
    return (h % np.asarray(group, dtype=U64)).astype(np.int64)


def route_bucket_int(key: int, group: int) -> int:
    """Scalar twin of :func:`route_bucket` (must agree bit-for-bit)."""
    return mix64_int((key * M1) & MASK64) % group


def filter_bucket(key: np.ndarray, salt: np.ndarray) -> np.ndarray:
    """Deterministic uniform-[0,1) bucket of (key, operator) pairs."""
    x = key.astype(U64) * U64(M1) + salt.astype(U64) * U64(M3)
    return (mix64(x) >> U64(11)).astype(np.float64) * 2.0 ** -53


def filter_bucket_int(key: int, salt: int) -> float:
    """Scalar twin of :func:`filter_bucket` (must agree bit-for-bit)."""
    x = (key * M1 + salt * M3) & MASK64
    return (mix64_int(x) >> 11) * 2.0 ** -53


def pair_bucket(
    key: np.ndarray, ts_a: np.ndarray, ts_b: np.ndarray, salt: np.ndarray
) -> np.ndarray:
    """Symmetric match bucket of a candidate join pair (order-free)."""
    lo = np.minimum(ts_a, ts_b).astype(U64)
    hi = np.maximum(ts_a, ts_b).astype(U64)
    x = key.astype(U64) * U64(M1) + lo * U64(M2) + hi * U64(M3) + salt.astype(U64)
    return (mix64(x) >> U64(11)).astype(np.float64) * 2.0 ** -53


def pair_bucket_int(key: int, ts_a: int, ts_b: int, salt: int) -> float:
    """Scalar twin of :func:`pair_bucket` (must agree bit-for-bit)."""
    lo, hi = (ts_a, ts_b) if ts_a <= ts_b else (ts_b, ts_a)
    x = (key * M1 + lo * M2 + hi * M3 + salt) & MASK64
    return (mix64_int(x) >> 11) * 2.0 ** -53
