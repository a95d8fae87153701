"""n-dimensional Hilbert space-filling curve.

The paper's physical-mapping catalog stores each node's cost-space
coordinate in a DHT keyed by a one-dimensional Hilbert index (§3.2,
citing Sagan and Andrzejak & Xu): the Hilbert curve preserves locality,
so nodes that are close in the cost space receive nearby DHT keys and a
ring-neighborhood scan around a query key finds spatially-close nodes.

The implementation follows John Skilling's "Programming the Hilbert
curve" (AIP Conf. Proc. 707, 2004): a pair of in-place transforms
between axis coordinates and the "transposed" Hilbert representation,
valid for any number of dimensions and bits of precision.  A Morton
(Z-order) encoder is included as the locality baseline for experiment
E10.

Performance architecture (struct-of-arrays)
-------------------------------------------

The per-key integer transforms are retained as the scalar references;
the ``*_batch`` variants run the same bit-twiddling over whole
``(m, dims)`` ``uint64`` arrays (loops only over ``bits`` and ``dims``,
never over keys), valid whenever ``bits * dims <= 64`` — every catalog
configuration in this library.  :class:`HilbertMapper` routes both its
batched and single-key APIs through them, so one
``tests/property/test_vectorized_equivalence.py`` round-trip pins batch
and scalar to exact integer equality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "hilbert_encode",
    "hilbert_decode",
    "morton_encode",
    "morton_decode",
    "hilbert_encode_batch",
    "hilbert_decode_batch",
    "morton_encode_batch",
    "morton_decode_batch",
    "HilbertMapper",
]


def _validate(bits: int, dims: int) -> None:
    if bits < 1:
        raise ValueError("bits per dimension must be >= 1")
    if dims < 1:
        raise ValueError("dimensions must be >= 1")


def _axes_to_transpose(coords: list[int], bits: int, dims: int) -> list[int]:
    """Convert axis coordinates to Skilling's transposed Hilbert form."""
    x = coords[:]
    m = 1 << (bits - 1)

    # Inverse undo excess work.
    q = m
    while q > 1:
        p = q - 1
        for i in range(dims):
            if x[i] & q:
                x[0] ^= p  # invert
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q >>= 1

    # Gray encode.
    for i in range(1, dims):
        x[i] ^= x[i - 1]
    t = 0
    q = m
    while q > 1:
        if x[dims - 1] & q:
            t ^= q - 1
        q >>= 1
    for i in range(dims):
        x[i] ^= t
    return x


def _transpose_to_axes(x: list[int], bits: int, dims: int) -> list[int]:
    """Convert Skilling's transposed Hilbert form back to axis coordinates."""
    coords = x[:]
    n = 2 << (bits - 1)

    # Gray decode by H ^ (H/2).
    t = coords[dims - 1] >> 1
    for i in range(dims - 1, 0, -1):
        coords[i] ^= coords[i - 1]
    coords[0] ^= t

    # Undo excess work.
    q = 2
    while q != n:
        p = q - 1
        for i in range(dims - 1, -1, -1):
            if coords[i] & q:
                coords[0] ^= p
            else:
                t = (coords[0] ^ coords[i]) & p
                coords[0] ^= t
                coords[i] ^= t
        q <<= 1
    return coords


def _transpose_to_index(x: list[int], bits: int, dims: int) -> int:
    """Interleave the transposed form into a single Hilbert integer."""
    index = 0
    for bit in range(bits - 1, -1, -1):
        for i in range(dims):
            index = (index << 1) | ((x[i] >> bit) & 1)
    return index


def _index_to_transpose(index: int, bits: int, dims: int) -> list[int]:
    """De-interleave a Hilbert integer into the transposed form."""
    x = [0] * dims
    position = bits * dims - 1
    for bit in range(bits - 1, -1, -1):
        for i in range(dims):
            x[i] |= ((index >> position) & 1) << bit
            position -= 1
    return x


def hilbert_encode(coords: tuple[int, ...] | list[int], bits: int) -> int:
    """Map integer axis coordinates to their Hilbert curve index.

    Args:
        coords: one non-negative integer per dimension, each < 2**bits.
        bits: precision (bits per dimension).

    Returns:
        The Hilbert index in ``[0, 2**(bits*len(coords)))``.
    """
    dims = len(coords)
    _validate(bits, dims)
    limit = 1 << bits
    for c in coords:
        if not 0 <= c < limit:
            raise ValueError(f"coordinate {c} outside [0, {limit})")
    transposed = _axes_to_transpose(list(coords), bits, dims)
    return _transpose_to_index(transposed, bits, dims)


def hilbert_decode(index: int, bits: int, dims: int) -> tuple[int, ...]:
    """Inverse of :func:`hilbert_encode`."""
    _validate(bits, dims)
    if not 0 <= index < (1 << (bits * dims)):
        raise ValueError(f"index {index} outside curve range")
    transposed = _index_to_transpose(index, bits, dims)
    return tuple(_transpose_to_axes(transposed, bits, dims))


def morton_encode(coords: tuple[int, ...] | list[int], bits: int) -> int:
    """Z-order (Morton) interleaving — the locality baseline for E10."""
    dims = len(coords)
    _validate(bits, dims)
    limit = 1 << bits
    index = 0
    for bit in range(bits - 1, -1, -1):
        for i in range(dims):
            c = coords[i]
            if not 0 <= c < limit:
                raise ValueError(f"coordinate {c} outside [0, {limit})")
            index = (index << 1) | ((c >> bit) & 1)
    return index


def morton_decode(index: int, bits: int, dims: int) -> tuple[int, ...]:
    """Inverse of :func:`morton_encode`."""
    _validate(bits, dims)
    if not 0 <= index < (1 << (bits * dims)):
        raise ValueError(f"index {index} outside curve range")
    coords = [0] * dims
    position = bits * dims - 1
    for bit in range(bits - 1, -1, -1):
        for i in range(dims):
            coords[i] |= ((index >> position) & 1) << bit
            position -= 1
    return tuple(coords)


# -- batched (m, dims) uint64 kernels -------------------------------------


def _validate_batch(bits: int, dims: int) -> None:
    _validate(bits, dims)
    if bits * dims > 64:
        raise ValueError(
            f"batched curve kernels need bits*dims <= 64, got {bits * dims}"
        )


def _check_coords_batch(coords: np.ndarray, bits: int) -> np.ndarray:
    if coords.ndim != 2:
        raise ValueError(f"coords must be (m, dims), got shape {coords.shape}")
    limit = 1 << bits
    if coords.size and (coords.min() < 0 or coords.max() >= limit):
        raise ValueError(f"coordinates outside [0, {limit})")
    return coords.astype(np.uint64)


def _interleave(x: np.ndarray, bits: int) -> np.ndarray:
    """Bit-interleave (m, dims) uint64 columns into (m,) indices."""
    m, dims = x.shape
    one = np.uint64(1)
    index = np.zeros(m, dtype=np.uint64)
    for bit in range(bits - 1, -1, -1):
        shift = np.uint64(bit)
        for i in range(dims):
            index = (index << one) | ((x[:, i] >> shift) & one)
    return index


def _deinterleave(index: np.ndarray, bits: int, dims: int) -> np.ndarray:
    """Inverse of :func:`_interleave`: (m,) indices to (m, dims) columns."""
    index = np.asarray(index, dtype=np.uint64)
    if index.ndim != 1:
        raise ValueError("indices must be a 1-d array")
    total = bits * dims
    if total < 64 and index.size and int(index.max()) >= (1 << total):
        raise ValueError("index outside curve range")
    one = np.uint64(1)
    x = np.zeros((index.shape[0], dims), dtype=np.uint64)
    position = total - 1
    for bit in range(bits - 1, -1, -1):
        for i in range(dims):
            x[:, i] |= ((index >> np.uint64(position)) & one) << np.uint64(bit)
            position -= 1
    return x


def hilbert_encode_batch(coords: np.ndarray, bits: int) -> np.ndarray:
    """Batched :func:`hilbert_encode`: ``(m, dims)`` ints to ``(m,)`` keys.

    Runs Skilling's transform with vectorized bit-twiddling over all
    rows at once; loops only over ``bits`` and ``dims``.  Requires
    ``bits * dims <= 64`` (``uint64`` key space).
    """
    coords = np.asarray(coords)
    _validate_batch(bits, coords.shape[1] if coords.ndim == 2 else 0)
    x = _check_coords_batch(coords, bits).copy()
    m, dims = x.shape
    zero = np.uint64(0)

    # Inverse undo excess work.
    q = 1 << (bits - 1)
    while q > 1:
        p = np.uint64(q - 1)
        uq = np.uint64(q)
        for i in range(dims):
            high = (x[:, i] & uq) != 0
            t = np.where(high, zero, (x[:, 0] ^ x[:, i]) & p)
            x[:, 0] = np.where(high, x[:, 0] ^ p, x[:, 0] ^ t)
            x[:, i] ^= t
        q >>= 1

    # Gray encode.
    for i in range(1, dims):
        x[:, i] ^= x[:, i - 1]
    t = np.zeros(m, dtype=np.uint64)
    q = 1 << (bits - 1)
    while q > 1:
        mask = (x[:, dims - 1] & np.uint64(q)) != 0
        t = np.where(mask, t ^ np.uint64(q - 1), t)
        q >>= 1
    x ^= t[:, None]
    return _interleave(x, bits)


def hilbert_decode_batch(indices: np.ndarray, bits: int, dims: int) -> np.ndarray:
    """Batched :func:`hilbert_decode`: ``(m,)`` keys to ``(m, dims)`` ints."""
    _validate_batch(bits, dims)
    x = _deinterleave(indices, bits, dims)
    zero = np.uint64(0)

    # Gray decode by H ^ (H/2).
    t = x[:, dims - 1] >> np.uint64(1)
    for i in range(dims - 1, 0, -1):
        x[:, i] ^= x[:, i - 1]
    x[:, 0] ^= t

    # Undo excess work.
    n = 2 << (bits - 1)
    q = 2
    while q != n:
        p = np.uint64(q - 1)
        uq = np.uint64(q)
        for i in range(dims - 1, -1, -1):
            high = (x[:, i] & uq) != 0
            t = np.where(high, zero, (x[:, 0] ^ x[:, i]) & p)
            x[:, 0] = np.where(high, x[:, 0] ^ p, x[:, 0] ^ t)
            x[:, i] ^= t
        q <<= 1
    return x


def morton_encode_batch(coords: np.ndarray, bits: int) -> np.ndarray:
    """Batched :func:`morton_encode` (the locality baseline for E10)."""
    coords = np.asarray(coords)
    _validate_batch(bits, coords.shape[1] if coords.ndim == 2 else 0)
    return _interleave(_check_coords_batch(coords, bits), bits)


def morton_decode_batch(indices: np.ndarray, bits: int, dims: int) -> np.ndarray:
    """Batched :func:`morton_decode`."""
    _validate_batch(bits, dims)
    return _deinterleave(indices, bits, dims)


@dataclass
class HilbertMapper:
    """Maps continuous cost-space coordinates to Hilbert DHT keys.

    Continuous coordinates in a known bounding box are quantized onto a
    ``2**bits`` grid per dimension and encoded with the Hilbert curve.
    The resulting integer is the DHT key under which a node publishes
    itself (see :mod:`repro.dht.catalog`).

    Attributes:
        lows: per-dimension lower bounds of the bounding box.
        highs: per-dimension upper bounds.
        bits: grid precision per dimension.
    """

    lows: tuple[float, ...]
    highs: tuple[float, ...]
    bits: int = 10

    def __post_init__(self) -> None:
        if len(self.lows) != len(self.highs):
            raise ValueError("lows and highs must have equal length")
        _validate(self.bits, len(self.lows))
        for low, high in zip(self.lows, self.highs):
            if not low < high:
                raise ValueError("each bound pair must satisfy low < high")

    @property
    def dims(self) -> int:
        return len(self.lows)

    @property
    def key_bits(self) -> int:
        """Total bits of the Hilbert key (= DHT identifier width needed)."""
        return self.bits * self.dims

    @classmethod
    def fit(cls, points: np.ndarray, bits: int = 10, margin: float = 0.05) -> "HilbertMapper":
        """Build a mapper whose box covers ``points`` with a safety margin."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("points must be a non-empty (n, d) array")
        lows = points.min(axis=0)
        highs = points.max(axis=0)
        span = np.maximum(highs - lows, 1e-9)
        lows = lows - margin * span
        highs = highs + margin * span
        return cls(tuple(float(v) for v in lows), tuple(float(v) for v in highs), bits)

    def quantize(self, point: np.ndarray | list[float]) -> tuple[int, ...]:
        """Clamp and quantize a continuous point onto the integer grid."""
        point = np.asarray(point, dtype=float)
        if point.shape != (self.dims,):
            raise ValueError(f"expected {self.dims}-d point, got shape {point.shape}")
        cells = (1 << self.bits) - 1
        out = []
        for value, low, high in zip(point, self.lows, self.highs):
            frac = (value - low) / (high - low)
            frac = min(max(frac, 0.0), 1.0)
            out.append(int(round(frac * cells)))
        return tuple(out)

    def quantize_batch(self, points: np.ndarray) -> np.ndarray:
        """Batched :meth:`quantize`: ``(m, dims)`` floats to grid cells.

        Uses round-half-even like the scalar path, so both agree
        exactly on every input.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dims:
            raise ValueError(
                f"expected (m, {self.dims}) points, got shape {points.shape}"
            )
        cells = (1 << self.bits) - 1
        lows = np.asarray(self.lows)
        highs = np.asarray(self.highs)
        frac = np.clip((points - lows) / (highs - lows), 0.0, 1.0)
        return np.round(frac * cells).astype(np.int64)

    def dequantize(self, cell: tuple[int, ...]) -> np.ndarray:
        """Map grid cell indices back to cell-center continuous values."""
        if len(cell) != self.dims:
            raise ValueError("wrong dimensionality")
        cells = (1 << self.bits) - 1
        return np.array(
            [
                low + (c / cells) * (high - low)
                for c, low, high in zip(cell, self.lows, self.highs)
            ]
        )

    def key_for(self, point: np.ndarray | list[float]) -> int:
        """The Hilbert DHT key of a continuous cost-space point."""
        if self.key_bits <= 64:
            cells = np.asarray(self.quantize(point), dtype=np.int64)
            return int(hilbert_encode_batch(cells[None, :], self.bits)[0])
        return hilbert_encode(self.quantize(point), self.bits)

    def keys_for(self, points: np.ndarray) -> np.ndarray | list[int]:
        """Batched :meth:`key_for`: one vectorized quantize + encode pass.

        Returns a ``(m,)`` ``uint64`` array when the key fits 64 bits,
        otherwise a list of Python ints from the scalar encoder.
        """
        cells = self.quantize_batch(points)
        if self.key_bits <= 64:
            return hilbert_encode_batch(cells, self.bits)
        return [hilbert_encode(tuple(int(c) for c in row), self.bits) for row in cells]
