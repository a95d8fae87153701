"""Optional numba tier for the data plane's two irreducible kernels.

Profiling the batched tick leaves two hot spots that no amount of
NumPy batching removes — each is a single pass whose per-element work
is trivial but whose NumPy expression pays several intermediate
allocations:

* the composite-key ``searchsorted`` join probe (two binary-search
  sweeps per probe batch), and
* the segment-cumsum admission gate (first-come-first-served per-node
  capacity in canonical order).

This module puts both behind a tier switch
(:attr:`~repro.runtime.dataplane.RuntimeConfig.jit`):

* ``"numpy"`` — the reference implementations below, always available.
* ``"numba"`` — ``@njit`` loop kernels, compiled lazily on first use;
  raises :class:`RuntimeError` when numba is not importable.
* ``"auto"`` — numba when importable, silently NumPy otherwise.

The contract is strict: **NumPy is always the reference and numba may
never change results.**  Every kernel's numba variant computes the
same function bit-for-bit (binary search replicates ``searchsorted``
side semantics; the admission loop admits the identical canonical-
order prefix per node), which the property suite pins by running twin
data planes through both tiers.  Nothing here draws randomness or
reads global state, so the tier choice is invisible to every
:class:`~repro.runtime.dataplane.TrafficRecord`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Kernels", "numba_available", "resolve", "resolve_tier"]


# -- numpy reference implementations ------------------------------------


def probe_ranges_numpy(
    sorted_comp: np.ndarray, queries: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) slice bounds of every query key in a sorted array."""
    lo = np.searchsorted(sorted_comp, queries, side="left")
    hi = np.searchsorted(sorted_comp, queries, side="right")
    return lo, hi


def capacity_gate_numpy(
    nodes: np.ndarray,
    node_used: np.ndarray,
    cap: np.ndarray,
    costs: np.ndarray,
) -> np.ndarray:
    """First-come-first-served per-node admission in canonical order.

    A tuple is admitted while its node's admitted *cost* so far this
    tick is below the cap, so the admitted set per node is a prefix in
    canonical order (costs are positive, the running total only
    grows).  With unit costs the condition degenerates to the
    historical count rule ``rank + used < cap``.  Mutates
    ``node_used`` with the admitted costs; returns the keep mask.
    """
    order = np.argsort(nodes, kind="stable")
    sn = nodes[order]
    sc = costs[order]
    _, starts, cnts = np.unique(sn, return_index=True, return_counts=True)
    cum = np.cumsum(sc)
    group_base = np.repeat(cum[starts] - sc[starts], cnts)
    # Group-local running cost before self; once it crosses the cap
    # every later tuple's total is larger too, so the admitted set is
    # a prefix and "before" equals the admitted cost within it.
    before = cum - group_base - sc
    keep_sorted = before + node_used[sn] < cap[sn]
    keep = np.empty(nodes.size, dtype=bool)
    keep[order] = keep_sorted
    np.add.at(node_used, nodes[keep], costs[keep])
    return keep


# -- optional numba tier ------------------------------------------------

_NUMBA_KERNELS: dict | None = None
_NUMBA_FAILED = False


def numba_available() -> bool:
    """True when the numba tier can be built in this environment."""
    return _build_numba() is not None


def _build_numba() -> dict | None:
    """Compile (once) and return the numba kernel pair, or None."""
    global _NUMBA_KERNELS, _NUMBA_FAILED
    if _NUMBA_KERNELS is not None:
        return _NUMBA_KERNELS
    if _NUMBA_FAILED:
        return None
    try:
        from numba import njit
    except Exception:  # pragma: no cover - exercised only without numba
        _NUMBA_FAILED = True
        return None

    @njit(nogil=True)
    def _probe_ranges(sorted_comp, queries):  # pragma: no cover - needs numba
        n = sorted_comp.size
        m = queries.size
        lo = np.empty(m, dtype=np.int64)
        hi = np.empty(m, dtype=np.int64)
        for i in range(m):
            target = queries[i]
            a, b = 0, n
            while a < b:  # side="left"
                mid = (a + b) >> 1
                if sorted_comp[mid] < target:
                    a = mid + 1
                else:
                    b = mid
            lo[i] = a
            b = n
            while a < b:  # side="right", resuming from lo
                mid = (a + b) >> 1
                if sorted_comp[mid] <= target:
                    a = mid + 1
                else:
                    b = mid
            hi[i] = a
        return lo, hi

    @njit(nogil=True)
    def _capacity_gate(nodes, node_used, cap, costs):  # pragma: no cover
        # Sequential accumulation admits exactly the canonical-order
        # prefix per node that the vectorized reference admits: a
        # rejected tuple adds nothing, so once the running total
        # crosses the cap it stays crossed.
        m = nodes.size
        keep = np.empty(m, dtype=np.bool_)
        for i in range(m):
            node = nodes[i]
            if node_used[node] < cap[node]:
                keep[i] = True
                node_used[node] += costs[i]
            else:
                keep[i] = False
        return keep

    _NUMBA_KERNELS = {
        "probe_ranges": _probe_ranges,
        "capacity_gate": _capacity_gate,
    }
    return _NUMBA_KERNELS


class Kernels:
    """The resolved kernel pair of one data plane.

    Attributes:
        tier: ``"numpy"`` or ``"numba"`` — the tier actually bound.
        probe_ranges / capacity_gate: the kernels.
    """

    __slots__ = ("tier", "probe_ranges", "capacity_gate")

    def __init__(self, tier: str) -> None:
        self.tier = tier
        if tier == "numba":
            kernels = _build_numba()
            assert kernels is not None
            self.probe_ranges = kernels["probe_ranges"]
            self.capacity_gate = kernels["capacity_gate"]
        else:
            self.probe_ranges = probe_ranges_numpy
            self.capacity_gate = capacity_gate_numpy


def resolve_tier(mode: str) -> str:
    """Map a ``jit`` config value onto the tier that will run.

    ``"numba"`` demands the numba tier and raises when it cannot be
    built; ``"auto"`` degrades to NumPy silently (the container may
    simply not ship numba); ``"numpy"`` always means the reference.
    """
    if mode == "numpy":
        return "numpy"
    if mode == "numba":
        if not numba_available():
            raise RuntimeError(
                "RuntimeConfig.jit='numba' but numba is not importable; "
                "use jit='auto' for silent NumPy fallback"
            )
        return "numba"
    if mode == "auto":
        return "numba" if numba_available() else "numpy"
    raise ValueError(f"unknown jit mode {mode!r}")


def resolve(mode: str) -> Kernels:
    """Build the kernel pair for a ``jit`` config value."""
    return Kernels(resolve_tier(mode))
