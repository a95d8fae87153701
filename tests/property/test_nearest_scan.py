"""The blocked nearest-node scan against the unblocked scan it replaced.

:meth:`CostSpace.nearest_nodes` scans targets in blocks of
``_BLOCK_ELEMENTS // eligible`` rows through two reused buffers, over
the eligible nodes' columns gathered once.  ``reference_nearest_nodes``
below is the scan it replaced, kept verbatim as a bit-for-bit
reference: whole ``(chunk, n)`` temporaries, excluded columns
overwritten with ``inf``.  Both compute every squared distance with the
same arithmetic, so their answers (and whether they raise) must agree
exactly, ties included, on every shape that crosses a block boundary.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coordinates import CostCoordinate
from repro.core.cost_space import (
    _BLOCK_ELEMENTS,
    CostSpace,
    CostSpaceSpec,
    nearest_node_scalar,
)
from repro.core.weighting import squared

# -- the reference ------------------------------------------------------------

_BATCH_ELEMENT_BUDGET = 4_000_000


def reference_nearest_nodes(space, t, exclude=None):
    """The unblocked scan, verbatim (``t`` a finite ``(m, dims)`` array)."""
    n = space.num_nodes
    if n == 0:
        raise ValueError("no eligible node")
    excluded = (
        [node for node in exclude if 0 <= node < n] if exclude else []
    )
    chunk = max(1, _BATCH_ELEMENT_BUDGET // max(n, 1))
    result = np.empty(t.shape[0], dtype=int)
    for start in range(0, t.shape[0], chunk):
        block = t[start:start + chunk]
        d2 = None
        for k in range(space.spec.dims):
            part = np.subtract.outer(block[:, k], space._matrix[:, k])
            np.multiply(part, part, out=part)
            if d2 is None:
                d2 = part
            else:
                np.add(d2, part, out=d2)
        if excluded:
            d2[:, excluded] = np.inf
        if not np.all(np.isfinite(d2.min(axis=1))):
            raise ValueError("no eligible node")
        result[start:start + chunk] = np.argmin(d2, axis=1)
    return result


def outcome(fn):
    """``fn()``'s answer as a list, or the ``ValueError`` it raised."""
    try:
        return list(fn())
    except ValueError as err:
        return ("raised", str(err))


# -- cases ----------------------------------------------------------------------


def _space(matrix: np.ndarray, vector_dims: int) -> CostSpace:
    scalars = matrix.shape[1] - vector_dims
    spec = (
        CostSpaceSpec.latency_load(vector_dims=vector_dims, load_weighting=squared(100.0))
        if scalars
        else CostSpaceSpec.latency_only(vector_dims=vector_dims)
    )
    return CostSpace._from_matrix(spec, matrix)


@st.composite
def scan_cases(draw):
    """A space, a target block straddling a block boundary, an exclusion."""
    seed = draw(st.integers(min_value=0, max_value=1 << 16))
    rng = np.random.default_rng(seed)
    n = draw(st.sampled_from([1, 2, 3, 7, 40, 333, 1200, 1500]))
    dims = draw(st.integers(min_value=1, max_value=4))
    vector_dims = dims - 1 if dims > 1 and draw(st.booleans()) else dims
    matrix = rng.uniform(-100.0, 100.0, size=(n, dims))
    matrix[:, vector_dims:] = rng.uniform(0.0, 100.0, size=(n, dims - vector_dims))
    if draw(st.booleans()):
        # Duplicated coordinates: exact ties resolve to the lowest index.
        copies = rng.integers(n, size=max(1, n // 3))
        matrix[rng.integers(n, size=copies.size)] = matrix[copies]

    exclusion = draw(st.sampled_from(["none", "some", "all_but_one", "all"]))
    if exclusion == "none":
        exclude = None
    elif exclusion == "some":
        exclude = set(int(i) for i in rng.choice(n, size=n // 4, replace=False))
        exclude |= {-1, -7, n, n + 50}
    elif exclusion == "all_but_one":
        exclude = set(range(n)) - {int(rng.integers(n))} | {-3, n + 2}
    else:
        exclude = set(range(-2, n + 2))

    bad_row = draw(st.sampled_from([None, np.nan, np.inf, -np.inf]))
    if bad_row is not None:
        row = int(rng.integers(n))
        matrix[row, int(rng.integers(dims))] = bad_row
        if draw(st.booleans()):
            exclude = (exclude or set()) | {row}

    eligible = n - len([i for i in (exclude or ()) if 0 <= i < n])
    block = max(1, _BLOCK_ELEMENTS // max(eligible, 1))
    # The reference scans all n columns, excluded ones included: cap its
    # work where few nodes are eligible and the blocks are long.
    m = draw(
        st.sampled_from(
            [s for s in (1, block - 1, block, block + 1, 3 * block + 5) if s * n <= 2_000_000]
        )
    )
    targets = rng.uniform(-100.0, 100.0, size=(m, dims))
    if vector_dims < dims:
        # The pass's shape: ideal (zero) scalar parts shared by every target.
        targets[:, vector_dims:] = 0.0 if draw(st.booleans()) else rng.uniform(
            0.0, 100.0, size=(m, dims - vector_dims)
        )
    if draw(st.booleans()):
        # Targets sitting exactly on node coordinates.
        picks = rng.integers(m, size=max(1, m // 4))
        targets[picks] = matrix[rng.integers(n, size=picks.size)]
        targets[~np.isfinite(targets)] = 0.0
    return _space(matrix, vector_dims), targets, exclude


class TestBlockedScan:
    @given(scan_cases())
    @settings(max_examples=120, deadline=None)
    def test_matches_unblocked_reference(self, case):
        space, targets, exclude = case
        assert outcome(lambda: space.nearest_nodes(targets, exclude=exclude)) == (
            outcome(lambda: reference_nearest_nodes(space, targets, exclude))
        )

    @pytest.mark.parametrize("n", [1, 2, 1500])
    def test_crosses_block_boundaries_at_every_size(self, n):
        rng = np.random.default_rng(n)
        space = _space(rng.uniform(-100.0, 100.0, size=(n, 3)), 2)
        block = max(1, _BLOCK_ELEMENTS // n)
        for m in (1, block - 1, block, block + 1, 3 * block + 5):
            targets = rng.uniform(-100.0, 100.0, size=(max(m, 1), 3))
            targets[:, 2] = 0.0
            np.testing.assert_array_equal(
                space.nearest_nodes(targets),
                reference_nearest_nodes(space, targets),
            )

    @given(st.integers(min_value=0, max_value=1 << 16))
    @settings(max_examples=25, deadline=None)
    def test_matches_per_target_scalar_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 120))
        vector_dims = int(rng.integers(1, 4))
        matrix = np.hstack(
            [
                rng.uniform(-100.0, 100.0, size=(n, vector_dims)),
                rng.uniform(0.0, 100.0, size=(n, 1)),
            ]
        )
        space = _space(matrix, vector_dims)
        exclude = set(int(i) for i in rng.choice(n, size=int(rng.integers(n)), replace=False))
        targets = [
            CostCoordinate(
                tuple(float(v) for v in rng.uniform(-100.0, 100.0, size=vector_dims)),
                (float(rng.uniform(0.0, 100.0)),),
            )
            for _ in range(int(rng.integers(1, 40)))
        ]
        assert list(space.nearest_nodes(targets, exclude=exclude)) == [
            nearest_node_scalar(space, t, exclude=exclude) for t in targets
        ]


class TestScanStaysBlocked:
    def test_pass_shape_peaks_below_one_and_a_half_megabytes(self):
        """200 targets × 1 200 nodes × (2 vector + 1 load) dims, 60 excluded.

        The unblocked scan held three (200, 1 200) float64 temporaries
        (5.6 MB); the blocked scan holds two 64 k-element buffers.
        """
        rng = np.random.default_rng(0)
        n = 1200
        matrix = np.hstack(
            [rng.uniform(0.0, 200.0, size=(n, 2)), rng.uniform(0.0, 100.0, size=(n, 1))]
        )
        space = _space(matrix, 2)
        targets = np.column_stack([rng.uniform(0.0, 200.0, size=(200, 2)), np.zeros(200)])
        exclude = set(int(i) for i in rng.choice(n, size=60, replace=False))
        tracemalloc.start()
        try:
            space.nearest_nodes(targets, exclude=exclude)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6
