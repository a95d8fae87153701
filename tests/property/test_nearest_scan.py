"""The nearest-node scans against the unblocked scan they replaced.

:meth:`CostSpace.nearest_nodes` scans targets in blocks of
``_BLOCK_ELEMENTS // eligible`` rows through two reused buffers, over
the eligible nodes' columns gathered once.  ``reference_nearest_nodes``
below is the scan it replaced, kept verbatim as a bit-for-bit
reference: whole ``(chunk, n)`` temporaries, excluded columns
overwritten with ``inf``.  Both compute every squared distance with the
same arithmetic, so their answers (and whether they raise) must agree
exactly, ties included, on every shape that crosses a block boundary.

A call of ``_WINDOWED_TARGETS`` or more targets first scans windows of
the nodes ordered along one vector column and sends the targets no
window settles through the blocked scan.  ``TestWindowFallback`` builds
the cases that must reach that fallback — or skip the windows — and
checks both that they do and that every answer still equals the
reference.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.cost_space as cost_space
from repro.core.coordinates import CostCoordinate
from repro.core.cost_space import (
    _BLOCK_ELEMENTS,
    _WINDOWED_TARGETS,
    _WINDOWS,
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


# -- the window's fallback ------------------------------------------------------


@pytest.fixture
def fallback(monkeypatch):
    """Rows each call of the blocked scan received, call by call."""
    seen = []
    blocked = cost_space._blocked_scan

    def recorded(t, cols):
        seen.append(t.shape[0])
        return blocked(t, cols)

    monkeypatch.setattr(cost_space, "_blocked_scan", recorded)
    return seen


def _spread(rng, n, extra=()):
    """``n`` nodes over a wide first column (the sort column), plus rows."""
    matrix = np.column_stack(
        [
            rng.uniform(-1000.0, 1000.0, size=n),
            rng.uniform(-100.0, 100.0, size=n),
            rng.uniform(0.0, 10.0, size=n),
        ]
    )
    return np.vstack([matrix, *extra]) if extra else matrix


def _assert_reference(space, targets, exclude=None):
    got = outcome(lambda: space.nearest_nodes(targets, exclude=exclude))
    assert got == outcome(lambda: reference_nearest_nodes(space, targets, exclude))
    return got


M = max(_WINDOWED_TARGETS, 40)


class TestWindowFallback:
    def test_more_coincident_nodes_than_the_widest_window(self, fallback):
        rng = np.random.default_rng(1)
        crowd = np.tile([[3.0, 4.0, 0.5]], (_WINDOWS[-1] + 50, 1))
        space = _space(_spread(rng, 800, [crowd]), 2)
        targets = np.tile([3.0, 4.0, 0.0], (M, 1))
        targets[::2, :2] += rng.uniform(-1e-9, 1e-9, size=(M // 2, 2))
        _assert_reference(space, targets)
        # Every target sits in the crowd: no window can settle it.
        assert fallback == [M]

    def test_targets_beyond_either_end_of_the_sort_column(self, fallback):
        rng = np.random.default_rng(2)
        space = _space(_spread(rng, 1500), 2)
        targets = np.zeros((M, 3))
        targets[: M // 2, 0] = rng.uniform(-5000.0, -1500.0, size=M // 2)
        targets[M // 2 :, 0] = rng.uniform(1500.0, 5000.0, size=M - M // 2)
        targets[:, 1] = rng.uniform(-100.0, 100.0, size=M)
        got = _assert_reference(space, targets)
        assert isinstance(got, list)
        assert sum(fallback) <= M

    @pytest.mark.parametrize("lower_outside", [True, False])
    def test_exact_ties_straddling_the_window_edge(self, fallback, lower_outside):
        # Two nodes at squared distance exactly 25 from every target (at
        # the origin): one 60 places left of the target's place in the
        # sort column, inside the first window, the other past 400
        # fillers on the right, outside every window.  Fillers sit
        # between them along the sort column but far off in the second.
        rng = np.random.default_rng(3)
        left = np.column_stack(
            [-np.linspace(0.01, 4.99, 60), np.full(60, 900.0), np.zeros(60)]
        )
        right = np.column_stack(
            [np.linspace(0.01, 4.99, 400), np.full(400, -900.0), np.zeros(400)]
        )
        far = np.array([[-2000.0, 0.0, 0.0], [2000.0, 0.0, 0.0]])
        pair = np.array([[-5.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
        if lower_outside:
            pair = pair[::-1]
        matrix = np.vstack([pair, left, right, far, _spread(rng, 300) + [0.0, 3000.0, 0.0]])
        space = _space(matrix, 2)
        targets = np.zeros((M, 3))
        got = _assert_reference(space, targets)
        assert got == [0] * M
        assert fallback == [M]

    def test_excluded_nodes_inside_the_window(self, fallback):
        rng = np.random.default_rng(4)
        space = _space(_spread(rng, 1500), 2)
        targets = np.column_stack(
            [rng.uniform(-900.0, 900.0, size=M), rng.uniform(-90.0, 90.0, size=M), np.zeros(M)]
        )
        nearest = set(reference_nearest_nodes(space, targets).tolist())
        order = np.argsort(space._matrix[:, 0], kind="stable")
        place = np.searchsorted(space._matrix[order, 0], targets[0, 0])
        around = set(order[max(0, place - 40) : place + 40].tolist())
        exclude = nearest | around
        got = _assert_reference(space, targets, exclude)
        assert not set(got) & exclude

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("excluded", [False, True])
    def test_non_finite_node_columns(self, fallback, bad, excluded):
        rng = np.random.default_rng(5)
        matrix = _spread(rng, 1500)
        matrix[17, 1] = bad
        space = _space(matrix, 2)
        targets = np.column_stack(
            [rng.uniform(-900.0, 900.0, size=M), rng.uniform(-90.0, 90.0, size=M), np.zeros(M)]
        )
        _assert_reference(space, targets, {17} if excluded else None)
        if not excluded:
            # A non-finite eligible column sends the whole call to the
            # full scan; excluded, it never enters the windows.
            assert fallback == [M]
        else:
            assert sum(fallback) < M

    @pytest.mark.parametrize("gap_node_first", [True, False])
    def test_a_node_exactly_at_the_gap_is_a_tie_not_a_miss(
        self, fallback, monkeypatch, gap_node_first
    ):
        # Windows of 4 nodes.  The target at the origin sits between x =
        # -1 and 1; its window holds A = (-3, 4) and three fillers far off
        # in the second column, and the nearest node outside it along x
        # is B = (5, 0).  Both are at squared distance exactly 25, so
        # the gap (25) does not exceed the window's best: B must still
        # be compared, and the lower index wins.
        monkeypatch.setattr(cost_space, "_WINDOWS", (4,))
        a, b = [-3.0, 4.0, 0.0], [5.0, 0.0, 0.0]
        fillers = [[-1.0, 900.0, 0.0], [1.0, 900.0, 0.0], [2.0, 900.0, 0.0]]
        far = [[-1000.0, 0.0, 0.0], [1000.0, 0.0, 0.0]]
        rows = ([b, a] if gap_node_first else [a, b]) + fillers + far
        space = _space(np.array(rows), 2)
        targets = np.zeros((M, 3))
        assert _assert_reference(space, targets) == [0] * M
        assert fallback == [M]

    def test_a_tie_inside_the_window_goes_to_the_lower_index(
        self, fallback, monkeypatch
    ):
        # (3, 4) and (-3, 4) tie at 25 from the origin; in the window's
        # order (ascending x) the higher index comes first.
        monkeypatch.setattr(cost_space, "_WINDOWS", (4,))
        rows = [
            [-1000.0, 0.0, 0.0], [9.0, 0.0, 0.0], [3.0, 4.0, 0.0],
            [-9.0, 0.0, 0.0], [1000.0, 0.0, 0.0], [-3.0, 4.0, 0.0],
        ]
        space = _space(np.array(rows), 2)
        targets = np.zeros((M, 3))
        assert _assert_reference(space, targets) == [2] * M
        assert fallback == []

    def test_small_calls_skip_the_windows(self, fallback):
        rng = np.random.default_rng(6)
        space = _space(_spread(rng, 1500), 2)
        targets = np.zeros((_WINDOWED_TARGETS - 1, 3))
        _assert_reference(space, targets)
        assert fallback == [_WINDOWED_TARGETS - 1]

    def test_the_node_order_follows_the_vector_columns(self, fallback):
        # update_metrics keeps the cached order; a vector update drops it.
        rng = np.random.default_rng(7)
        space = _space(_spread(rng, 1500), 2)
        targets = np.column_stack(
            [rng.uniform(-900.0, 900.0, size=M), rng.uniform(-90.0, 90.0, size=M), np.zeros(M)]
        )
        _assert_reference(space, targets)
        order = space._node_order()
        space.update_metrics({"cpu_load": rng.uniform(0.0, 1.0, size=1500)})
        assert space._node_order() is order
        _assert_reference(space, targets)
        space.update_vector(3, [5000.0, 0.0])
        assert space._node_order() is not order
        _assert_reference(space, targets)
        space.update_vectors(space.vector_matrix()[::-1].copy())
        _assert_reference(space, targets)
