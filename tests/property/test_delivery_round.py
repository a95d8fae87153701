"""A delivery round's capacity gate and extract order against the sort-based
code they replaced.

``_capacity_gate`` totals a round per node with one ``bincount`` and
sorts only the tuples of nodes the round can saturate ("tight" nodes);
``reference_capacity_gate`` below is the gate it replaced, kept verbatim
as a bit-for-bit reference: every tuple argsorted by node, groups from
``np.unique``, admitted costs scattered with ``np.add.at``.  Admission
prices sit on the 1/256 grid, so every partial sum either gate takes is
exact and the keep mask and ``node_used`` must agree byte for byte.

``_canonical_order`` sorts one packed int64 key where the extract used
``np.lexsort((seq, port, op))``; the permutations must be equal, and a
batch whose key would pass 63 bits must raise ``OverflowError``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.dataplane import _canonical_order, _capacity_gate

# -- the reference ------------------------------------------------------------


def reference_capacity_gate(nodes, node_used, cap, costs):
    """The sort-based gate, verbatim."""
    order = np.argsort(nodes, kind="stable")
    sn = nodes[order]
    sc = costs[order]
    _, starts, cnts = np.unique(sn, return_index=True, return_counts=True)
    cum = np.cumsum(sc)
    group_base = np.repeat(cum[starts] - sc[starts], cnts)
    before = cum - group_base - sc
    keep_sorted = before + node_used[sn] < cap[sn]
    keep = np.empty(nodes.size, dtype=bool)
    keep[order] = keep_sorted
    np.add.at(node_used, nodes[keep], costs[keep])
    return keep


# -- cases ----------------------------------------------------------------------

NUM_NODES = 12


@st.composite
def rounds(draw):
    """(nodes, node_used, cap, costs) of one round.

    Node ids repeat; costs are positive multiples of 1/256; caps mix
    finite values near the round's load with ``inf``; ``node_used`` is
    pre-filled on the same grid, some nodes already at or past their
    cap, with or without a tuple this round.  ``regime`` forces rounds
    where every node is loose or every node is tight.
    """
    regime = draw(st.sampled_from(["mixed", "all-loose", "all-tight"]))
    m = draw(st.integers(1, 60))
    nodes = np.array(
        draw(st.lists(st.integers(0, NUM_NODES - 1), min_size=m, max_size=m)),
        dtype=np.int64,
    )
    ticks = draw(st.lists(st.integers(1, 4 * 256), min_size=m, max_size=m))
    costs = np.array(ticks, dtype=np.float64) / 256.0
    used_ticks = draw(
        st.lists(st.integers(0, 8 * 256), min_size=NUM_NODES, max_size=NUM_NODES)
    )
    node_used = np.array(used_ticks, dtype=np.float64) / 256.0
    total = np.bincount(nodes, weights=costs, minlength=NUM_NODES)
    if regime == "all-loose":
        cap = node_used + total + 1.0
        cap[draw(st.lists(st.integers(0, NUM_NODES - 1), max_size=4))] = np.inf
    elif regime == "all-tight":
        # Every node saturates: its cap sits inside its round's prefix
        # sums (or at or below what it has already used).
        frac = np.array(
            draw(st.lists(st.floats(0.0, 1.0), min_size=NUM_NODES, max_size=NUM_NODES))
        )
        cap = node_used + frac * total
    else:
        cap = np.array(
            draw(
                st.lists(
                    st.one_of(
                        st.just(np.inf),
                        st.integers(0, 16 * 256).map(lambda t: t / 256.0),
                        st.floats(0.0, 20.0, allow_nan=False),
                    ),
                    min_size=NUM_NODES,
                    max_size=NUM_NODES,
                )
            ),
            dtype=np.float64,
        )
    # Some nodes already at their cap, with or without tuples this round
    # (``node_used`` stays on the grid: it only ever sums prices).
    full = draw(st.lists(st.integers(0, NUM_NODES - 1), max_size=3))
    cap[full] = node_used[full]
    return nodes, node_used, cap, costs


class TestCapacityGate:
    @settings(max_examples=300, deadline=None)
    @given(rounds())
    def test_gate_matches_sort_based_reference(self, case):
        nodes, node_used, cap, costs = case
        used_new = node_used.copy()
        used_ref = node_used.copy()
        keep_new = _capacity_gate(nodes, used_new, cap, costs)
        keep_ref = reference_capacity_gate(nodes, used_ref, cap, costs)
        assert keep_new.tobytes() == keep_ref.tobytes()
        assert used_new.tobytes() == used_ref.tobytes()

    def test_fixture_reaches_every_branch(self):
        # The property above is only as good as its rounds: check on a
        # fixed sample that they include loose-only rounds (no sort),
        # rounds with drops, and tight nodes with no tuple this round.
        loose_only = drops = empty_tight = 0

        @settings(max_examples=200, deadline=None, database=None, derandomize=True)
        @given(rounds())
        def sample(case):
            nonlocal loose_only, drops, empty_tight
            nodes, node_used, cap, costs = case
            total = np.bincount(nodes, weights=costs, minlength=NUM_NODES)
            tight = node_used + total >= cap
            loose_only += not tight[nodes].any()
            empty_tight += bool((tight & (total == 0)).any())
            drops += not _capacity_gate(nodes, node_used.copy(), cap, costs).all()

        sample()
        assert loose_only and drops and empty_tight

    def test_a_round_at_a_full_node_with_no_tuple_admits_the_rest(self):
        # Node 1 sits at its cap and gets nothing this round: the gate
        # must not sort an empty tight set.
        node_used = np.array([0.0, 4.0, 0.0])
        cap = np.array([10.0, 4.0, np.inf])
        nodes = np.array([0, 2, 0, 2], dtype=np.int64)
        costs = np.array([1.0, 2.5, 0.5, 3.0])
        keep = _capacity_gate(nodes, node_used, cap, costs)
        assert keep.all()
        assert node_used.tolist() == [1.5, 4.0, 5.5]


# -- the extract order ----------------------------------------------------------


@st.composite
def batches(draw):
    """(op, port, seq) of a due() batch: ops and ports repeat, seqs are
    unique, unordered, and may span more than 2^32."""
    m = draw(st.integers(1, 80))
    ports = draw(st.integers(1, 5))
    op = np.array(draw(st.lists(st.integers(0, 3000), min_size=m, max_size=m)))
    port = np.array(
        draw(st.lists(st.integers(0, ports - 1), min_size=m, max_size=m))
    )
    span = draw(st.sampled_from([m, 1 << 20, (1 << 33) + 7]))
    lo = draw(st.integers(0, 1 << 40))
    seq = lo + np.array(
        draw(st.lists(st.integers(0, span), min_size=m, max_size=m, unique=True))
    )
    return op.astype(np.int64), port.astype(np.int64), seq.astype(np.int64)


class TestCanonicalOrder:
    @settings(max_examples=200, deadline=None)
    @given(batches())
    def test_packed_order_matches_lexsort(self, batch):
        op, port, seq = batch
        expected = np.lexsort((seq, port, op))
        assert _canonical_order(op, port, seq).tolist() == expected.tolist()

    def test_seq_span_past_two_to_the_32(self):
        seq = np.array([(1 << 34) + 5, 3, (1 << 33), 4], dtype=np.int64)
        op = np.array([1, 1, 0, 1], dtype=np.int64)
        port = np.array([0, 0, 1, 1], dtype=np.int64)
        assert _canonical_order(op, port, seq).tolist() == [2, 1, 0, 3]

    def test_key_past_63_bits_raises(self):
        # op·P + port needs 22 bits, the span 39, the position 2: 63 fits.
        op = np.array([(1 << 21) - 1, 0], dtype=np.int64)
        port = np.array([1, 0], dtype=np.int64)
        seq = np.array([0, (1 << 39) - 1], dtype=np.int64)
        assert _canonical_order(op, port, seq).tolist() == [1, 0]
        # One more bit of seq span is one too many.
        seq[1] = 1 << 39
        with pytest.raises(OverflowError, match="63 bits"):
            _canonical_order(op, port, seq)
