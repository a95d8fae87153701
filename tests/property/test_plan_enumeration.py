"""Plan enumeration by cached rank shapes against the per-call recursion it replaced.

``enumerate_all_plans`` enumerates the join-tree shapes once per
producer count, over ranks, and names each query's leaves by the rank
of each name in ``sorted(names)``.  ``reference_enumerate_all_plans``
below is the body it replaced, kept here verbatim as the reference: the
recursive split over the names themselves, on every call.  Both must
give the same plans in the same order — equal trees, signatures and
leaves — also for names whose sorted order differs from the order they
are given in.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.generator import enumerate_all_plans
from repro.query.plan import JoinNode, LeafNode, LogicalPlan, PlanNode

# -- the reference ------------------------------------------------------------


def reference_enumerate_all_plans(producers: list[str]) -> list[LogicalPlan]:
    trees = _all_trees(frozenset(producers))
    return [LogicalPlan(tree) for tree in trees]


def _all_trees(names: frozenset[str]) -> list[PlanNode]:
    if len(names) == 1:
        (only,) = names
        return [LeafNode(only)]
    ordered = sorted(names)
    anchor = ordered[0]
    rest = ordered[1:]
    trees: list[PlanNode] = []
    # Left half always contains the anchor -> each unordered split
    # enumerated exactly once.
    for size in range(0, len(rest)):
        for extra in itertools.combinations(rest, size):
            left_names = frozenset((anchor,) + extra)
            right_names = names - left_names
            if not right_names:
                continue
            for left in _all_trees(left_names):
                for right in _all_trees(right_names):
                    trees.append(JoinNode(left, right))
    return trees


# -- properties ---------------------------------------------------------------


def subtrees(node: PlanNode):
    yield node
    if isinstance(node, JoinNode):
        yield from subtrees(node.left)
        yield from subtrees(node.right)


names_lists = st.lists(
    st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZabcz019_", min_size=1, max_size=4),
    min_size=1,
    max_size=6,
    unique=True,
)


@given(names_lists)
@settings(max_examples=60, deadline=None)
def test_same_plans_in_the_same_order(names):
    want = reference_enumerate_all_plans(names)
    got = enumerate_all_plans(names)
    assert [plan.root for plan in got] == [plan.root for plan in want]
    assert [plan.signature() for plan in got] == [plan.signature() for plan in want]
    assert [
        [leaf.producer for leaf in plan.root.leaves()] for plan in got
    ] == [[leaf.producer for leaf in plan.root.leaves()] for plan in want]


@given(names_lists)
@settings(max_examples=30, deadline=None)
def test_the_plans_of_one_call_share_equal_subtrees(names):
    nodes = [node for plan in enumerate_all_plans(names) for node in subtrees(plan.root)]
    assert len({id(node) for node in nodes}) == len(set(nodes))


def test_every_count_from_one_to_seven_with_reversed_names():
    for count in range(1, 8):
        names = [f"P{count - i}" for i in range(count)]  # sorted order reverses them
        want = reference_enumerate_all_plans(names)
        got = enumerate_all_plans(names)
        assert [plan.root for plan in got] == [plan.root for plan in want]
        # A second call (cached shapes) names a new query's leaves alike.
        assert [plan.root for plan in enumerate_all_plans(names)] == [
            plan.root for plan in want
        ]
