"""Plan generation: enumeration of candidate join trees.

Plan generation (§2.1) outputs logical plans; the integrated optimizer
then virtually places *each* candidate and keeps the cheapest circuit.
Three enumeration strategies are provided:

* :func:`enumerate_all_plans` — every distinct binary join tree over
  the producers (up to join commutativity).  There are
  ``(2n-3)!! = 1, 3, 15, 105, 945, ...`` such trees, so this is the
  ground-truth enumeration for small queries (n ≤ ~7).
* :func:`enumerate_left_deep_plans` — the ``n!/2`` left-deep trees,
  deduplicated on the first join's commutativity.
* :func:`top_k_plans` — Selinger-style dynamic programming over
  producer subsets that retains the ``k`` cheapest sub-plans per subset
  (by intermediate-rate cost), producing a *diverse candidate set* for
  the integrated optimizer at scale.  With ``k=1`` it degenerates to
  the classic single-best DP used by the two-step baseline.
"""

from __future__ import annotations

import itertools

from repro.query.plan import JoinNode, LeafNode, LogicalPlan, PlanNode
from repro.query.selectivity import Statistics

__all__ = [
    "enumerate_all_plans",
    "enumerate_left_deep_plans",
    "top_k_plans",
    "best_plan",
    "count_all_plans",
]


def count_all_plans(num_producers: int) -> int:
    """Number of distinct binary join trees over n producers: (2n-3)!!."""
    if num_producers < 1:
        raise ValueError("need at least one producer")
    if num_producers == 1:
        return 1
    count = 1
    for k in range(3, 2 * num_producers - 2, 2):
        count *= k
    return count


def enumerate_all_plans(producers: list[str]) -> list[LogicalPlan]:
    """All distinct join trees (up to commutativity) over ``producers``.

    Uses the classic recursive split: partition the producer set into
    two non-empty halves (first producer fixed to the left half to kill
    the mirror symmetry), recurse, and combine.  The split depends only
    on the producers' sorted order, so the tree shapes are enumerated
    once per producer count over ranks (:func:`_shapes`) and each call
    names their leaves: rank ``r`` is ``sorted(producers)[r]``.  Equal
    subtrees of one call are one (frozen) node, shared by its plans.
    """
    _check_names(producers)
    if len(producers) > 9:
        raise ValueError(
            "full enumeration beyond 9 producers is intractable; use top_k_plans"
        )
    names = sorted(producers)
    nodes: dict[object, PlanNode] = {}

    def named(shape) -> PlanNode:
        node = nodes.get(shape)
        if node is None:
            if isinstance(shape, int):
                node = LeafNode(names[shape])
            else:
                node = JoinNode(named(shape[0]), named(shape[1]))
            nodes[shape] = node
        return node

    return [LogicalPlan(named(shape)) for shape in _shapes(len(names))]


#: Shapes are kept for producer counts up to this one (10 395 shapes at
#: 7); larger counts, at most 9, are enumerated on every call.
_SHAPE_CACHE_LIMIT = 7
_SHAPE_CACHE: dict[int, tuple] = {}


def _shapes(count: int) -> tuple:
    """Every join-tree shape over ranks ``0..count-1``, in enumeration order."""
    shapes = _SHAPE_CACHE.get(count)
    if shapes is None:
        shapes = tuple(_all_trees(frozenset(range(count))))
        if count <= _SHAPE_CACHE_LIMIT:
            _SHAPE_CACHE[count] = shapes
    return shapes


def _all_trees(ranks: frozenset[int]) -> list:
    """Shapes over ``ranks``: a leaf is its rank, a join the pair (left, right)."""
    if len(ranks) == 1:
        (only,) = ranks
        return [only]
    ordered = sorted(ranks)
    anchor = ordered[0]
    rest = ordered[1:]
    trees: list = []
    # Left half always contains the anchor -> each unordered split
    # enumerated exactly once.
    for size in range(0, len(rest)):
        for extra in itertools.combinations(rest, size):
            left_ranks = frozenset((anchor,) + extra)
            right_ranks = ranks - left_ranks
            if not right_ranks:
                continue
            for left in _all_trees(left_ranks):
                for right in _all_trees(right_ranks):
                    trees.append((left, right))
    return trees


def enumerate_left_deep_plans(producers: list[str]) -> list[LogicalPlan]:
    """All left-deep join trees, deduplicated by plan signature."""
    _check_names(producers)
    if len(producers) == 1:
        return [LogicalPlan(LeafNode(producers[0]))]
    seen: set[str] = set()
    plans: list[LogicalPlan] = []
    for order in itertools.permutations(producers):
        tree: PlanNode = LeafNode(order[0])
        for name in order[1:]:
            tree = JoinNode(tree, LeafNode(name))
        plan = LogicalPlan(tree)
        sig = plan.signature()
        if sig not in seen:
            seen.add(sig)
            plans.append(plan)
    return plans


def top_k_plans(
    producers: list[str],
    stats: Statistics,
    k: int = 5,
    bushy: bool = True,
) -> list[LogicalPlan]:
    """Selinger DP retaining the k cheapest sub-plans per subset.

    The cost used for pruning is the network-oblivious intermediate-rate
    cost; keeping k > 1 alternatives per subset gives the integrated
    optimizer structurally-diverse candidates whose *placed* costs can
    then be compared against real network state.

    Args:
        producers: producer names.
        stats: rate/selectivity statistics for cost-based pruning.
        k: candidates retained per subset (and returned overall).
        bushy: if False, restrict to left-deep trees.

    Returns:
        Up to ``k`` complete plans, cheapest (by oblivious cost) first.
    """
    _check_names(producers)
    if k < 1:
        raise ValueError("k must be >= 1")
    names = sorted(producers)
    if len(names) == 1:
        return [LogicalPlan(LeafNode(names[0]))]

    # best[subset] = list of (oblivious_cost, tree), ascending, len <= k.
    best: dict[frozenset[str], list[tuple[float, PlanNode]]] = {}
    for name in names:
        best[frozenset((name,))] = [(0.0, LeafNode(name))]

    full = frozenset(names)
    for size in range(2, len(names) + 1):
        for subset in map(frozenset, itertools.combinations(names, size)):
            candidates: dict[str, tuple[float, PlanNode]] = {}
            for left_set in _proper_subsets(subset):
                right_set = subset - left_set
                if bushy:
                    # Enumerate each unordered split once.
                    if min(left_set) != min(subset):
                        continue
                else:
                    if len(right_set) != 1:
                        continue
                for left_cost, left_tree in best.get(left_set, []):
                    for right_cost, right_tree in best.get(right_set, []):
                        node = JoinNode(left_tree, right_tree)
                        cost = left_cost + right_cost + node.output_rate(stats)
                        sig = node.signature()
                        existing = candidates.get(sig)
                        if existing is None or cost < existing[0]:
                            candidates[sig] = (cost, node)
            ranked = sorted(candidates.values(), key=lambda t: t[0])
            best[subset] = ranked[:k]

    return [LogicalPlan(tree) for _, tree in best[full]]


def best_plan(
    producers: list[str], stats: Statistics, bushy: bool = True
) -> LogicalPlan:
    """The single cheapest plan by network-oblivious cost (two-step step 1)."""
    return top_k_plans(producers, stats, k=1, bushy=bushy)[0]


def _proper_subsets(names: frozenset[str]):
    """Non-empty proper subsets of a frozenset of names."""
    ordered = sorted(names)
    for size in range(1, len(ordered)):
        for combo in itertools.combinations(ordered, size):
            yield frozenset(combo)


def _check_names(producers: list[str]) -> None:
    if not producers:
        raise ValueError("need at least one producer")
    if len(producers) != len(set(producers)):
        raise ValueError("producer names must be unique")
