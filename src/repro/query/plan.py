"""Logical query plans: binary join trees over producers.

A logical plan (§2.1) contains the identity and order of services used
to answer a query.  For a join query the plan is a binary tree whose
leaves are producers and whose internal nodes are two-way join services
(the paper's Figure 1 decomposes a four-way join into three two-way
joins).  Internal nodes are the *unpinned services* of the resulting
circuit; leaves and the root's consumer are pinned.

Plans compute their intermediate rates through the product-form
selectivity model, and expose a network-oblivious cost (total
intermediate data rate) used by the classic two-step baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.query.selectivity import Statistics, rate_of_subset

__all__ = ["PlanNode", "LeafNode", "JoinNode", "LogicalPlan"]


class PlanNode:
    """Base class for plan-tree nodes."""

    @property
    def producers(self) -> frozenset[str]:
        """Names of producers under this subtree."""
        raise NotImplementedError

    def output_rate(self, stats: Statistics) -> float:
        """Estimated stream rate leaving this node."""
        raise NotImplementedError

    def internal_nodes(self) -> list["JoinNode"]:
        """All join nodes in this subtree, children before parents."""
        raise NotImplementedError

    def leaves(self) -> list["LeafNode"]:
        """All leaves in left-to-right order."""
        raise NotImplementedError

    def signature(self) -> str:
        """Canonical string identifying the tree shape up to child swap.

        Join is commutative, so ``(A ⋈ B)`` and ``(B ⋈ A)`` get the same
        signature; plan enumeration uses this for deduplication.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class LeafNode(PlanNode):
    """A plan leaf: one producer stream (optionally pre-filtered)."""

    producer: str

    @cached_property
    def producers(self) -> frozenset[str]:
        return frozenset((self.producer,))

    def output_rate(self, stats: Statistics) -> float:
        return stats.rate(self.producer)

    def internal_nodes(self) -> list["JoinNode"]:
        return []

    def leaves(self) -> list["LeafNode"]:
        return [self]

    def signature(self) -> str:
        return self.producer

    def __str__(self) -> str:
        return self.producer


@dataclass(frozen=True)
class JoinNode(PlanNode):
    """A two-way join service over two subtrees."""

    left: PlanNode
    right: PlanNode

    def __post_init__(self) -> None:
        overlap = self.left.producers & self.right.producers
        if overlap:
            raise ValueError(f"join children share producers {sorted(overlap)}")

    @cached_property
    def producers(self) -> frozenset[str]:
        return self.left.producers | self.right.producers

    def output_rate(self, stats: Statistics) -> float:
        return rate_of_subset(stats, self.producers)

    def input_rate(self, stats: Statistics) -> float:
        """Combined rate arriving at this join from both children."""
        return self.left.output_rate(stats) + self.right.output_rate(stats)

    def internal_nodes(self) -> list["JoinNode"]:
        return self.left.internal_nodes() + self.right.internal_nodes() + [self]

    def leaves(self) -> list[LeafNode]:
        return self.left.leaves() + self.right.leaves()

    def signature(self) -> str:
        left_sig = self.left.signature()
        right_sig = self.right.signature()
        first, second = sorted((left_sig, right_sig))
        return f"({first}*{second})"

    def __str__(self) -> str:
        return f"({self.left} ⋈ {self.right})"


@dataclass(frozen=True)
class LogicalPlan:
    """A complete logical plan: a join tree delivering to the consumer.

    Attributes:
        root: the plan tree (a single leaf for one-producer queries).
    """

    root: PlanNode

    @cached_property
    def producers(self) -> frozenset[str]:
        return self.root.producers

    @property
    def num_services(self) -> int:
        """Number of unpinned (join) services in the plan."""
        return len(self.root.internal_nodes())

    def is_left_deep(self) -> bool:
        """True if every join's right child is a leaf (or it's a leaf plan)."""
        node = self.root
        while isinstance(node, JoinNode):
            if not isinstance(node.right, LeafNode):
                return False
            node = node.left
        return isinstance(node, LeafNode)

    def intermediate_rate_cost(self, stats: Statistics) -> float:
        """Network-oblivious plan cost: sum of all intermediate rates.

        This is the classic "minimize intermediate results" objective a
        traditional plan generator optimizes before ever looking at the
        network — the first step of the two-step baseline (§2.3).
        """
        return sum(
            node.output_rate(stats) for node in self.root.internal_nodes()
        )

    def signature(self) -> str:
        """Canonical identity of the plan shape (commutative joins)."""
        return self.root.signature()

    def __str__(self) -> str:
        return str(self.root)
