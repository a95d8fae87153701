"""Selectivity statistics and stream-rate estimation.

Classic optimizers use table summaries to estimate the cost of service
orderings (§2.1).  For continuous queries the analogue is *rate*
estimation: given producer stream rates and pairwise join
selectivities, estimate the output rate of any join subtree.

The model is the standard product form: the output rate of joining two
sub-results ``L`` and ``R`` is::

    rate(L ⋈ R) = rate(L) * rate(R) * Π sel(a, b)   for a ∈ L, b ∈ R

which makes the rate of a producer subset independent of join order —
exactly the property Selinger-style dynamic programming relies on —
while the *intermediate* rates (and hence plan cost) still depend
heavily on the order.

Selectivities drift over time in a long-running query (§3.3); the
:meth:`Statistics.drifted` constructor produces a perturbed copy used by
re-optimization experiments.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

__all__ = ["Statistics", "rate_of_subset"]


@dataclass
class Statistics:
    """Rates and pairwise join selectivities for a set of producers.

    Attributes:
        rates: producer name -> stream rate (post-filter rates should be
            supplied by the caller; see ``QuerySpec.effective_rate``).
        selectivities: unordered pair (a, b) -> join selectivity in
            (0, 1].  Missing pairs default to ``default_selectivity``
            (a cross-product-ish penalty).
        default_selectivity: fallback selectivity for unlisted pairs.
    """

    rates: dict[str, float]
    selectivities: dict[frozenset[str], float] = field(default_factory=dict)
    default_selectivity: float = 1.0

    def __post_init__(self) -> None:
        for name, rate in self.rates.items():
            if rate <= 0:
                raise ValueError(f"rate of {name} must be positive")
        for pair, sel in self.selectivities.items():
            if len(pair) != 2:
                raise ValueError(f"selectivity key {set(pair)} is not a pair")
            if not 0 < sel <= 1:
                raise ValueError(f"selectivity {sel} outside (0, 1]")
        if not 0 < self.default_selectivity <= 1:
            raise ValueError("default_selectivity outside (0, 1]")

    @classmethod
    def build(
        cls,
        rates: dict[str, float],
        pair_selectivities: dict[tuple[str, str], float] | None = None,
        default_selectivity: float = 1.0,
    ) -> "Statistics":
        """Convenience constructor taking ordered-pair keys."""
        sels = {
            frozenset(pair): value
            for pair, value in (pair_selectivities or {}).items()
        }
        return cls(dict(rates), sels, default_selectivity)

    @classmethod
    def random(
        cls,
        names: list[str],
        rate_bounds: tuple[float, float] = (1.0, 20.0),
        selectivity_bounds: tuple[float, float] = (0.01, 0.5),
        seed: int = 0,
    ) -> "Statistics":
        """Random statistics for workload generation (log-uniform sel)."""
        rng = random.Random(seed)
        rates = {name: rng.uniform(*rate_bounds) for name in names}
        sels: dict[frozenset[str], float] = {}
        low, high = selectivity_bounds
        if not 0 < low <= high <= 1:
            raise ValueError("invalid selectivity bounds")
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                log_sel = rng.uniform(math.log(low), math.log(high))
                sels[frozenset((a, b))] = math.exp(log_sel)
        return cls(rates, sels)

    def rate(self, name: str) -> float:
        """Stream rate of a single producer."""
        if name not in self.rates:
            raise KeyError(f"no statistics for producer {name}")
        return self.rates[name]

    def selectivity(self, a: str, b: str) -> float:
        """Join selectivity between two producers' streams."""
        if a == b:
            raise ValueError("selectivity of a producer with itself is undefined")
        return self.selectivities.get(frozenset((a, b)), self.default_selectivity)

    def drifted(self, relative_sigma: float = 0.3, seed: int = 0) -> "Statistics":
        """Copy with log-normal noise on rates and selectivities.

        Models the selectivity drift of a maturing circuit (§3.3) that
        triggers full re-optimization.
        """
        rng = random.Random(seed)

        def jitter(value: float, cap: float | None = None) -> float:
            factor = math.exp(rng.gauss(0.0, relative_sigma))
            out = value * factor
            if cap is not None:
                out = min(out, cap)
            return max(out, 1e-6)

        rates = {name: jitter(rate) for name, rate in self.rates.items()}
        sels = {
            pair: jitter(sel, cap=1.0) for pair, sel in self.selectivities.items()
        }
        return Statistics(rates, sels, self.default_selectivity)


def rate_of_subset(stats: Statistics, names: frozenset[str] | set[str]) -> float:
    """Estimated output rate of the join of all producers in ``names``.

    Product-form model: product of member rates times the product of
    selectivities over every unordered pair inside the subset.
    """
    members = sorted(names)
    if not members:
        raise ValueError("subset must be non-empty")
    rate = 1.0
    for name in members:
        rate *= stats.rate(name)
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            rate *= stats.selectivity(a, b)
    return rate
