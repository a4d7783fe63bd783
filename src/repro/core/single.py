"""Single-dimension selection processing — PRKB(SD) (paper Sec. 5).

:class:`SingleDimensionProcessor` wires one :class:`PRKBIndex` into the
query pipeline of Fig. 2b and adds the one-dimensional *range* form used
throughout the paper's experiments (``lb < X < ub``), which the EDBMS
processes as two comparison trapdoors whose winner sets are intersected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..crypto.trapdoor import EncryptedPredicate
from .prkb import PRKBIndex

__all__ = ["SingleDimensionProcessor", "QueryCost"]


@dataclass(frozen=True)
class QueryCost:
    """Per-query cost summary (the paper's two reported metrics)."""

    qpf_uses: int
    simulated_ms: float | None = None


class SingleDimensionProcessor:
    """Process comparison / range selections on one attribute with PRKB."""

    def __init__(self, index: PRKBIndex):
        self.index = index

    @property
    def attribute(self) -> str:
        """The encrypted attribute this processor serves."""
        return self.index.attribute

    @staticmethod
    def estimate_qpf(n: int, k: int) -> int:
        """Expected QPF uses of one PRKB(SD) range query (Sec. 5).

        Analytic model only — the planner's :class:`~repro.plan.estimator.
        CostEstimator` tightens this with the index's observed Not-Sure
        scan widths when history is available.
        """
        if k <= 1:
            return n
        ns_scan = 4 * max(1, n // k)  # two NS-pairs of ~n/k tuples
        return ns_scan + 2 * max(1, int(np.log2(k)))

    def select(self, trapdoor: EncryptedPredicate,
               update: bool = True) -> np.ndarray:
        """Answer a single comparison predicate; returns winner uids."""
        if trapdoor.kind != "comparison":
            raise ValueError(
                f"SingleDimensionProcessor handles comparison trapdoors; "
                f"got kind {trapdoor.kind!r} (use BetweenProcessor)"
            )
        return self.index.select(trapdoor, update=update).winners

    def select_range(self, low_trapdoor: EncryptedPredicate,
                     high_trapdoor: EncryptedPredicate,
                     update: bool = True) -> np.ndarray:
        """Answer ``lb < X < ub`` given its two comparison trapdoors.

        Each trapdoor is processed independently with PRKB (the paper's
        baseline composition for range queries, Sec. 6 opening) and the
        winner sets are intersected server-side at plain-comparison cost.
        """
        winners_low = self.select(low_trapdoor, update=update)
        winners_high = self.select(high_trapdoor, update=update)
        self.index.qpf.counter.charge(
            comparisons=int(winners_low.size + winners_high.size))
        return np.intersect1d(winners_low, winners_high,
                              assume_unique=True)

    def measure(self, trapdoors: list[EncryptedPredicate],
                update: bool = True) -> tuple[np.ndarray, QueryCost]:
        """Run a conjunctive selection and report its QPF consumption."""
        if not trapdoors:
            raise ValueError("measure() needs at least one trapdoor")
        counter = self.index.qpf.counter
        winners: np.ndarray | None = None
        with counter.measure() as spent:
            for trapdoor in trapdoors:
                part = self.select(trapdoor, update=update)
                if winners is None:
                    winners = part
                else:
                    counter.charge(comparisons=int(winners.size + part.size))
                    winners = np.intersect1d(winners, part,
                                             assume_unique=True)
        return winners, QueryCost(qpf_uses=spent.qpf_uses)
