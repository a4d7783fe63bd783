"""DO-driven index priming (paper Sec. 8.2.6, last sentence).

"If DO wants to avoid the poor performance of EDBMS using PRKB in the
beginning, DO can arbitrarily generate queries (as few as 50 queries in
this case) to help SP build an initiate PRKB."

This module implements that warm-up as a first-class operation, with two
threshold-generation strategies:

* ``equal-width`` — thresholds on an even grid over the domain: each
  query is guaranteed inequivalent (for data covering the domain), so k
  grows by one per query and partitions end up balanced in *domain*
  terms.  The deterministic optimum when the DO knows only the domain.
* ``random`` — the paper's "arbitrarily generated" queries: uniform
  thresholds, which may collide in equivalence classes and skew the
  partition sizes.

The priming cost is a one-off investment of roughly one full scan
amortised over ``num_queries`` refinements (each query only scans the
NS-pair of the current chain); ``bench_ablation_bootstrap.py`` measures
both strategies' payoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .single import SingleDimensionProcessor

__all__ = ["PrimingReport", "generate_thresholds", "prime_index"]

STRATEGIES = ("equal-width", "random")


def _bisection_permutation(size: int) -> np.ndarray:
    """Indices 0..size-1 in breadth-first bisection order.

    Midpoint first, then the midpoints of the two halves, and so on —
    the order that keeps every split landing in the middle of the
    largest remaining partition.
    """
    order: list[int] = []
    pending: list[tuple[int, int]] = [(0, size - 1)]
    while pending:
        lo, hi = pending.pop(0)
        if lo > hi:
            continue
        mid = (lo + hi) // 2
        order.append(mid)
        pending.append((lo, mid - 1))
        pending.append((mid + 1, hi))
    return np.asarray(order, dtype=np.int64)


@dataclass(frozen=True)
class PrimingReport:
    """Outcome of one priming run."""

    strategy: str
    queries_issued: int
    qpf_spent: int
    partitions_before: int
    partitions_after: int


def generate_thresholds(domain: tuple[int, int], count: int,
                        strategy: str = "equal-width",
                        seed: int | None = None) -> np.ndarray:
    """Thresholds for ``X < c`` priming queries under a strategy."""
    lo, hi = domain
    if lo >= hi:
        raise ValueError(f"degenerate domain [{lo}, {hi}]")
    if count < 1:
        raise ValueError("count must be positive")
    if strategy == "equal-width":
        # count interior grid points, excluding both domain ends, issued
        # in bisection order: each query then lands mid-partition, so the
        # NS-pair scans halve geometrically and the total priming cost is
        # ~n log2(count) / count per query instead of ~n.
        grid = np.unique(np.rint(
            np.linspace(lo, hi, count + 2)[1:-1]).astype(np.int64))
        return grid[_bisection_permutation(grid.size)]
    if strategy == "random":
        rng = np.random.default_rng(seed)
        return rng.integers(lo + 1, hi + 1, size=count, dtype=np.int64)
    raise ValueError(
        f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
    )


def prime_index(owner, index, domain: tuple[int, int], num_queries: int,
                strategy: str = "equal-width",
                seed: int | None = None) -> PrimingReport:
    """Issue DO-generated comparison queries to warm a PRKB index.

    ``owner`` is the :class:`~repro.edbms.owner.DataOwner` that seals the
    trapdoors (in deployment this is a DO-side script firing throwaway
    queries); the server processes them exactly like real traffic.
    """
    thresholds = generate_thresholds(domain, num_queries,
                                     strategy=strategy, seed=seed)
    processor = SingleDimensionProcessor(index)
    before_k = index.num_partitions
    with index.qpf.counter.measure() as spent:
        for threshold in thresholds:
            trapdoor = owner.comparison_trapdoor(index.attribute, "<",
                                                 int(threshold))
            processor.select(trapdoor, update=True)
    return PrimingReport(
        strategy=strategy,
        queries_issued=int(thresholds.size),
        qpf_spent=spent.qpf_uses,
        partitions_before=before_k,
        partitions_after=index.num_partitions,
    )
