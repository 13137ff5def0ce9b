"""Exact minimization of empirical error over depth-bounded decision trees.

``find`` performs the recursive backtracking search: try every free
variable at the root, recurse on both restrictions with one less depth,
and keep the best.  A restriction is two bitmasks over the packed
variables: ``mask`` marks the variables fixed on the path and ``bits``
holds their values.  Two exact optimizations keep desk-scale instances
fast: the search runs on the dataset's count table (distinct inputs with
their 0 and 1 label counts) instead of on rows, and subproblems are
memoized by (mask, bits, depth).  The same restriction is reached once
per ordering of its variables, so the cache collapses up to d! duplicate
searches without changing the result.  ``SearchStats`` holds only these
deterministic counters; callers time the search themselves.

Tie-breaking is total (smallest variable index wins; constant ties
resolve to 0), so the returned tree is a canonical function of the input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .trees import Leaf, Node, Query, StochasticTree, mean_on_points


@dataclass
class SearchStats:
    nodes_expanded: int = 0
    cache_hits: int = 0


@dataclass(frozen=True)
class FindResult:
    tree: StochasticTree
    error_count: int
    empirical_error: float
    stats: SearchStats = field(compare=False)


def find(dataset: Dataset, depth: int, *, memo: bool = True) -> FindResult:
    """Return the canonical minimum-empirical-error tree of depth <= depth."""
    if depth < 0:
        raise ValueError("depth budget must be nonnegative")
    n = dataset.n
    uz, w0, w1, _ = dataset.counts()
    stats = SearchStats()
    cache: dict[tuple[int, int, int], tuple[Node, int]] = {}

    def solve(idx: np.ndarray, mask: int, bits: int, depth: int) -> tuple[Node, int]:
        if idx.size == 0:
            # Empty restriction: any tree is vacuously optimal; the
            # constant tie rule picks the 0-leaf.
            return Leaf(0), 0
        key = (mask, bits, depth)
        hit = cache.get(key)
        if hit is not None:
            stats.cache_hits += 1
            return hit
        stats.nodes_expanded += 1
        if depth == 0 or mask.bit_count() == n:
            ones, zeros = int(w1[idx].sum()), int(w0[idx].sum())
            result: tuple[Node, int] = (Leaf(1), zeros) if ones > zeros else (Leaf(0), ones)
        else:
            result = (Leaf(0), -1)
            zvals = uz[idx]
            for var in range(n):
                b = 1 << var
                if mask & b:
                    continue  # querying a path-fixed variable cannot reduce error
                one = (zvals & b) != 0
                node0, err0 = solve(idx[~one], mask | b, bits, depth - 1)
                node1, err1 = solve(idx[one], mask | b, bits | b, depth - 1)
                if result[1] < 0 or err0 + err1 < result[1]:
                    result = (Query(var, node0, node1), err0 + err1)
        if memo:
            cache[key] = result
        return result

    node, err = solve(np.arange(uz.size, dtype=np.int64), 0, 0, depth)
    # solve's closure holds solve itself; unbinding it frees the cache now
    # rather than at the next cyclic garbage collection.
    del solve
    return FindResult(
        tree=StochasticTree(n, node),
        error_count=int(err),
        empirical_error=err / dataset.m if dataset.m else 0.0,
        stats=stats,
    )


def empirical_error(tree: StochasticTree, dataset: Dataset) -> float:
    """Fraction of rows the tree misclassifies (stochastic trees contribute
    their per-row disagreement probability)."""
    if dataset.m == 0:
        return 0.0
    mu = mean_on_points(tree, dataset.packed())
    return float(np.mean(np.where(dataset.ys == 1, 1.0 - mu, mu)))


def find_brute_oracle(dataset: Dataset, depth: int, tree_limit: int = 5_000_000) -> float:
    """Minimal empirical error over ALL depth-<= depth trees, by enumeration.

    Independent check for ``find``: every tree is generated explicitly
    (including ones that re-query path variables), so agreement is not
    inherited from shared search logic.  Feasible around n <= 4, depth <= 2.
    """
    if depth < 0:
        raise ValueError("depth budget must be nonnegative")
    n = dataset.n
    count = 2
    for _ in range(depth):
        count = 2 + n * count * count
    if count > tree_limit:
        raise ValueError(f"would enumerate {count} trees, above the limit {tree_limit}")

    uz, w0, w1, _ = dataset.counts()
    if uz.size == 0:
        return 0.0
    preds = [np.zeros(uz.size, dtype=np.uint8), np.ones(uz.size, dtype=np.uint8)]
    for _ in range(depth):
        prev = preds
        preds = list(prev)
        for var in range(n):
            bit = ((uz >> var) & 1).astype(bool)
            for p0 in prev:
                for p1 in prev:
                    preds.append(np.where(bit, p1, p0))
    m = int(w0.sum() + w1.sum())
    best = min(int(w1[p == 0].sum() + w0[p == 1].sum()) for p in preds)
    return best / m
