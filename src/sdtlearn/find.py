"""Exact minimization of empirical error over depth-bounded decision trees.

``find`` performs the recursive backtracking search: try every free
variable at the root, recurse on both restrictions with one less depth,
and keep the best.  Two exact optimizations keep desk-scale instances
fast: the search runs on the dataset's count table (distinct inputs with
their 0 and 1 label counts) instead of on rows, and subproblems are
memoized by (restriction, depth).  The same restriction is reached once
per ordering of its variables, so the cache collapses up to d! duplicate
searches without changing the result.

Tie-breaking is total (smallest variable index wins; constant ties
resolve to 0), so the returned tree is a canonical function of the input.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .trees import Leaf, Node, Query, StochasticTree, mean_on_points


@dataclass
class SearchStats:
    nodes_expanded: int = 0
    cache_hits: int = 0
    wall_time: float = 0.0


@dataclass(frozen=True)
class FindResult:
    tree: StochasticTree
    error_count: int
    empirical_error: float
    stats: SearchStats = field(compare=False)


class _Solver:
    def __init__(self, uz: np.ndarray, w0: np.ndarray, w1: np.ndarray, n: int, memo: bool):
        self.uz = uz
        self.w0 = w0
        self.w1 = w1
        self.n = n
        self.cache: dict | None = {} if memo else None
        self.stats = SearchStats()

    def solve(self, idx: np.ndarray, fixed: tuple, mask: int, depth: int) -> tuple[Node, int]:
        if idx.size == 0:
            # Empty restriction: any tree is vacuously optimal; the
            # constant tie rule picks the 0-leaf.
            return Leaf(0), 0
        key = (fixed, depth)
        if self.cache is not None:
            hit = self.cache.get(key)
            if hit is not None:
                self.stats.cache_hits += 1
                return hit
        self.stats.nodes_expanded += 1

        ones = int(self.w1[idx].sum())
        zeros = int(self.w0[idx].sum())
        if depth == 0 or mask.bit_count() == self.n:
            label = 1 if ones > zeros else 0
            result: tuple[Node, int] = (Leaf(label), zeros if label else ones)
        else:
            best_err = -1
            best_node: Node = Leaf(0)
            zvals = self.uz[idx]
            for var in range(self.n):
                if (mask >> var) & 1:
                    continue  # querying a path-fixed variable cannot reduce error
                bit = (zvals >> var) & 1
                idx0 = idx[bit == 0]
                idx1 = idx[bit == 1]
                child_mask = mask | (1 << var)
                node0, err0 = self.solve(idx0, _extend(fixed, var, 0), child_mask, depth - 1)
                node1, err1 = self.solve(idx1, _extend(fixed, var, 1), child_mask, depth - 1)
                if best_err < 0 or err0 + err1 < best_err:
                    best_err = err0 + err1
                    best_node = Query(var, node0, node1)
            result = (best_node, best_err)

        if self.cache is not None:
            self.cache[key] = result
        return result


def _extend(fixed: tuple, var: int, bit: int) -> tuple:
    return tuple(sorted(fixed + ((var, bit),)))


def find(dataset: Dataset, depth: int, *, memo: bool = True) -> FindResult:
    """Return the canonical minimum-empirical-error tree of depth <= depth."""
    if depth < 0:
        raise ValueError("depth budget must be nonnegative")
    start = time.perf_counter()
    uz, w0, w1, _ = dataset.counts()
    solver = _Solver(uz, w0, w1, dataset.n, memo)
    node, err = solver.solve(np.arange(uz.size, dtype=np.int64), (), 0, depth)
    solver.stats.wall_time = time.perf_counter() - start
    m = dataset.m
    return FindResult(
        tree=StochasticTree(dataset.n, node),
        error_count=int(err),
        empirical_error=err / m if m else 0.0,
        stats=solver.stats,
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
