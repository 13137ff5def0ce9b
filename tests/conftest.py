"""Shared fixtures and independent oracles.

The oracles here recompute tree semantics by brute force (enumerating
randomness strings or truth tables, or walking the tree and flipping
each coin on the way), hypotheses one input at a time, regression
objectives row by row, the depth-bounded search as the recursion that
``find``'s table replaced, and the best depth-bounded tree by enumerating
every tree, so library results are checked against arithmetic that shares
no code path with them.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Sequence

import numpy as np
import pytest

from sdtlearn.data import Dataset
from sdtlearn.evaluation import Hypothesis, _hypothesis_means
from sdtlearn.find import SearchStats
from sdtlearn.polynomials import MultilinearPolynomial, trunc
from sdtlearn.regression import ROUND_TIE_TOL, TruncatedPolyHypothesis
from sdtlearn.trees import (
    Leaf,
    Node,
    Query,
    RandomnessString,
    Stoch,
    StochasticTree,
    mean,
    round_prob,
    stoch_count,
    stochastic_probabilities,
)


@pytest.fixture
def demo_tree() -> StochasticTree:
    """Three-variable tree with two coins; its exact numbers are frozen in tests.

    x0=0, x1=0        -> 1
    x0=0, x1=1        -> 1 w.p. 0.2
    x0=1 (heads, 0.7) -> x2
    x0=1 (tails, 0.3) -> 1
    """
    return StochasticTree(
        3,
        Query(
            0,
            Query(1, Leaf(1), Stoch(0.2, Leaf(1), Leaf(0))),
            Stoch(0.7, Query(2, Leaf(0), Leaf(1)), Leaf(1)),
        ),
    )


def evaluate_fixed(tree: StochasticTree, x: Sequence[int], r: RandomnessString) -> int:
    """Evaluate with all coin flips predetermined by the randomness string."""
    m = stoch_count(tree.root)
    if len(r) != m:
        raise ValueError(f"randomness string has length {len(r)}, tree has {m} stochastic nodes")
    if len(x) != tree.n:
        raise ValueError(f"input has length {len(x)}, expected {tree.n}")
    node, base = tree.root, 0
    while not isinstance(node, Leaf):
        if isinstance(node, Query):
            if x[node.var]:
                base += stoch_count(node.child0)
                node = node.child1
            else:
                node = node.child0
        else:
            if r[base]:
                base += 1
                node = node.child_heads
            else:
                base += 1 + stoch_count(node.child_heads)
                node = node.child_tails
    return node.label


def bayes_classifier(tree: StochasticTree) -> Callable[[Sequence[int]], int]:
    """The minimum-error deterministic predictor x -> round(mu(x))."""
    return lambda x: round_prob(mean(tree, x))


def enumerate_fixed_moments(tree: StochasticTree, x) -> tuple[float, float]:
    """(mean, variance) of the tree's output on x, by summing over all 2^m
    randomness strings weighted by their per-node probabilities."""
    probs = stochastic_probabilities(tree)
    mean_acc = 0.0
    for bits in product((0, 1), repeat=len(probs)):
        weight = 1.0
        for bit, p in zip(bits, probs):
            weight *= p if bit else (1.0 - p)
        mean_acc += weight * evaluate_fixed(tree, x, bits)
    return mean_acc, mean_acc * (1.0 - mean_acc)


def sample(tree: StochasticTree, x, rng: np.random.Generator) -> int:
    """Draw one output bit by walking the tree, one uniform per coin visited;
    equals 1 with probability mean(tree, x)."""
    node = tree.root
    while not isinstance(node, Leaf):
        if isinstance(node, Query):
            node = node.child1 if x[node.var] else node.child0
        else:
            node = node.child_heads if rng.random() < node.p else node.child_tails
    return node.label


def all_points(n: int):
    return list(product((0, 1), repeat=n))


def force_fair_coins(node: Node) -> Node:
    """Copy of a subtree with every coin probability replaced by 1/2."""
    if isinstance(node, Leaf):
        return node
    if isinstance(node, Query):
        return Query(node.var, force_fair_coins(node.child0), force_fair_coins(node.child1))
    return Stoch(0.5, force_fair_coins(node.child_heads), force_fair_coins(node.child_tails))


def dataset_rows(dataset: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dataset's rows (packed inputs, uint8 labels, bool flags) in
    ascending (input, label, flag) order, one per counted row."""
    cell = np.repeat(np.arange(dataset.cells.size), dataset.cells.ravel())
    return dataset.zs[cell >> 2], ((cell >> 1) & 1).astype(np.uint8), (cell & 1).astype(bool)


def label_cells(dataset: Dataset) -> dict[tuple[int, int], int]:
    """The number of rows at each (input, label) pair that has any."""
    zs, c0, c1 = dataset.counts()
    return {
        (z, y): count
        for z, pair in zip(zs.tolist(), zip(c0.tolist(), c1.tolist()))
        for y, count in enumerate(pair)
        if count
    }


def table_expectation(dataset: Dataset, table: dict[tuple[int, int], float]) -> float:
    """The mean over the rows of table[(input, label)], weighted by the count table."""
    return sum(table[key] * count for key, count in label_cells(dataset).items()) / dataset.m


def l1_objective(poly: MultilinearPolynomial, dataset: Dataset) -> float:
    """Mean absolute error of the polynomial against the dataset labels, row by row."""
    zs, ys, _ = dataset_rows(dataset)
    return float(np.mean(np.abs(poly.evaluate_packed(zs) - ys)))


def l2_objective(poly: MultilinearPolynomial, dataset: Dataset) -> float:
    """Mean squared error of the polynomial against the dataset labels, row by row."""
    zs, ys, _ = dataset_rows(dataset)
    return float(np.mean((poly.evaluate_packed(zs) - ys) ** 2))


def predict(
    hypothesis: TruncatedPolyHypothesis,
    x: Sequence[int],
    rng: np.random.Generator | None = None,
) -> int:
    """One prediction of the hypothesis at x, from the clamped polynomial."""
    q = trunc(hypothesis.poly.evaluate(x))
    if hypothesis.mode == "rounded":
        return int(q >= 0.5 - ROUND_TIE_TOL)
    if rng is None:
        raise ValueError("randomized prediction needs an rng")
    return int(rng.random() < q)


def hypothesis_mean_vector(hypothesis: Hypothesis, n: int) -> np.ndarray:
    """Pr[hypothesis outputs 1] over all 2^n inputs."""
    return _hypothesis_means(hypothesis, n, np.arange(1 << n, dtype=np.int64))


class ReferenceFindSolver:
    """The search keyed by (sorted (var, bit) tuple, depth)."""

    def __init__(self, uz: np.ndarray, w0: np.ndarray, w1: np.ndarray, n: int, memo: bool):
        self.uz = uz
        self.w0 = w0
        self.w1 = w1
        self.n = n
        self.cache: dict | None = {} if memo else None
        self.stats = SearchStats()

    def solve(self, idx: np.ndarray, fixed: tuple, mask: int, depth: int) -> tuple[Node, int]:
        if idx.size == 0:
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
                    continue
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


def reference_find(dataset: Dataset, depth: int, memo: bool):
    """(tree, error count, search counters) of the tuple-keyed search."""
    uz, w0, w1 = dataset.counts()
    solver = ReferenceFindSolver(uz, w0, w1, dataset.n, memo)
    node, err = solver.solve(np.arange(uz.size, dtype=np.int64), (), 0, depth)
    return StochasticTree(dataset.n, node), int(err), solver.stats


#: Most trees ``find_brute_oracle`` enumerates.
_BRUTE_TREE_LIMIT = 5_000_000


def find_brute_oracle(dataset: Dataset, depth: int) -> float:
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
    if count > _BRUTE_TREE_LIMIT:
        raise ValueError(f"would enumerate {count} trees, above the limit {_BRUTE_TREE_LIMIT}")

    uz, w0, w1 = dataset.counts()
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
