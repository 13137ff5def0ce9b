"""Shared fixtures and independent oracles.

The oracles here recompute tree semantics by brute force (enumerating
randomness strings or truth tables, or walking the tree and flipping
each coin on the way), and regression objectives row by row, so library
results are checked against arithmetic that shares no code path with
them.
"""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from sdtlearn.data import Dataset
from sdtlearn.polynomials import MultilinearPolynomial
from sdtlearn.trees import (
    Leaf,
    Node,
    Query,
    Stoch,
    StochasticTree,
    evaluate_fixed,
    pack_inputs,
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


def l1_objective(poly: MultilinearPolynomial, dataset: Dataset) -> float:
    """Mean absolute error of the polynomial against the dataset labels."""
    preds = poly.evaluate_packed(pack_inputs(dataset.xs))
    return float(np.mean(np.abs(preds - dataset.ys)))


def l2_objective(poly: MultilinearPolynomial, dataset: Dataset) -> float:
    """Mean squared error of the polynomial against the dataset labels."""
    preds = poly.evaluate_packed(pack_inputs(dataset.xs))
    return float(np.mean((preds - dataset.ys) ** 2))
