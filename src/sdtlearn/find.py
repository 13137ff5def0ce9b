"""Exact minimization of empirical error over depth-bounded decision trees.

``find`` returns the minimum-empirical-error tree of depth at most d.  It
works on the dataset's count table (distinct inputs with their 0 and 1
label counts) and fills a table over restrictions (S, b): S is a set of
at most L = min(d, n) variables and b their values, i.e. a subcube of
{0,1}^n.  The table is filled bottom-up, one level |S| at a time:

* at level L a subcube is a leaf, labeled 1 iff it holds more 1-labels
  than 0-labels; per label, one ``bincount`` of the inputs' bits on S
  counts the rows of all 2^|S| subcubes of S;
* below L, the error of (S, b) is the smallest, over free variables v,
  of the errors of its two halves (S + v, b with v = 0) and
  (S + v, b with v = 1); each variable is a vectorized pass over all
  (S, b) that leave it free, keeping a running minimum.

The tree is read back from the root: an empty subcube is ``Leaf(0)``,
and an internal node queries the smallest variable whose halves reach
the minimum, so ties resolve to the smallest variable index and, at
leaves, to 0.  The returned tree is a canonical function of the input.

This computes exactly what the recursive search (try every free variable
at the root, recurse on both halves with one less depth, keep the first
best) computes with a cache keyed by the restriction, and ``SearchStats``
keeps that search's counters: ``nodes_expanded`` is the number of
nonempty subcubes with at most L fixed variables, and ``cache_hits`` the
number of further calls such a search would make on them (a nonempty
subcube with k fixed variables is reached once from each of its k
parents).

The table has sum_{k <= L} C(n, k) * 2^k cells, and the search peaks at
about 45 bytes a cell (measured at n=24, depth 5).  ``find`` rejects a
table over ``TABLE_CELLS_CAP`` with ``TableBudgetExceeded`` before it
counts or allocates anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .trees import Leaf, Node, Query, StochasticTree, mean_on_points, unpack_inputs

#: Largest restriction table (cells over all levels) ``find`` builds.
TABLE_CELLS_CAP = 1 << 21

#: Entries per block of the leaf level's bit keys.
_KEY_BLOCK = 1 << 20


class TableBudgetExceeded(ValueError):
    """The restriction table of a depth-bounded search would exceed its cap."""


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


def table_cells(n: int, depth: int) -> int:
    """Cells of the restriction table for a depth-``depth`` search over n variables."""
    return sum(math.comb(n, k) << k for k in range(min(depth, n) + 1))


def check_table_budget(n: int, depth: int) -> None:
    """Reject a negative depth, or a search table over TABLE_CELLS_CAP cells."""
    if depth < 0:
        raise ValueError("depth budget must be nonnegative")
    count = table_cells(n, depth)
    if count > TABLE_CELLS_CAP:
        raise TableBudgetExceeded(
            f"depth {depth} over {n} variables needs a {count}-cell search table, cap is {TABLE_CELLS_CAP}"
        )


def find(dataset: Dataset, depth: int) -> FindResult:
    """Return the canonical minimum-empirical-error tree of depth <= depth."""
    n = dataset.n
    check_table_budget(n, depth)
    uz, w0, w1, _ = dataset.counts()
    node, err, stats = _table_search(uz, w0, w1, n, min(depth, n))
    return FindResult(
        tree=StochasticTree(n, node),
        error_count=int(err),
        empirical_error=err / dataset.m if dataset.m else 0.0,
        stats=stats,
    )


def _table_search(
    uz: np.ndarray, w0: np.ndarray, w1: np.ndarray, n: int, top: int
) -> tuple[Node, int, SearchStats]:
    # masks[k]: the k-variable sets S as ascending bitmasks.  tables[k][r]
    # holds (error, row count) for every b, where b's bit j is the value of
    # the j-th smallest variable of S = masks[k][r].
    masks = [np.zeros(1, dtype=np.int64)]
    for _ in range(top):
        grown = masks[-1][:, None] | (np.int64(1) << np.arange(n, dtype=np.int64))
        masks.append(np.unique(grown[grown != masks[-1][:, None]]))
    c0, c1 = _leaf_counts(uz, w0, w1, n, masks[top], top)
    tables = [np.stack([np.minimum(c0, c1), c0 + c1], axis=1)]
    for k in range(top - 1, -1, -1):
        tables.insert(0, _fold_level(masks[k], masks[k + 1], tables[0], n, k))

    nonempty = [int(np.count_nonzero(t[:, 1])) for t in tables]
    stats = SearchStats()
    if nonempty[0]:
        stats.nodes_expanded = sum(nonempty)
        calls = 1 + sum(k * count for k, count in enumerate(nonempty))
        stats.cache_hits = calls - stats.nodes_expanded
    node = _rebuild(masks, tables, c1, n, 0, 0, 0)
    return node, int(tables[0][0, 0, 0]), stats


def _leaf_counts(
    uz: np.ndarray, w0: np.ndarray, w1: np.ndarray, n: int, masks: np.ndarray, top: int
) -> tuple[np.ndarray, np.ndarray]:
    """0- and 1-label counts of every subcube of every S in ``masks``."""
    rows, width = masks.size, 1 << top
    variables = np.nonzero((masks[:, None] >> np.arange(n, dtype=np.int64)) & 1)[1]
    variables = variables.reshape(rows, top)
    # Keys below 2^top fit the smallest unsigned type; narrow keys halve
    # or better the memory traffic of building them.
    bits = unpack_inputs(uz, n).T.astype(np.min_scalar_type(width - 1), order="C")
    weights = (w0.astype(np.float64), w1.astype(np.float64))
    counts = np.empty((2, rows, width), dtype=np.int64)
    block = max(1, _KEY_BLOCK // max(uz.size, 1))
    for start in range(0, rows, block):
        chosen = variables[start : start + block]
        keys = np.zeros((chosen.shape[0], uz.size), dtype=bits.dtype)
        for j in range(top):
            keys |= bits[chosen[:, j]] << j
        for r, key in enumerate(keys, start):
            for label in (0, 1):
                counts[label, r] = np.bincount(key, weights=weights[label], minlength=width)
    return counts[0], counts[1]


def _fold_level(masks: np.ndarray, up_masks: np.ndarray, up: np.ndarray, n: int, k: int) -> np.ndarray:
    """Level k's (error, count) table from level k + 1's."""
    table = np.empty((masks.size, 2, 1 << k), dtype=np.int64)
    table[:, 0] = np.iinfo(np.int64).max
    for v in range(n):
        bit = np.int64(1) << v
        parents = np.flatnonzero((masks & bit) == 0)
        children = np.searchsorted(up_masks, masks[parents] | bit)
        # v's position among the variables of S + v
        positions = np.bitwise_count(masks[parents] & (bit - 1))
        for p in range(k + 1):
            chosen = positions == p
            if not chosen.any():
                continue
            rows = parents[chosen]
            halves = up[children[chosen]].reshape(-1, 2, 1 << (k - p), 2, 1 << p)
            joined = (halves[:, :, :, 0] + halves[:, :, :, 1]).reshape(-1, 2, 1 << k)
            table[rows, 0] = np.minimum(table[rows, 0], joined[:, 0])
            table[rows, 1] = joined[:, 1]
    return table


def _rebuild(
    masks: list[np.ndarray], tables: list[np.ndarray], c1: np.ndarray,
    n: int, k: int, mask: int, b: int,
) -> Node:
    """The tree at subcube (mask, b) with k fixed variables, read from the table."""
    row = int(np.searchsorted(masks[k], mask))
    err, count = tables[k][row, :, b]
    if count == 0:
        return Leaf(0)
    if k == len(tables) - 1:
        return Leaf(1) if 2 * c1[row, b] > count else Leaf(0)
    up = tables[k + 1]
    for v in range(n):
        bit = 1 << v
        if mask & bit:
            continue
        p = (mask & (bit - 1)).bit_count()
        b0 = (b & ((1 << p) - 1)) | ((b >> p) << (p + 1))
        b1 = b0 | (1 << p)
        child = int(np.searchsorted(masks[k + 1], mask | bit))
        if up[child, 0, b0] + up[child, 0, b1] == err:
            return Query(
                v,
                _rebuild(masks, tables, c1, n, k + 1, mask | bit, b0),
                _rebuild(masks, tables, c1, n, k + 1, mask | bit, b1),
            )
    raise AssertionError("no variable reaches the table's minimum")


def empirical_error(tree: StochasticTree, dataset: Dataset) -> float:
    """Fraction of rows the tree misclassifies (stochastic trees contribute
    their per-row disagreement probability)."""
    if tree.n != dataset.n:
        raise ValueError(f"tree is over {tree.n} variables, sample over {dataset.n}")
    if dataset.m == 0:
        return 0.0
    mu = mean_on_points(tree, dataset.zs)
    return float(np.mean(np.where(dataset.ys == 1, 1.0 - mu, mu)))
