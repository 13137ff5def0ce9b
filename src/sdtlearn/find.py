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
  (S + v, b with v = 1); each level is linked once to the next, and the
  fold makes one vectorized pass over all (S, b) per free-variable slot
  j, through the links to S plus its j-th free variable, keeping a
  running minimum.

The tree is read back from the root along the same links: an empty
subcube is ``Leaf(0)``, and an internal node queries the smallest
variable whose halves reach the minimum, so ties resolve to the smallest
variable index and, at leaves, to 0.  The returned tree is a canonical
function of the input.

This computes exactly what the recursive search (try every free variable
at the root, recurse on both halves with one less depth, keep the first
best) computes with a cache keyed by the restriction, and ``SearchStats``
keeps that search's counters: ``nodes_expanded`` is the number of
nonempty subcubes with at most L fixed variables, and ``cache_hits`` the
number of further calls such a search would make on them (a nonempty
subcube with k fixed variables is reached once from each of its k
parents).

The table has sum_{k <= L} C(n, k) * 2^k cells, and the search peaks at
about 37 bytes a cell (tracemalloc, at n=24, depth 5).  ``find`` rejects a
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
    masks, links = _links(n, top)
    c0, c1 = _leaf_counts(uz, w0, w1, n, masks, top)
    errs, counts = [np.minimum(c0, c1).ravel()], [(c0 + c1).ravel()]
    for k in range(top - 1, -1, -1):
        # errs[0] and counts[0] are level k + 1's tables.
        child, pos = links[k]
        b = np.arange(1 << k)
        err = None
        for j in range(n - k):
            lo, hi = _halves(child[:, j, None], pos[:, j, None], b, k)
            both = errs[0][lo] + errs[0][hi]
            err = both if err is None else np.minimum(err, both, out=err)
        counts.insert(0, (counts[0][lo] + counts[0][hi]).ravel())
        errs.insert(0, err.ravel())

    nonempty = [int(np.count_nonzero(c)) for c in counts]
    stats = SearchStats()
    if nonempty[0]:
        stats.nodes_expanded = sum(nonempty)
        calls = 1 + sum(k * count for k, count in enumerate(nonempty))
        stats.cache_hits = calls - stats.nodes_expanded
    node = _rebuild((links, errs, counts, c1.ravel()), 0, 0)
    return node, int(errs[0][0]), stats


def _links(n: int, top: int) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Level top's variable sets, and links[k] = (child, pos) for each level
    k below it: with v the j-th smallest free variable of the r-th set S,
    S + v is row child[r, j] one level up and v is its pos[r, j]-th (v - j)
    smallest variable.  Sets are ascending bitmasks; cell (r << k) + b of
    level k's tables is subcube (S, b), b's bit i the value of S's i-th."""
    masks = np.zeros(1, dtype=np.int64)
    links = []
    for k in range(top):
        grown = masks[:, None] | (np.int64(1) << np.arange(n, dtype=np.int64))
        free = grown != masks[:, None]
        masks, child = np.unique(grown[free], return_inverse=True)
        var = np.nonzero(free)[1].reshape(-1, n - k)
        # pos stays int64, as var is: 1 << pos must not wrap at pos = 8.
        links.append((child.reshape(-1, n - k), var - np.arange(n - k)))
    return masks, links


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


def _halves(child, pos, b, k):
    """Level k + 1 cells of subcube b's halves on the variable linked by
    (child, pos): b with a 0, then a 1, inserted at bit pos (adding b's
    bits from pos up to b moves them up one place)."""
    lo = b + (b & -(1 << pos)) + (child << (k + 1))
    return lo, lo + (1 << pos)


def _rebuild(table: tuple, k: int, cell: int) -> Node:
    """The tree at cell ``cell`` of level k of ``table`` = (links, errs,
    counts, c1), with c1 the leaf level's flat 1-label counts."""
    links, errs, counts, c1 = table
    if counts[k][cell] == 0:
        return Leaf(0)
    if k == len(links):
        return Leaf(1) if 2 * c1[cell] > counts[k][cell] else Leaf(0)
    child, pos = links[k]
    row, b = cell >> k, cell & ((1 << k) - 1)
    lo, hi = _halves(child[row], pos[row], b, k)
    reached = np.flatnonzero(errs[k + 1][lo] + errs[k + 1][hi] == errs[k][cell])
    if not reached.size:
        raise AssertionError("no variable reaches the table's minimum")
    j = reached[0]
    return Query(int(pos[row, j] + j), _rebuild(table, k + 1, int(lo[j])), _rebuild(table, k + 1, int(hi[j])))


def empirical_error(tree: StochasticTree, dataset: Dataset) -> float:
    """Fraction of rows the tree misclassifies (stochastic trees contribute
    their per-row disagreement probability)."""
    if tree.n != dataset.n:
        raise ValueError(f"tree is over {tree.n} variables, sample over {dataset.n}")
    if dataset.m == 0:
        return 0.0
    mu = mean_on_points(tree, dataset.zs)
    return float(np.mean(np.where(dataset.ys == 1, 1.0 - mu, mu)))
