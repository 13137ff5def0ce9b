"""Exact minimization of empirical error over depth-bounded decision trees.

``find`` returns the minimum-empirical-error tree of depth at most d.  It
works on the dataset's count table (distinct inputs with their 0 and 1
label counts) and fills a table over restrictions (S, b): S is a set of
at most L = min(d, n) variables and b their values, i.e. a subcube of
{0,1}^n.  The table is filled bottom-up, one level |S| at a time:

* at level L a subcube is a leaf, labeled 1 iff it holds more 1-labels
  than 0-labels.  Its counts come from the label moments
  M_l(T) = sum_z w_l(z) [T subset of z] of the sets T of at most L
  variables, w_l(z) the number of rows at z labeled l.  With a = L // 2
  and b = L - a, M_l(A + B) is entry (A, B) of one float64 matrix
  product per block of inputs, between the inputs' products over the
  sets A of at most a variables (both labels' weights stacked) and over
  the sets B of at most b; a set's product row is its parent's (the set
  less its largest variable) times one bit row, a variable's bits on the
  block's distinct inputs (find's only rows of bits).  Each S splits into its
  a lowest and b highest variables, so A only runs below n - b, B only
  from a up, and a few chunks of rows are each multiplied by only the
  columns that can pair with them (max A < min B).  S's 2^L
  moments are gathered through the two halves' subsets, and L
  superset-Moebius passes (``polynomials._subset_transform`` over
  supersets) give count(S, b) = sum over B <= T <= S of
  (-1)^|T - B| M(T), B the variables b sets to 1.  Every moment and
  every value of the passes is an integer at most m < 2^53, so float64
  holds and adds it exactly, in any order and under any number of BLAS
  threads.  A block holds about ``_PRODUCT_BLOCK`` product entries, so
  memory does not grow with the number of inputs and, at n=10, L=5,
  stays within the heap that glibc keeps between calls;
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
about 34 bytes a cell (tracemalloc, at n=24, depth 5; 35 at n=16, depth
5), in the fold, or 39 (41) on a call that builds its plan: what depends
on (n, L) alone, built once by ``_plan``, which keeps the last
``_PLAN_SHAPES`` shapes' plans read-only (0.07 MiB at n=10, L=5, 7.9 at
n=24, L=5 and 11.7 at n=40, L=4).  The leaf level alone peaks at about
26: the counts, one label's gathered moments and the moment matrix.
``find`` rejects a table over ``TABLE_CELLS_CAP`` with
``TableBudgetExceeded`` before it counts or allocates anything.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .polynomials import _subset_transform
from .trees import Leaf, Node, Query, StochasticTree, mean_on_points

#: Largest restriction table (cells over all levels) ``find`` builds.
TABLE_CELLS_CAP = 1 << 21

#: Product entries (both matrices) per block of inputs at the leaf level.
_PRODUCT_BLOCK = 1 << 15

#: Chunks of moment rows, each multiplied by only the prefix of columns it needs.
_ROW_CHUNKS = 4

#: Shapes (n, L) whose search plan ``_plan`` keeps.
_PLAN_SHAPES = 4


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
    uz, w0, w1 = dataset.counts()
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
    links = _plan(n, top)[0]
    c0, c1 = _moment_counts(uz, w0, w1, n, top)
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


@functools.lru_cache(maxsize=_PLAN_SHAPES)
def _plan(n: int, top: int) -> tuple:
    """What a search over n variables to level top reads that depends on nothing
    else: the links, each half's ``_half`` and the chunks (rows, columns)."""
    masks, links = _links(n, top)
    a, b = top // 2, top - top // 2
    lo_mask, lo_parent, lo_last, _ = _family(n - b, a)
    hi_mask, hi_parent, hi_last, hi_first = _family(n - a, b)
    # Chunks of the rows by largest variable; a column, by smallest, pairs
    # with the first ``band`` chunks, whose first rows' largest lie below it.
    rank = np.argsort(lo_last, kind="stable")
    bounds = np.unique(np.linspace(0, rank.size, _ROW_CHUNKS + 1).astype(int)).tolist()
    band = np.searchsorted(lo_last[rank[bounds[:-1]]], hi_first + a)
    chunks = tuple((r0, r1, int(np.count_nonzero(band > c))) for c, (r0, r1) in enumerate(zip(bounds, bounds[1:])))
    variables = np.nonzero((masks[:, None] >> np.arange(n, dtype=np.int64)) & 1)[1].reshape(masks.size, top)
    low, *lo = _half(lo_mask, lo_parent, lo_last, np.searchsorted(bounds, np.argsort(rank), "right"), variables[:, :a])
    high, *hi = _half(hi_mask, hi_parent, hi_last + a, -band, variables[:, a:] - a)
    for x in (low, high, *lo, *hi, *(arr for link in links for arr in link)):
        x.setflags(write=False)
    return tuple(links), tuple(lo), tuple(hi), chunks, low, high


def _half(mask: np.ndarray, parent: np.ndarray, var: np.ndarray, key: np.ndarray, variables: np.ndarray) -> tuple:
    """``_family`` rows by key, then level (parents first): in that order, the
    rows of the subsets of each row r's ascending ``variables[r]``, at [t, r]
    the one with its j-th variable iff bit j of t is set; each row's parent
    and variable; and the starts of runs of rows with earlier parents."""
    order = np.argsort(key, kind="stable")
    at, by_mask = np.argsort(order), np.argsort(mask)
    picks = np.arange(1 << variables.shape[1])[:, None] >> np.arange(variables.shape[1]) & 1
    rows = at[by_mask[np.searchsorted(mask[by_mask], picks @ (np.int64(1) << variables.T))]]
    parent = at[parent[order]]
    starts = [1]
    for row, up in enumerate(parent.tolist()):
        if up >= starts[-1]:
            starts.append(row)
    return rows, parent, var[order], np.array(starts + [order.size])


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


def _moment_counts(uz: np.ndarray, w0: np.ndarray, w1: np.ndarray, n: int, top: int) -> np.ndarray:
    """0- and 1-label counts, stacked, of every subcube of every level-top
    set, from the moments M_l(T) = sum_z w_l(z) [T subset of z]."""
    # M_l(A + B) is entry (A, B) of the product of the inputs' products over
    # the sets A of S's a lowest variables (all below n - b), weighted by
    # w_l, and over the sets B of its b highest (all from a up).  A chunk of
    # rows needs only the columns that can pair with its first row: a prefix.
    _, lo, hi, chunks, low, high = _plan(n, top)
    na, nb = lo[0].size, hi[0].size
    moments = np.zeros((2 * na, nb))
    step = max(1, _PRODUCT_BLOCK // (2 * na + nb))
    for start in range(0, uz.size, step):
        block = slice(start, start + step)
        bits = (uz[block] >> np.arange(n, dtype=np.int64)[:, None] & 1).astype(np.float64)
        # Both labels' rows interleaved.  Every partial sum is an integer at
        # most m < 2^53, so BLAS adds exactly in any order and thread count.
        left = _products(np.stack([w0[block], w1[block]]), bits, lo).reshape(2 * na, -1)
        right = _products(np.ones((1, bits.shape[1])), bits, hi).reshape(nb, -1)
        for r0, r1, cols in chunks:
            moments[2 * r0 : 2 * r1, :cols] += left[2 * r0 : 2 * r1] @ right[:cols].T

    # Subset rows with S innermost: the gather's output takes their layout
    # (never a rows x 2^top index array), and the passes run along S.
    moments = moments.reshape(na, 2, nb)
    counts = np.empty((2, low.shape[1], 1 << top), dtype=np.int64)
    # No name holds one label's gathered moments while the next are gathered.
    gather = (low[None, :, :], high[:, None, :])
    for label in (0, 1):
        counts[label] = _subset_transform(moments[:, label][gather].reshape(1 << top, -1), top, -1.0, True).T
    return counts


def _family(width: int, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The sets of at most ``size`` of ``width`` variables, level by level
    in ``_links``'s order, row 0 the empty set: each row's bitmask, parent
    (the row of the set less its largest variable), largest variable (-1
    for the empty set) and smallest variable (``width`` for the empty set)."""
    masks, links = _links(width, size)
    offsets = np.cumsum([0] + [child.shape[0] for child, _ in links] + [masks.size])
    mask, parent = np.zeros((2, offsets[-1]), dtype=np.int64)
    last, first = np.full((2, offsets[-1]), [[-1], [width]], dtype=np.int64)
    for k, (child, pos) in enumerate(links):
        # S + v, with v above all of S's variables, is linked from S at slot v - k.
        rows, slots = np.nonzero(pos == k)
        at = child[rows, slots] + offsets[k + 1]
        parent[at], last[at] = rows + offsets[k], slots + k
        first[at], mask[at] = np.minimum(first[parent[at]], last[at]), mask[parent[at]] | np.int64(1) << last[at]
    return mask, parent, last, first


def _products(first: np.ndarray, bits: np.ndarray, half: tuple) -> np.ndarray:
    """Each ``_half`` row's product of its variables' bit rows, times ``first``
    (a row per label): its parent's times its variable's bits, a run at a time."""
    parent, var, starts = half
    products = np.empty((parent.size, *first.shape))
    products[0] = first
    for r0, r1 in zip(starts[:-1], starts[1:]):
        np.multiply(products[parent[r0:r1]], bits[var[r0:r1], None], out=products[r0:r1])
    return products


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
    their per-row disagreement probability), weighted by the count table."""
    if tree.n != dataset.n:
        raise ValueError(f"tree is over {tree.n} variables, sample over {dataset.n}")
    if dataset.m == 0:
        return 0.0
    zs, c0, c1 = dataset.counts()
    mu = mean_on_points(tree, zs)
    return float((c0 @ mu + c1 @ (1.0 - mu)) / dataset.m)
