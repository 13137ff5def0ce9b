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
  memory does not grow with the number of inputs;
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
about 37 bytes a cell (tracemalloc, at n=24, depth 5; 39 at n=16, depth
5), in the fold.  The leaf level alone peaks at about 34: the counts, one
label's gathered moments and the moment matrix.  ``find`` rejects a table
over ``TABLE_CELLS_CAP`` with ``TableBudgetExceeded`` before it counts or
allocates anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .polynomials import _subset_transform
from .trees import Leaf, Node, Query, StochasticTree, mean_on_points, unpack_inputs

#: Largest restriction table (cells over all levels) ``find`` builds.
TABLE_CELLS_CAP = 1 << 21

#: Product entries (both matrices) per block of inputs at the leaf level.
_PRODUCT_BLOCK = 1 << 16

#: Chunks of moment rows, each multiplied by only the prefix of columns it needs.
_ROW_CHUNKS = 4


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
    masks, links = _links(n, top)
    c0, c1 = _moment_counts(uz, w0, w1, n, masks, top)
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


def _moment_counts(
    uz: np.ndarray, w0: np.ndarray, w1: np.ndarray, n: int, masks: np.ndarray, top: int
) -> np.ndarray:
    """0- and 1-label counts, stacked, of every subcube of every S in
    ``masks``, from the moments M_l(T) = sum_z w_l(z) [T subset of z]."""
    # M_l(A + B) is entry (A, B) of the product of the inputs' products over
    # the sets A of S's a lowest variables (all below n - b), weighted by
    # w_l, and over the sets B of its b highest (all from a up).  With the
    # rows sorted by largest variable and the columns by smallest,
    # descending, a chunk of rows needs only the columns whose smallest
    # variable lies above its first row's largest: a prefix.
    a, b = top // 2, top - top // 2
    lo_links, lo_offsets, lo_parent, lo_last, _ = _family(n - b, a)
    hi_links, hi_offsets, hi_parent, hi_last, hi_first = _family(n - a, b)
    lo_order = np.argsort(lo_last, kind="stable")
    hi_order = np.argsort(-hi_first, kind="stable")
    na, nb = lo_order.size, hi_order.size
    bounds = np.unique(np.linspace(0, na, _ROW_CHUNKS + 1).astype(int))
    chunks = [
        (r0, r1, int(np.count_nonzero(hi_first + a > lo_last[lo_order[r0]])))
        for r0, r1 in zip(bounds[:-1], bounds[1:])
    ]

    moments = np.zeros((2 * na, nb))
    step = max(1, _PRODUCT_BLOCK // (2 * na + nb))
    for start in range(0, uz.size, step):
        block = slice(start, start + step)
        bits = np.ascontiguousarray(unpack_inputs(uz[block], n).T, dtype=np.float64)
        left = _products(bits, lo_offsets, lo_parent, lo_last)[lo_order]
        left = (left[:, None, :] * np.stack([w0[block], w1[block]])).reshape(2 * na, -1)
        right = _products(bits[a:], hi_offsets, hi_parent, hi_last)[hi_order]
        # Both labels' rows interleaved.  Every partial sum is an integer at
        # most m < 2^53, so BLAS adds exactly in any order and thread count.
        for r0, r1, cols in chunks:
            moments[2 * r0 : 2 * r1, :cols] += left[2 * r0 : 2 * r1] @ right[:cols].T

    # Subset rows with S innermost: the gather's output takes their layout
    # (never a rows x 2^top index array), and the passes run along S.
    variables = np.nonzero((masks[:, None] >> np.arange(n, dtype=np.int64)) & 1)[1].reshape(masks.size, top)
    low = np.argsort(lo_order)[_subset_rows(variables[:, :a], lo_links, lo_offsets)]
    high = np.argsort(hi_order)[_subset_rows(variables[:, a:] - a, hi_links, hi_offsets)]
    moments = moments.reshape(na, 2, nb)
    counts = np.empty((2, masks.size, 1 << top), dtype=np.int64)
    # No name holds one label's gathered moments while the next are gathered.
    gather = (low[None, :, :], high[:, None, :])
    for label in (0, 1):
        counts[label] = _subset_transform(moments[:, label][gather].reshape(1 << top, -1), top, -1.0, True).T
    return counts


def _family(width: int, size: int) -> tuple[list, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The sets of at most ``size`` of ``width`` variables, level by level
    in ``_links``'s order, row 0 the empty set: their links, each level's
    first row, and each row's parent (the row of the set less its largest
    variable), largest variable (-1 for the empty set) and smallest
    variable (``width`` for the empty set)."""
    masks, links = _links(width, size)
    offsets = np.cumsum([0] + [child.shape[0] for child, _ in links] + [masks.size])
    parent = np.zeros(offsets[-1], dtype=np.int64)
    last = np.full(offsets[-1], -1, dtype=np.int64)
    first = np.full(offsets[-1], width, dtype=np.int64)
    for k, (child, pos) in enumerate(links):
        # S + v, with v above all of S's variables, is linked from S at slot v - k.
        rows, slots = np.nonzero(pos == k)
        at = child[rows, slots] + offsets[k + 1]
        parent[at], last[at] = rows + offsets[k], slots + k
        first[at] = np.minimum(first[parent[at]], last[at])
    return links, offsets, parent, last, first


def _products(bits: np.ndarray, offsets: np.ndarray, parent: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Each ``_family`` row's product of its variables' bit rows: its
    parent's product times its largest variable's bits, a level at a time."""
    products = np.empty((offsets[-1], bits.shape[1]))
    products[0] = 1.0
    for k in range(1, offsets.size - 1):
        rows = slice(offsets[k], offsets[k + 1])
        np.multiply(products[parent[rows]], bits[last[rows]], out=products[rows])
    return products


def _subset_rows(variables: np.ndarray, links: list, offsets: np.ndarray) -> np.ndarray:
    """``_family`` rows of the subsets of each row r's ascending
    ``variables[r]``, at [t, r] the subset holding its j-th variable iff
    bit j of t is set."""
    rows = np.zeros((1, variables.shape[0]), dtype=np.int64)
    sizes = np.zeros(1, dtype=np.int64)
    for j, var in enumerate(variables.T):
        grown = np.empty_like(rows)
        for k in range(j + 1):
            at = np.flatnonzero(sizes == k)
            grown[at] = links[k][0][rows[at], var - k]
        rows, sizes = np.concatenate([rows, grown]), np.concatenate([sizes, sizes + 1])
    return rows + offsets[sizes, None]


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
