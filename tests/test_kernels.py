"""The vectorized kernels against the plain loops they replaced.

Each reference is the earlier implementation kept verbatim in spirit:
``np.unique`` and ``bincount`` over rows for the count table, which the
new code holds from the draw on, a per-row dict loop for the margin
adversary, which the new code runs per (input, label) cell, ``np.unique``
over (input, label) keys for the regression rows, a recursive walk that splits the
inputs at each query for the mean at given points, the expansion of each
path's (variable, bit) factors one at a time for the mean polynomial,
the slack-split primal LP for the L1 fit
(and that fit's dual LP for its cube LP, used when d is near n, as well
as the cube LP's earlier form with three columns on every input, solved
with HiGHS's presolve),
``lstsq`` over the grouped rows for the L2 fit (on either side) and
products with the sparse Moebius matrix for its cube side, one
pass over the inputs per monomial for polynomial evaluation, the ``find`` search
keyed by sorted (variable, bit) tuples (in conftest), two weighted
``bincount``s per variable set for ``find``'s leaf counts, which the new
code takes from low-degree moments, one int64 matrix
product over all rows for input packing, the draw of m rows of bits that
walks the tree once per row, row-level ``rng.choice`` for the adversaries
that pick their rows uniformly, the row-by-row dataset text format, the stacking
construction that recursed once per stacked copy, and the example
adversary's point and the stacked tree's distance, each taken over all
of {0,1}^n where the new code takes the target's query cube (and that
point over the whole query cube at once, which the new code scans in
blocks).  The new
code must agree exactly, dtype included, on randomized instances
(``find`` down to its tree and search counters); the stacked tree's
distance, summed over a smaller cube, to 1e-12; the L1 fit, whose optimum need not be
unique, must reach the same objective, the L2 fit, solved in another
order, the same predictions to a set tolerance, the mean polynomial,
summed in another order, the same coefficients to 1e-12, polynomial
evaluation by the zeta transform the same values to 1e-9, and the draw and
the uniform adversaries, which count instead of listing rows, the same
law of the count table, by chi-square tests at fixed seeds.
"""

import importlib
import itertools
import json
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import linprog
from scipy.stats import chi2_contingency

from conftest import dataset_rows, l1_objective, reference_find, sample
from test_harness import ACCEPTANCE_GOLDEN, GOLDEN
from test_regression import PINNED_FITS, _seeded_sample
from sdtlearn.data import (
    Adversary,
    Dataset,
    _flip_margin_cells,
    _replacement_point,
    corrupt,
    corruption_budget,
    draw_clean,
    dump_dataset,
    load_dataset,
)
from sdtlearn.evaluation import exact_error
from sdtlearn.harness import budgets_for
from sdtlearn.find import SearchStats, _links, _moment_counts, find, table_cells
from sdtlearn.polynomials import COEFF_ABS_SUM_CAP, MultilinearPolynomial, load_polynomial, monomials, read_text
from sdtlearn.regression import (
    L1_CERTIFICATE_TOL,
    ROUND_TIE_TOL,
    TruncatedPolyHypothesis,
    _certify,
    _cube_fit,
    _design_matrix,
    _grouped_rows,
    _l1_cube,
    _l1_dual,
    _l2_cube,
    _mobius_rows,
    _solve_lp,
    _to_poly,
    cube_side,
    l1_regress,
    l2_regress,
)
from sdtlearn.trees import (
    Leaf,
    Node,
    Query,
    Stoch,
    StochasticTree,
    cube_inputs,
    fix_randomness,
    mean,
    mean_on_points,
    mean_polynomial,
    mean_vector,
    pack_inputs,
    preorder,
    query_mask,
    random_tree,
    round_prob,
    sample_randomness,
    stochastic_leaf_approx,
    unpack_inputs,
)

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)

data_module = importlib.import_module("sdtlearn.data")
find_module = importlib.import_module("sdtlearn.find")


def reference_counts(ds: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The count table (inputs, 0-label and 1-label counts) of the dataset's rows."""
    rows, ys, _ = dataset_rows(ds)
    zs, inverse = np.unique(rows, return_inverse=True)
    total = np.bincount(inverse, minlength=zs.size).astype(np.int64)
    c1 = np.bincount(inverse[ys == 1], minlength=zs.size).astype(np.int64)
    return zs, total - c1, c1


def reference_flip_margin_rows(
    zs: np.ndarray, ys: np.ndarray, budget: int, tree: StochasticTree
) -> tuple[np.ndarray, int]:
    """Indices of the rows (packed inputs zs, labels ys) the margin adversary
    flips, and how many of them went to the lowest untaken rows because
    the inputs' needs were met."""
    mu = mean_on_points(tree, zs)
    margin = np.abs(mu - 0.5)
    bayes = (mu >= 0.5).astype(np.uint8)

    order: dict[int, list[int]] = {}
    for i, z in enumerate(zs):
        order.setdefault(int(z), []).append(i)
    groups = sorted(order.items(), key=lambda kv: (-margin[kv[1][0]], kv[0]))

    chosen: list[int] = []
    remaining = budget
    for _, rows in groups:
        if remaining == 0:
            break
        label = bayes[rows[0]]
        agree = [i for i in rows if ys[i] == label]
        disagree_count = len(rows) - len(agree)
        if len(agree) < disagree_count:
            continue
        need = (len(agree) - disagree_count) // 2 + 1
        take = min(need, remaining, len(agree))
        chosen.extend(agree[:take])
        remaining -= take
    leftover = remaining
    if remaining:
        taken = set(chosen)
        for i in range(zs.size):
            if remaining == 0:
                break
            if i not in taken:
                chosen.append(i)
                remaining -= 1
    return np.sort(np.asarray(chosen, dtype=np.int64)), leftover


def reference_grouped_rows(dataset: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    zs, ys, _ = dataset_rows(dataset)
    keys = zs * 2 + ys
    uniq, counts = np.unique(keys, return_counts=True)
    return uniq >> 1, (uniq & 1).astype(np.float64), counts.astype(np.float64)


def reference_l1_regress(dataset: Dataset, d: int):
    """min sum_i w_i t_i  s.t.  -t <= phi b - y <= t, over (b, t)."""
    monos = monomials(dataset.n, d)
    zs, ys, w = reference_grouped_rows(dataset)
    phi = _design_matrix(zs, monos)
    g, f = phi.shape
    phi_s = sp.csr_matrix(phi)
    eye = sp.identity(g, format="csr")
    a_ub = sp.vstack([sp.hstack([phi_s, -eye]), sp.hstack([-phi_s, -eye])], format="csr")
    b_ub = np.concatenate([ys, -ys])
    c = np.concatenate([np.zeros(f), w])
    bounds = [(None, None)] * f + [(0, None)] * g
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert res.success, res.message
    return _to_poly(dataset.n, d, monos, res.x[:f])


def reference_l1_cube(dataset: Dataset, d: int) -> MultilinearPolynomial:
    """The three-column cube LP: q = -a + b + e with a, e >= 0 and
    0 <= b <= 1 on every input, solved with HiGHS's presolve and certified
    with HiGHS's own multipliers."""
    n, size = dataset.n, 1 << dataset.n
    zs, c0, c1 = reference_counts(dataset)
    w0, w1 = np.zeros((2, size))
    w0[zs] = c0
    w1[zs] = c1
    w = w0 + w1
    v = _mobius_rows(n, d)
    bounds = np.zeros((3, size, 2))
    bounds[:, :, 1] = np.inf
    bounds[1, :, 1] = 1.0
    res = _solve_lp(
        np.concatenate([w, w0 - w1, w]), sp.hstack([-v, v, v], format="csr"), bounds.reshape(-1, 2)
    )
    a, b, e = res.x.reshape(3, size)
    poly = _cube_fit(b + e - a, n, d)
    s = v.T @ res.eqlin.marginals
    assert float(np.max(np.abs(s) - w)) <= L1_CERTIFICATE_TOL
    _certify(poly, np.arange(size), w0, w1, float(np.minimum(w1, w0 - s).sum()))
    return poly


def reference_l2_regress(dataset: Dataset, d: int):
    """Minimum-norm least squares over the grouped (input, label) rows."""
    monos = monomials(dataset.n, d)
    zs, ys, w = reference_grouped_rows(dataset)
    sw = np.sqrt(w)
    beta, *_ = np.linalg.lstsq(_design_matrix(zs, monos) * sw[:, None], ys * sw, rcond=None)
    return _to_poly(dataset.n, d, monos, beta)


def reference_l2_cube(c0: np.ndarray, c1: np.ndarray, n: int, d: int) -> np.ndarray:
    """q = t - D V^T (V D V^T)^-1 V t with the sparse Moebius matrix V."""
    w = (c0 + c1).astype(np.float64)
    t = c1 / w
    v = _mobius_rows(n, d)
    dvt = (v / w).T
    lam = cho_solve(cho_factor((v @ dvt).toarray()), v @ t)
    return t - dvt @ lam


def reference_evaluate_packed(poly: MultilinearPolynomial, zs: np.ndarray) -> np.ndarray:
    """Each monomial adds its coefficient where all its bits are set."""
    zs = np.asarray(zs, dtype=np.int64)
    out = np.zeros(zs.shape, dtype=np.float64)
    for mono, c in poly.coeffs.items():
        mask = 0
        for i in mono:
            mask |= 1 << i
        out += c * ((zs & mask) == mask)
    return out


def reference_mean_on_points(tree: StochasticTree, zs: np.ndarray) -> np.ndarray:
    zs = np.asarray(zs, dtype=np.int64)
    out = np.zeros(zs.shape, dtype=np.float64)

    def rec(node: Node, idx: np.ndarray, weight: float) -> None:
        if weight == 0.0 or idx.size == 0:
            return
        if isinstance(node, Leaf):
            if node.label:
                out[idx] += weight
            return
        if isinstance(node, Query):
            bit = (zs[idx] >> node.var) & 1
            rec(node.child0, idx[bit == 0], weight)
            rec(node.child1, idx[bit == 1], weight)
            return
        rec(node.child_heads, idx, weight * node.p)
        rec(node.child_tails, idx, weight * (1.0 - node.p))

    rec(tree.root, np.arange(zs.size, dtype=np.int64), 1.0)
    return out


def reference_mean_polynomial(tree: StochasticTree, depth_cutoff: int) -> dict:
    coeffs: dict[tuple[int, ...], float] = {}

    def add_path(factors: tuple[tuple[int, int], ...], weight: float) -> None:
        poly: dict[tuple[int, ...], float] = {(): weight}
        for var, bit in factors:
            nxt: dict[tuple[int, ...], float] = {}
            for mono, coef in poly.items():
                grown = tuple(sorted(set(mono) | {var}))
                if bit:
                    nxt[grown] = nxt.get(grown, 0.0) + coef
                else:
                    nxt[mono] = nxt.get(mono, 0.0) + coef
                    nxt[grown] = nxt.get(grown, 0.0) - coef
            poly = nxt
        for mono, coef in poly.items():
            coeffs[mono] = coeffs.get(mono, 0.0) + coef

    def rec(node: Node, factors: tuple[tuple[int, int], ...], weight: float, qdepth: int) -> None:
        if weight == 0.0:
            return
        if isinstance(node, Leaf):
            if node.label and qdepth <= depth_cutoff:
                add_path(factors, weight)
            return
        if isinstance(node, Query):
            if qdepth >= depth_cutoff:
                return
            rec(node.child0, factors + ((node.var, 0),), weight, qdepth + 1)
            rec(node.child1, factors + ((node.var, 1),), weight, qdepth + 1)
            return
        rec(node.child_heads, factors, weight * node.p, qdepth)
        rec(node.child_tails, factors, weight * (1.0 - node.p), qdepth)

    rec(tree.root, (), 1.0, 0)
    return {m: c for m, c in coeffs.items() if c != 0.0}


def reference_stochastic_leaf_approx(
    tree: StochasticTree, eps: float, rng: np.random.Generator
) -> StochasticTree:
    """The stacked tree, built by a recursion that moves to the next copy
    at each leaf, so it nests once per copy."""
    c = math.ceil(1.0 / (eps * eps))
    roots = [fix_randomness(tree, sample_randomness(tree, rng)).root for _ in range(c)]

    def build(i: int, node: Node, assign: dict[int, int], ones: int) -> Node:
        if isinstance(node, Leaf):
            ones += node.label
            if i + 1 == c:
                return Stoch(ones / c, Leaf(1), Leaf(0))
            return build(i + 1, roots[i + 1], assign, ones)
        if node.var in assign:
            nxt = node.child1 if assign[node.var] else node.child0
            return build(i, nxt, assign, ones)
        return Query(
            node.var,
            build(i, node.child0, {**assign, node.var: 0}, ones),
            build(i, node.child1, {**assign, node.var: 1}, ones),
        )

    return StochasticTree(tree.n, build(0, roots[0], {}, 0))


def reference_replacement_point(clean: Dataset, tree: StochasticTree) -> tuple[int, int]:
    """The argmax of |mu - 1/2| over all of {0,1}^n up to n = 20, over the
    sample's distinct inputs above it."""
    if tree.n <= 20:
        zs = np.arange(1 << tree.n, dtype=np.int64)
    else:
        zs = np.unique(dataset_rows(clean)[0])
    mu = mean_on_points(tree, zs)
    best = int(np.argmax(np.abs(mu - 0.5)))
    return int(zs[best]), 1 - round_prob(float(mu[best]))


def reference_query_cube_point(tree: StochasticTree) -> tuple[int, int]:
    """The same argmax, with the whole query cube built at once."""
    zs = cube_inputs(query_mask(tree.root))
    mu = mean_on_points(tree, zs)
    best = int(np.argmax(np.abs(mu - 0.5)))
    return int(zs[best]), 1 - round_prob(float(mu[best]))


def reference_approx_distance(tree: StochasticTree, approx: StochasticTree) -> float:
    """The stacked tree's l1 distance, averaged over all of {0,1}^n."""
    zs = np.arange(1 << tree.n, dtype=np.int64)
    return float(np.mean(np.abs(mean_on_points(tree, zs) - mean_on_points(approx, zs))))


def reference_pack_inputs(xs) -> np.ndarray:
    """One int64 copy of the whole array times the vector of bit weights."""
    xs = np.asarray(xs, dtype=np.int64)
    return xs @ (np.int64(1) << np.arange(xs.shape[1], dtype=np.int64))


def reference_draw_clean(tree: StochasticTree, m: int, rng: np.random.Generator) -> Dataset:
    """All inputs first, then one walk down the tree per row, drawing one
    uniform per coin visited."""
    xs = rng.integers(0, 2, size=(m, tree.n), dtype=np.uint8)
    ys = np.fromiter((sample(tree, row, rng) for row in xs), dtype=np.uint8, count=m)
    return Dataset.from_rows(tree.n, pack_inputs(xs), ys, np.zeros(m, dtype=bool))


def reference_draw_counts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The drawn inputs' distinct values and counts, by sorting them."""
    return np.unique(x, return_counts=True)


def reference_counted_draw(tree: StochasticTree, m: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``draw_clean``'s inputs and cells with every draw counted by sorting."""
    zs, w = reference_draw_counts(rng.integers(0, 1 << tree.n, m))
    ones = rng.binomial(w, np.minimum(mean_on_points(tree, zs), 1.0))
    cells = np.zeros((zs.size, 2, 2), dtype=np.int64)
    cells[:, 0, 0], cells[:, 1, 0] = w - ones, ones
    return zs, cells


def reference_dump_dataset(ds: Dataset) -> str:
    lines = [f"n={ds.n} m={ds.m}"]
    zs, ys, flags = dataset_rows(ds)
    for row, y, flag in zip(unpack_inputs(zs, ds.n), ys, flags):
        bits = "".join(str(int(b)) for b in row)
        lines.append(f"{bits} {int(y)} {int(flag)}")
    return "\n".join(lines) + "\n"


def reference_load_dataset(text: str) -> Dataset:
    (n, m), body = read_text(text, "dataset", ("n", "m"))
    if len(body) != m:
        raise ValueError(f"header says m={m} but found {len(body)} rows")
    xs = np.zeros((m, n), dtype=np.uint8)
    ys = np.zeros(m, dtype=np.uint8)
    flags = np.zeros(m, dtype=bool)
    for i, ln in enumerate(body):
        fields = ln.split()
        if n == 0 and len(fields) == 2:
            fields = ["", *fields]
        if len(fields) != 3:
            raise ValueError(f"row {i} has {len(fields)} fields, expected `<bits> <label> <flag>`")
        bits, label, flag = fields
        if len(bits) != n:
            raise ValueError(f"row {i} has {len(bits)} bits, expected {n}")
        if set(bits) - {"0", "1"} or label not in ("0", "1") or flag not in ("0", "1"):
            raise ValueError(f"row {i} must hold only 0/1 bits, label and flag")
        xs[i] = [int(b) for b in bits]
        ys[i] = int(label)
        flags[i] = flag == "1"
    return Dataset.from_rows(n, pack_inputs(xs), ys, flags)


def reference_leaf_counts(
    uz: np.ndarray, w0: np.ndarray, w1: np.ndarray, n: int, masks: np.ndarray, top: int
) -> tuple[np.ndarray, np.ndarray]:
    """0- and 1-label counts of every subcube of every S in ``masks``: per
    label, one weighted ``bincount`` of the inputs' bits on S."""
    rows, width = masks.size, 1 << top
    variables = np.nonzero((masks[:, None] >> np.arange(n, dtype=np.int64)) & 1)[1]
    variables = variables.reshape(rows, top)
    bits = unpack_inputs(uz, n).T.astype(np.min_scalar_type(width - 1), order="C")
    weights = (w0.astype(np.float64), w1.astype(np.float64))
    counts = np.empty((2, rows, width), dtype=np.int64)
    for r, chosen in enumerate(variables):
        key = np.zeros(uz.size, dtype=bits.dtype)
        for j in range(top):
            key |= bits[chosen[j]] << j
        for label in (0, 1):
            counts[label, r] = np.bincount(key, weights=weights[label], minlength=width)
    return counts[0], counts[1]


def reference_table_search(ds: Dataset, depth: int) -> tuple[StochasticTree, int, SearchStats]:
    """(tree, error count, search counters) of the table search that looked
    up each level's child sets by ``searchsorted``, in the fold and again
    in the rebuild, and folded one (variable, position) pair at a time."""
    n, top = ds.n, min(depth, ds.n)
    uz, w0, w1 = reference_counts(ds)
    masks = [np.zeros(1, dtype=np.int64)]
    for _ in range(top):
        grown = masks[-1][:, None] | (np.int64(1) << np.arange(n, dtype=np.int64))
        masks.append(np.unique(grown[grown != masks[-1][:, None]]))
    c0, c1 = reference_leaf_counts(uz, w0, w1, n, masks[top], top)
    tables = [np.stack([np.minimum(c0, c1), c0 + c1], axis=1)]
    for k in range(top - 1, -1, -1):
        tables.insert(0, _reference_fold_level(masks[k], masks[k + 1], tables[0], n, k))

    nonempty = [int(np.count_nonzero(t[:, 1])) for t in tables]
    stats = SearchStats()
    if nonempty[0]:
        stats.nodes_expanded = sum(nonempty)
        calls = 1 + sum(k * count for k, count in enumerate(nonempty))
        stats.cache_hits = calls - stats.nodes_expanded
    node = _reference_rebuild(masks, tables, c1, n, 0, 0, 0)
    return StochasticTree(n, node), int(tables[0][0, 0, 0]), stats


def _reference_fold_level(masks: np.ndarray, up_masks: np.ndarray, up: np.ndarray, n: int, k: int) -> np.ndarray:
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


def _reference_rebuild(
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
                _reference_rebuild(masks, tables, c1, n, k + 1, mask | bit, b0),
                _reference_rebuild(masks, tables, c1, n, k + 1, mask | bit, b1),
            )
    raise AssertionError("no variable reaches the table's minimum")


def _tree(n: int, s: int, stoch: float, seed: int) -> StochasticTree:
    return random_tree(n, s, stoch, np.random.default_rng(seed))


def _sample(tree: StochasticTree, m: int, noisy: bool, seed: int) -> Dataset:
    """A clean sample, or one with uniform labels so that many inputs
    already disagree with the Bayes label."""
    rng = np.random.default_rng(seed)
    clean = draw_clean(tree, m, rng)
    if not noisy:
        return clean
    zs, _, flags = dataset_rows(clean)
    return Dataset.from_rows(clean.n, zs, rng.integers(0, 2, size=m, dtype=np.uint8), flags)


def _assert_identical(new: np.ndarray, ref: np.ndarray) -> None:
    assert new.dtype == ref.dtype
    assert np.array_equal(new, ref)


instances = dict(
    n=st.integers(1, 6),
    s=st.integers(1, 10),
    stoch=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    m=st.integers(1, 300),
    noisy=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


#: Sample shapes at the edges: no rows, no variables, one row short of the
#: cube's 2^n points, exactly 2^n rows, and more than 255 distinct inputs.
EDGE_SHAPES = [
    dict(n=3, m=0, noisy=False),
    dict(n=0, m=5, noisy=True),
    dict(n=4, m=15, noisy=True),
    dict(n=4, m=16, noisy=False),
    dict(n=9, m=2000, noisy=False),
]


def edge_shapes(**extra):
    """Add every ``EDGE_SHAPES`` instance to a test over ``instances`` as an example."""

    def apply(test):
        for seed, shape in enumerate(EDGE_SHAPES):
            test = example(s=10, stoch=0.3, seed=seed, **shape, **extra)(test)
        return test

    return apply


def _shuffled_rows(ds: Dataset, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    order = np.random.default_rng(seed).permutation(ds.m)
    return tuple(a[order] for a in dataset_rows(ds))


def _flipped_cells(clean: Dataset, zs: np.ndarray, ys: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The chosen rows counted by (input, label) cell of the clean table."""
    cell = 2 * np.searchsorted(clean.zs, zs[rows]) + ys[rows]
    return np.bincount(cell, minlength=2 * clean.zs.size).reshape(-1, 2)


@PROPERTY
@given(**instances)
@edge_shapes()
def test_count_table_matches_unique(n, s, stoch, m, noisy, seed):
    # The rows in another order count to the same table.
    tree = _tree(n, min(s, 1 << n), stoch, seed)
    ds = _sample(tree, m, noisy, seed + 1)
    shuffled = Dataset.from_rows(n, *_shuffled_rows(ds, seed))
    for new, ref in zip(shuffled.counts(), reference_counts(ds)):
        _assert_identical(new, ref)


@PROPERTY
@given(eta=st.sampled_from([0.01, 0.05, 0.2, 0.5, 1.0]), **instances)
@edge_shapes(eta=0.2)
@example(n=3, s=4, stoch=0.3, m=50, noisy=False, seed=0, eta=1.0)
@example(n=2, s=3, stoch=0.0, m=200, noisy=True, seed=1, eta=0.5)
def test_flip_margin_rows_matches_dict_loop(n, s, stoch, m, noisy, seed, eta):
    # In ascending (input, label) order the loop's lowest untaken rows are
    # the lowest cells' rows, so the cells and the corrupted table agree
    # with or without leftover budget; with none left over, they agree in
    # any row order.
    tree = _tree(n, min(s, 1 << n), stoch, seed)
    clean = _sample(tree, m, noisy, seed + 1)
    budget = corruption_budget(eta, m)
    if budget == 0:
        return
    new = _flip_margin_cells(clean, budget, tree)
    assert new.sum() == budget and np.all(new <= clean.cells[:, :, 0])
    table = corrupt(clean, eta, Adversary.LABEL_FLIP_MARGIN, tree, np.random.default_rng(seed))
    for shuffled, (zs, ys, flags) in enumerate((dataset_rows(clean), _shuffled_rows(clean, seed))):
        rows, leftover = reference_flip_margin_rows(zs, ys, budget, tree)
        if shuffled and leftover:
            continue
        _assert_identical(new, _flipped_cells(clean, zs, ys, rows))
        ys[rows] ^= 1
        flags[rows] = True
        _assert_same_dataset(table, Dataset.from_rows(n, zs, ys, flags))


def test_flip_margin_rows_fills_leftover_budget():
    # Input 0 has two 0-labels and one 1-label and needs one flip, input 1
    # two 1-labels and needs two.  The rest of the budget goes to the
    # untaken rows of the lowest (input, label) cells: the last 0-label of
    # input 0, then its 1-label.
    tree = StochasticTree(1, Query(0, Leaf(0), Leaf(1)))
    clean = Dataset.from_rows(1, [0, 1, 0, 1, 0], [0, 1, 1, 1, 0], np.zeros(5, dtype=bool))
    assert _flip_margin_cells(clean, 3, tree).tolist() == [[1, 0], [0, 2]]
    assert _flip_margin_cells(clean, 4, tree).tolist() == [[2, 0], [0, 2]]
    assert _flip_margin_cells(clean, 5, tree).tolist() == [[2, 1], [0, 2]]
    zs, ys, _ = dataset_rows(clean)
    rows, leftover = reference_flip_margin_rows(zs, ys, 4, tree)
    assert leftover == 1 and _flipped_cells(clean, zs, ys, rows).tolist() == [[2, 0], [0, 2]]


@PROPERTY
@given(**instances)
def test_grouped_rows_match_unique_keys(n, s, stoch, m, noisy, seed):
    tree = _tree(n, min(s, 1 << n), stoch, seed)
    ds = _sample(tree, m, noisy, seed + 1)
    for new, ref in zip(_grouped_rows(*ds.counts()), reference_grouped_rows(ds)):
        _assert_identical(new, ref)


@PROPERTY
@given(degree=st.floats(0.0, 1.0), **instances)
@example(n=4, s=6, stoch=0.3, m=200, noisy=True, seed=2, degree=1.0)
@example(n=3, s=4, stoch=0.7, m=1, noisy=False, seed=3, degree=0.5)
def test_l1_dual_matches_slack_split_primal(n, s, stoch, m, noisy, seed, degree):
    # degree 1.0 means d = n: 2^n features, rank-deficient whenever some
    # input is missing.  Noisy samples see inputs with both labels.
    tree = _tree(n, min(s, 1 << n), stoch, seed)
    ds = _sample(tree, m, noisy, seed + 1)
    d = round(degree * n)
    new = l1_objective(l1_regress(ds, d), ds)
    ref = l1_objective(reference_l1_regress(ds, d), ds)
    assert abs(new - ref) <= 1e-9


@PROPERTY
@given(degree=st.floats(0.0, 1.0), **instances)
@example(n=6, s=8, stoch=0.3, m=5, noisy=True, seed=6, degree=0.7)
@example(n=4, s=6, stoch=0.3, m=200, noisy=True, seed=2, degree=1.0)
@example(n=3, s=4, stoch=0.3, m=0, noisy=True, seed=7, degree=0.5)
@example(n=5, s=6, stoch=0.7, m=1, noisy=False, seed=8, degree=0.8)
def test_l1_cube_matches_dual(n, s, stoch, m, noisy, seed, degree):
    # Both private solvers on every instance, whichever side l1_regress
    # would take.  The examples cover 59 unseen inputs out of 64, d = n
    # (no equality rows), m = 0 and m = 1.
    tree = _tree(n, min(s, 1 << n), stoch, seed)
    ds = _sample(tree, m, noisy, seed + 1)
    d = round(degree * n)
    cube, dual = _l1_cube(ds, d), _l1_dual(ds, d)
    if m:
        assert abs(l1_objective(cube, ds) - l1_objective(dual, ds)) <= 1e-9
    if d == n:
        # Nothing constrains q: each seen input takes its majority label.
        zs, c0, c1 = ds.counts()
        decided = c0 != c1
        fit = cube.evaluate_packed(zs[decided])
        assert np.max(np.abs(fit - (c1 > c0)[decided]), initial=0.0) <= 1e-9


def test_l1_cube_matches_dual_on_acceptance_instance():
    # The l1_acceptance workload's shape: n=10, m=50k, degree 7 (968
    # features, 56 cube rows), a deterministic target and the margin
    # adversary at eta 0.05.
    rng = np.random.default_rng(2025)
    tree = random_tree(10, 8, 0.0, rng)
    ds = corrupt(draw_clean(tree, 50_000, rng), 0.05, Adversary.LABEL_FLIP_MARGIN, tree, rng)
    cube, dual = _l1_cube(ds, 7), _l1_dual(ds, 7)
    assert abs(l1_objective(cube, ds) - l1_objective(dual, ds)) <= 1e-9
    errors = [exact_error(tree, TruncatedPolyHypothesis(p, "randomized")) for p in (cube, dual)]
    assert abs(errors[0] - errors[1]) <= 1e-9


def _count_table_objective(poly: MultilinearPolynomial, ds: Dataset) -> float:
    zs, c0, c1 = ds.counts()
    fit = poly.evaluate_packed(zs)
    return float(c0 @ np.abs(fit) + c1 @ np.abs(fit - 1.0))


@PROPERTY
@given(degree=st.floats(0.0, 1.0), **instances)
@example(n=3, s=4, stoch=0.3, m=0, noisy=True, seed=7, degree=0.5)
@example(n=4, s=6, stoch=0.3, m=200, noisy=True, seed=2, degree=1.0)
@example(n=6, s=8, stoch=0.3, m=5, noisy=True, seed=6, degree=0.7)
def test_l1_cube_matches_three_column_lp(n, s, stoch, m, noisy, seed, degree):
    # The examples cover m = 0, d = n (no equality rows) and 59 unseen
    # inputs out of 64.  Tied LPs have several optimal vertices, so only
    # the objectives must agree.
    tree = _tree(n, min(s, 1 << n), stoch, seed)
    ds = _sample(tree, m, noisy, seed + 1)
    d = round(degree * n)
    new = _count_table_objective(_l1_cube(ds, d), ds)
    ref = _count_table_objective(reference_l1_cube(ds, d), ds)
    assert abs(new - ref) <= L1_CERTIFICATE_TOL * m


@PROPERTY
@given(degree=st.floats(0.0, 1.0), **instances)
@example(n=3, s=4, stoch=0.3, m=300, noisy=False, seed=4, degree=0.5)
@example(n=5, s=6, stoch=0.0, m=1, noisy=False, seed=5, degree=1.0)
@example(n=4, s=6, stoch=0.3, m=200, noisy=True, seed=2, degree=0.5)
@example(n=5, s=6, stoch=0.3, m=300, noisy=True, seed=0, degree=0.6)
@example(n=4, s=4, stoch=0.3, m=40, noisy=True, seed=0, degree=1.0)
@example(n=4, s=6, stoch=0.3, m=200, noisy=True, seed=2, degree=0.25)
def test_l2_normal_equations_match_grouped_lstsq(n, s, stoch, m, noisy, seed, degree):
    # The examples cover the full cube on the cube side (n=3, d=2 with one
    # constraint row; n=4, d=2 and n=5, d=3 with noisy labels, 5 and 6
    # rows) and on the feature side by Cholesky (n=4, d=1), m = 1 with
    # d = n (fewer inputs than features, lstsq), and 14 of 16 inputs seen
    # with d = n, where cube_side holds but the fit stays on lstsq.
    # Predictions are compared on all of {0,1}^n.
    tree = _tree(n, min(s, 1 << n), stoch, seed)
    ds = _sample(tree, m, noisy, seed + 1)
    d = round(degree * n)
    cube = np.arange(1 << n, dtype=np.int64)
    new = l2_regress(ds, d).evaluate_packed(cube)
    ref = reference_l2_regress(ds, d).evaluate_packed(cube)
    assert np.max(np.abs(new - ref)) <= 1e-9


@PROPERTY
@given(n=st.integers(1, 8), top=st.sampled_from([1, 2, 5, 60, 5000]), seed=st.integers(0, 2**32 - 1))
@example(n=1, top=1, seed=0)
@example(n=8, top=5000, seed=1)
def test_l2_cube_matches_sparse_moebius_products(n, top, seed):
    # Every cube-side degree, d = n (no constraint rows) included, on
    # label counts with at least one row at every input.
    rng = np.random.default_rng(seed)
    w = rng.integers(1, top + 1, 1 << n)
    c1 = rng.integers(0, w + 1)
    for d in (d for d in range(n + 1) if cube_side(n, d)):
        new, ref = _l2_cube(w - c1, c1, n, d), reference_l2_cube(w - c1, c1, n, d)
        assert np.max(np.abs(new - ref)) <= 1e-9, d
        tie = np.abs(ref - 0.5) <= ROUND_TIE_TOL
        rounded = [np.clip(q, 0.0, 1.0)[~tie] >= 0.5 - ROUND_TIE_TOL for q in (new, ref)]
        assert np.array_equal(*rounded), d


def test_l2_rank_short_gram_falls_back_to_min_norm():
    # x0 is always 0, so with 8 distinct inputs over 5 features the Gram
    # matrix has rank 4: the minimum-norm fit gives x0 no weight.
    rng = np.random.default_rng(6)
    xs = rng.integers(0, 2, size=(400, 4), dtype=np.uint8)
    xs[:, 0] = 0
    ys = rng.integers(0, 2, size=400, dtype=np.uint8)
    ds = Dataset.from_rows(4, pack_inputs(xs), ys, np.zeros(400, dtype=bool))
    poly = l2_regress(ds, 1)
    assert abs(poly.coeffs.get((0,), 0.0)) <= 1e-12
    cube = np.arange(16, dtype=np.int64)
    ref = reference_l2_regress(ds, 1).evaluate_packed(cube)
    assert np.max(np.abs(poly.evaluate_packed(cube) - ref)) <= 1e-9


@PROPERTY
@given(n=st.integers(0, 8), degree=st.floats(0.0, 1.0), density=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
       extra=st.sampled_from([-1, 0, 1, 7, 64]), wide=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(n=0, degree=0.0, density=1.0, extra=0, wide=False, seed=0)
@example(n=0, degree=0.0, density=1.0, extra=-1, wide=False, seed=1)
@example(n=3, degree=1.0, density=0.0, extra=1, wide=False, seed=2)
@example(n=8, degree=0.9, density=1.0, extra=-1, wide=False, seed=3)
@example(n=8, degree=0.9, density=1.0, extra=0, wide=True, seed=4)
def test_evaluate_packed_matches_monomial_loop(n, degree, density, extra, wide, seed):
    # 2^n + extra inputs, repeated and unordered, so the zeta transform
    # serves sizes from 2^n up and the loop the ones just below; wide
    # inputs carry bits from n up, which both ignore.
    rng = np.random.default_rng(seed)
    d = round(degree * n)
    monos = [m for m in monomials(n, d) if rng.random() < density]
    poly = MultilinearPolynomial(n, d, monos, rng.normal(size=len(monos)))
    zs = rng.integers(0, (4 if wide else 1) << n, size=max((1 << n) + extra, 0))
    new = poly.evaluate_packed(zs)
    assert new.dtype == np.float64 and new.shape == zs.shape
    assert np.max(np.abs(new - reference_evaluate_packed(poly, zs)), initial=0.0) <= 1e-9


@pytest.mark.parametrize("size", [7, 8, 9])
def test_evaluate_packed_near_the_coefficient_cap(size):
    # Terms of half the cap cancel exactly in any order, and no partial sum
    # of the zeta transform, a subset sum, can overflow.
    half = COEFF_ABS_SUM_CAP / 2
    poly = MultilinearPolynomial(3, 2, [0, 0b101], [half, -half])
    zs = np.arange(size, dtype=np.int64)[::-1] % 8
    _assert_identical(poly.evaluate_packed(zs), reference_evaluate_packed(poly, zs))


@PROPERTY
@given(n=st.integers(1, 8), s=st.integers(1, 16), stoch=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_mean_vector_matches_recursive_walk(n, s, stoch, seed):
    tree = _tree(n, min(s, 1 << n), stoch, seed)
    _assert_identical(mean_vector(tree), reference_mean_on_points(tree, np.arange(1 << n)))


def _any_tree(n: int, s: int, seed: int) -> StochasticTree:
    """A tree with s leaves that may query a variable again on a path and
    whose coins are often certain (p of 0 or 1)."""
    rng = np.random.default_rng(seed)

    def build(budget: int) -> Node:
        if budget == 1:
            return Leaf(int(rng.integers(2)))
        left = int(rng.integers(1, budget))
        if rng.random() < 0.5:
            return Query(int(rng.integers(n)), build(left), build(budget - left))
        p = float(rng.choice([0.0, 1.0, rng.random()]))
        return Stoch(p, build(left), build(budget - left))

    return StochasticTree(n, build(s))


any_trees = dict(n=st.integers(1, 30), s=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))


@PROPERTY
@given(m=st.integers(0, 300), **any_trees)
@example(m=16, n=4, s=12, seed=0)
@example(m=17, n=4, s=12, seed=1)
@example(m=256, n=8, s=24, seed=2)
@example(m=257, n=8, s=24, seed=3)
def test_mean_on_points_matches_recursive_walk(m, n, s, seed):
    tree = _any_tree(n, s, seed)
    zs = np.random.default_rng(seed).integers(0, 1 << n, size=m, dtype=np.int64)
    _assert_identical(mean_on_points(tree, zs), reference_mean_on_points(tree, zs))


@PROPERTY
@given(cutoff=st.integers(0, 6), **any_trees)
def test_mean_polynomial_matches_path_expansion(cutoff, n, s, seed):
    tree = _any_tree(n, s, seed)
    new = mean_polynomial(tree, cutoff).coeffs
    ref = reference_mean_polynomial(tree, cutoff)
    for mono in new.keys() | ref.keys():
        assert abs(new.get(mono, 0.0) - ref.get(mono, 0.0)) <= 1e-12


@PROPERTY
@given(n=st.integers(0, 6), s=st.integers(1, 10), stoch=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
       eps=st.floats(0.12, 0.49), seed=st.integers(0, 2**32 - 1))
@example(n=6, s=10, stoch=1.0, eps=0.12, seed=0)
@example(n=0, s=1, stoch=0.0, eps=0.3, seed=1)
def test_stochastic_leaf_approx_matches_recursive_stacking(n, s, stoch, eps, seed):
    # Trees with many coins give copies that differ, so later copies query
    # variables the earlier ones left free.
    tree = _tree(n, min(s, 1 << n), stoch, seed)
    new_rng, ref_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    new = stochastic_leaf_approx(tree, eps, new_rng)
    assert new.tree == reference_stochastic_leaf_approx(tree, eps, ref_rng)
    # Both consumed the generator alike.
    assert new_rng.random() == ref_rng.random()


@PROPERTY
@given(n=st.integers(0, 10), s=st.integers(1, 10), stoch=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
       eps=st.floats(0.2, 0.49), seed=st.integers(0, 2**32 - 1))
@example(n=20, s=4, stoch=0.7, eps=0.3, seed=0)
def test_stochastic_leaf_approx_distance_matches_full_cube(n, s, stoch, eps, seed):
    tree = _tree(n, min(s, 1 << n), stoch, seed)
    result = stochastic_leaf_approx(tree, eps, np.random.default_rng(seed + 1))
    assert abs(result.l1_distance - reference_approx_distance(tree, result.tree)) <= 1e-12


def test_stochastic_leaf_approx_distance_past_twenty_variables():
    # Above n = 20 the distance was not measured; the target's query cube
    # gives the full-cube distance at any n.
    tree = _tree(22, 6, 0.5, 10)
    result = stochastic_leaf_approx(tree, 0.3, np.random.default_rng(11))
    assert result.l1_distance > 0.0
    assert abs(result.l1_distance - reference_approx_distance(tree, result.tree)) <= 1e-12


@PROPERTY
@given(n=st.integers(0, 14), s=st.integers(1, 12), stoch=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
       m=st.integers(1, 50), seed=st.integers(0, 2**32 - 1))
@example(n=20, s=12, stoch=0.3, m=50, seed=0)
def test_replacement_point_matches_full_cube_search(n, s, stoch, m, seed):
    tree = _tree(n, min(s, 1 << n), stoch, seed)
    clean = draw_clean(tree, m, np.random.default_rng(seed))
    assert _replacement_point(clean, tree) == reference_replacement_point(clean, tree)


@PROPERTY
@given(n=st.integers(0, 30), s=st.integers(1, 24), stoch=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
       block_bits=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
@example(n=0, s=1, stoch=0.0, block_bits=0, seed=0)
@example(n=30, s=24, stoch=0.3, block_bits=2, seed=1)
def test_replacement_point_blocks_match_whole_cube_scan(n, s, stoch, block_bits, seed):
    # Blocks of 1 to 16 inputs: the first argmax must survive the block
    # boundaries, including blocks past the first one.
    tree = _tree(n, min(s, 1 << n), stoch, seed)
    clean = draw_clean(tree, 5, np.random.default_rng(seed))
    with mock.patch.object(data_module, "_CUBE_BLOCK_BITS", block_bits):
        assert _replacement_point(clean, tree) == reference_query_cube_point(tree)


@PROPERTY
@given(s=st.integers(1, 12), stoch=st.sampled_from([0.0, 0.3, 0.7, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_replacement_point_at_n_30_is_the_argmax_over_the_query_cube(s, stoch, seed):
    tree = _tree(30, s, stoch, seed)
    clean = draw_clean(tree, 20, np.random.default_rng(seed))
    queried = sorted({node.var for node in preorder(tree.root) if isinstance(node, Query)})
    cube = sorted(
        sum(1 << v for v, bit in zip(queried, bits) if bit)
        for bits in itertools.product((0, 1), repeat=len(queried))
    )
    mu = mean_on_points(tree, np.array(cube, dtype=np.int64))
    margins = np.abs(mu - 0.5).tolist()
    best = max(range(len(cube)), key=margins.__getitem__)
    assert _replacement_point(clean, tree) == (cube[best], 1 - round_prob(float(mu[best])))


@PROPERTY
@given(m=st.integers(0, 200), n=st.integers(0, 62), seed=st.integers(0, 2**32 - 1),
       dtype=st.sampled_from([np.uint8, np.bool_, np.int64, np.float64]))
@example(m=0, n=5, seed=0, dtype=np.uint8)
@example(m=7, n=0, seed=1, dtype=np.uint8)
@example(m=50, n=62, seed=2, dtype=np.uint8)
@example(m=20_000, n=62, seed=3, dtype=np.uint8)
def test_pack_inputs_matches_matrix_product(m, n, seed, dtype):
    xs = np.random.default_rng(seed).integers(0, 2, size=(m, n)).astype(dtype)
    _assert_identical(pack_inputs(xs), reference_pack_inputs(xs))


@PROPERTY
@given(n=st.integers(0, 6), rows=st.lists(st.tuples(st.integers(0, 63), st.integers(0, 1), st.booleans()),
                                          max_size=80))
@example(n=0, rows=[(0, 1, True), (0, 1, False), (0, 0, True)])
@example(n=3, rows=[])
def test_count_table_matches_rows(n, rows):
    # Each (input, label, flag) cell holds the number of rows equal to it.
    zs = np.array([z & ((1 << n) - 1) for z, _, _ in rows], dtype=np.int64)
    ys = np.array([y for _, y, _ in rows], dtype=np.uint8)
    flags = np.array([f for _, _, f in rows], dtype=bool)
    ds = Dataset.from_rows(n, zs, ys, flags)
    assert ds.zs.dtype == ds.cells.dtype == np.int64
    assert ds.zs.tolist() == sorted(set(zs.tolist()))
    for u, z in enumerate(ds.zs.tolist()):
        for y, f in itertools.product((0, 1), (0, 1)):
            assert ds.cells[u, y, f] == int(np.sum((zs == z) & (ys == y) & (flags == f)))
    assert ds.m == len(rows) and ds.corrupted_count == int(flags.sum())


XOR_ROWS = [(0, 0), (1, 1), (2, 1), (3, 0)]


@PROPERTY
@given(
    n=st.integers(1, 6),
    depth=st.integers(0, 4),
    rows=st.lists(st.tuples(st.integers(0, 63), st.integers(0, 1)), max_size=80),
)
@example(n=3, depth=2, rows=[])
@example(n=2, depth=2, rows=XOR_ROWS)
@example(n=2, depth=1, rows=XOR_ROWS)
@example(n=2, depth=4, rows=XOR_ROWS + [(1, 0), (3, 0)])
@example(n=5, depth=3, rows=[(19, 1)])
@example(n=4, depth=3, rows=[(z, 1) for z in (0, 3, 5, 9, 12, 15, 3)])
def test_find_matches_tuple_keyed_search(n, depth, rows):
    # Inputs are drawn from at most 64 values and cut to n bits, so small n
    # repeats inputs, often with both labels; depth may exceed n.
    zs = np.array([z & ((1 << n) - 1) for z, _ in rows], dtype=np.int64)
    ys = np.array([y for _, y in rows], dtype=np.uint8)
    ds = Dataset.from_rows(n, zs, ys, np.zeros(len(rows), dtype=bool))
    result = find(ds, depth)
    _assert_same_search(result, reference_find(ds, depth, memo=True))
    assert result.tree == reference_find(ds, depth, memo=False)[0]


def test_find_matches_tuple_keyed_search_on_acceptance_instance():
    # The find_acceptance workload's shape: n=10, m=50k, depth 5, with the
    # margin adversary at eta 0.05; every subcube up to depth 5 is nonempty.
    rng = np.random.default_rng(2024)
    tree = random_tree(10, 8, 0.3, rng)
    ds = corrupt(draw_clean(tree, 50_000, rng), 0.05, Adversary.LABEL_FLIP_MARGIN, tree, rng)
    result = find(ds, 5)
    _assert_same_search(result, reference_find(ds, 5, memo=True))
    assert result.stats.nodes_expanded == 12_585


@PROPERTY
@given(
    n=st.integers(1, 10),
    depth=st.integers(0, 11),
    s=st.integers(1, 10),
    m=st.integers(0, 400),
    noisy=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=5, depth=3, s=4, m=0, noisy=False, seed=0)
@example(n=4, depth=5, s=10, m=40, noisy=True, seed=1)
@example(n=3, depth=2, s=3, m=400, noisy=False, seed=2)
@example(n=9, depth=9, s=10, m=300, noisy=True, seed=3)
@example(n=9, depth=9, s=10, m=300, noisy=False, seed=4)
def test_find_matches_searchsorted_table_search(n, depth, s, m, noisy, seed):
    # depth runs from 0 to n + 1.  m = 0 leaves the table empty, m >= 2^n
    # sees most inputs, and at n = 9, depth 9 a variable's position among
    # its set's variables reaches 8.
    depth = min(depth, n + 1)
    ds = _sample(_tree(n, min(s, 1 << n), 0.3, seed), m, noisy, seed + 1)
    _assert_same_search(find(ds, depth), reference_table_search(ds, depth))


@PROPERTY
@given(
    n=st.integers(0, 40),
    depth=st.integers(0, 12),
    u=st.integers(0, 300),
    block=st.sampled_from([1, 100, 1 << 16]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=0, depth=0, u=0, block=1 << 16, seed=0)
@example(n=5, depth=0, u=0, block=1 << 16, seed=0)
@example(n=6, depth=6, u=1, block=1 << 16, seed=1)
@example(n=9, depth=9, u=300, block=100, seed=2)
@example(n=40, depth=2, u=300, block=100, seed=3)
@example(n=30, depth=2, u=300, block=1, seed=4)
def test_moment_counts_match_bincounts(n, depth, u, block, seed):
    # Depth is cut until the table has at most 2^15 cells (n = 40 reaches
    # depth 2); a block of 1 or 100 product entries splits the inputs into
    # many blocks of one input or a few.
    top = min(depth, n)
    while table_cells(n, top) > 1 << 15:
        top -= 1
    rng = np.random.default_rng(seed)
    uz = np.unique(rng.integers(0, 1 << n, size=u, dtype=np.int64))
    w0, w1 = rng.integers(0, 4, size=(2, uz.size), dtype=np.int64)
    masks, _ = _links(n, top)
    with mock.patch.object(find_module, "_PRODUCT_BLOCK", block):
        counts = _moment_counts(uz, w0, w1, n, top)
    _assert_identical(counts, np.stack(reference_leaf_counts(uz, w0, w1, n, masks, top)))


@pytest.mark.parametrize("n, top", [(3, 3), (3, 2), (4, 1)])
def test_moment_counts_exact_near_two_to_the_fifty(n, top):
    # Three inputs with both counts just below 2^50: m = 6 * 2^50 - 21 < 2^53,
    # so every sum is exact in float64; a float32 or rounded step would lose
    # the low bits that tell these weights apart.
    uz = np.array([0, 5, (1 << n) - 1], dtype=np.int64)
    w0 = np.array([(1 << 50) - 1, (1 << 50) - 3, (1 << 50) - 5], dtype=np.int64)
    w1 = np.array([(1 << 50) - 2, (1 << 50) - 4, (1 << 50) - 6], dtype=np.int64)
    masks, _ = _links(n, top)
    counts = _moment_counts(uz, w0, w1, n, top)
    _assert_identical(counts, np.stack(reference_leaf_counts(uz, w0, w1, n, masks, top)))
    assert counts.sum(axis=2).tolist() == [[int(w0.sum())] * masks.size, [int(w1.sum())] * masks.size]


def _assert_same_search(result, reference) -> None:
    tree, error_count, stats = reference
    assert result.tree == tree
    assert result.error_count == error_count
    assert result.stats.nodes_expanded == stats.nodes_expanded
    assert result.stats.cache_hits == stats.cache_hits


def _assert_same_dataset(new: Dataset, ref: Dataset) -> None:
    assert new.n == ref.n
    _assert_identical(new.zs, ref.zs)
    _assert_identical(new.cells, ref.cells)


random_trees = st.builds(
    lambda n, s, stoch, seed: _tree(n, min(s, 1 << n), stoch, seed),
    n=st.integers(0, 6),
    s=st.integers(1, 10),
    stoch=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)

#: A two-variable target whose every input has a different label law.
LAW_TREE = StochasticTree(2, Query(0, Stoch(0.3, Leaf(1), Leaf(0)), Query(1, Leaf(1), Stoch(0.8, Leaf(1), Leaf(0)))))

#: Smallest p-value a law test accepts.  Each test runs at fixed seeds, so
#: its p-value is a fixed number, and a correct sampler passes every run.
LAW_P_MIN = 1e-3


def _table_key(ds: Dataset) -> tuple[bytes, bytes]:
    return ds.zs.tobytes(), ds.cells.tobytes()


def _same_law(draw_new, draw_ref, trials: int) -> float:
    """The chi-square homogeneity p-value of the count tables two samplers
    give in ``trials`` draws each; tables seen fewer than 10 times in all
    share one category."""
    seen = [Counter(_table_key(draw()) for _ in range(trials)) for draw in (draw_new, draw_ref)]
    common = [k for k in seen[0].keys() | seen[1].keys() if seen[0][k] + seen[1][k] >= 10]
    table = np.array([[c[k] for k in common] + [trials - sum(c[k] for k in common)] for c in seen])
    table = table[:, table.sum(axis=0) > 0]
    assert table.shape[1] >= 2
    return float(chi2_contingency(table).pvalue)


def test_draw_clean_matches_per_row_walk():
    # The count table of m rows drawn uniformly and labeled by walking the
    # tree once per row, against one np.unique and one binomial draw: the
    # whole table's law at m = 3 (20 input multisets times their labels),
    # and the pooled cell counts at m = 40.
    new, ref = np.random.default_rng(1), np.random.default_rng(2)
    p = _same_law(lambda: draw_clean(LAW_TREE, 3, new), lambda: reference_draw_clean(LAW_TREE, 3, ref), 4000)
    assert p > LAW_P_MIN
    pooled = np.zeros((2, 4, 2, 2), dtype=np.int64)
    for side, draw in enumerate((draw_clean, reference_draw_clean)):
        rng = np.random.default_rng(3 + side)
        for _ in range(400):
            ds = draw(LAW_TREE, 40, rng)
            pooled[side, ds.zs] += ds.cells
    assert not pooled[:, :, :, 1].any()
    # x = 01 is labeled 1 surely, so its 0-label cell stays empty.
    cells = pooled[:, :, :, 0].reshape(2, 8)
    assert chi2_contingency(cells[:, cells.sum(axis=0) > 0]).pvalue > LAW_P_MIN


@PROPERTY
@given(n=st.integers(0, 13), m=st.integers(0, 3000), seed=st.integers(0, 2**32 - 1))
@example(n=0, m=0, seed=0)
@example(n=0, m=1, seed=1)
@example(n=6, m=1, seed=2)
@example(n=7, m=0, seed=3)
@example(n=11, m=(1 << 11) // data_module._CUBE_COUNT_RATIO, seed=4)
@example(n=11, m=(1 << 11) // data_module._CUBE_COUNT_RATIO - 1, seed=5)
@example(n=10, m=50_000, seed=6)
def test_draw_clean_counts_the_draw_as_sorting_does(n, m, seed):
    # Both sides of the cube-count threshold, its boundary 2^n = ratio * m
    # and one row short of it, and the acceptance shape: the same table, and
    # the generator left in the same state.
    tree = _tree(n, min(4, 1 << n), 0.3, seed)
    new, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    ds = draw_clean(tree, m, new)
    zs, cells = reference_counted_draw(tree, m, ref)
    _assert_identical(ds.zs, zs)
    _assert_identical(ds.cells, cells)
    assert new.bit_generator.state == ref.bit_generator.state


def test_draw_clean_clips_a_mean_rounded_past_one():
    # 0.65 * 0.1 + 0.65 * 0.9 + 0.35 * 0.65 + 0.35 * 0.35 rounds to 1 + 2^-52.
    tree = StochasticTree(1, Stoch(0.65, Stoch(0.1, Leaf(1), Leaf(1)), Stoch(0.65, Leaf(1), Leaf(1))))
    assert mean_vector(tree).max() > 1.0
    ds = draw_clean(tree, 100, np.random.default_rng(0))
    assert ds.counts()[2].sum() == 100


def reference_corrupt_rows(
    clean: Dataset, eta: float, strategy: Adversary, tree: StochasticTree, rng: np.random.Generator
) -> Dataset:
    """The uniform adversaries on the rows: one ``rng.choice`` of the rows to rewrite."""
    zs, ys, flags = dataset_rows(clean)
    chosen = rng.choice(clean.m, size=corruption_budget(eta, clean.m), replace=False)
    if strategy is Adversary.LABEL_FLIP_RANDOM:
        ys[chosen] ^= 1
    elif strategy is Adversary.EXAMPLE_REPLACE:
        zs[chosen], ys[chosen] = reference_query_cube_point(tree)
    flags[chosen] = True
    return Dataset.from_rows(clean.n, zs, ys, flags)


@pytest.mark.parametrize(
    "strategy", [Adversary.NONE, Adversary.LABEL_FLIP_RANDOM, Adversary.EXAMPLE_REPLACE]
)
def test_uniform_adversaries_match_row_choice(strategy):
    # Eight clean rows over four inputs, three of them rewritten: the law of
    # the corrupted table from one hypergeometric draw over the cells
    # against one rng.choice over the rows.
    clean = draw_clean(LAW_TREE, 8, np.random.default_rng(5))
    assert clean.zs.size >= 3
    new, ref = np.random.default_rng(6), np.random.default_rng(7)
    p = _same_law(
        lambda: corrupt(clean, 3 / 8, strategy, LAW_TREE, new),
        lambda: reference_corrupt_rows(clean, 3 / 8, strategy, LAW_TREE, ref),
        3000,
    )
    assert p > LAW_P_MIN


@PROPERTY
@given(tree=random_trees, m=st.integers(0, 200), eta=st.sampled_from([0.0, 0.1, 1.0]),
       seed=st.integers(0, 2**32 - 1))
@example(tree=StochasticTree(0, Leaf(1)), m=3, eta=0.0, seed=0)
@example(tree=_tree(4, 5, 0.3, 1), m=0, eta=0.0, seed=1)
def test_dataset_text_matches_row_by_row_format(tree, m, eta, seed):
    rng = np.random.default_rng(seed)
    ds = corrupt(draw_clean(tree, m, rng), eta, Adversary.LABEL_FLIP_RANDOM, tree, rng)
    text = dump_dataset(ds)
    assert text == reference_dump_dataset(ds)
    _assert_same_dataset(load_dataset(text), ds)
    _assert_same_dataset(load_dataset(text), reference_load_dataset(text))


def _row_texts(n: int):
    """Lists of rows with assorted whitespace: well formed ones; three
    fields of bits of several widths, junk and non-ASCII characters; and
    up to four such fields, where a "\r" splits a row in two."""
    sep = st.sampled_from([" ", "  ", "\t", "\u2003"])
    bit = st.sampled_from("01")
    tok = st.sampled_from(["0", "1", "01", "10", "11", "011", "0a", "2", "\u00e9", "1\u00e9"])
    valid = st.tuples(sep, st.text("01", min_size=n, max_size=n), sep, bit, sep, bit).map("".join)
    three = st.tuples(sep, tok, sep, tok, sep, tok).map("".join)
    field = st.tuples(st.sampled_from([" ", "\t", "\u2003", "\r"]), tok).map("".join)
    fields = st.lists(field, max_size=4).map("".join)
    return st.lists(st.one_of(valid, valid, three, fields), max_size=6)


@PROPERTY
@given(case=st.integers(0, 4).flatmap(lambda n: st.tuples(st.just(n), _row_texts(n))),
       extra=st.sampled_from([0, 0, 0, 1, -1]))
@example(case=(2, ["01 1 0", "0a 1 0", "011 1"]), extra=0)
@example(case=(2, ["01\t1\u20030", " 10  0 1 "]), extra=0)
@example(case=(1, ["\u00e9 1 0"]), extra=0)
@example(case=(2, ["01 1 0", "10 1 00", "01 11 0"]), extra=0)
@example(case=(0, [" 1 0", "0 1"]), extra=0)
def test_dataset_loader_matches_row_by_row_parse(case, extra):
    n, rows = case
    body = "\n".join(rows)
    # The header counts the nonblank lines, give or take one.
    m = max(sum(1 for ln in body.splitlines() if ln.strip()) + extra, 0)
    text = f"n={n} m={m}\n{body}"
    try:
        ref = reference_load_dataset(text)
    except ValueError as err:
        with pytest.raises(ValueError) as caught:
            load_dataset(text)
        assert str(caught.value) == str(err)
        return
    _assert_same_dataset(load_dataset(text), ref)


def _means_on_the_cube(tree: StochasticTree) -> np.ndarray:
    """mu at every input of {0,1}^n, one traversal per input."""
    return np.array([mean(tree, list(x)) for x in unpack_inputs(np.arange(1 << tree.n), tree.n)])


def _rounded_on_the_cube(poly: MultilinearPolynomial) -> np.ndarray:
    """The l2 hypothesis's output on every input, by the monomial loop."""
    q = np.clip(reference_evaluate_packed(poly, np.arange(1 << poly.n)), 0.0, 1.0)
    return (q >= 0.5 - ROUND_TIE_TOL).astype(np.float64)


@pytest.mark.parametrize(
    "cfg,expected", GOLDEN + ACCEPTANCE_GOLDEN, ids=["find", "l2", "l1", "acceptance-eta0", "acceptance-margin"]
)
def test_pinned_reports_match_the_reference_pipeline(cfg, expected):
    # The experiment's draw and corruption, then the reference kernels on
    # the dataset's rows and the errors summed over {0,1}^n: find's tree and
    # counters must be identical, l2's rounding too, and l1's objective
    # within L1_CERTIFICATE_TOL per row (a tied LP may return another vertex).
    depth, degree = budgets_for(cfg)
    streams = np.random.SeedSequence(cfg.seed).spawn(4)
    rng_tree, rng_sample, rng_corrupt, _ = (np.random.default_rng(s) for s in streams)
    tree = random_tree(cfg.n, cfg.s, cfg.stoch_fraction, rng_tree)
    ds = corrupt(draw_clean(tree, cfg.m, rng_sample), cfg.eta, Adversary(cfg.adversary), tree, rng_corrupt)
    if cfg.method == "find":
        reference = reference_table_search(ds, depth)
        _assert_same_search(find(ds, depth), reference)
        q = _means_on_the_cube(reference[0])
    elif cfg.method == "l2":
        q = _rounded_on_the_cube(reference_l2_regress(ds, degree))
        _assert_identical(_rounded_on_the_cube(l2_regress(ds, degree)), q)
    else:
        fit = l1_regress(ds, degree)
        reference = (reference_l1_cube if cube_side(cfg.n, degree) else reference_l1_regress)(ds, degree)
        assert abs(l1_objective(fit, ds) - l1_objective(reference, ds)) <= L1_CERTIFICATE_TOL
        q = np.clip(reference_evaluate_packed(fit, np.arange(1 << cfg.n)), 0.0, 1.0)
    mu = _means_on_the_cube(tree)
    report = json.loads(expected)
    assert abs(report["opt"] - float(np.mean(np.minimum(mu, 1.0 - mu)))) <= 1e-12
    assert abs(report["hypothesis_error"] - float(np.mean(q + mu - 2.0 * q * mu))) <= 1e-12


@pytest.mark.parametrize("fit,sample,text", [(f, s, t) for f, s, _, t in PINNED_FITS.values()], ids=PINNED_FITS.keys())
def test_pinned_fits_match_the_reference_kernels(fit, sample, text):
    ds = _seeded_sample(*sample)
    pinned = load_polynomial(text)
    if fit is l2_regress:
        _assert_identical(_rounded_on_the_cube(pinned), _rounded_on_the_cube(reference_l2_regress(ds, 2)))
    else:
        assert abs(l1_objective(pinned, ds) - l1_objective(reference_l1_regress(ds, 2), ds)) <= L1_CERTIFICATE_TOL
