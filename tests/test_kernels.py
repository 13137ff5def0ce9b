"""The vectorized kernels against the plain loops they replaced.

Each reference is the earlier implementation kept verbatim in spirit: a
per-row dict loop for the margin adversary, ``np.unique`` over (input,
label) keys for the regression rows, a recursive walk that splits the
inputs at each query for the mean at given points, the expansion of each
path's (variable, bit) factors one at a time for the mean polynomial,
the slack-split primal LP for the L1 fit
(and that fit's dual LP for its cube LP, used when d is near n),
``lstsq`` over the grouped rows for the L2 fit (on either side), one
pass over the inputs per monomial for polynomial evaluation, the ``find`` search
keyed by sorted (variable, bit) tuples (in conftest), one int64 matrix
product over all rows for input packing, the label draw that walks the
tree once per row, the row-by-row dataset text format, and the stacking
construction that recursed once per stacked copy.  The new code must agree
exactly, dtype included, on randomized instances (``find`` down to its
tree and search counters); the L1 fit, whose optimum need not be
unique, must reach the same objective, the L2 fit, solved in another
order, the same predictions to a set tolerance, the mean polynomial,
summed in another order, the same coefficients to 1e-12, polynomial
evaluation by the zeta transform the same values to 1e-9, and the label draw,
which takes one uniform per row instead of one per coin, the same
inputs and the labels its own uniforms give.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conftest import l1_objective, reference_find, sample
from sdtlearn.data import (
    Adversary,
    Dataset,
    _flip_margin_rows,
    corrupt,
    corruption_budget,
    draw_clean,
    dump_dataset,
    load_dataset,
)
from sdtlearn.evaluation import exact_error
from sdtlearn.find import find
from sdtlearn.polynomials import COEFF_ABS_SUM_CAP, MultilinearPolynomial, monomials, parse_header
from sdtlearn.regression import (
    TruncatedPolyHypothesis,
    _design_matrix,
    _grouped_rows,
    _l1_cube,
    _l1_dual,
    _to_poly,
    l1_regress,
    l2_regress,
)
from sdtlearn.trees import (
    Leaf,
    Node,
    Query,
    Stoch,
    StochasticTree,
    fix_randomness,
    mean,
    mean_on_points,
    mean_polynomial,
    mean_vector,
    pack_inputs,
    random_tree,
    sample_randomness,
    stochastic_leaf_approx,
    unpack_inputs,
)

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)


def reference_flip_margin_rows(clean: Dataset, budget: int, tree: StochasticTree) -> np.ndarray:
    zs = clean.zs
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
        agree = [i for i in rows if clean.ys[i] == label]
        disagree_count = len(rows) - len(agree)
        if len(agree) < disagree_count:
            continue
        need = (len(agree) - disagree_count) // 2 + 1
        take = min(need, remaining, len(agree))
        chosen.extend(agree[:take])
        remaining -= take
    if remaining:
        taken = set(chosen)
        for i in range(clean.m):
            if remaining == 0:
                break
            if i not in taken:
                chosen.append(i)
                remaining -= 1
    return np.sort(np.asarray(chosen, dtype=np.int64))


def reference_grouped_rows(dataset: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    keys = dataset.zs * 2 + dataset.ys
    uniq, counts = np.unique(keys, return_counts=True)
    return uniq >> 1, (uniq & 1).astype(np.float64), counts.astype(np.float64)


def reference_l1_regress(dataset: Dataset, d: int):
    """min sum_i w_i t_i  s.t.  -t <= phi b - y <= t, over (b, t)."""
    monos = monomials(dataset.n, d)
    zs, ys, w = _grouped_rows(dataset)
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


def reference_l2_regress(dataset: Dataset, d: int):
    """Minimum-norm least squares over the grouped (input, label) rows."""
    monos = monomials(dataset.n, d)
    zs, ys, w = _grouped_rows(dataset)
    sw = np.sqrt(w)
    beta, *_ = np.linalg.lstsq(_design_matrix(zs, monos) * sw[:, None], ys * sw, rcond=None)
    return _to_poly(dataset.n, d, monos, beta)


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


def reference_pack_inputs(xs) -> np.ndarray:
    """One int64 copy of the whole array times the vector of bit weights."""
    xs = np.asarray(xs, dtype=np.int64)
    return xs @ (np.int64(1) << np.arange(xs.shape[1], dtype=np.int64))


def reference_draw_clean(tree: StochasticTree, m: int, rng: np.random.Generator) -> Dataset:
    """All inputs first, then one walk down the tree per row, drawing one
    uniform per coin visited."""
    xs = rng.integers(0, 2, size=(m, tree.n), dtype=np.uint8)
    ys = np.fromiter((sample(tree, row, rng) for row in xs), dtype=np.uint8, count=m)
    return Dataset(tree.n, pack_inputs(xs), ys, np.zeros(m, dtype=bool))


def reference_dump_dataset(ds: Dataset) -> str:
    lines = [f"n={ds.n} m={ds.m}"]
    for row, y, flag in zip(unpack_inputs(ds.zs, ds.n), ds.ys, ds.corrupted):
        bits = "".join(str(int(b)) for b in row)
        lines.append(f"{bits} {int(y)} {int(flag)}")
    return "\n".join(lines) + "\n"


def reference_load_dataset(text: str) -> Dataset:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("dataset text is empty")
    n, m = parse_header(lines[0], ("n", "m"))
    if len(lines) - 1 != m:
        raise ValueError(f"header says m={m} but found {len(lines) - 1} rows")
    xs = np.zeros((m, n), dtype=np.uint8)
    ys = np.zeros(m, dtype=np.uint8)
    flags = np.zeros(m, dtype=bool)
    for i, ln in enumerate(lines[1:]):
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
    return Dataset(n, pack_inputs(xs), ys, flags)


def _tree(n: int, s: int, stoch: float, seed: int) -> StochasticTree:
    return random_tree(n, s, stoch, np.random.default_rng(seed))


def _sample(tree: StochasticTree, m: int, noisy: bool, seed: int) -> Dataset:
    """A clean sample, or one with uniform labels so that many inputs
    already disagree with the Bayes label."""
    rng = np.random.default_rng(seed)
    clean = draw_clean(tree, m, rng)
    if not noisy:
        return clean
    ys = rng.integers(0, 2, size=m, dtype=np.uint8)
    return Dataset(clean.n, clean.zs, ys, clean.corrupted)


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


@PROPERTY
@given(eta=st.sampled_from([0.01, 0.05, 0.2, 0.5, 1.0]), **instances)
@example(n=3, s=4, stoch=0.3, m=50, noisy=False, seed=0, eta=1.0)
@example(n=2, s=3, stoch=0.0, m=200, noisy=True, seed=1, eta=0.5)
def test_flip_margin_rows_matches_dict_loop(n, s, stoch, m, noisy, seed, eta):
    tree = _tree(n, min(s, 1 << n), stoch, seed)
    clean = _sample(tree, m, noisy, seed + 1)
    budget = corruption_budget(eta, m)
    if budget == 0:
        return
    new = _flip_margin_rows(clean, budget, tree)
    _assert_identical(new, reference_flip_margin_rows(clean, budget, tree))
    assert new.size == budget and np.unique(new).size == budget


def test_flip_margin_rows_fills_leftover_budget():
    # Input 0 needs one flip and input 1 needs two; the fourth flip goes to
    # the lowest untaken row.
    tree = StochasticTree(1, Query(0, Leaf(0), Leaf(1)))
    clean = Dataset(1, [0, 1, 0, 1, 0], [0, 1, 1, 1, 0], np.zeros(5, dtype=bool))
    ref = reference_flip_margin_rows(clean, 4, tree)
    _assert_identical(_flip_margin_rows(clean, 4, tree), ref)
    assert ref.tolist() == [0, 1, 2, 3]


@PROPERTY
@given(**instances)
def test_grouped_rows_match_unique_keys(n, s, stoch, m, noisy, seed):
    tree = _tree(n, min(s, 1 << n), stoch, seed)
    ds = _sample(tree, m, noisy, seed + 1)
    for new, ref in zip(_grouped_rows(ds), reference_grouped_rows(ds)):
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
        zs, c0, c1, _ = ds.counts()
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
    # d = n (fewer inputs than features, lstsq), and 15 of 16 inputs seen
    # with d = n, where cube_side holds but the fit stays on lstsq.
    # Predictions are compared on all of {0,1}^n.
    tree = _tree(n, min(s, 1 << n), stoch, seed)
    ds = _sample(tree, m, noisy, seed + 1)
    d = round(degree * n)
    cube = np.arange(1 << n, dtype=np.int64)
    new = l2_regress(ds, d).evaluate_packed(cube)
    ref = reference_l2_regress(ds, d).evaluate_packed(cube)
    assert np.max(np.abs(new - ref)) <= 1e-9


def test_l2_rank_short_gram_falls_back_to_min_norm():
    # x0 is always 0, so with 8 distinct inputs over 5 features the Gram
    # matrix has rank 4: the minimum-norm fit gives x0 no weight.
    rng = np.random.default_rng(6)
    xs = rng.integers(0, 2, size=(400, 4), dtype=np.uint8)
    xs[:, 0] = 0
    ys = rng.integers(0, 2, size=400, dtype=np.uint8)
    ds = Dataset(4, pack_inputs(xs), ys, np.zeros(400, dtype=bool))
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
@given(**instances)
def test_count_table_matches_rows(n, s, stoch, m, noisy, seed):
    tree = _tree(n, min(s, 1 << n), stoch, seed)
    ds = _sample(tree, m, noisy, seed + 1)
    zs, c0, c1, inverse = ds.counts()
    assert zs.dtype == c0.dtype == c1.dtype == np.int64
    assert np.all(np.diff(zs) > 0)
    assert np.array_equal(zs[inverse], ds.zs)
    assert np.array_equal(c0, np.bincount(inverse, weights=ds.ys == 0, minlength=zs.size))
    assert np.array_equal(c1, np.bincount(inverse, weights=ds.ys == 1, minlength=zs.size))


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
    ds = Dataset(n, zs, ys, np.zeros(len(rows), dtype=bool))
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


def _assert_same_search(result, reference) -> None:
    tree, error_count, stats = reference
    assert result.tree == tree
    assert result.error_count == error_count
    assert result.stats.nodes_expanded == stats.nodes_expanded
    assert result.stats.cache_hits == stats.cache_hits


def _assert_same_dataset(new: Dataset, ref: Dataset) -> None:
    assert new.n == ref.n
    _assert_identical(new.zs, ref.zs)
    _assert_identical(new.ys, ref.ys)
    _assert_identical(new.corrupted, ref.corrupted)


random_trees = st.builds(
    lambda n, s, stoch, seed: _tree(n, min(s, 1 << n), stoch, seed),
    n=st.integers(0, 6),
    s=st.integers(1, 10),
    stoch=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)

# Coins that always or never come up heads: the walk still draws a uniform
# at each, the new draw none, and the labels must not differ.
CERTAIN_COINS = StochasticTree(
    2, Stoch(1.0, Query(0, Stoch(0.0, Leaf(1), Leaf(0)), Leaf(1)), Stoch(0.0, Leaf(1), Leaf(0)))
)


@PROPERTY
@given(tree=random_trees, m=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
@example(tree=_tree(3, 4, 0.3, 0), m=0, seed=0)
@example(tree=StochasticTree(0, Stoch(0.3, Leaf(1), Leaf(0))), m=200, seed=1)
@example(tree=StochasticTree(3, Leaf(1)), m=50, seed=2)
@example(tree=CERTAIN_COINS, m=100, seed=3)
def test_draw_clean_matches_per_row_walk(tree, m, seed):
    new = draw_clean(tree, m, np.random.default_rng(seed))
    ref = reference_draw_clean(tree, m, np.random.default_rng(seed))
    assert new.n == tree.n and not new.corrupted.any()
    # Both draw the inputs with the same first call.
    _assert_identical(new.zs, ref.zs)
    twin = np.random.default_rng(seed)
    twin.integers(0, 2, size=(m, tree.n), dtype=np.uint8)
    u = twin.random(m)
    mu = np.array([mean(tree, row) for row in unpack_inputs(new.zs, tree.n)], dtype=np.float64)
    _assert_identical(new.ys, (u < mu).astype(np.uint8))
    # Where the label is certain, no uniform can change it.
    certain = (mu == 0.0) | (mu == 1.0)
    assert np.array_equal(new.ys[certain], ref.ys[certain])
    if tree.is_deterministic:
        _assert_identical(new.ys, ref.ys)


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
