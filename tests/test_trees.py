import gc
import inspect
import math
import sys

import numpy as np
import pytest

from conftest import (
    all_points,
    bayes_classifier,
    enumerate_fixed_moments,
    evaluate_fixed,
    force_fair_coins,
    sample,
)
from sdtlearn import trees
from sdtlearn.trees import (
    MAX_NESTING,
    MAX_TREE_LEAVES,
    Leaf,
    Query,
    Stoch,
    StochasticTree,
    deep_leaf_count,
    dump_tree,
    fix_randomness,
    load_tree,
    mean,
    mean_on_points,
    mean_polynomial,
    mean_vector,
    pack_inputs,
    preorder,
    random_tree,
    round_prob,
    sample_randomness,
    stochastic_leaf_approx,
    stochastic_leaf_to_deterministic,
    truncate,
    unpack_inputs,
)


def random_trees(count, n_max=10, s_max=12, stoch=0.4, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, n_max + 1))
        s = int(rng.integers(1, s_max + 1))
        yield random_tree(n, s, stoch, rng), rng


class TestMean:
    def test_demo_values(self, demo_tree):
        assert mean(demo_tree, (0, 0, 0)) == 1.0
        assert mean(demo_tree, (0, 0, 1)) == 1.0
        assert mean(demo_tree, (1, 0, 0)) == pytest.approx(0.3, abs=1e-12)
        assert mean(demo_tree, (1, 1, 0)) == pytest.approx(0.3, abs=1e-12)

    def test_constant_tree(self):
        tree = StochasticTree(2, Leaf(1))
        assert mean(tree, (0, 1)) == 1.0

    def test_range_and_determinism(self):
        for tree, _ in random_trees(60, seed=3):
            mu = mean_vector(tree)
            assert np.all(mu >= 0.0) and np.all(mu <= 1.0)
            if tree.is_deterministic:
                assert set(np.unique(mu)) <= {0.0, 1.0}

    def test_matches_exhaustive_randomness_enumeration(self):
        # Independent oracle: sum over all coin outcomes, weighted by
        # their probabilities, of the deterministically-evaluated tree.
        checked = 0
        for tree, _ in random_trees(40, n_max=6, s_max=10, stoch=0.5, seed=4):
            if tree.num_stochastic > 10:
                continue
            for x in all_points(tree.n)[:8]:
                oracle_mean, _ = enumerate_fixed_moments(tree, x)
                assert mean(tree, x) == pytest.approx(oracle_mean, abs=1e-12)
                checked += 1
        assert checked > 50

    def test_mean_vector_matches_pointwise(self, demo_tree):
        mu = mean_vector(demo_tree)
        for z in range(8):
            x = [(z >> i) & 1 for i in range(3)]
            assert mu[z] == pytest.approx(mean(demo_tree, x), abs=1e-15)
        zs = np.array([1, 5, 2])
        assert np.allclose(mean_on_points(demo_tree, zs), mu[zs])

    def test_mean_on_points_leaves_no_reference_cycle(self, demo_tree):
        # A cycle would hold the packed inputs until the next cyclic
        # collection; Monte Carlo evaluation passes 200k of them per call.
        gc.collect()
        gc.disable()
        try:
            mean_on_points(demo_tree, np.arange(8))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_rejects_wrong_length(self, demo_tree):
        with pytest.raises(ValueError):
            mean(demo_tree, (0, 1))


class TestSample:
    def test_constant_leaf(self):
        rng = np.random.default_rng(0)
        tree = StochasticTree(1, Leaf(0))
        assert all(sample(tree, (0,), rng) == 0 for _ in range(20))

    def test_degenerate_coin(self):
        rng = np.random.default_rng(0)
        tree = StochasticTree(1, Stoch(1.0, Leaf(1), Leaf(0)))
        assert all(sample(tree, (1,), rng) == 1 for _ in range(20))

    def test_monte_carlo_against_mean(self, demo_tree):
        # 1e6 draws at true probability 0.3: tolerance 0.002 is ~4.4 sigma.
        rng = np.random.default_rng(123)
        x = (1, 0, 0)
        draws = sum(sample(demo_tree, x, rng) for _ in range(1_000_000))
        assert abs(draws / 1_000_000 - 0.3) < 0.002


class TestFixedRandomness:
    def test_deterministic_tree_empty_string(self):
        tree = StochasticTree(2, Query(0, Leaf(0), Leaf(1)))
        for x in all_points(2):
            assert evaluate_fixed(tree, x, ()) == round_prob(mean(tree, x))

    def test_demo_heads_heads(self, demo_tree):
        # Heads at both coins sends x0=1 to the x2 query.
        assert evaluate_fixed(demo_tree, (1, 0, 1), (1, 1)) == 1
        assert evaluate_fixed(demo_tree, (1, 0, 0), (1, 1)) == 0

    def test_fair_coin_average_equals_mean(self):
        for tree, _ in random_trees(25, n_max=5, s_max=10, stoch=0.5, seed=5):
            fair = StochasticTree(tree.n, force_fair_coins(tree.root))
            if fair.num_stochastic > 8:
                continue
            m = fair.num_stochastic
            for x in all_points(fair.n)[:4]:
                total = sum(
                    evaluate_fixed(fair, x, [(r >> j) & 1 for j in range(m)])
                    for r in range(1 << m)
                )
                assert total / (1 << m) == pytest.approx(mean(fair, x), abs=1e-12)

    def test_length_mismatch_raises(self, demo_tree):
        with pytest.raises(ValueError):
            evaluate_fixed(demo_tree, (0, 0, 0), (1,))
        with pytest.raises(ValueError):
            fix_randomness(demo_tree, (1, 0, 1))

    def test_fix_randomness_pointwise_equality(self):
        rng = np.random.default_rng(6)
        for tree, _ in random_trees(30, n_max=6, s_max=10, stoch=0.5, seed=6):
            r = sample_randomness(tree, rng)
            fixed = fix_randomness(tree, r)
            assert fixed.is_deterministic
            assert fixed.size <= tree.size
            for x in all_points(tree.n):
                assert mean(fixed, x) == evaluate_fixed(tree, x, r)

    def test_fix_randomness_visits_each_node_once(self, monkeypatch):
        # Queries chained along child0, each with a coin as child1: counting
        # the coins under child0 at every level visits the chain
        # quadratically often.
        node, fixed_node = Leaf(0), Leaf(0)
        for _ in range(40):
            node = Query(0, node, Stoch(0.5, Leaf(1), Leaf(0)))
            fixed_node = Query(0, fixed_node, Leaf(1))
        tree = StochasticTree(1, node)
        visits = 0
        count = trees.stoch_count

        def counting(node):
            nonlocal visits
            visits += 1
            return count(node)

        monkeypatch.setattr(trees, "stoch_count", counting)
        assert fix_randomness(tree, [1] * 40).root == fixed_node
        assert visits <= sum(1 for _ in preorder(tree.root))


class TestBayes:
    def test_round_frozen_values(self):
        assert round_prob(0.5) == 1
        assert round_prob(0.499) == 0

    def test_demo_classifier(self, demo_tree):
        clf = bayes_classifier(demo_tree)
        assert clf((1, 0, 0)) == 0  # mean 0.3 rounds down
        assert clf((0, 0, 0)) == 1

    def test_bayes_minimizes_over_all_functions(self):
        # For n<=4, check against every one of the 2^(2^n) deterministic rules.
        rng = np.random.default_rng(7)
        for n in (2, 3, 4):
            tree = random_tree(n, 6, 0.6, rng)
            mu = mean_vector(tree)
            opt = float(np.mean(np.minimum(mu, 1.0 - mu)))
            points = 1 << n
            tables = np.arange(1 << points, dtype=np.int64)
            preds = ((tables[:, None] >> np.arange(points)) & 1).astype(np.float64)
            errors = np.mean(preds * (1.0 - mu) + (1.0 - preds) * mu, axis=1)
            assert np.all(errors >= opt - 1e-12)

    def test_l1_error_bayes_inequality(self):
        # Rounding any [0,1]-valued h costs at most 2 E|mu - h| over the
        # Bayes error; both sides computed exactly.
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(1, 11))
            tree = random_tree(n, int(rng.integers(1, 13)), 0.5, rng)
            mu = mean_vector(tree)
            h = rng.uniform(0.0, 1.0, size=1 << n)
            opt = float(np.mean(np.minimum(mu, 1.0 - mu)))
            rounded = (h >= 0.5).astype(np.float64)
            lhs = float(np.mean(rounded * (1.0 - mu) + (1.0 - rounded) * mu))
            rhs = opt + 2.0 * float(np.mean(np.abs(mu - h)))
            assert lhs <= rhs + 1e-12


class TestStochasticLeafApprox:
    def test_deterministic_input_identity(self):
        rng = np.random.default_rng(9)
        tree = random_tree(5, 8, 0.0, rng)
        result = stochastic_leaf_approx(tree, 0.3, rng)
        assert result.l1_distance == 0.0
        assert np.array_equal(mean_vector(result.tree), mean_vector(tree))

    def test_single_coin_variance_bound(self):
        # est is an average of c fair coins; its exact expected deviation
        # from 1/2 (a binomial sum) must respect the eps/2 bound.
        eps = 0.25
        c = math.ceil(1 / eps**2)
        exact_dev = sum(
            math.comb(c, k) * 0.5**c * abs(k / c - 0.5) for k in range(c + 1)
        )
        assert exact_dev <= eps / 2
        tree = StochasticTree(1, Stoch(0.5, Leaf(1), Leaf(0)))
        rng = np.random.default_rng(10)
        draws = [stochastic_leaf_approx(tree, eps, rng).l1_distance for _ in range(200)]
        assert np.mean(draws) == pytest.approx(exact_dev, abs=0.02)

    def test_demo_markov_success_rate(self, demo_tree):
        hits = 0
        for seed in range(40):
            rng = np.random.default_rng(100 + seed)
            result = stochastic_leaf_approx(demo_tree, 0.25, rng)
            assert result.c == 16
            hits += result.l1_distance <= 0.25
        assert hits >= 30  # at least 75% of seeds

    def test_output_always_stochastic_leaf(self):
        for tree, rng in random_trees(25, n_max=8, s_max=10, stoch=0.5, seed=11):
            result = stochastic_leaf_approx(tree, 0.35, rng)
            assert result.tree.is_stochastic_leaf
            assert result.tree.n == tree.n

    def test_small_eps_stacks_many_copies(self):
        # 400 copies: a builder that nests once per copy overflows the stack.
        tree = random_tree(8, 16, 0.3, np.random.default_rng(0))
        result = stochastic_leaf_approx(tree, 0.05, np.random.default_rng(1))
        assert result.c == 400
        assert result.tree.is_stochastic_leaf
        assert result.tree.depth <= tree.n
        assert result.l1_distance <= 0.05

    def test_eps_range_enforced(self, demo_tree):
        rng = np.random.default_rng(0)
        for bad in (0.0, 0.5, 0.9, -0.1):
            with pytest.raises(ValueError):
                stochastic_leaf_approx(demo_tree, bad, rng)


class TestStochasticLeafToDeterministic:
    def test_coin_rounding(self):
        half = StochasticTree(1, Stoch(0.5, Leaf(1), Leaf(0)))
        assert stochastic_leaf_to_deterministic(half).root == Leaf(1)
        below = StochasticTree(1, Stoch(0.49, Leaf(1), Leaf(0)))
        assert stochastic_leaf_to_deterministic(below).root == Leaf(0)

    def test_flipped_children_orientation(self):
        # A 0.3 chance of heads onto a 0-leaf means the mean is 0.7.
        tree = StochasticTree(1, Stoch(0.3, Leaf(0), Leaf(1)))
        assert stochastic_leaf_to_deterministic(tree).root == Leaf(1)

    def test_pipeline_matches_bayes_of_approximation(self, demo_tree):
        rng = np.random.default_rng(12)
        approx = stochastic_leaf_approx(demo_tree, 0.25, rng).tree
        det = stochastic_leaf_to_deterministic(approx)
        assert det.is_deterministic
        mu = mean_vector(approx)
        assert np.array_equal(mean_vector(det), (mu >= 0.5).astype(float))

    def test_rejects_general_trees(self, demo_tree):
        with pytest.raises(ValueError):
            stochastic_leaf_to_deterministic(demo_tree)


class TestTruncate:
    def test_identity_when_deep_enough(self, demo_tree):
        assert truncate(demo_tree, demo_tree.depth) == demo_tree
        assert truncate(demo_tree, 10) == demo_tree

    def test_depth_zero_collapses_query_root(self, demo_tree):
        assert truncate(demo_tree, 0).root == Leaf(1)

    def test_coin_only_tree_survives_depth_zero(self):
        tree = StochasticTree(1, Stoch(0.3, Leaf(1), Leaf(0)))
        assert truncate(tree, 0) == tree

    def test_disagreement_mass_bound(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = int(rng.integers(4, 9))
            tree = random_tree(n, int(rng.integers(4, 13)), 0.0, rng)
            d = int(rng.integers(0, 4))
            cut = truncate(tree, d)
            assert cut.depth <= d
            changed = np.mean(mean_vector(cut) != mean_vector(tree))
            assert changed <= deep_leaf_count(tree, d) * 2.0 ** (-d)


class TestMeanPolynomial:
    def test_demo_expansion_frozen(self, demo_tree):
        # Expansion of the four leaf regions, expanded to monomials by hand
        # and cross-checked pointwise below.
        poly = mean_polynomial(demo_tree, 2)
        assert poly.coeffs == pytest.approx(
            {(): 1.0, (0,): -0.7, (1,): -0.8, (0, 1): 0.8, (0, 2): 0.7}
        )
        assert np.allclose(poly.evaluate_packed(np.arange(8)), mean_vector(demo_tree))

    def test_constant_tree(self):
        poly = mean_polynomial(StochasticTree(2, Leaf(1)), 5)
        assert poly.coeffs == {(): 1.0}

    def test_cutoff_zero_with_query_root(self, demo_tree):
        poly = mean_polynomial(demo_tree, 0)
        assert poly.coeffs == {}

    def test_degree_bounded_values_and_mass(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            tree = random_tree(n, int(rng.integers(2, 13)), 0.4, rng)
            cutoff = int(rng.integers(0, 5))
            poly = mean_polynomial(tree, cutoff)
            assert poly.degree <= cutoff
            values = poly.evaluate_packed(np.arange(1 << n))
            assert np.all(values >= -1e-12) and np.all(values <= 1.0 + 1e-12)
            mismatches = np.mean(np.abs(values - mean_vector(tree)) > 1e-12)
            assert mismatches <= deep_leaf_count(tree, cutoff) * 2.0 ** (-cutoff) + 1e-12


class TestRandomTree:
    def test_size_one_is_leaf(self):
        rng = np.random.default_rng(15)
        assert isinstance(random_tree(4, 1, 0.5, rng).root, Leaf)

    def test_zero_fraction_deterministic(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            tree = random_tree(5, int(rng.integers(1, 33)), 0.0, rng)
            assert tree.is_deterministic

    def test_invariant_fuzz(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            s = int(rng.integers(1, 13))
            frac = float(rng.random())
            if frac == 0.0 and s > (1 << n):
                continue
            tree = random_tree(n, s, frac, rng)
            assert tree.size == s
            for node in preorder(tree.root):
                if isinstance(node, Query):
                    assert 0 <= node.var < n
                elif isinstance(node, Stoch):
                    assert 0.0 <= node.p <= 1.0
            _assert_no_requery(tree.root, frozenset())

    def test_errors(self):
        rng = np.random.default_rng(18)
        with pytest.raises(ValueError):
            random_tree(3, 0, 0.5, rng)
        with pytest.raises(ValueError):
            random_tree(0, 2, 0.5, rng)
        with pytest.raises(ValueError):
            random_tree(2, 5, 0.0, rng)

    def test_leaf_count_checked_before_drawing(self):
        rng = np.random.default_rng(18)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"tree size must lie in \\[1, {MAX_TREE_LEAVES}\\]"):
            random_tree(30, MAX_TREE_LEAVES + 1, 0.3, rng)
        assert rng.bit_generator.state == state

    def test_variable_count_checked_before_building(self):
        # The variable tuple each node copies would be 10^5 entries long.
        with pytest.raises(ValueError, match="at most 62 variables"):
            random_tree(10**5, 2, 0.0, np.random.default_rng(18))


def _assert_no_requery(node, seen):
    if isinstance(node, Leaf):
        return
    if isinstance(node, Query):
        assert node.var not in seen
        _assert_no_requery(node.child0, seen | {node.var})
        _assert_no_requery(node.child1, seen | {node.var})
    else:
        _assert_no_requery(node.child_heads, seen)
        _assert_no_requery(node.child_tails, seen)


class TestSerialization:
    def test_roundtrip_bit_exact(self):
        for tree, _ in random_trees(50, stoch=0.5, seed=19):
            assert load_tree(dump_tree(tree)) == tree

    def test_full_precision_probability(self):
        tree = StochasticTree(1, Stoch(1 / 3, Leaf(1), Leaf(0)))
        again = load_tree(dump_tree(tree))
        assert again.root.p == tree.root.p

    def test_malformed_inputs(self):
        with pytest.raises(ValueError):
            load_tree("L 1\n")  # missing header
        with pytest.raises(ValueError):
            load_tree("n=2\nQ 0\nL 1\n")  # incomplete
        with pytest.raises(ValueError):
            load_tree("n=2\nL 1\nL 0\n")  # trailing node

    def test_nesting_limit(self):
        # A coin chain 3,000 deep, past Python's recursion limit.
        deep = "n=1\n" + "S 0.5\nL 1\n" * 3000 + "L 1\n"
        with pytest.raises(ValueError, match=f"nests deeper than {MAX_NESTING}"):
            load_tree(deep)
        node = Leaf(1)
        for _ in range(3000):
            node = Stoch(0.5, Leaf(1), node)
        with pytest.raises(ValueError, match=f"nests deeper than {MAX_NESTING}"):
            StochasticTree(1, node)

        at_limit = "n=1\n" + "S 0.5\nL 1\n" * (MAX_NESTING - 1) + "L 0\n"
        tree = load_tree(at_limit)
        assert tree.num_stochastic == MAX_NESTING - 1
        assert mean(tree, (0,)) == pytest.approx(1.0 - 0.5 ** (MAX_NESTING - 1))
        with pytest.raises(ValueError, match="nests deeper"):
            load_tree("n=1\nS 0.5\nL 1\n" + at_limit.partition("\n")[2])


class TestLeafPaths:
    def test_nesting_limit_chain_needs_no_recursion(self):
        # Queries on x0 alternating with coins, MAX_NESTING nodes deep.
        node = Leaf(1)
        for level in range(MAX_NESTING - 1):
            node = Query(0, Leaf(0), node) if level % 2 else Stoch(0.75, node, Leaf(1))
        tree = StochasticTree(1, node)
        expected = [mean(tree, (0,)), mean(tree, (1,))]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 60)
        try:
            mu = mean_on_points(tree, np.arange(2))
            size, depth = tree.size, tree.depth
            deep = deep_leaf_count(tree, 0)
            poly = mean_polynomial(tree, MAX_NESTING // 2)
        finally:
            sys.setrecursionlimit(limit)
        assert mu.tolist() == expected
        assert size == MAX_NESTING and depth == (MAX_NESTING - 1) // 2
        assert deep == MAX_NESTING - 1  # all but the root coin's tails leaf
        assert np.allclose(poly.evaluate_packed(np.arange(2)), expected)

    def test_repeated_variable_on_a_path(self):
        # x0 is queried twice; its contradictory branch holds a 1-leaf that
        # no input reaches, and the p = 1 coin never takes its tails leaf.
        tree = load_tree("n=2\nQ 0\nL 0\nQ 0\nL 1\nS 1.0\nQ 1\nL 0\nL 1\nL 1\n")
        mu = mean_on_points(tree, np.arange(4))
        assert mu.tolist() == [mean(tree, x) for x in ((0, 0), (1, 0), (0, 1), (1, 1))]
        assert mu.tolist() == [0.0, 0.0, 0.0, 1.0]
        poly = mean_polynomial(tree, tree.depth)
        assert np.allclose(poly.evaluate_packed(np.arange(4)), mean_vector(tree), atol=1e-15)
        assert poly.coeffs == {(0, 1): 1.0}
        assert tree.size == 5 and tree.depth == 3
        assert deep_leaf_count(tree, 1) == 4
        assert deep_leaf_count(tree, 2) == 2


class TestPacking:
    def test_roundtrip(self):
        rng = np.random.default_rng(20)
        xs = rng.integers(0, 2, size=(40, 7), dtype=np.uint8)
        assert np.array_equal(unpack_inputs(pack_inputs(xs), 7), xs)


class TestValidation:
    def test_variable_count_within_packing_limit(self):
        for n in (-1, 63):
            with pytest.raises(ValueError, match="at most 62 variables"):
                StochasticTree(n, Leaf(0))
        with pytest.raises(ValueError, match="at most 62 variables"):
            load_tree("n=63\nL 0\n")
        assert load_tree("n=62\nL 0\n").n == 62

    def test_bad_nodes_rejected(self):
        with pytest.raises(ValueError):
            StochasticTree(1, Query(1, Leaf(0), Leaf(1)))
        with pytest.raises(ValueError):
            StochasticTree(1, Stoch(1.5, Leaf(0), Leaf(1)))
        with pytest.raises(ValueError):
            StochasticTree(1, Leaf(2))
