import json

import numpy as np
import pytest

from conftest import hypothesis_mean_vector
from sdtlearn.evaluation import (
    DEFAULT_ENUMERATION_CAP,
    ErrorReport,
    exact_error,
    exact_opt,
    guarantee_bound,
    mc_error,
)
from sdtlearn.polynomials import MultilinearPolynomial
from sdtlearn.regression import TruncatedPolyHypothesis, degree_budget
from sdtlearn.trees import (
    Leaf,
    Query,
    Stoch,
    StochasticTree,
    mean_vector,
    random_tree,
    stochastic_leaf_approx,
    stochastic_leaf_to_deterministic,
    truncate,
)


class TestExactOpt:
    def test_demo_value(self, demo_tree):
        assert exact_opt(demo_tree) == pytest.approx(0.125, abs=1e-15)

    def test_deterministic_tree(self):
        rng = np.random.default_rng(0)
        tree = random_tree(6, 8, 0.0, rng)
        assert exact_opt(tree) == 0.0

    def test_single_coin(self):
        for p in (0.0, 0.2, 0.5, 0.9):
            tree = StochasticTree(1, Stoch(p, Leaf(1), Leaf(0)))
            assert exact_opt(tree) == pytest.approx(min(p, 1 - p), abs=1e-15)

    def test_cap_enforced(self):
        # Rejected before the 2^25 inputs are allocated.
        tree = StochasticTree(DEFAULT_ENUMERATION_CAP + 1, Leaf(1))
        with pytest.raises(ValueError, match="exceeds the cap"):
            exact_opt(tree)
        with pytest.raises(ValueError, match="exceeds the cap"):
            exact_error(tree, tree)

    def test_monte_carlo_within_four_standard_errors(self, demo_tree):
        mu = mean_vector(demo_tree)
        spread = np.std(np.minimum(mu, 1.0 - mu)) / np.sqrt(60_000)
        estimate, _, _ = mc_error(demo_tree, demo_tree, 60_000, np.random.default_rng(3))
        assert abs(estimate - exact_opt(demo_tree)) <= 4 * spread

    def test_monte_carlo_shares_the_input_draw_with_mc_error(self, demo_tree):
        # One draw serves both estimates, and the Bayes classifier's
        # disagreement at each input is min(mu, 1 - mu).
        bayes = _tree_from_table(3, mean_vector(demo_tree) >= 0.5)
        opt, err, _ = mc_error(demo_tree, bayes, 500, np.random.default_rng(4))
        assert opt == pytest.approx(err, abs=1e-12)
        with pytest.raises(ValueError, match="at least one trial"):
            mc_error(demo_tree, bayes, 0, np.random.default_rng(4))


class TestExactError:
    def test_bayes_achieves_opt(self):
        rng = np.random.default_rng(1)
        for seed in range(10):
            tree = random_tree(6, 8, 0.5, np.random.default_rng(seed))
            mu = mean_vector(tree)
            bayes = _tree_from_table(6, mu >= 0.5)
            assert exact_error(tree, bayes) == pytest.approx(exact_opt(tree), abs=1e-12)

    def test_complement_of_bayes(self, demo_tree):
        mu = mean_vector(demo_tree)
        anti = _tree_from_table(3, mu < 0.5)
        assert exact_error(demo_tree, anti) == pytest.approx(1 - 0.125, abs=1e-12)

    def test_never_below_opt(self):
        rng = np.random.default_rng(2)
        for seed in range(20):
            tree = random_tree(5, 8, 0.5, np.random.default_rng(seed))
            hyp = _tree_from_table(5, rng.integers(0, 2, size=32).astype(bool))
            assert exact_error(tree, hyp) >= exact_opt(tree) - 1e-12

    def test_against_monte_carlo(self, demo_tree):
        rng = np.random.default_rng(3)
        hyp = _tree_from_table(3, np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=bool))
        exact = exact_error(demo_tree, hyp)
        _, estimate, stderr = mc_error(demo_tree, hyp, 60_000, rng)
        assert abs(estimate - exact) <= 4 * stderr

    def test_randomized_poly_closed_form(self, demo_tree):
        poly = MultilinearPolynomial(3, 1, [0, 1], [0.4, 0.3])
        hyp = TruncatedPolyHypothesis(poly, "randomized")
        mu = mean_vector(demo_tree)
        q = poly.evaluate_packed(np.arange(8))
        by_hand = float(np.mean(q * (1 - mu) + (1 - q) * mu))
        assert exact_error(demo_tree, hyp) == pytest.approx(by_hand, abs=1e-15)
        _, est, se = mc_error(demo_tree, hyp, 60_000, np.random.default_rng(4))
        assert abs(est - by_hand) <= 4 * se

    def test_rounded_poly_vector(self):
        poly = MultilinearPolynomial(2, 1, [0, 1], [0.5, -0.2])
        hyp = TruncatedPolyHypothesis(poly, "rounded")
        assert np.array_equal(hypothesis_mean_vector(hyp, 2), [1.0, 0.0, 1.0, 0.0])

    def test_stochastic_hypothesis_monte_carlo(self):
        # Third sampling cross-check: both target and hypothesis are coin trees.
        rng = np.random.default_rng(5)
        target = random_tree(4, 6, 0.6, np.random.default_rng(21))
        hyp = random_tree(4, 6, 0.6, np.random.default_rng(22))
        exact = exact_error(target, hyp)
        _, est, se = mc_error(target, hyp, 60_000, rng)
        assert abs(est - exact) <= 4 * se

    def test_monte_carlo_exact_over_coins(self):
        # Every input has the same disagreement probability, so an estimator
        # that integrates out the coins has nothing left to sample.
        for p, q in ((0.3, 0.8), (0.5, 0.5), (0.9, 0.0)):
            target = StochasticTree(1, Stoch(p, Leaf(1), Leaf(0)))
            hyp = TruncatedPolyHypothesis(MultilinearPolynomial(1, 0, [0], [q]), "randomized")
            _, est, _ = mc_error(target, hyp, 2_000, np.random.default_rng(6))
            assert est == pytest.approx(q * (1 - p) + (1 - q) * p, abs=1e-12)

    def test_dimension_mismatch_rejected(self, demo_tree):
        poly = MultilinearPolynomial(2, 1, [0], [0.5])
        with pytest.raises(ValueError):
            exact_error(demo_tree, TruncatedPolyHypothesis(poly, "rounded"))


class TestDeterministicApproximationPipeline:
    def test_pipeline_lands_within_three_eps_of_bayes(self):
        # approximate -> round coins -> truncate should land within 3*eps
        # of the Bayes error for most seeds (the construction only promises
        # success in expectation over its randomness).
        for eps, n, s in ((0.2, 10, 12), (0.1, 8, 8)):
            hits = 0
            trials = 20
            for seed in range(trials):
                rng = np.random.default_rng(500 + seed)
                tree = random_tree(n, s, 0.5, rng)
                approx = stochastic_leaf_approx(tree, eps, rng)
                det = stochastic_leaf_to_deterministic(approx.tree)
                depth = degree_budget(det.size, eps, det.n)
                cut = truncate(det, depth)
                if exact_error(tree, cut) <= exact_opt(tree) + 3 * eps + 1e-12:
                    hits += 1
            assert hits >= int(0.7 * trials)


class TestGuaranteeAccounting:
    def test_bound_formulas(self):
        assert guarantee_bound("find", 0.1, 0.05, 0.2) == pytest.approx(0.4)
        assert guarantee_bound("l1", 0.1, 0.05, 0.2) == pytest.approx(0.5)
        assert guarantee_bound("l2", 0.1, 0.0, 0.12) == pytest.approx(
            0.1 + 2 * np.sqrt(0.36) + 0.12
        )
        with pytest.raises(ValueError):
            guarantee_bound("gradient", 0.1, 0.0, 0.1)

    def test_perfect_hypothesis_margin(self):
        report = ErrorReport(
            method="find", opt=0.1, hypothesis_error=0.1, eta=0.05, eps=0.2,
            n=4, s=4, m=100, seed=0, adversary="none", depth_budget=None, degree_budget=None,
        )
        assert report.margin == pytest.approx(-(2 * 0.05 + 0.2), abs=1e-15)

    def test_report_validation(self):
        with pytest.raises(ValueError):
            ErrorReport(
                method="find", opt=0.7, hypothesis_error=0.1, eta=0.0, eps=0.1,
                n=2, s=2, m=10, seed=0, adversary="none", depth_budget=None, degree_budget=None,
            )

    def test_report_serialization_stable(self):
        fields = dict(
            method="l2", opt=0.125, hypothesis_error=0.25, eta=0.05, eps=0.1, n=3, s=6,
            m=1000, seed=42, adversary="label_flip_random", depth_budget=None, degree_budget=4,
        )
        report = ErrorReport(**fields)
        parsed = json.loads(report.to_json())
        assert parsed["opt"] == 0.125 and parsed["degree_budget"] == 4
        row = report.to_csv_row()
        assert len(row.split(",")) == len(ErrorReport.CSV_FIELDS)
        assert report.to_json() == ErrorReport(**fields).to_json()

    def test_bound_and_margin_are_derived(self):
        fields = dict(
            method="l1", opt=0.1, hypothesis_error=0.3, eta=0.05, eps=0.2, n=3, s=4, m=50,
            seed=1, adversary="none", depth_budget=None, degree_budget=2,
        )
        with pytest.raises(TypeError):
            ErrorReport(**fields, bound=0.0)
        report = ErrorReport(**fields)
        assert report.bound == guarantee_bound("l1", 0.1, 0.05, 0.2)
        assert report.margin == 0.3 - report.bound
        assert ErrorReport.csv_header() == (
            "method,n,s,m,eta,eps,seed,adversary,depth_budget,degree_budget,"
            "opt,hypothesis_error,bound,margin,error_estimation"
        )


def _tree_from_table(n: int, table) -> StochasticTree:
    """Materialize an arbitrary truth table as a full deterministic tree."""

    def build(var: int, z: int):
        if var == n:
            return Leaf(int(table[z]))
        return Query(var, build(var + 1, z), build(var + 1, z | (1 << var)))

    return StochasticTree(n, build(0, 0))
