import math
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from conftest import dataset_rows, l1_objective, l2_objective, predict
from sdtlearn import regression
from sdtlearn.data import Dataset, draw_clean
from sdtlearn.evaluation import exact_error, exact_opt, guarantee_bound
from sdtlearn.harness import ExperimentConfig, budgets_for, run_experiment
from sdtlearn.polynomials import MultilinearPolynomial, dump_polynomial, feature_count, monomials, trunc
from sdtlearn.regression import (
    FeatureBudgetExceeded,
    L1SolverError,
    TruncatedPolyHypothesis,
    check_budget,
    degree_budget,
    l1_regress,
    l2_regress,
    learn_pipeline,
)
from sdtlearn.trees import (
    Leaf,
    StochasticTree,
    mean_polynomial,
    mean_vector,
    pack_inputs,
    random_tree,
)


def make_dataset(xs, ys):
    xs = np.asarray(xs, dtype=np.uint8)
    ys = np.asarray(ys, dtype=np.uint8)
    return Dataset.from_rows(xs.shape[1], pack_inputs(xs), ys, np.zeros(len(ys), dtype=bool))


@pytest.fixture
def xor_dataset():
    return make_dataset([[0, 0], [0, 1], [1, 0], [1, 1]], [0, 1, 1, 0])


class TestL2:
    def test_realizable_interpolation(self):
        # AND of two variables is exactly degree 2; residual must vanish.
        ds = make_dataset([[0, 0], [0, 1], [1, 0], [1, 1]], [0, 0, 0, 1])
        poly = l2_regress(ds, 2)
        assert l2_objective(poly, ds) == pytest.approx(0.0, abs=1e-18)

    def test_degree_zero_is_label_mean(self):
        ds = make_dataset([[0], [1], [0], [1]], [1, 1, 1, 0])
        poly = l2_regress(ds, 0)
        assert poly.coeffs[()] == pytest.approx(0.75, abs=1e-12)

    def test_xor_collapses_to_half(self, xor_dataset):
        # Normal-equations oracle: solve the 4-point system directly.
        phi = np.array([[1, 0, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1]], dtype=float)
        y = np.array([0.0, 1.0, 1.0, 0.0])
        beta = np.linalg.solve(phi.T @ phi, phi.T @ y)
        assert beta == pytest.approx([0.5, 0.0, 0.0], abs=1e-12)

        poly = l2_regress(xor_dataset, 1)
        assert poly.evaluate((0, 0)) == pytest.approx(0.5, abs=1e-9)
        assert poly.evaluate((1, 1)) == pytest.approx(0.5, abs=1e-9)
        assert l2_objective(poly, xor_dataset) == pytest.approx(0.25, abs=1e-12)

    def test_objective_beats_mean_polynomial_candidate(self):
        # The exact depth-d expansion of the target's mean is a feasible
        # degree-d candidate, so the fitted objective can only be smaller.
        rng = np.random.default_rng(1)
        for seed in range(5):
            tree = random_tree(6, 8, 0.4, np.random.default_rng(seed))
            ds = draw_clean(tree, 2000, rng)
            for d in (2, 3):
                fitted = l2_regress(ds, d)
                candidate = mean_polynomial(tree, d)
                assert l2_objective(fitted, ds) <= l2_objective(candidate, ds) + 1e-12

    def test_feature_cap(self, monkeypatch):
        ds = make_dataset(np.zeros((4, 12), dtype=np.uint8), np.zeros(4, dtype=np.uint8))
        monkeypatch.setattr(regression, "FEATURE_CAP", 100)
        with pytest.raises(FeatureBudgetExceeded):
            l2_regress(ds, 6)

    def test_degree_above_n_rejected(self, xor_dataset):
        with pytest.raises(ValueError):
            l2_regress(xor_dataset, 3)


@pytest.mark.parametrize("fit", [l1_regress, l2_regress])
def test_negative_degree_rejected_before_the_solver(fit, xor_dataset, capfd):
    with pytest.raises(ValueError, match="degree -1 must lie in"):
        fit(xor_dataset, -1)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("method", ["l1", "l2"])
@pytest.mark.parametrize("d", [-1, 5])
def test_check_budget_refuses_degree_outside_the_variable_count(method, d):
    with pytest.raises(ValueError, match=rf"degree {d} must lie in \[0, 4\], the variable count"):
        check_budget(method, 4, d, 10)


class TestL1:
    def test_realizable_objective_zero(self):
        ds = make_dataset([[0, 0], [0, 1], [1, 0], [1, 1]], [0, 0, 0, 1])
        poly = l1_regress(ds, 2)
        assert l1_objective(poly, ds) == pytest.approx(0.0, abs=1e-9)

    def test_degree_zero_median(self):
        # Labels 0,0,1: the absolute-error-optimal constant is the median.
        ds = make_dataset([[0], [1], [0]], [0, 0, 1])
        poly = l1_regress(ds, 0)
        assert l1_objective(poly, ds) == pytest.approx(1 / 3, abs=1e-9)
        assert poly.coeffs.get((), 0.0) == pytest.approx(0.0, abs=1e-9)

    def test_xor_objective_half(self, xor_dataset):
        # Vertex oracle: a degree-1 LP optimum interpolates 3 of the 4
        # points; enumerate those fits plus the flat candidate.
        phi = np.array([[1, 0, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1]], dtype=float)
        y = np.array([0.0, 1.0, 1.0, 0.0])
        candidates = [np.array([0.5, 0.0, 0.0])]
        for rows in combinations(range(4), 3):
            sub = phi[list(rows)]
            if abs(np.linalg.det(sub)) > 1e-12:
                candidates.append(np.linalg.solve(sub, y[list(rows)]))
        oracle = min(float(np.mean(np.abs(phi @ b - y))) for b in candidates)
        assert oracle == pytest.approx(0.5, abs=1e-12)

        poly = l1_regress(xor_dataset, 1)
        assert l1_objective(poly, xor_dataset) == pytest.approx(0.5, abs=1e-9)

    def test_certified_against_l2_candidate(self):
        rng = np.random.default_rng(2)
        for seed in range(5):
            tree = random_tree(5, 6, 0.5, np.random.default_rng(seed))
            ds = draw_clean(tree, 500, rng)
            fitted = l1_regress(ds, 2)
            reference = l2_regress(ds, 2)
            assert l1_objective(fitted, ds) <= l1_objective(reference, ds) + 1e-9

    def test_empty_dataset_gives_zero_polynomial(self):
        ds = make_dataset(np.zeros((0, 3)), np.zeros(0))
        assert l1_regress(ds, 2).coeffs == {}


def _stochastic_sample():
    tree = random_tree(5, 6, 0.5, np.random.default_rng(10))
    return draw_clean(tree, 500, np.random.default_rng(11))


def _noisy_parity_sample():
    # Parity has degree 5, so a degree-3 fit cannot reach the majority labels.
    rng = np.random.default_rng(12)
    xs = rng.integers(0, 2, size=(500, 5), dtype=np.uint8)
    return make_dataset(xs, (xs.sum(axis=1) % 2) ^ (rng.random(500) < 0.1))


# n = 5: degree 2 has 16 features and 16 cube rows (the dual LP), degree 3
# has 26 features and 6 cube rows (the cube LP).
CERTIFICATE_CASES = [(_stochastic_sample, 2), (_noisy_parity_sample, 3)]


def _patch_multipliers(monkeypatch, change, cube):
    """Apply ``change`` to the multipliers the certificate reads: on the
    cube side those recomputed from the final basis, which would undo a
    change made to HiGHS's own, and on the dual side HiGHS's own."""
    if cube:
        recompute = regression._basis_solution

        def recomputed(*args):
            x, lam = recompute(*args)
            return x, change(lam)

        monkeypatch.setattr(regression, "_basis_solution", recomputed)
        return
    solve = regression.linprog

    def patched(*args, **kwargs):
        res = solve(*args, **kwargs)
        res.eqlin.marginals = change(res.eqlin.marginals)
        return res

    monkeypatch.setattr(regression, "linprog", patched)


class TestL1Certificate:
    def test_perturbed_multipliers_fail_the_certificate(self, monkeypatch):
        # Halving the multipliers keeps the cube side's |s| <= W, so only
        # the gap can catch it there.
        assert [regression.cube_side(5, d) for _, d in CERTIFICATE_CASES] == [False, True]
        for sample, d in CERTIFICATE_CASES:
            with monkeypatch.context() as patch:
                _patch_multipliers(patch, lambda lam: lam * 0.5, regression.cube_side(5, d))
                with pytest.raises(L1SolverError, match="duality gap") as info:
                    l1_regress(sample(), d)
            assert isinstance(info.value.incumbent, MultilinearPolynomial)

    def test_solver_failure_has_no_incumbent(self, monkeypatch):
        def failing(*args, **kwargs):
            return OptimizeResult(success=False, status=4, message="numerical difficulties", nit=0)

        monkeypatch.setattr(regression, "linprog", failing)
        for sample, d in CERTIFICATE_CASES:
            with pytest.raises(L1SolverError, match="numerical difficulties") as info:
                l1_regress(sample(), d)
            assert info.value.incumbent is None

    def test_cube_multipliers_beyond_the_row_weights_rejected(self, monkeypatch):
        # At an optimal vertex some |s_z| equals W(z); doubling the
        # multipliers pushes it past W(z), so no dual bound holds.
        _patch_multipliers(monkeypatch, lambda lam: lam * 2.0, cube=True)
        with pytest.raises(L1SolverError, match="dual multipliers infeasible") as info:
            l1_regress(_noisy_parity_sample(), 3)
        assert isinstance(info.value.incumbent, MultilinearPolynomial)

    def test_both_sides_solve_with_one_method(self, monkeypatch):
        solve, methods = regression.linprog, []

        def recording(*args, **kwargs):
            methods.append(kwargs["method"])
            return solve(*args, **kwargs)

        monkeypatch.setattr(regression, "linprog", recording)
        for sample, d in CERTIFICATE_CASES:
            l1_regress(sample(), d)
        assert len(methods) == 2 and methods[0] == methods[1]

    @pytest.mark.parametrize("eta,seed,margin", [(0.0, 3, -0.5), (0.05, 25, -0.6)], ids=["0.0-3", "0.05-25"])
    def test_dual_side_margin_configs_certify(self, eta, seed, margin):
        # Dual-side configs (d = 3) under the margin adversary: the dual LP,
        # solved by HiGHS's default method, certifies, and the report's
        # margin is pinned.  These configs once left an interior-point
        # solve with a duality gap above L1_CERTIFICATE_TOL per row.
        cfg = ExperimentConfig(
            n=10, s=4, m=5000, eps=0.5, method="l1", adversary="label_flip_margin", eta=eta, seed=seed
        )
        assert not regression.cube_side(cfg.n, budgets_for(cfg)[1])
        assert round(run_experiment(cfg).margin, 4) == margin

    @pytest.mark.parametrize("seed,margin", [(0, -0.3499), (7, -0.3327)], ids=["seed0", "seed7"])
    def test_cube_side_margin_configs_certify(self, seed, margin):
        # Cube-side configs (d = 5) whose multipliers, as HiGHS leaves them
        # without presolve, put |s| above W by 6.44e-09 and 1.57e-08.
        cfg = ExperimentConfig(
            n=10, s=8, m=3000, eps=0.3, method="l1", adversary="label_flip_margin", eta=0.05,
            seed=seed, stoch_fraction=0.0,
        )
        assert regression.cube_side(cfg.n, budgets_for(cfg)[1])
        assert round(run_experiment(cfg).margin, 4) == margin

    def test_cube_side_primal_values_recomputed(self):
        # Uniform labels on 300 rows over 260 of 1024 inputs: HiGHS's
        # values leave V q off zero, and the Moebius read-back, which drops
        # those coefficients, would miss the optimum by a duality gap of
        # 1.15e-06 over 300 rows.
        rng = np.random.default_rng(62)
        clean = draw_clean(random_tree(10, 6, 0.3, rng), 300, rng)
        zs, _, flags = dataset_rows(clean)
        ds = Dataset.from_rows(10, zs, rng.integers(0, 2, 300, dtype=np.uint8), flags)
        assert regression.cube_side(10, 5)
        l1_regress(ds, 5)

    def test_cube_slack_within_the_tolerance_accepted(self, monkeypatch):
        # Unseen inputs have W = 0, where s_z is 0 only up to rounding.
        ds = make_dataset([[0, 0, 0], [1, 1, 0], [1, 1, 0], [0, 1, 1]] * 10, [0, 1, 0, 1] * 10)
        assert regression.cube_side(3, 2)
        _patch_multipliers(monkeypatch, lambda lam: lam + regression.L1_CERTIFICATE_TOL / 4, cube=True)
        l1_regress(ds, 2)


@pytest.mark.parametrize(
    "fit,rows",
    [pytest.param(l1_regress, 4, id="l1_regress"), pytest.param(l2_regress, 3, id="l2_regress")],
)
def test_design_matrix_budget_uses_grouped_rows(fit, rows, monkeypatch):
    # 3 inputs, one seen with both labels: the dual l1 LP builds 4 grouped
    # rows, l2 one row per distinct input; degree 1 over 3 variables has
    # 4 features, and l1 takes the dual side (4 features, 4 cube rows).
    ds = make_dataset([[0, 0, 0], [0, 1, 0], [0, 1, 0], [1, 1, 0]], [0, 0, 1, 1])
    assert not regression.cube_side(3, 1)
    monkeypatch.setattr(regression, "DESIGN_BYTES_CAP", rows * 4 * 8)
    fit(ds, 1)
    monkeypatch.setattr(regression, "DESIGN_BYTES_CAP", rows * 4 * 8 - 1)
    monkeypatch.setattr(regression, "_design_matrix", None)
    with pytest.raises(FeatureBudgetExceeded, match=f"{rows} rows x 4 features"):
        fit(ds, 1)


def test_cube_lp_budget_counts_its_own_size(monkeypatch):
    # Degree 2 over 3 variables: 7 features, one cube row v_{012} with 8
    # nonzeros, so 24 constraint entries, 24 variables and a 1x1 basis Gram
    # matrix, whatever the number of rows; the grouped rows never enter
    # the charge.
    ds = make_dataset([[0, 0, 0], [0, 1, 0], [0, 1, 0], [1, 1, 1]] * 50, [0, 0, 1, 1] * 50)
    assert regression.cube_side(3, 2)
    monkeypatch.setattr(regression, "DESIGN_BYTES_CAP", (24 + 24 + 1) * 8)
    l1_regress(ds, 2)
    monkeypatch.setattr(regression, "DESIGN_BYTES_CAP", (24 + 24 + 1) * 8 - 1)
    monkeypatch.setattr(regression, "_mobius_rows", None)
    with pytest.raises(
        FeatureBudgetExceeded, match="cube LP of 24 entries over 24 variables and a 1x1 basis Gram matrix"
    ):
        l1_regress(ds, 2)


def test_l2_cube_budget_counts_its_own_size(monkeypatch):
    # Degree 2 over 3 variables: 7 features.  An l2 fit is charged its
    # design matrix alone, rows x 7: over one input 1 x 7, and over all 8
    # inputs 8 x 7, although that fit takes the cube side, whose 1x1
    # system and index matrix are smaller.
    assert regression.cube_side(3, 2)
    one, full = make_dataset([[0, 1, 0]] * 5, [1, 0, 1, 1, 0]), _full_cube_sample(3)
    monkeypatch.setattr(regression, "DESIGN_BYTES_CAP", 8 * 7 * 8)
    l2_regress(full, 2)
    monkeypatch.setattr(regression, "DESIGN_BYTES_CAP", 7 * 8)
    l2_regress(one, 2)
    monkeypatch.setattr(regression, "DESIGN_BYTES_CAP", 7 * 8 - 1)
    monkeypatch.setattr(regression, "_design_matrix", None)
    with pytest.raises(FeatureBudgetExceeded, match="1 rows x 7 features"):
        l2_regress(one, 2)
    with pytest.raises(FeatureBudgetExceeded, match="8 rows x 7 features"):
        l2_regress(full, 2)


def test_l2_cube_side_builds_no_moebius_matrix(monkeypatch):
    # Degree 3 over 5 variables: 26 features and 6 cube rows, all on
    # lattice transforms, without V or scipy.sparse.
    monkeypatch.setattr(regression, "_mobius_rows", None)
    monkeypatch.setattr(regression, "sp", None)
    monkeypatch.setattr(regression, "_design_matrix", None)
    ds = _full_cube_sample(5)
    assert regression.cube_side(5, 3)
    assert l2_regress(ds, 3).d == 3


def test_l2_cube_side_peak_stays_under_the_design_charge():
    # The cube side builds about 2 (2^n - F)^2 entries, against the 2^n x F
    # design matrix it is charged, for every cube-side degree.
    for n in range(6, 13):
        ds = _full_cube_sample(n)
        for d in (d for d in range(n + 1) if regression.cube_side(n, d)):
            tracemalloc.start()
            try:
                l2_regress(ds, d)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < (1 << n) * feature_count(n, d) * 8, (n, d, peak)


def _full_cube_sample(n: int) -> Dataset:
    """Every input of {0,1}^n, each seen 1 to 4 times with random labels."""
    rng = np.random.default_rng(n)
    zs = np.repeat(np.arange(1 << n), rng.integers(1, 5, size=1 << n))
    ys = rng.integers(0, 2, size=zs.size, dtype=np.uint8)
    return Dataset.from_rows(n, zs, ys, np.zeros(zs.size, dtype=bool))


def test_l2_on_the_full_cube_never_forms_the_gram_matrix(monkeypatch):
    # Degree 3 over 4 variables: 15 features but one cube row, so the fit
    # solves a 1x1 system.  Its residual is W-orthogonal to every monomial,
    # the normal equations Phi^T W (Phi b - t) = 0.
    def no_gram(*args, **kwargs):
        raise AssertionError("Gram matrix formed on the cube side")

    for name in ("dpstrf", "dsyrk", "_design_matrix"):
        monkeypatch.setattr(regression, name, no_gram)
    ds = _full_cube_sample(4)
    zs, c0, c1 = ds.counts()
    poly = l2_regress(ds, 3)
    w = (c0 + c1).astype(np.float64)
    residual = w * poly.evaluate_packed(zs) - c1
    for mask in monomials(4, 3):
        assert abs(residual[(zs & mask) == mask].sum()) <= 1e-9


def test_l2_skips_the_gram_matrix_with_fewer_inputs_than_features(monkeypatch):
    # 3 distinct inputs, 4 features: the Gram matrix would be singular.
    def no_factorization(*args, **kwargs):
        raise AssertionError("dpstrf called with u < F")

    monkeypatch.setattr(regression, "dpstrf", no_factorization)
    ds = make_dataset([[0, 0], [0, 1], [0, 1], [1, 1]], [0, 0, 1, 1])
    poly = l2_regress(ds, 2)
    assert poly.evaluate((0, 1)) == pytest.approx(0.5, abs=1e-12)
    assert poly.evaluate((1, 1)) == pytest.approx(1.0, abs=1e-12)


def _seeded_sample(n: int, s: int, m: int, seed: int) -> Dataset:
    tree = random_tree(n, s, 0.5, np.random.default_rng(seed))
    return draw_clean(tree, m, np.random.default_rng(seed + 1))


# One seeded fit on each path that no benchmark workload runs, as text.
PIN_L2_GRAM = """\
n=5 d=2
:1.084053678949872
0:0.012517609737456905
1:-0.14287472395700254
2:-0.8975091371844387
3:0.29021497019081777
4:-0.3928995026159079
0,1:-1.6619832192408566e-05
0,2:-0.2268999495383013
0,3:-0.35458647796206955
0,4:0.25647143889391594
1,2:-0.025727845585611416
1,3:-0.15141536433553554
1,4:0.2804104401382679
2,3:0.20068625985159644
2,4:0.1613476782342654
3,4:0.10268453242508749
"""

PIN_L2_LSTSQ = """\
n=4 d=2
:0.5820895522388058
0:0.4179104477611938
1:0.06716417910447817
2:0.0671641791044773
3:-0.4328358208955226
0,1:-0.20895522388059898
0,2:-0.20895522388059615
0,3:-0.20895522388059587
1,2:0.283582089552239
1,3:-0.21641791044776085
2,3:-0.21641791044776168
"""

PIN_L1_DUAL = """\
n=6 d=2
:-0.2500000000000003
0:0.2500000000000003
2:0.25000000000000056
3:0.5000000000000004
4:0.2500000000000003
5:0.2500000000000003
0,1:0.24999999999999956
0,2:-0.24999999999999956
0,3:-0.25
0,5:-0.2500000000000003
1,2:-0.25000000000000056
1,3:0.25
1,5:0.25000000000000056
2,3:0.4999999999999999
2,5:-0.25000000000000056
3,4:-0.7500000000000004
3,5:-0.2500000000000001
4,5:-0.2500000000000003
"""


#: id -> (fit, sample, function the fit's path never calls, pinned text)
PINNED_FITS = {
    # 24 of 32 inputs seen, 16 features: the Gram matrix at full rank.
    "l2-gram": (l2_regress, (5, 6, 40, 31), (np.linalg, "lstsq"), PIN_L2_GRAM),
    # 7 inputs, 11 features: the minimum-norm lstsq fit.
    "l2-lstsq": (l2_regress, (4, 5, 8, 41), (regression, "dpstrf"), PIN_L2_LSTSQ),
    # 22 features against 42 cube rows: the dual LP.  At m = 120 its
    # optimum is the zero polynomial, which pins little; m = 100 is not.
    "l1-dual": (l1_regress, (6, 8, 100, 60), (regression, "_mobius_rows"), PIN_L1_DUAL),
}


@pytest.mark.parametrize("fit,sample,blocked,text", PINNED_FITS.values(), ids=PINNED_FITS.keys())
def test_fits_off_the_benchmark_paths_are_pinned(fit, sample, blocked, text, monkeypatch):
    monkeypatch.setattr(*blocked, None)
    assert dump_polynomial(fit(_seeded_sample(*sample), 2)) == text


class TestTruncation:
    def test_never_increases_error_against_binary_labels(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = 4
            zs = np.arange(1 << n)
            ys = rng.integers(0, 2, size=60)
            xs = rng.integers(0, 2, size=(60, n), dtype=np.uint8)
            masks = [0] + [1 << i for i in range(n)]
            poly = MultilinearPolynomial(n, 1, masks, [float(rng.normal(0, 2)) for _ in masks])
            raw = poly.evaluate_packed(pack_inputs(xs))
            cut = np.clip(raw, 0.0, 1.0)
            assert np.mean(np.abs(cut - ys)) <= np.mean(np.abs(raw - ys)) + 1e-15
            assert np.mean((cut - ys) ** 2) <= np.mean((raw - ys) ** 2) + 1e-15


class TestHypotheses:
    def test_clamped_packed_matches_scalar(self):
        # Values below 0, inside [0, 1] and above 1 on {0,1}^3.
        poly = MultilinearPolynomial(3, 2, [0, 1, 2, 0b101], [-0.5, 0.75, 1.5, 0.25])
        hyp = TruncatedPolyHypothesis(poly, "randomized")
        xs = list(product((0, 1), repeat=3))
        expected = [trunc(poly.evaluate(x)) for x in xs]
        assert np.array_equal(hyp.clamped_packed(pack_inputs(np.array(xs))), expected)

    def test_predict_saturated(self):
        poly = MultilinearPolynomial(1, 0, [0], [1.8])
        rng = np.random.default_rng(4)
        assert predict(TruncatedPolyHypothesis(poly, "rounded"), (0,)) == 1
        assert predict(TruncatedPolyHypothesis(poly, "randomized"), (0,), rng) == 1

    def test_predict_rounds_half_up(self):
        poly = MultilinearPolynomial(1, 0, [0], [0.5])
        assert predict(TruncatedPolyHypothesis(poly, "rounded"), (0,)) == 1

    def test_float_noise_below_half_still_rounds_up(self):
        # A fit that is 1/2 in exact arithmetic may come out a few ulps low.
        hyp = TruncatedPolyHypothesis(MultilinearPolynomial(1, 0, [0], [0.5 - 1e-13]), "rounded")
        assert predict(hyp, (0,)) == 1
        zero = StochasticTree(1, Leaf(0))
        assert exact_error(zero, hyp) == 1.0

    def test_randomized_frequency(self):
        poly = MultilinearPolynomial(1, 0, [0], [0.3])
        hyp = TruncatedPolyHypothesis(poly, "randomized")
        rng = np.random.default_rng(5)
        freq = np.mean([predict(hyp, (0,), rng) for _ in range(40_000)])
        assert freq == pytest.approx(0.3, abs=0.01)

    def test_randomized_needs_rng(self):
        poly = MultilinearPolynomial(1, 0, [0], [0.3])
        with pytest.raises(ValueError):
            predict(TruncatedPolyHypothesis(poly, "randomized"), (0,))

    def test_mode_validated(self):
        poly = MultilinearPolynomial(1, 0, [0], [0.3])
        with pytest.raises(ValueError):
            TruncatedPolyHypothesis(poly, "maybe")


class TestIdentities:
    def test_randomized_hypothesis_error_identity(self):
        # Pr[h(x) != tree(x)] equals E|q - tree(x)| when h is a coin with
        # heads probability q; both sides by exact enumeration.
        rng = np.random.default_rng(6)
        for seed in range(10):
            tree = random_tree(6, 8, 0.5, np.random.default_rng(seed))
            q = rng.uniform(0, 1, size=1 << 6)
            mu = mean_vector(tree)
            pr_disagree = float(np.mean(q * (1 - mu) + (1 - q) * mu))
            expected_abs = float(np.mean(mu * (1 - q) + (1 - mu) * q))
            assert pr_disagree == pytest.approx(expected_abs, abs=1e-12)

    def test_mean_self_distance_at_most_twice_opt(self):
        rng = np.random.default_rng(7)
        for seed in range(20):
            tree = random_tree(7, 10, 0.6, np.random.default_rng(seed))
            mu = mean_vector(tree)
            self_distance = float(np.mean(2 * mu * (1 - mu)))
            opt = float(np.mean(np.minimum(mu, 1 - mu)))
            assert self_distance <= 2 * opt + 1e-12


class TestPipelines:
    def test_degree_budget_values(self):
        assert degree_budget(8, 0.1, 10) == 7     # log2(80) = 6.32...
        assert degree_budget(8, 1.0, 10) == 3     # exactly log2(8)
        assert degree_budget(1, 0.25, 10) == 2
        assert degree_budget(16, 0.5, 10) == 5
        assert degree_budget(16, 0.5, 4) == 4      # capped at the variable count

    def test_degree_budget_matches_the_quotient_form(self):
        # log2(s) - log2(eps) against log2(s / eps), exact powers of two
        # included, where the 1e-12 guard decides.
        sizes = [*range(1, 65), 3 << 20, 1 << 40, (1 << 40) + 1]
        epss = [2.0**-k for k in range(12)] + [k / 100 for k in range(1, 100)] + [1 / 3, 1 / 7, 2.0, 3.0]
        for s in sizes:
            for eps in epss:
                today = min(62, max(0, math.ceil(math.log2(s / eps) - 1e-12)))
                assert degree_budget(s, eps, 62) == today, (s, eps)

    @pytest.mark.parametrize("s,eps", [(8, 1e-320), (10**400, 0.2), (10**400, 5e-324)],
                             ids=["eps-subnormal", "size-past-float", "both"])
    def test_degree_budget_of_any_size_and_positive_eps(self, s, eps):
        # s / eps overflows a float here, or s does not fit one.
        assert degree_budget(s, eps, 10) == 10

    @pytest.mark.parametrize("eps", [0.0, -0.5, float("inf"), float("nan")])
    def test_degree_budget_refuses_eps_that_is_not_finite_and_positive(self, eps):
        with pytest.raises(ValueError, match="finite eps > 0"):
            degree_budget(8, eps, 10)

    def test_end_to_end_guarantees_on_clean_data(self):
        rng = np.random.default_rng(8)
        for seed in (0, 1, 2):
            tree = random_tree(7, 6, 0.4, np.random.default_rng(seed))
            ds = draw_clean(tree, 8000, rng)
            opt = exact_opt(tree)
            eps = 0.2
            h2 = learn_pipeline(ds, "l2", degree_budget(6, eps, ds.n))
            assert h2.mode == "rounded"
            assert exact_error(tree, h2) <= guarantee_bound("l2", opt, 0.0, eps) + 1e-12
            h1 = learn_pipeline(ds, "l1", degree_budget(6, eps, ds.n))
            assert h1.mode == "randomized"
            assert exact_error(tree, h1) <= guarantee_bound("l1", opt, 0.0, eps) + 1e-12

    def test_l2_mean_square_chain_on_clean_data(self):
        # On uncorrupted data the clamped fit must sit close to the mean
        # function in squared distance: within 3*eps plus sampling slack.
        rng = np.random.default_rng(9)
        eps = 0.15
        for seed in (3, 4):
            tree = random_tree(7, 6, 0.4, np.random.default_rng(seed))
            ds = draw_clean(tree, 8000, rng)
            hyp = learn_pipeline(ds, "l2", degree_budget(6, eps, ds.n))
            q = hyp.clamped_packed(np.arange(1 << 7))
            mu = mean_vector(tree)
            assert float(np.mean((q - mu) ** 2)) <= 3 * eps + 0.05
