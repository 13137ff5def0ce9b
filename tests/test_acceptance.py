"""Acceptance suite: every guarantee the library promises, at desk scale.

Each test prints one `[PASS]`/`[FAIL]` line (visible with `pytest -s` or on
failure).  Tolerances and trial counts are fixed here, not tuned at run
time; randomized criteria use frozen seeds so results are reproducible.
"""

import time
from itertools import product

import numpy as np
import pytest

from conftest import (
    enumerate_fixed_moments,
    find_brute_oracle,
    label_cells,
    reference_find,
    table_expectation,
)
from sdtlearn.data import Adversary, Dataset, corrupt, corruption_budget, draw_clean
from sdtlearn.evaluation import exact_error, exact_opt
from sdtlearn.find import empirical_error, find
from sdtlearn.harness import ExperimentConfig, run_experiment
from sdtlearn.regression import degree_budget, learn_pipeline
from sdtlearn.trees import (
    mean,
    mean_vector,
    pack_inputs,
    random_tree,
    stochastic_leaf_approx,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:2d}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {name} {detail}"


def _draw_instance(seed: int, *, n=10, s=8, m=50_000, stoch=0.3, eta=0.0,
                   adversary=Adversary.NONE):
    streams = np.random.SeedSequence(seed).spawn(3)
    rng_tree, rng_sample, rng_corrupt = (np.random.default_rng(s_) for s_ in streams)
    tree = random_tree(n, s, stoch, rng_tree)
    clean = draw_clean(tree, m, rng_sample)
    noisy = corrupt(clean, eta, adversary, tree, rng_corrupt)
    return tree, clean, noisy


def test_criterion_1_find_optimality():
    rng = np.random.default_rng(99)
    start = time.time()
    exact_matches = 0
    for _ in range(200):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(0, 3))
        m = int(rng.integers(1, 33))
        xs = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
        ys = rng.integers(0, 2, size=m, dtype=np.uint8)
        ds = Dataset.from_rows(n, pack_inputs(xs), ys, np.zeros(m, dtype=bool))
        if find(ds, d).empirical_error == find_brute_oracle(ds, d):
            exact_matches += 1
    elapsed = time.time() - start
    ok = exact_matches == 200 and elapsed < 10.0
    _report(1, "table search matches brute-force optimum",
            ok, f"{exact_matches}/200 exact, {elapsed:.1f}s")


def test_criterion_2_find_scaling():
    rng = np.random.default_rng(7)
    tree = random_tree(12, 12, 0.3, rng)
    ds = draw_clean(tree, 5000, rng)
    n = 12
    plain = {d: reference_find(ds, d, memo=False)[2].nodes_expanded for d in (2, 3, 4)}
    memoized = {d: find(ds, d).stats.nodes_expanded for d in (3, 4)}
    c = plain[2] / ((2 * n) ** 2 * n * 2)
    under_ceiling = all(plain[d] <= (2 * n) ** d * c * n * d for d in (3, 4))
    memo_reduces = all(memoized[d] < plain[d] for d in (3, 4))
    _report(2, "node expansions stay under the (2n)^d ceiling and memoization helps",
            under_ceiling and memo_reduces,
            f"plain={plain}, memoized={memoized}, c={c:.4f}")


def test_criterion_3_noiseless_guarantee():
    eps, trials = 0.15, 40
    hits = 0
    for seed in range(trials):
        cfg = ExperimentConfig(n=10, s=8, m=50_000, eps=eps, method="find",
                               stoch_fraction=0.3, eta=0.0, adversary="none",
                               seed=1000 + seed, max_depth=5)
        rep = run_experiment(cfg)
        hits += rep.hypothesis_error <= rep.opt + eps + 1e-12
    _report(3, "noiseless learner lands within eps of the Bayes error",
            hits >= int(0.85 * trials), f"{hits}/{trials} trials")


def test_criterion_4_adversarial_noise_guarantee():
    eps, eta, trials = 0.15, 0.05, 40
    within_bound = 0
    exceeds_single_eta = 0
    for seed in range(trials):
        cfg = ExperimentConfig(n=10, s=8, m=50_000, eps=eps, method="find",
                               stoch_fraction=0.3, eta=eta,
                               adversary="label_flip_margin",
                               seed=1000 + seed, max_depth=5)
        rep = run_experiment(cfg)
        within_bound += rep.hypothesis_error <= rep.opt + 2 * eta + eps + 1e-12
        exceeds_single_eta += rep.hypothesis_error > rep.opt + eta
    ok = within_bound >= int(0.85 * trials) and exceeds_single_eta >= int(0.25 * trials)
    _report(4, "corrupted learner stays within opt + 2*eta + eps while the "
               "adversary exercises the 2*eta slack",
            ok, f"bound {within_bound}/{trials}, above opt+eta {exceeds_single_eta}/{trials}")


def test_criterion_5_corruption_fact():
    table_rng = np.random.default_rng(55)
    failures = 0
    pairs = 0
    strategies = (Adversary.LABEL_FLIP_RANDOM, Adversary.LABEL_FLIP_MARGIN,
                  Adversary.EXAMPLE_REPLACE)
    for strategy, eta, seed in product(strategies, (0.02, 0.05, 0.1), (0, 1)):
        tree, clean, noisy = _draw_instance(
            seed, n=6, s=8, m=500, stoch=0.4, eta=eta, adversary=strategy)
        pairs += 1
        keys = sorted(label_cells(clean).keys() | label_cells(noisy).keys())
        for _ in range(100):
            table = {k: float(table_rng.random()) for k in keys}
            if abs(table_expectation(clean, table) - table_expectation(noisy, table)) >= eta:
                failures += 1
    _report(5, "bounded expectations move by strictly less than eta under corruption",
            failures == 0, f"{pairs} pairs x 100 tables, {failures} violations")


def test_criterion_6_stochastic_leaf_approximation():
    eps, seeds = 0.25, 40
    hits = 0
    for seed in range(seeds):
        rng = np.random.default_rng(2000 + seed)
        tree = random_tree(12, 16, 0.5, rng)
        result = stochastic_leaf_approx(tree, eps, rng)
        assert result.tree.is_stochastic_leaf
        hits += result.l1_distance <= eps

    # Variance identity on a coin-heavy tree with few enough coins to
    # enumerate every randomness string exactly.
    rng = np.random.default_rng(77)
    while True:
        small = random_tree(6, 8, 0.6, rng)
        if 1 <= small.num_stochastic <= 10:
            break
    c = 16
    identity_ok = True
    for z in range(1 << small.n):
        x = [(z >> i) & 1 for i in range(small.n)]
        mean_r, var_r = enumerate_fixed_moments(small, x)
        if abs(mean_r - mean(small, x)) > 1e-12 or var_r / c > 1 / (4 * c) + 1e-12:
            identity_ok = False
    ok = hits >= int(0.7 * seeds) and identity_ok
    _report(6, "stacked approximation hits its L1 target and variance bound",
            ok, f"{hits}/{seeds} within eps, identity={'ok' if identity_ok else 'violated'}")


def test_criterion_7_l2_guarantee():
    eps, trials = 0.1, 40
    all_ok = True
    details = []
    for eta, adversary in ((0.0, Adversary.NONE), (0.05, Adversary.LABEL_FLIP_MARGIN)):
        bound_hits = 0
        chain_hits = 0
        for seed in range(trials):
            tree, _, noisy = _draw_instance(3000 + seed, eta=eta, adversary=adversary)
            hyp = learn_pipeline(noisy, "l2", degree_budget(8, eps, noisy.n))
            opt = exact_opt(tree)
            err = exact_error(tree, hyp)
            bound_hits += err <= opt + 2 * np.sqrt(3 * eps + 2 * eta) + eps + 1e-12
            mu = mean_vector(tree)
            q = hyp.clamped_packed(np.arange(1 << tree.n))
            chain_hits += float(np.mean((q - mu) ** 2)) <= 3 * eps + 2 * eta + 0.05
        details.append(f"eta={eta}: bound {bound_hits}/{trials}, chain {chain_hits}/{trials}")
        all_ok &= bound_hits >= int(0.85 * trials) and chain_hits == trials
    _report(7, "rounded least-squares hypothesis meets its error and mean-square bounds",
            all_ok, "; ".join(details))


def test_criterion_8_l1_guarantee():
    eps, trials = 0.1, 40
    all_ok = True
    details = []
    for eta, adversary in ((0.0, Adversary.NONE), (0.05, Adversary.LABEL_FLIP_MARGIN)):
        bound_hits = 0
        identity_ok = True
        for seed in range(trials):
            tree, _, noisy = _draw_instance(4000 + seed, eta=eta, adversary=adversary)
            hyp = learn_pipeline(noisy, "l1", degree_budget(8, eps, noisy.n))
            opt = exact_opt(tree)
            err = exact_error(tree, hyp)
            bound_hits += err <= 2 * opt + 2 * eta + eps + 1e-12

            mu = mean_vector(tree)
            q = hyp.clamped_packed(np.arange(1 << tree.n))
            # Pr[h != tree] equals the expected absolute gap |q - output|.
            disagree = float(np.mean(q * (1 - mu) + (1 - q) * mu))
            abs_gap = float(np.mean(mu * (1 - q) + (1 - mu) * q))
            if abs(disagree - abs_gap) > 1e-12 or abs(disagree - err) > 1e-12:
                identity_ok = False
            # The mean function's own distance to the tree output is at
            # most twice the Bayes error.
            if float(np.mean(2 * mu * (1 - mu))) > 2 * opt + 1e-12:
                identity_ok = False
        details.append(f"eta={eta}: bound {bound_hits}/{trials}")
        all_ok &= bound_hits >= int(0.85 * trials) and identity_ok
    _report(8, "randomized absolute-error hypothesis meets 2*opt + 2*eta + eps",
            all_ok, "; ".join(details))


def test_criterion_9_semantic_oracles(demo_tree):
    # Mean function versus exhaustive randomness enumeration.
    mean_ok = True
    rng = np.random.default_rng(66)
    checked = 0
    for _ in range(30):
        tree = random_tree(int(rng.integers(2, 7)), int(rng.integers(2, 11)), 0.5, rng)
        if tree.num_stochastic > 10:
            continue
        for z in range(1 << tree.n):
            x = [(z >> i) & 1 for i in range(tree.n)]
            oracle_mean, _ = enumerate_fixed_moments(tree, x)
            if abs(oracle_mean - mean(tree, x)) > 1e-12:
                mean_ok = False
            checked += 1

    demo_opt_ok = exact_opt(demo_tree) == pytest.approx(0.125, abs=1e-15)

    # Rounding an approximate mean costs at most twice its L1 distance.
    fact_rng = np.random.default_rng(88)
    violations = 0
    for _ in range(500):
        n = int(fact_rng.integers(1, 11))
        tree = random_tree(n, int(fact_rng.integers(1, 13)), 0.5, fact_rng)
        mu = mean_vector(tree)
        h = fact_rng.uniform(0, 1, size=1 << n)
        rounded = (h >= 0.5).astype(np.float64)
        lhs = float(np.mean(rounded * (1 - mu) + (1 - rounded) * mu))
        rhs = float(np.mean(np.minimum(mu, 1 - mu))) + 2 * float(np.mean(np.abs(mu - h)))
        if lhs > rhs + 1e-12:
            violations += 1
    ok = mean_ok and demo_opt_ok and violations == 0
    _report(9, "exact semantics agree with their independent oracles",
            ok, f"{checked} mean checks, 500 rounding checks, {violations} violations")


def test_criterion_10_determinism():
    cfg = ExperimentConfig(n=8, s=6, m=4000, eps=0.2, method="find",
                           stoch_fraction=0.4, eta=0.05,
                           adversary="label_flip_margin", seed=31, max_depth=4)
    outputs = set()
    for _ in range(4):
        rep = run_experiment(cfg)
        outputs.add((rep.to_json(), rep.to_csv_row()))
    _report(10, "identical config and seed give byte-identical reports",
            len(outputs) == 1, f"{len(outputs)} distinct outputs across 4 runs")
