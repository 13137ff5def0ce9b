import math
from dataclasses import replace

import numpy as np
import pytest

from sdtlearn import harness, regression
from sdtlearn.find import TableBudgetExceeded
from sdtlearn.harness import (
    ExperimentConfig,
    aggregate,
    budgets_for,
    csv_rows,
    find_depth_budget,
    run_experiment,
    sweep_grid,
)
from sdtlearn.polynomials import MAX_PACKED_VARS
from sdtlearn.trees import DEFAULT_ENUMERATION_CAP, random_tree

# First-run outputs of three canned configs, pinned as regression anchors.
GOLDEN = [
    (
        ExperimentConfig(n=6, s=4, m=2000, eps=0.2, method="find", stoch_fraction=0.3,
                         eta=0.0, adversary="none", seed=7, max_depth=4),
        '{"adversary": "none", "bound": 0.22207310194463545, "degree_budget": null, '
        '"depth_budget": 4, "eps": 0.2, "error_estimation": "exact", "eta": 0.0, '
        '"hypothesis_error": 0.022073101944635437, "m": 2000, "margin": -0.2, '
        '"method": "find", "n": 6, "opt": 0.022073101944635437, "s": 4, "seed": 7}',
    ),
    (
        ExperimentConfig(n=6, s=4, m=2000, eps=0.2, method="l2", stoch_fraction=0.3,
                         eta=0.05, adversary="label_flip_random", seed=11),
        '{"adversary": "label_flip_random", "bound": 1.873320053068151, '
        '"degree_budget": 5, "depth_budget": null, "eps": 0.2, '
        '"error_estimation": "exact", "eta": 0.05, "hypothesis_error": 0.0, '
        '"m": 2000, "margin": -1.873320053068151, "method": "l2", "n": 6, '
        '"opt": 0.0, "s": 4, "seed": 11}',
    ),
    (
        ExperimentConfig(n=6, s=4, m=2000, eps=0.25, method="l1", stoch_fraction=0.3,
                         eta=0.1, adversary="label_flip_margin", seed=13),
        '{"adversary": "label_flip_margin", "bound": 0.45, "degree_budget": 4, '
        '"depth_budget": null, "eps": 0.25, "error_estimation": "exact", "eta": 0.1, '
        '"hypothesis_error": 0.1875, "m": 2000, "margin": -0.2625, "method": "l1", '
        '"n": 6, "opt": 0.0, "s": 4, "seed": 13}',
    ),
]

# The benchmark's find_acceptance experiments 0 and 1 at workload seed 1
# (n=10, m=50k): about 49 rows share each of the 1,024 inputs, so the data
# layer counts over the cube, which no n=6 config above reaches with as
# many distinct inputs.  Experiment 1 runs the margin adversary.
ACCEPTANCE_GOLDEN = [
    (
        ExperimentConfig(n=10, s=8, m=50_000, eps=0.15, method="find", stoch_fraction=0.3,
                         eta=0.0, adversary="label_flip_margin", seed=1000, max_depth=5),
        '{"adversary": "label_flip_margin", "bound": 0.1868891265057352, '
        '"degree_budget": null, "depth_budget": 5, "eps": 0.15, '
        '"error_estimation": "exact", "eta": 0.0, "hypothesis_error": 0.0368891265057352, '
        '"m": 50000, "margin": -0.15, "method": "find", "n": 10, '
        '"opt": 0.036889126505735184, "s": 8, "seed": 1000}',
    ),
    (
        ExperimentConfig(n=10, s=8, m=50_000, eps=0.15, method="find", stoch_fraction=0.3,
                         eta=0.05, adversary="label_flip_margin", seed=1001, max_depth=5),
        '{"adversary": "label_flip_margin", "bound": 0.2731649140132726, '
        '"degree_budget": null, "depth_budget": 5, "eps": 0.15, '
        '"error_estimation": "exact", "eta": 0.05, "hypothesis_error": 0.11691491401327264, '
        '"m": 50000, "margin": -0.15624999999999994, "method": "find", "n": 10, '
        '"opt": 0.023164914013272607, "s": 8, "seed": 1001}',
    ),
]


class TestBudgets:
    def test_find_depth_budget(self):
        # s=8, eps=0.15: 45 stacked copies need depth 45*3 + log2(1/0.15),
        # far beyond any sensible cap.
        assert find_depth_budget(8, 0.15, 5) == 5
        assert find_depth_budget(8, 0.15, 1000) == 138
        assert find_depth_budget(1, 0.25, 10) == 2
        assert find_depth_budget(2, 0.5, 10) == 5

    def test_find_depth_budget_matches_the_float_form(self):
        # The log-space budget against c log2(s) - log2(eps) with c formed
        # in floats, exact powers of two included, where the 1e-12 guard
        # decides; a large cap lets c itself decide.
        sizes = [*range(1, 33), 3 << 20, 1 << 40]
        epss = [2.0**-k for k in range(12)] + [k / 100 for k in range(1, 100)] + [1 / 3, 1 / 7]
        for s in sizes:
            for eps in epss:
                c = math.ceil(1.0 / (eps * eps))
                raw = c * math.log2(s) - math.log2(eps) if s > 1 else -math.log2(eps)
                for max_depth in (0, 5, 1000, 10**6):
                    today = min(max_depth, max(0, math.ceil(raw - 1e-12)))
                    assert find_depth_budget(s, eps, max_depth) == today, (s, eps, max_depth)

    def test_find_depth_budget_of_any_size_and_positive_eps(self):
        # eps * eps underflows and s does not fit a float.
        assert find_depth_budget(8, 1e-200, 6) == 6
        assert find_depth_budget(1, 1e-200, 1000) == 665
        assert find_depth_budget(10**400, 0.2, 6) == 6
        # A cap past 2^1000 lets c pass it too; both are formed exactly.
        assert find_depth_budget(8, 1e-200, 10**400) == 10**400
        assert find_depth_budget(2, 2.0**-600, 10**400) == 2**1200 + 600
        assert budgets_for(ExperimentConfig(n=4, s=10**400, m=10, eps=0.2, method="l2")) == (None, 4)

    def test_infeasible_feature_budget_reported_before_compute(self, monkeypatch):
        cfg = ExperimentConfig(n=20, s=16, m=100, eps=0.05, method="l2")
        monkeypatch.setattr(regression, "FEATURE_CAP", 1000)
        with pytest.raises(ValueError, match="features"):
            budgets_for(cfg)
        with pytest.raises(ValueError, match="features"):
            run_experiment(cfg)

    @pytest.mark.parametrize(
        "method,rows", [pytest.param("l1", 131072, id="l1"), pytest.param("l2", 65536, id="l2")]
    )
    def test_design_matrix_budget_reported_before_sampling(self, method, rows, monkeypatch):
        # 14,893 features is under the feature cap, but up to 2^17 grouped
        # rows (l1) or 2^16 distinct inputs (l2) would make a 14.5 or
        # 7.3 GiB design matrix.
        cfg = ExperimentConfig(n=16, s=12, m=200_000, eps=0.25, method=method)

        def no_sampling(*args, **kwargs):
            raise AssertionError("data drawn before the budget check")

        monkeypatch.setattr(harness, "random_tree", no_sampling)
        monkeypatch.setattr(harness, "draw_clean", no_sampling)
        with pytest.raises(ValueError, match=f"{rows} rows x 14893 features"):
            budgets_for(cfg)
        with pytest.raises(ValueError, match="design matrix"):
            run_experiment(cfg)

    def test_l1_budget_charges_distinct_input_label_pairs(self):
        # 60,000 rows over 2^20 inputs give at most 60,000 distinct (input,
        # label) pairs: a 0.6 GiB design matrix of 1,351 features, which the
        # learner's own check accepts.  Charging 2 min(m, 2^n) rows refused
        # it as 1.2 GiB.
        cfg = ExperimentConfig(n=20, s=1, m=60_000, eps=0.125, method="l1")
        regression.check_budget("l1", 20, 3, 60_000)
        assert budgets_for(cfg) == (None, 3)

    def test_cube_lp_budget_reported_before_sampling(self, monkeypatch):
        # Degree 14 over 14 variables takes the cube LP: no equality rows
        # and 3 * 2^14 variables (384 KiB), where the dual LP's 32,768
        # grouped rows x 16,384 features would need a 4 GiB design matrix.
        cfg = ExperimentConfig(n=14, s=16, m=200_000, eps=0.001, method="l1")
        assert budgets_for(cfg) == (None, 14)

        def no_sampling(*args, **kwargs):
            raise AssertionError("data drawn before the budget check")

        monkeypatch.setattr(harness, "random_tree", no_sampling)
        monkeypatch.setattr(harness, "draw_clean", no_sampling)
        monkeypatch.setattr(regression, "DESIGN_BYTES_CAP", 3 * 2**14 * 8 - 1)
        with pytest.raises(ValueError, match="cube LP of 0 entries over 49152 variables"):
            budgets_for(cfg)
        with pytest.raises(ValueError, match="cube LP"):
            run_experiment(cfg)

    @pytest.mark.parametrize(
        "fields,need",
        [
            pytest.param(dict(n=4, m=10**13), "242143.9 GiB", id="rows"),
            pytest.param(dict(n=30, m=1000, mc_trials=10**9, max_depth=2), "37.3 GiB", id="trials"),
        ],
    )
    def test_draw_budget_reported_before_sampling(self, fields, need, monkeypatch):
        # numpy would otherwise fail to allocate the rows, or the trials,
        # with a MemoryError; near the cap it would take the host's memory.
        cfg = ExperimentConfig(s=2, eps=0.3, **fields)

        def no_sampling(*args, **kwargs):
            raise AssertionError("data drawn before the budget check")

        for name in ("random_tree", "draw_clean", "corrupt", "mc_error"):
            monkeypatch.setattr(harness, name, no_sampling)
        with pytest.raises(ValueError, match=f"sample rows over {cfg.n} variables and .* need {need}"):
            budgets_for(cfg)
        with pytest.raises(ValueError, match="sample rows"):
            run_experiment(cfg)

    def test_draw_budget_charges_rows_inputs_and_trials_above_the_cap(self, monkeypatch):
        # 26 bytes a row, 184 a distinct input (at most 2^4 here) and 40 a
        # Monte Carlo trial, which n = 4 within the cap never draws.
        need = 26 * 1000 + 184 * 16
        cfg = ExperimentConfig(n=4, s=2, m=1000, eps=0.3, mc_trials=10**12)
        monkeypatch.setattr(harness, "DESIGN_BYTES_CAP", need)
        assert budgets_for(cfg) == (6, None)
        monkeypatch.setattr(harness, "DESIGN_BYTES_CAP", need - 1)
        with pytest.raises(ValueError, match="1000 sample rows over 4 variables and 0 Monte Carlo trials"):
            budgets_for(cfg)
        monkeypatch.setattr(harness, "DESIGN_BYTES_CAP", need + 40 * 100)
        budgets_for(replace(cfg, enumeration_cap=3, mc_trials=100))
        with pytest.raises(ValueError, match="and 101 Monte Carlo trials"):
            budgets_for(replace(cfg, enumeration_cap=3, mc_trials=101))

    def test_learner_budget_reported_before_the_draw_budget(self):
        cfg = ExperimentConfig(n=16, s=12, m=10**13, eps=0.25, method="l2")
        with pytest.raises(ValueError, match="65536 rows x 14893 features"):
            budgets_for(cfg)

    def test_search_table_budget_reported_before_sampling(self, monkeypatch):
        # Depth 6 over 30 variables is a 43M-cell table.
        cfg = ExperimentConfig(n=30, s=16, m=20_000, eps=0.25, method="find", max_depth=6)

        def no_sampling(*args, **kwargs):
            raise AssertionError("data drawn before the budget check")

        monkeypatch.setattr(harness, "random_tree", no_sampling)
        monkeypatch.setattr(harness, "draw_clean", no_sampling)
        with pytest.raises(TableBudgetExceeded, match="depth 6 over 30 variables"):
            budgets_for(cfg)
        with pytest.raises(TableBudgetExceeded):
            run_experiment(cfg)

    @pytest.mark.parametrize("n,max_depth", [(30, 2), (16, 4), (10, 6)])
    def test_search_table_budget_accepts_benchmark_sizes(self, n, max_depth):
        cfg = ExperimentConfig(n=n, s=16, m=20_000, eps=0.25, method="find", max_depth=max_depth)
        assert budgets_for(cfg) == (max_depth, None)

    @pytest.mark.parametrize(
        "field,value",
        [
            pytest.param("n", 63, id="n-over-packing-limit"),
            pytest.param("mc_trials", 0, id="mc_trials-0"),
            pytest.param("enumeration_cap", DEFAULT_ENUMERATION_CAP + 1,
                         id="enumeration_cap-over-default"),
            pytest.param("enumeration_cap", -1, id="enumeration_cap-negative"),
        ],
    )
    def test_infeasible_config_rejected_before_sampling(self, field, value, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("data drawn before the config check")

        monkeypatch.setattr(harness, "random_tree", no_sampling)
        monkeypatch.setattr(harness, "draw_clean", no_sampling)
        with pytest.raises(ValueError, match=f"^{field} must"):
            run_experiment(ExperimentConfig(**{"n": 4, "s": 4, "m": 10, "eps": 0.2, field: value}))

    @pytest.mark.parametrize("method", ["l1", "l2"])
    def test_fit_runs_at_the_reported_degree(self, method, monkeypatch):
        fit_name = f"{method}_regress"
        fit = getattr(regression, fit_name)
        degrees = []

        def recorded(dataset, d):
            degrees.append(d)
            return fit(dataset, d)

        monkeypatch.setattr(regression, fit_name, recorded)
        # degree_budget(4, 0.25) = 4, capped at n = 3.
        rep = run_experiment(ExperimentConfig(n=3, s=4, m=200, eps=0.25, method=method, seed=5))
        assert degrees == [rep.degree_budget] == [3]

    def test_negative_zero_eta_is_zero(self):
        cfg = ExperimentConfig(n=4, s=4, m=10, eps=0.2, eta=-0.0)
        assert str(cfg.eta) == "0.0" and '"eta": 0.0' in run_experiment(cfg).to_json()

    def test_config_limits_are_inclusive(self):
        ExperimentConfig(n=MAX_PACKED_VARS, s=4, m=10, eps=0.2, mc_trials=1,
                         enumeration_cap=DEFAULT_ENUMERATION_CAP)
        ExperimentConfig(n=1, s=1, m=10, eps=0.2, enumeration_cap=0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n=0, s=4, m=10, eps=0.2)
        with pytest.raises(ValueError):
            ExperimentConfig(n=4, s=4, m=10, eps=0.2, eta=1.5)
        with pytest.raises(ValueError):
            ExperimentConfig(n=4, s=4, m=10, eps=0.2, method="boosting")
        with pytest.raises(ValueError):
            ExperimentConfig(n=4, s=4, m=10, eps=0.2, adversary="bribe")


class TestGoldenConfigs:
    @pytest.mark.parametrize("cfg,expected", GOLDEN, ids=["find", "l2", "l1"])
    def test_pinned_reports(self, cfg, expected):
        assert run_experiment(cfg).to_json() == expected

    @pytest.mark.parametrize("cfg,expected", ACCEPTANCE_GOLDEN, ids=["eta0", "margin"])
    def test_pinned_acceptance_reports(self, cfg, expected):
        assert run_experiment(cfg).to_json() == expected


class TestDeterminism:
    def test_repeated_runs_byte_identical(self):
        cfg = GOLDEN[0][0]
        assert run_experiment(cfg).to_json() == run_experiment(cfg).to_json()


class TestMonteCarloReport:
    def test_opt_and_error_share_one_draw(self):
        # Above the enumeration cap the report draws mc_trials inputs once,
        # not once for opt and again for the hypothesis error.
        cfg = ExperimentConfig(n=8, s=4, m=10, eps=0.2, enumeration_cap=4, mc_trials=5_000)
        tree = random_tree(8, 6, 0.5, np.random.default_rng(1))
        rng, twin = np.random.default_rng(2), np.random.default_rng(2)
        rep = harness.report(cfg, tree, tree, 3, None, rng)
        twin.integers(0, 2**8, size=cfg.mc_trials, dtype=np.int64)
        assert rep.error_estimation == "monte_carlo"
        assert rng.bit_generator.state == twin.bit_generator.state


class TestSweep:
    def test_eta_sweep_aggregates(self):
        base = ExperimentConfig(n=6, s=4, m=1500, eps=0.2, method="find",
                                stoch_fraction=0.4, eta=0.0,
                                adversary="label_flip_margin", seed=100, max_depth=3)
        reports = [run_experiment(cfg) for cfg in sweep_grid(base, [0.0, 0.05, 0.1], 20)]
        aggregates = aggregate(reports)
        assert len(reports) == 60
        assert [a.eta for a in aggregates] == [0.0, 0.05, 0.1]
        assert all(a.trials == 20 for a in aggregates)
        # The guarantee holds throughout this sweep; noise still hurts the
        # raw error monotonically on average.
        assert all(a.success_rate == 1.0 for a in aggregates)
        errors = [a.mean_error for a in aggregates]
        assert errors[0] <= errors[1] <= errors[2]
        # Identical (method, eta) groups share the tree stream, so opt agrees.
        assert aggregates[0].mean_opt == pytest.approx(aggregates[2].mean_opt, abs=1e-12)

    def test_grid_seeds_are_distinct(self):
        base = GOLDEN[0][0]
        grid = list(sweep_grid(base, [0.0, 0.1], 3))
        assert len(grid) == 6
        assert sorted({cfg.seed for cfg in grid}) == [7, 8, 9]

    def test_repeated_eta_rejected(self):
        with pytest.raises(ValueError, match="repeats a value"):
            sweep_grid(GOLDEN[0][0], [0.05, 0.1, 0.05], 2)

    def test_csv_writing(self, tmp_path):
        reports = [run_experiment(GOLDEN[0][0])]
        path = tmp_path / "out.csv"
        with open(path, "w") as fh:
            list(csv_rows(reports, fh))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("method,n,s,m,eta")
        assert lines[1].split(",")[0] == "find"
