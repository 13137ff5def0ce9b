import tracemalloc

import numpy as np
import pytest

from sdtlearn import data
from sdtlearn.data import (
    Adversary,
    Dataset,
    corrupt,
    corruption_budget,
    draw_clean,
    dump_dataset,
    load_dataset,
)
from sdtlearn.trees import Leaf, StochasticTree, mean_on_points, mean_vector, random_tree

ALL_STRATEGIES = list(Adversary)


def table_expectation(ds: Dataset, table: dict[tuple[int, int], float]) -> float:
    zs = ds.zs
    return float(np.mean([table[(int(z), int(y))] for z, y in zip(zs, ds.ys)]))


class TestDrawClean:
    def test_constant_tree_all_ones(self):
        rng = np.random.default_rng(0)
        ds = draw_clean(StochasticTree(3, Leaf(1)), 200, rng)
        assert np.all(ds.ys == 1)
        assert not ds.corrupted.any()

    def test_empty_sample(self):
        rng = np.random.default_rng(0)
        ds = draw_clean(StochasticTree(3, Leaf(1)), 0, rng)
        assert ds.m == 0

    def test_label_mean_near_input_average(self):
        # Chernoff-style tolerance: 3 * sqrt(m/4) / m = 1.5 / sqrt(m).
        rng = np.random.default_rng(1)
        for seed in range(4):
            tree = random_tree(6, 8, 0.5, np.random.default_rng(seed))
            expected = float(np.mean(mean_vector(tree)))
            m = 10_000
            ds = draw_clean(tree, m, rng)
            assert abs(float(np.mean(ds.ys)) - expected) <= 1.5 / np.sqrt(m)


class TestCorrupt:
    @pytest.fixture
    def setup(self):
        rng = np.random.default_rng(2)
        tree = random_tree(6, 8, 0.4, rng)
        clean = draw_clean(tree, 500, rng)
        return tree, clean, rng

    def test_budget_exact_for_every_strategy(self, setup):
        tree, clean, rng = setup
        for strategy in ALL_STRATEGIES:
            for eta in (0.0, 0.01, 0.05, 0.29, 1.0):
                out = corrupt(clean, eta, strategy, tree, np.random.default_rng(7))
                assert out.corrupted_count == corruption_budget(eta, clean.m)

    def test_floor_rounding_guard(self):
        # 0.29 * 100 is 28.999... in floats; the budget must still be 29.
        assert corruption_budget(0.29, 100) == 29
        assert corruption_budget(0.05, 50_000) == 2500
        assert corruption_budget(0.0, 123) == 0

    def test_eta_zero_identity(self, setup):
        tree, clean, rng = setup
        out = corrupt(clean, 0.0, Adversary.LABEL_FLIP_RANDOM, tree, rng)
        assert np.array_equal(out.ys, clean.ys)
        assert np.array_equal(out.zs, clean.zs)
        assert out.corrupted_count == 0

    def test_eta_one_flips_every_label(self, setup):
        tree, clean, rng = setup
        out = corrupt(clean, 1.0, Adversary.LABEL_FLIP_RANDOM, tree, rng)
        assert np.array_equal(out.ys, 1 - clean.ys)
        assert out.corrupted_count == clean.m

    def test_none_strategy_changes_nothing(self, setup):
        tree, clean, rng = setup
        out = corrupt(clean, 0.2, Adversary.NONE, tree, rng)
        assert np.array_equal(out.ys, clean.ys)
        assert np.array_equal(out.zs, clean.zs)
        assert out.corrupted_count == corruption_budget(0.2, clean.m)

    def test_flip_strategies_change_only_labels(self, setup):
        tree, clean, rng = setup
        for strategy in (Adversary.LABEL_FLIP_RANDOM, Adversary.LABEL_FLIP_MARGIN):
            out = corrupt(clean, 0.1, strategy, tree, np.random.default_rng(8))
            assert np.array_equal(out.zs, clean.zs)
            changed = out.ys != clean.ys
            assert np.array_equal(changed, out.corrupted)

    def test_margin_adversary_prefers_high_margin_rows(self, setup):
        tree, clean, rng = setup
        out = corrupt(clean, 0.05, Adversary.LABEL_FLIP_MARGIN, tree, rng)
        mu = mean_on_points(tree, clean.zs)
        margins = np.abs(mu - 0.5)
        flipped = margins[out.corrupted]
        # The flipped rows should sit in the upper half of the margin range.
        assert np.median(flipped) >= np.median(margins)

    def test_example_replace_concentrates_one_point(self, setup):
        tree, clean, rng = setup
        out = corrupt(clean, 0.1, Adversary.EXAMPLE_REPLACE, tree, rng)
        zs = out.zs[out.corrupted]
        assert len(set(zs.tolist())) == 1
        labels = out.ys[out.corrupted]
        assert len(set(labels.tolist())) == 1

    def test_example_replace_above_the_enumeration_cap_uses_sample_inputs(self, monkeypatch):
        # At n = 21 the replacement point is searched among the sample's
        # distinct inputs, never over all 2^21 of {0,1}^n.
        rng = np.random.default_rng(21)
        tree = random_tree(21, 8, 0.4, rng)
        clean = draw_clean(tree, 300, rng)
        distinct = np.unique(clean.zs)
        margins = np.abs(mean_on_points(tree, distinct) - 0.5)
        point = int(distinct[np.argmax(margins)])
        seen = []

        def recorded(tree, zs):
            seen.append(zs.size)
            return mean_on_points(tree, zs)

        monkeypatch.setattr(data, "mean_on_points", recorded)
        out = corrupt(clean, 0.1, Adversary.EXAMPLE_REPLACE, tree, rng)
        assert seen == [distinct.size]
        assert out.corrupted_count == 30
        assert out.zs[out.corrupted].tolist() == [point] * 30
        mu = float(mean_on_points(tree, np.array([point]))[0])
        assert out.ys[out.corrupted].tolist() == [int(mu < 0.5)] * 30

    def test_corruption_shifts_bounded_expectations(self, setup):
        # Any [0,1]-valued err table moves by strictly less than eta when
        # only floor(eta*m) rows change.
        tree, clean, _ = setup
        table_rng = np.random.default_rng(9)
        for strategy in ALL_STRATEGIES:
            for eta in (0.02, 0.1):
                out = corrupt(clean, eta, strategy, tree, np.random.default_rng(10))
                keys = {(int(z), int(y)) for z, y in zip(clean.zs, clean.ys)}
                keys |= {(int(z), int(y)) for z, y in zip(out.zs, out.ys)}
                for _ in range(20):
                    table = {k: float(table_rng.random()) for k in keys}
                    shift = abs(table_expectation(clean, table) - table_expectation(out, table))
                    assert shift < eta

    def test_rejects_bad_inputs(self, setup):
        tree, clean, rng = setup
        with pytest.raises(ValueError):
            corrupt(clean, 1.5, Adversary.NONE, tree, rng)
        dirty = corrupt(clean, 0.1, Adversary.LABEL_FLIP_RANDOM, tree, rng)
        with pytest.raises(ValueError):
            corrupt(dirty, 0.1, Adversary.NONE, tree, rng)

    @pytest.mark.parametrize(
        "strategy", [Adversary.NONE, Adversary.LABEL_FLIP_RANDOM, Adversary.EXAMPLE_REPLACE]
    )
    def test_rows_come_from_one_choice(self, setup, strategy):
        tree, clean, _ = setup
        budget = corruption_budget(0.1, clean.m)
        twin = np.random.default_rng(11)
        out = corrupt(clean, 0.1, strategy, tree, np.random.default_rng(11))
        assert np.array_equal(np.flatnonzero(out.corrupted),
                              np.sort(twin.choice(clean.m, budget, replace=False)))

    def test_margin_adversary_reads_no_randomness(self, setup):
        tree, clean, _ = setup
        rng = np.random.default_rng(12)
        state = rng.bit_generator.state
        corrupt(clean, 0.1, Adversary.LABEL_FLIP_MARGIN, tree, rng)
        assert rng.bit_generator.state == state

    def test_unknown_strategy_rejected_at_zero_budget(self, setup):
        tree, clean, rng = setup
        with pytest.raises(ValueError, match="unknown adversary 'bogus'"):
            corrupt(clean, 0.0, "bogus", tree, rng)

    @pytest.mark.parametrize("tree_n,data_n", [(4, 8), (8, 4)])
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_rejects_tree_over_other_variable_count(self, tree_n, data_n, strategy):
        rng = np.random.default_rng(3)
        clean = draw_clean(random_tree(data_n, 6, 0.4, rng), 200, rng)
        tree = random_tree(tree_n, 6, 0.4, rng)
        with pytest.raises(ValueError, match=f"tree is over {tree_n} variables, sample over {data_n}"):
            corrupt(clean, 0.1, strategy, tree, rng)


class TestFileFormat:
    def test_roundtrip(self):
        rng = np.random.default_rng(11)
        tree = random_tree(5, 6, 0.4, rng)
        ds = corrupt(draw_clean(tree, 50, rng), 0.1, Adversary.LABEL_FLIP_RANDOM, tree, rng)
        again = load_dataset(dump_dataset(ds))
        assert again.n == ds.n
        assert np.array_equal(again.zs, ds.zs)
        assert np.array_equal(again.ys, ds.ys)
        assert np.array_equal(again.corrupted, ds.corrupted)

    def test_header_mismatch_rejected(self):
        with pytest.raises(ValueError):
            load_dataset("n=2 m=3\n01 1 0\n10 0 0\n")

    @pytest.mark.parametrize("text,problem", [
        ("", "empty"),
        ("\n  \n", "empty"),
        ("m=5", "header"),
        ("n=2", "header"),
        ("n=2 m=x\n", "header"),
        ("n=-1 m=0\n", "header"),
        ("n=2 m=1\n01 1\n", "fields"),
        ("n=2 m=1\n01 1 0 1\n", "fields"),
        ("n=2 m=1\n011 1 0\n", "bits"),
        ("n=2 m=1\n0a 1 0\n", "0/1"),
        ("n=2 m=1\n01 2 0\n", "0/1"),
        ("n=2 m=1\n01 1 7\n", "0/1"),
    ])
    def test_malformed_text_named(self, text, problem):
        with pytest.raises(ValueError, match=problem):
            load_dataset(text)


BAD_ARRAYS = [
    (np.zeros((3, 2), dtype=np.uint8), np.zeros(3), np.zeros(3, dtype=bool), "1-d"),
    ([0, -1, 2], np.zeros(3), np.zeros(3, dtype=bool), "lie in"),
    ([0, 4, 2], np.zeros(3), np.zeros(3, dtype=bool), "lie in"),
    ([0, 1 << 40], np.zeros(2), np.zeros(2, dtype=bool), "lie in"),
    ([0, 1, 2], np.zeros(2), np.zeros(3, dtype=bool), "one entry per row"),
    ([0, 1], np.zeros(3), np.zeros(2, dtype=bool), "one entry per row"),
    ([0, 1, 2], np.zeros(3), np.zeros(2, dtype=bool), "one entry per row"),
    ([0, 1, 2], [0, 2, 1], np.zeros(3, dtype=bool), "0/1"),
]


class TestDatasetValidation:
    def test_shape_and_value_checks(self):
        # Rows instead of packed inputs, inputs outside [0, 2^2), and
        # labels or flags of another length.
        for zs, ys, flags, problem in BAD_ARRAYS:
            with pytest.raises(ValueError, match=problem):
                Dataset(2, zs, ys, flags)

    @pytest.mark.parametrize("n", [-1, 63])
    def test_rejects_variable_count_outside_packing(self, n):
        with pytest.raises(ValueError, match="n must lie in"):
            Dataset(n, np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0, dtype=bool))

    def test_accepts_full_range(self):
        ds = Dataset(62, [0, (1 << 62) - 1], [0, 1], [False, True])
        assert ds.zs.dtype == np.int64 and ds.m == 2

    def test_rows_are_read_only(self):
        ds = Dataset(2, np.array([0, 3, 1]), np.zeros(3, dtype=np.uint8), np.zeros(3, dtype=bool))
        for arr in (ds.zs, ds.ys, ds.corrupted):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_loader_rejects_too_many_variables(self):
        text = "n=63 m=1\n" + "1" * 63 + " 1 0\n"
        with pytest.raises(ValueError, match="at most 62 variables"):
            load_dataset(text)

    def test_loader_checks_variable_count_before_reading_rows(self):
        # A malformed row used to be padded to n + 2 bytes before n was checked.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="at most 62 variables"):
                load_dataset("n=10000000 m=1\n0 0 0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
