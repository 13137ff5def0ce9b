import gc
import importlib
import tracemalloc

import numpy as np
import pytest

from conftest import find_brute_oracle, reference_find
from sdtlearn.data import Dataset, draw_clean
from sdtlearn.find import (
    FindResult,
    TableBudgetExceeded,
    check_table_budget,
    empirical_error,
    find,
    table_cells,
)
from sdtlearn.trees import Leaf, Query, StochasticTree, pack_inputs, random_tree

# The package exports the function ``find`` under the module's name.
find_module = importlib.import_module("sdtlearn.find")


def make_dataset(xs, ys):
    xs = np.asarray(xs, dtype=np.uint8)
    ys = np.asarray(ys, dtype=np.uint8)
    return Dataset.from_rows(xs.shape[1], pack_inputs(xs), ys, np.zeros(len(ys), dtype=bool))


@pytest.fixture
def xor_dataset():
    return make_dataset([[0, 0], [0, 1], [1, 0], [1, 1]], [0, 1, 1, 0])


def random_dataset(rng, n_max=4, m_max=32):
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    xs = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
    ys = rng.integers(0, 2, size=m, dtype=np.uint8)
    return make_dataset(xs, ys)


class TestXorExamples:
    def test_depth_two_solves_xor(self, xor_dataset):
        result = find(xor_dataset, 2)
        assert result.empirical_error == 0.0
        assert result.tree.depth <= 2

    def test_depth_one_stuck_at_half(self, xor_dataset):
        assert find(xor_dataset, 1).empirical_error == 0.5
        assert find_brute_oracle(xor_dataset, 1) == 0.5

    def test_depth_zero_tie_breaks_to_zero(self, xor_dataset):
        result = find(xor_dataset, 0)
        assert result.tree.root == Leaf(0)
        assert result.empirical_error == 0.5


class TestOracleEquivalence:
    def test_randomized_suite(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            ds = random_dataset(rng)
            d = int(rng.integers(0, 3))
            result = find(ds, d)
            assert result.empirical_error == pytest.approx(find_brute_oracle(ds, d), abs=0)
            assert empirical_error(result.tree, ds) == pytest.approx(
                result.empirical_error, abs=1e-12
            )

    def test_oracle_refuses_infeasible_enumeration(self, xor_dataset):
        with pytest.raises(ValueError):
            find_brute_oracle(xor_dataset, 12)


class TestSearchProperties:
    def test_error_monotone_in_depth(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            ds = random_dataset(rng, n_max=5, m_max=64)
            errs = [find(ds, d).empirical_error for d in range(4)]
            assert all(a >= b - 1e-15 for a, b in zip(errs, errs[1:]))

    def test_depth_bound_respected(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            ds = random_dataset(rng, n_max=5, m_max=48)
            d = int(rng.integers(0, 4))
            assert find(ds, d).tree.depth <= d

    def test_depth_zero_majority(self):
        ds = make_dataset([[0], [1], [0], [1], [0]], [1, 1, 1, 0, 0])
        assert find(ds, 0).tree.root == Leaf(1)
        tie = make_dataset([[0], [1]], [0, 1])
        assert find(tie, 0).tree.root == Leaf(0)

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(3)
        tree = random_tree(6, 8, 0.4, rng)
        ds = draw_clean(tree, 400, rng)
        reference = find(ds, 3)
        for _ in range(4):
            again = find(ds, 3)
            assert again.tree == reference.tree
            assert again.error_count == reference.error_count

    def test_memoization_transparent_and_smaller(self):
        rng = np.random.default_rng(4)
        tree = random_tree(8, 10, 0.3, rng)
        ds = draw_clean(tree, 1000, rng)
        with_memo = find(ds, 3)
        without_tree, _, without_stats = reference_find(ds, 3, memo=False)
        assert with_memo.tree == without_tree
        assert with_memo.stats.nodes_expanded < without_stats.nodes_expanded
        assert with_memo.stats.cache_hits > 0
        assert without_stats.cache_hits == 0

    def test_empty_dataset(self):
        ds = make_dataset(np.zeros((0, 3), dtype=np.uint8), np.zeros(0, dtype=np.uint8))
        result = find(ds, 2)
        assert result.tree.root == Leaf(0)
        assert result.empirical_error == 0.0

    def test_depth_beyond_variables(self):
        # With every variable fixed on the path, the search falls back to
        # the majority leaf instead of re-querying.
        ds = make_dataset([[0], [1]], [1, 0])
        result = find(ds, 3)
        assert result.empirical_error == 0.0
        assert result.tree.depth <= 1

    def test_search_leaves_no_reference_cycle(self):
        # The search table must be freed when find returns, not left for the
        # cyclic collector: a retained table raises the peak memory of runs
        # that call find many times.
        rng = np.random.default_rng(5)
        ds = draw_clean(random_tree(6, 6, 0.3, rng), 500, rng)
        gc.collect()
        gc.disable()
        try:
            find(ds, 3)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_negative_depth_rejected(self, xor_dataset):
        with pytest.raises(ValueError):
            find(xor_dataset, -1)


class TestTableBudget:
    def test_table_cells_count_every_restriction(self):
        # All 12,585 subcubes of the acceptance search (n=10, depth 5);
        # depth beyond n adds no level.
        assert table_cells(10, 5) == 12_585
        assert table_cells(2, 4) == table_cells(2, 2) == 1 + 4 + 4

    def test_over_the_cap_rejected_before_counting(self, monkeypatch):
        ds = make_dataset(np.zeros((3, 30), dtype=np.uint8), [0, 1, 1])

        def no_counts(self):
            raise AssertionError("count table built before the budget check")

        monkeypatch.setattr(Dataset, "counts", no_counts)
        with pytest.raises(TableBudgetExceeded, match="search table"):
            find(ds, 6)

    def test_negative_depth_rejected_by_the_check(self):
        with pytest.raises(ValueError, match="depth budget must be nonnegative"):
            check_table_budget(4, -1)

    def test_peak_memory_per_table_cell(self):
        # The fold gathers one free-variable slot at a time: this search
        # peaks at about 35 bytes a cell with its plan cached and 41 when it
        # builds the plan, and a fold that gathers every slot of a level at
        # once at about 93.
        rng = np.random.default_rng(6)
        ds = draw_clean(random_tree(16, 8, 0.3, rng), 2_000, rng)
        ds.counts()
        tracemalloc.start()
        try:
            find(ds, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 60 * table_cells(16, 5)

    def test_leaf_level_peak_does_not_grow_with_the_inputs(self):
        # mc_wide's shape, n=30 at depth 2, where every row is a distinct
        # input.  The products are built a block of inputs at a time: the
        # search from the count table peaks at 1.2 MiB for both 20k and 80k
        # inputs (tracemalloc), where the bincount keys reached 5.2 and
        # 20.6 MiB.
        peaks = []
        for m in (20_000, 80_000):
            rng = np.random.default_rng(6)
            uz, w0, w1 = draw_clean(random_tree(30, 8, 0.3, rng), m, rng).counts()
            tracemalloc.start()
            try:
                find_module._table_search(uz, w0, w1, 30, 2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]
        assert peaks[1] <= 2 << 20

    def test_cap_is_inclusive(self, xor_dataset, monkeypatch):
        monkeypatch.setattr(find_module, "TABLE_CELLS_CAP", table_cells(2, 2))
        assert find(xor_dataset, 2).error_count == 0
        monkeypatch.setattr(find_module, "TABLE_CELLS_CAP", table_cells(2, 2) - 1)
        with pytest.raises(TableBudgetExceeded):
            find(xor_dataset, 2)


def _arrays(plan) -> list[np.ndarray]:
    """Every array in a search plan, through its nested tuples."""
    if isinstance(plan, np.ndarray):
        return [plan]
    return [a for part in plan for a in _arrays(part)] if isinstance(plan, tuple) else []


class TestPlanCache:
    def test_plan_arrays_are_read_only(self):
        arrays = _arrays(find_module._plan(10, 5))
        # The links of levels 0..4, both halves' three arrays and the two gathers.
        assert len(arrays) == 2 * 5 + 2 * 3 + 2
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0

    def test_shared_plans_give_the_searches_of_fresh_ones(self):
        # Shapes A, B and A again, sharing the cache, against each search
        # run on an empty cache: the same trees, errors and both counters.
        rng = np.random.default_rng(8)
        calls = [(draw_clean(random_tree(n, 6, 0.3, rng), 800, rng), depth) for n, depth in ((8, 4), (9, 3), (8, 4))]
        find_module._plan.cache_clear()
        shared = [find(ds, depth) for ds, depth in calls]
        # Shape A's plan is built once.
        assert find_module._plan.cache_info().misses == 2
        for (ds, depth), result in zip(calls, shared):
            find_module._plan.cache_clear()
            fresh = find(ds, depth)
            assert (result, result.stats) == (fresh, fresh.stats)

    def test_cache_holds_at_most_its_maxsize(self):
        find_module._plan.cache_clear()
        for n in range(2, 4 + find_module._PLAN_SHAPES):
            find_module._plan(n, 2)
            assert find_module._plan.cache_info().currsize <= find_module._PLAN_SHAPES
        assert find_module._plan.cache_info().currsize == find_module._PLAN_SHAPES


class TestEmpiricalError:
    def test_perfect_tree(self):
        ds = make_dataset([[0], [1]], [0, 1])
        tree = StochasticTree(1, Query(0, Leaf(0), Leaf(1)))
        assert empirical_error(tree, ds) == 0.0

    def test_constant_one_on_all_zero_labels(self):
        ds = make_dataset([[0], [1], [0]], [0, 0, 0])
        assert empirical_error(StochasticTree(1, Leaf(1)), ds) == 1.0

    def test_empty_dataset(self):
        ds = make_dataset(np.zeros((0, 2), dtype=np.uint8), np.zeros(0, dtype=np.uint8))
        assert empirical_error(StochasticTree(2, Leaf(1)), ds) == 0.0

    def test_rejects_tree_over_other_variable_count(self):
        ds = make_dataset(np.zeros((3, 4), dtype=np.uint8), np.array([0, 1, 1], dtype=np.uint8))
        with pytest.raises(ValueError, match="tree is over 2 variables, sample over 4"):
            empirical_error(StochasticTree(2, Query(1, Leaf(0), Leaf(1))), ds)

