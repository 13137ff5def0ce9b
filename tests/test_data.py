import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dataset_rows, label_cells, table_expectation
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
from sdtlearn.trees import (
    DEFAULT_ENUMERATION_CAP,
    Leaf,
    StochasticTree,
    mean_on_points,
    mean_vector,
    query_mask,
    random_tree,
)

ALL_STRATEGIES = list(Adversary)


class TestDrawClean:
    def test_constant_tree_all_ones(self):
        rng = np.random.default_rng(0)
        ds = draw_clean(StochasticTree(3, Leaf(1)), 200, rng)
        assert ds.counts()[2].sum() == 200
        assert ds.corrupted_count == 0

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
            assert abs(ds.counts()[2].sum() / m - expected) <= 1.5 / np.sqrt(m)


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
        assert np.array_equal(out.zs, clean.zs)
        assert np.array_equal(out.cells, clean.cells)
        assert out.corrupted_count == 0

    def test_eta_one_flips_every_label(self, setup):
        tree, clean, rng = setup
        out = corrupt(clean, 1.0, Adversary.LABEL_FLIP_RANDOM, tree, rng)
        assert np.array_equal(out.zs, clean.zs)
        assert np.array_equal(out.cells[:, :, 1], clean.cells[:, ::-1, 0])
        assert out.corrupted_count == clean.m

    def test_none_strategy_changes_nothing(self, setup):
        tree, clean, rng = setup
        out = corrupt(clean, 0.2, Adversary.NONE, tree, rng)
        assert np.array_equal(out.zs, clean.zs)
        assert np.array_equal(out.cells.sum(axis=2), clean.cells.sum(axis=2))
        assert out.corrupted_count == corruption_budget(0.2, clean.m)

    def test_flip_strategies_change_only_labels(self, setup):
        tree, clean, rng = setup
        # Each input keeps its rows; the flagged rows are the clean rows of
        # the other label.
        for strategy in (Adversary.LABEL_FLIP_RANDOM, Adversary.LABEL_FLIP_MARGIN):
            out = corrupt(clean, 0.1, strategy, tree, np.random.default_rng(8))
            assert np.array_equal(out.zs, clean.zs)
            assert np.array_equal(out.cells.sum(axis=(1, 2)), clean.cells.sum(axis=(1, 2)))
            assert np.array_equal(out.cells[:, :, 0] + out.cells[:, ::-1, 1], clean.cells[:, :, 0])

    def test_margin_adversary_prefers_high_margin_rows(self, setup):
        tree, clean, rng = setup
        out = corrupt(clean, 0.05, Adversary.LABEL_FLIP_MARGIN, tree, rng)
        margins = np.abs(mean_on_points(tree, clean.zs) - 0.5)
        flipped = np.repeat(margins, out.cells[:, :, 1].sum(axis=1))
        # The flipped rows should sit in the upper half of the rows' margins.
        assert np.median(flipped) >= np.median(np.repeat(margins, clean.cells.sum(axis=(1, 2))))

    def test_example_replace_concentrates_one_point(self, setup):
        tree, clean, rng = setup
        out = corrupt(clean, 0.1, Adversary.EXAMPLE_REPLACE, tree, rng)
        # All corrupted rows sit in one (input, label) cell.
        assert np.count_nonzero(out.cells[:, :, 1]) == 1
        assert out.cells[:, :, 1].sum() == corruption_budget(0.1, clean.m)

    def test_example_replace_above_the_enumeration_cap_uses_sample_inputs(self, monkeypatch):
        # A target that queries more variables than the cap has its
        # replacement point searched among the sample's distinct inputs,
        # never over its 2^28 query cube.
        rng = np.random.default_rng(21)
        tree = random_tree(30, 100, 0.4, rng)
        assert query_mask(tree.root).bit_count() == 28 > DEFAULT_ENUMERATION_CAP
        clean = draw_clean(tree, 300, rng)
        distinct = clean.zs
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
        mu = float(mean_on_points(tree, np.array([point]))[0])
        assert out.cells[np.searchsorted(out.zs, point), int(mu < 0.5), 1] == 30

    def test_example_replace_scans_the_query_cube_in_blocks(self):
        # A 20-variable query cube is scanned 2^16 inputs at a time: the
        # whole-cube scan peaked at 32.0 MiB here, the block scan at 2.6 MiB
        # (tracemalloc).
        tree = random_tree(30, 30, 0.3, np.random.default_rng(15))
        assert query_mask(tree.root).bit_count() == 20
        clean = draw_clean(tree, 100, np.random.default_rng(1))
        tracemalloc.start()
        try:
            out = corrupt(clean, 0.1, Adversary.EXAMPLE_REPLACE, tree, np.random.default_rng(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.corrupted_count == 10
        assert peak <= 4 << 20

    def test_corruption_shifts_bounded_expectations(self, setup):
        # Any [0,1]-valued err table moves by strictly less than eta when
        # only floor(eta*m) rows change.
        tree, clean, _ = setup
        table_rng = np.random.default_rng(9)
        for strategy in ALL_STRATEGIES:
            for eta in (0.02, 0.1):
                out = corrupt(clean, eta, strategy, tree, np.random.default_rng(10))
                keys = sorted(label_cells(clean).keys() | label_cells(out).keys())
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
        # The rows each (input, label) cell gives up come from one
        # multivariate hypergeometric draw, and nothing else reads the rng.
        tree, clean, _ = setup
        budget = corruption_budget(0.1, clean.m)
        rng, twin = np.random.default_rng(11), np.random.default_rng(11)
        out = corrupt(clean, 0.1, strategy, tree, rng)
        chosen = twin.multivariate_hypergeometric(clean.cells[:, :, 0].ravel(), budget, method="count")
        # Under example_replace an input may lose all its rows and leave the table.
        kept = np.zeros_like(clean.cells[:, :, 0])
        present = np.isin(clean.zs, out.zs)
        kept[present] = out.cells[np.searchsorted(out.zs, clean.zs[present]), :, 0]
        assert np.array_equal(clean.cells[:, :, 0] - kept, chosen.reshape(-1, 2))
        assert rng.bit_generator.state == twin.bit_generator.state

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
        assert np.array_equal(again.cells, ds.cells)

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


def _one_row_each(zs) -> np.ndarray:
    """Cells with one clean 0-labeled row at each input."""
    cells = np.zeros((len(zs), 2, 2), dtype=np.int64)
    cells[:, 0, 0] = 1
    return cells


class TestDatasetValidation:
    def test_shape_and_value_checks(self):
        # Rows of bits instead of packed inputs, inputs outside [0, 2^2),
        # labels or flags of another length, and a label of 2.
        for zs, ys, flags, problem in BAD_ARRAYS:
            with pytest.raises(ValueError, match=problem):
                Dataset.from_rows(2, zs, ys, flags)

    @pytest.mark.parametrize("zs,cells,problem", [
        pytest.param([1, 0], _one_row_each([1, 0]), "strictly ascending", id="descending"),
        pytest.param([0, 0], _one_row_each([0, 0]), "strictly ascending", id="repeated"),
        pytest.param([0, 4], _one_row_each([0, 4]), r"lie in \[0, 2\^2\)", id="input-past-cube"),
        pytest.param([-1, 0], _one_row_each([-1, 0]), r"lie in \[0, 2\^2\)", id="negative-input"),
        pytest.param([0, 1], np.array([[[1, 0], [0, 0]], [[0, 0], [0, 0]]]), "at least one row", id="no-rows"),
        pytest.param([0], np.array([[[2, -1], [0, 0]]]), "nonnegative", id="negative-count"),
        pytest.param([0, 1], np.ones((2, 2)), r"shape \(u, 2, 2\), got \(2,\) and \(2, 2\)", id="cells-2d"),
        pytest.param([0, 1], np.ones((2, 2, 3)), r"got \(2,\) and \(2, 2, 3\)", id="three-flags"),
        pytest.param([0, 1], np.ones((3, 2, 2)), r"got \(2,\) and \(3, 2, 2\)", id="cells-for-three-inputs"),
        pytest.param([[0, 1]], np.ones((2, 2, 2)), r"need 1-d zs", id="zs-2d"),
    ])
    def test_table_refusals_are_one_line(self, zs, cells, problem):
        with pytest.raises(ValueError, match=problem) as caught:
            Dataset(2, zs, cells)
        assert "\n" not in str(caught.value)

    @pytest.mark.parametrize("n", [-1, 63])
    def test_rejects_variable_count_outside_packing(self, n):
        with pytest.raises(ValueError, match="n must lie in"):
            Dataset(n, np.zeros(0, dtype=np.int64), np.zeros((0, 2, 2), dtype=np.int64))

    def test_accepts_full_range(self):
        ds = Dataset.from_rows(62, [0, (1 << 62) - 1], [0, 1], [False, True])
        assert ds.zs.dtype == np.int64 and ds.m == 2 and ds.corrupted_count == 1

    def test_rows_are_read_only(self):
        ds = Dataset.from_rows(2, np.array([0, 3, 1]), np.zeros(3, dtype=np.uint8), np.zeros(3, dtype=bool))
        for arr in (ds.zs, ds.cells):
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


#: Count tables over n <= 6 variables: up to 20 inputs, each with 1 to 12
#: rows spread over its four (label, flag) cells.
tables = st.integers(0, 6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.dictionaries(
            st.integers(0, (1 << n) - 1), st.tuples(*[st.integers(0, 3)] * 4).filter(any), max_size=20
        ),
    )
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(table=tables, seed=st.integers(0, 2**32 - 1))
@example(table=(0, {}), seed=0)
@example(table=(0, {0: (1, 0, 0, 3)}), seed=1)
@example(table=(6, {0: (1, 1, 1, 1), 63: (0, 0, 0, 2)}), seed=2)
def test_table_round_trips_through_rows(table, seed):
    # from_rows of the table's rows, the text round trip, and the text with
    # its rows in any order all give back the table: row order carries no
    # information.
    n, cells = table
    zs = sorted(cells)
    ds = Dataset(n, np.array(zs, dtype=np.int64), np.array([cells[z] for z in zs]).reshape(-1, 2, 2))
    for again in (Dataset.from_rows(n, *dataset_rows(ds)), load_dataset(dump_dataset(ds))):
        assert again.n == n
        assert np.array_equal(again.zs, ds.zs) and np.array_equal(again.cells, ds.cells)
    header, *rows = dump_dataset(ds).splitlines()
    shuffled = [rows[i] for i in np.random.default_rng(seed).permutation(len(rows))]
    again = load_dataset("\n".join([header, *shuffled]) + "\n")
    assert np.array_equal(again.zs, ds.zs) and np.array_equal(again.cells, ds.cells)
