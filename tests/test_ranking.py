"""Unit tests for the mean-rank transformation, topsis.rank_columns."""

import subprocess
import sys

import numpy as np
import pytest

import oracle
from hra import (
    DecisionMatrix,
    Direction,
    HraConfig,
    MissingCell,
    NonFiniteValue,
    ShapeMismatch,
    rank_columns,
    run_hra,
)


def mean_rank_column(values, direction=Direction.COST):
    """Mean ranks of one column, through rank_columns on a one-column
    matrix."""
    column = np.asarray(values, dtype=float)
    return rank_columns(DecisionMatrix(column[:, None]), direction).values[:, 0]


class TestMeanRankColumn:
    def test_midrank_of_tie(self):
        np.testing.assert_array_equal(
            mean_rank_column([5.0, 3.2, 3.2, 7.1]), [3, 1.5, 1.5, 4])

    def test_full_tie(self):
        np.testing.assert_array_equal(mean_rank_column([2, 2, 2]), [2, 2, 2])

    def test_tiny_differences_still_ordered(self):
        np.testing.assert_array_equal(
            mean_rank_column([1e-8, 0, 3.4, 0.2, 9]), [2, 1, 4, 3, 5])

    def test_maximize_reverses(self):
        np.testing.assert_array_equal(
            mean_rank_column([1.0, 3.0, 2.0], Direction.BENEFIT), [3, 1, 2])

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteValue):
            mean_rank_column([1.0, float("inf")])

    def test_matches_reference_on_random_columns(self):
        rng = np.random.default_rng(23)
        for trial in range(50):
            m = int(rng.integers(1, 15))
            # coarse grid so ties actually happen
            values = rng.integers(0, 6, size=m).astype(float)
            np.testing.assert_array_equal(mean_rank_column(values),
                                          oracle.mean_ranks(values.tolist()))
            np.testing.assert_array_equal(
                mean_rank_column(values, Direction.BENEFIT),
                oracle.mean_ranks(values.tolist(), descending=True))

    def test_translation_and_scale_invariance(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=12)
        base = mean_rank_column(values)
        np.testing.assert_array_equal(mean_rank_column(values + 17.0), base)
        np.testing.assert_array_equal(mean_rank_column(values * 3.5), base)

    def test_column_sum(self):
        rng = np.random.default_rng(31)
        for m in (1, 2, 7, 20):
            ranks = mean_rank_column(rng.integers(0, 4, size=m).astype(float))
            assert ranks.sum() == m * (m + 1) / 2


def test_import_does_not_load_scipy():
    probe = "import sys, hra; print('scipy' in sys.modules)"
    found = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                           text=True, check=True)
    assert found.stdout.strip() == "False"


class TestRankColumns:
    def test_columns_ranked_independently(self):
        dm = DecisionMatrix([[3.0, 10.0], [1.0, 30.0]])
        ranked = rank_columns(dm)
        np.testing.assert_array_equal(ranked.values, [[2, 1], [1, 2]])
        assert ranked.alternative_labels == dm.alternative_labels

    def test_monotone_consistency(self):
        rng = np.random.default_rng(9)
        values = rng.uniform(size=(8, 4))
        ranked = rank_columns(DecisionMatrix(values))
        for j in range(4):
            order = np.argsort(values[:, j])
            assert (np.diff(ranked.values[order, j]) > 0).all()


def leaf_matrices(ds, objectives=None):
    """{(d, p): rank matrix} of every leaf, as run_hra ranks them."""
    report = run_hra(ds, HraConfig.for_dataset(ds, objectives=objectives))
    return {node.key[1:]: node.matrix for node in report.level("leaf")}


class TestRankDataset:
    """A dataset's leaves, ranked by run_hra."""

    def test_two_algorithms_single_function(self):
        from hra import PerformanceDataset
        ds = PerformanceDataset(
            algorithms=("a", "b"), functions=("f",), dimensions=(1,),
            measures=("err",),
            values={(1, "err", "a", "f"): 3.0, (1, "err", "b", "f"): 1.0})
        leaves = leaf_matrices(ds)
        np.testing.assert_array_equal(leaves[(1, "err")].values, [[2], [1]])

    def test_leaf_count(self, synthetic_dataset):
        leaves = leaf_matrices(synthetic_dataset)
        k = len(synthetic_dataset.dimensions)
        l = len(synthetic_dataset.measures)
        assert len(leaves) == k * l == 10

    def test_matches_reference(self, synthetic_dataset):
        ds = synthetic_dataset
        leaves = leaf_matrices(ds)
        for d in ds.dimensions:
            for p in ds.measures:
                raw = [[ds.values[(d, p, a, f)] for f in ds.functions]
                       for a in ds.algorithms]
                np.testing.assert_array_equal(leaves[(d, p)].values,
                                              oracle.rank_columns(raw))

    def test_maximize_override(self, synthetic_dataset):
        ds = synthetic_dataset
        flipped = leaf_matrices(ds, {"best": Direction.BENEFIT})
        default = leaf_matrices(ds)
        d = ds.dimensions[0]
        assert not np.array_equal(flipped[(d, "best")].values,
                                  default[(d, "best")].values)
        np.testing.assert_array_equal(flipped[(d, "worst")].values,
                                      default[(d, "worst")].values)

    def test_missing_cell_is_listed(self, synthetic_dataset):
        ds = synthetic_dataset
        values = dict(ds.values)
        gone = (ds.dimensions[0], "median", ds.algorithms[2],
                ds.functions[3])
        del values[gone]
        from hra import PerformanceDataset
        partial = PerformanceDataset(algorithms=ds.algorithms,
                                     functions=ds.functions,
                                     dimensions=ds.dimensions,
                                     measures=ds.measures, values=values)
        with pytest.raises(MissingCell) as excinfo:
            run_hra(partial)
        assert excinfo.value.missing == [gone]


@pytest.mark.parametrize("entry", [
    lambda ds, objectives: HraConfig.for_dataset(ds, objectives=objectives),
], ids=["HraConfig"])
def test_misspelt_objective_raises(synthetic_dataset, entry):
    with pytest.raises(ShapeMismatch) as excinfo:
        entry(synthetic_dataset, {"bset": Direction.BENEFIT})
    assert str(excinfo.value) == "objectives name unknown measures: ['bset']"
