"""Unit and integration tests for the three-level aggregation."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import oracle
from conftest import random_dataset
from hra import (
    HraConfig,
    MissingCell,
    PerformanceDataset,
    RankMatrix,
    ShapeMismatch,
    aggregate_dimension,
    aggregate_leaf,
    aggregate_overall,
    fixtures,
    rank_dataset,
    run_hra,
)
from hra.hierarchy import Evaluation, HraReport


class TestAggregateLeaf:
    def test_dominating_row_ranks_first(self):
        rm = RankMatrix([[1, 1, 1], [2, 3, 2], [3, 2, 3]])
        ranks = aggregate_leaf(rm)
        assert ranks[0] == 1.0

    def test_identical_rows_tie(self):
        rm = RankMatrix([[1.5, 1.5], [1.5, 1.5], [3.0, 3.0]])
        np.testing.assert_array_equal(aggregate_leaf(rm), [1.5, 1.5, 3.0])

    def test_matches_reference(self, synthetic_dataset):
        ds = synthetic_dataset
        d, p = ds.dimensions[0], ds.measures[0]
        raw = [[ds.values[(d, p, a, f)] for f in ds.functions]
               for a in ds.algorithms]
        ranked = oracle.rank_columns(raw)
        expected, _ = oracle.rtopsis_ranks(ranked)
        rm = RankMatrix(np.array(ranked), ds.algorithms, ds.functions)
        np.testing.assert_array_equal(aggregate_leaf(rm), expected)


class TestAggregateDimension:
    @pytest.mark.parametrize("dim,column", [(10, 0), (30, 1), (50, 2),
                                            (100, 3)])
    def test_published_dimension_rankings(self, dim, column,
                                          dimension_table):
        table = fixtures.load_measure_ranks(dim)
        matrix, ranks = aggregate_dimension(
            [table.values[:, j] for j in range(table.n)],
            measure_labels=table.criterion_labels,
            alternative_labels=table.alternative_labels)
        np.testing.assert_array_equal(matrix.values, table.values)
        np.testing.assert_array_equal(ranks, dimension_table.values[:, column])

    def test_single_measure_is_identity_on_rank_vector(self):
        vector = np.array([2.0, 1.0, 3.0])
        _, ranks = aggregate_dimension([vector])
        np.testing.assert_array_equal(ranks, vector)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            aggregate_dimension([np.array([1.0, 2.0]), np.array([1.0])])


class TestAggregateOverall:
    def test_published_overall(self, dimension_table):
        from conftest import OVERALL_RANKS, OVERALL_SCORES
        matrix, scores, ranks = aggregate_overall(
            [dimension_table.values[:, j] for j in range(4)],
            dimension_labels=dimension_table.criterion_labels,
            alternative_labels=dimension_table.alternative_labels)
        np.testing.assert_array_equal(matrix.values, dimension_table.values)
        np.testing.assert_allclose(scores, OVERALL_SCORES, atol=5e-5)
        np.testing.assert_array_equal(ranks, OVERALL_RANKS)

    def test_single_dimension_identity(self):
        vector = np.array([1.0, 3.0, 2.0])
        _, _, ranks = aggregate_overall([vector])
        np.testing.assert_array_equal(ranks, vector)

    def test_two_by_two_toy(self):
        _, scores, ranks = aggregate_overall(
            [np.array([1.0, 2.0]), np.array([1.0, 2.0])])
        np.testing.assert_allclose(scores, [2 / 3, 1 / 3], rtol=1e-12)
        np.testing.assert_array_equal(ranks, [1, 2])


class TestRunHra:
    def test_matches_reference_end_to_end(self, synthetic_dataset):
        ds = synthetic_dataset
        report = run_hra(ds)
        ref = oracle.run_hierarchy(ds.values, list(ds.algorithms),
                                   list(ds.functions), list(ds.dimensions),
                                   list(ds.measures))
        for key, ranks in report.leaf_ranks.items():
            np.testing.assert_array_equal(ranks, ref["leaf_ranks"][key])
        for d in ds.dimensions:
            np.testing.assert_array_equal(report.dimension_ranks[d],
                                          ref["dimension_ranks"][d])
        np.testing.assert_allclose(report.final_scores, ref["final_scores"],
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_array_equal(report.final_ranks, ref["final_ranks"])

    def test_invocation_count(self, synthetic_dataset):
        report = run_hra(synthetic_dataset)
        k = len(synthetic_dataset.dimensions)
        l = len(synthetic_dataset.measures)
        assert report.invocation_count == 1 + k + l * k == 13
        assert len(report.traces) == report.invocation_count

    def test_dimension_matrix_columns_equal_leaf_ranks(self,
                                                       synthetic_dataset):
        report = run_hra(synthetic_dataset)
        for d in synthetic_dataset.dimensions:
            matrix = report.dimension_matrices[d]
            for j, p in enumerate(synthetic_dataset.measures):
                np.testing.assert_array_equal(matrix.values[:, j],
                                              report.leaf_ranks[(d, p)])

    def test_deterministic(self, synthetic_dataset):
        first = run_hra(synthetic_dataset)
        second = run_hra(synthetic_dataset)
        np.testing.assert_array_equal(first.final_scores, second.final_scores)
        for key in first.leaf_ranks:
            np.testing.assert_array_equal(first.leaf_ranks[key],
                                          second.leaf_ranks[key])

    def test_axis_order_does_not_change_outcome(self, synthetic_dataset):
        ds = synthetic_dataset
        config = HraConfig(dimensions=tuple(reversed(ds.dimensions)),
                           measures=tuple(reversed(ds.measures)))
        shuffled = run_hra(ds, config)
        straight = run_hra(ds)
        np.testing.assert_array_equal(
            np.sort(shuffled.final_scores), np.sort(straight.final_scores))
        np.testing.assert_array_equal(shuffled.final_ranks,
                                      straight.final_ranks)

    def test_relabeling_equivariance(self, synthetic_dataset):
        ds = synthetic_dataset
        rng = np.random.default_rng(3)
        perm = rng.permutation(len(ds.algorithms))
        relabeled = PerformanceDataset(
            algorithms=tuple(ds.algorithms[i] for i in perm),
            functions=ds.functions, dimensions=ds.dimensions,
            measures=ds.measures,
            values={(d, p, a, f): v
                    for (d, p, a, f), v in ds.values.items()})
        base = run_hra(ds)
        permuted = run_hra(relabeled)
        np.testing.assert_array_equal(permuted.final_scores,
                                      base.final_scores[perm])
        np.testing.assert_array_equal(permuted.final_ranks,
                                      base.final_ranks[perm])

    def test_degenerate_collapse(self):
        # identical data everywhere: every vector is all-tied at every level
        m, n = 4, 3
        values = {(d, p, a, f): float(hash(f) % 7)
                  for d in (10, 20) for p in ("x", "y")
                  for a in ("a1", "a2", "a3", "a4")
                  for f in ("f1", "f2", "f3")}
        ds = PerformanceDataset(algorithms=("a1", "a2", "a3", "a4"),
                                functions=("f1", "f2", "f3"),
                                dimensions=(10, 20), measures=("x", "y"),
                                values=values)
        report = run_hra(ds)
        tied = np.full(m, (m + 1) / 2)
        for ranks in report.leaf_ranks.values():
            np.testing.assert_array_equal(ranks, tied)
        for d in (10, 20):
            np.testing.assert_array_equal(report.dimension_ranks[d], tied)
        np.testing.assert_array_equal(report.final_ranks, tied)

    def test_missing_cell_identified(self, synthetic_dataset):
        ds = synthetic_dataset
        values = dict(ds.values)
        gone = (ds.dimensions[1], "std", ds.algorithms[0], ds.functions[5])
        del values[gone]
        partial = PerformanceDataset(algorithms=ds.algorithms,
                                     functions=ds.functions,
                                     dimensions=ds.dimensions,
                                     measures=ds.measures, values=values)
        with pytest.raises(MissingCell) as excinfo:
            run_hra(partial)
        assert gone in excinfo.value.missing

    def test_custom_weights_reach_every_level(self):
        ds = random_dataset(m=4, n=3, k=2, l=2, seed=99)
        config = HraConfig.for_dataset(
            ds, function_weights=(0.5, 0.3, 0.2),
            measure_weights=(0.7, 0.3), dimension_weights=(0.9, 0.1))
        report = run_hra(ds, config)
        ref = oracle.run_hierarchy(
            ds.values, list(ds.algorithms), list(ds.functions),
            list(ds.dimensions), list(ds.measures),
            function_weights=[0.5, 0.3, 0.2], measure_weights=[0.7, 0.3],
            dimension_weights=[0.9, 0.1])
        np.testing.assert_allclose(report.final_scores, ref["final_scores"],
                                   rtol=1e-12)

    def test_maximize_objective_matches_reference(self):
        from hra import Objective
        ds = random_dataset(m=5, n=4, k=2, l=3, seed=12)
        config = HraConfig.for_dataset(ds,
                                       objectives={"p1": Objective.MAXIMIZE})
        report = run_hra(ds, config)
        ref = oracle.run_hierarchy(
            ds.values, list(ds.algorithms), list(ds.functions),
            list(ds.dimensions), list(ds.measures),
            maximize_measures=("p1",))
        for key, ranks in report.leaf_ranks.items():
            np.testing.assert_array_equal(ranks, ref["leaf_ranks"][key])
        np.testing.assert_array_equal(report.final_ranks, ref["final_ranks"])

    def test_weight_length_validated(self, synthetic_dataset):
        config = HraConfig.for_dataset(synthetic_dataset,
                                       function_weights=(0.5, 0.5))
        with pytest.raises(ShapeMismatch):
            run_hra(synthetic_dataset, config)


class TestEvaluationNodes:
    """A report is its algorithms plus one node per TOPSIS evaluation."""

    def test_report_fields(self):
        assert [f.name for f in dataclasses.fields(HraReport)] == \
            ["algorithms", "nodes"]

    def test_nodes_in_evaluation_order(self):
        ds = random_dataset(m=5, n=4, k=3, l=2, seed=3)
        report = run_hra(ds)
        leaves = [("leaf", d, p) for d in ds.dimensions for p in ds.measures]
        dimensions = [("dimension", d) for d in ds.dimensions]
        assert [node.key for node in report.nodes] == \
            leaves + dimensions + [("overall",)]
        assert len(report.nodes) == report.invocation_count == 1 + 3 + 2 * 3
        assert all(isinstance(node, Evaluation) for node in report.nodes)
        by_key = {node.key: node for node in report.nodes}
        for d in ds.dimensions:
            assert by_key["dimension", d].children == tuple(
                ("leaf", d, p) for p in ds.measures)
        assert by_key["overall",].children == tuple(dimensions)
        assert all(by_key[key].children == () for key in leaves)
        for node in report.nodes:
            for j, child in enumerate(node.children):
                np.testing.assert_array_equal(node.matrix.values[:, j],
                                              by_key[child].result.ranks)

    def test_specs_hold_the_weights_used(self):
        ds = random_dataset(m=4, n=3, k=2, l=2, seed=99)
        config = HraConfig.for_dataset(ds, function_weights=(0.5, 0.3, 0.2),
                                       dimension_weights=(0.9, 0.1))
        report = run_hra(ds, config)
        expected = {"leaf": [0.5, 0.3, 0.2], "dimension": [0.5, 0.5],
                    "overall": [0.9, 0.1]}
        for node in report.nodes:
            np.testing.assert_array_equal(node.spec.weights,
                                          expected[node.key[0]])
            assert node.spec.domains == ((0.0, 5.0),) * node.matrix.n

    def test_views_are_read_from_the_nodes(self, synthetic_dataset):
        report = run_hra(synthetic_dataset)
        by_key = {node.key: node for node in report.nodes}
        assert list(report.traces) == list(by_key)
        for key, result in report.traces.items():
            assert result is by_key[key].result
        for (d, p), ranks in report.leaf_ranks.items():
            assert ranks is by_key["leaf", d, p].result.ranks
        for d, matrix in report.dimension_matrices.items():
            assert matrix is by_key["dimension", d].matrix
            assert report.dimension_ranks[d] is \
                by_key["dimension", d].result.ranks
        overall = report.nodes[-1]
        assert report.final_matrix is overall.matrix
        assert report.final_scores is overall.result.closeness
        assert report.final_ranks is overall.result.ranks

    def test_decomposed_calls_are_bit_identical(self, synthetic_dataset):
        ds = synthetic_dataset
        report = run_hra(ds)
        by_key = {node.key: node for node in report.nodes}
        leaves = rank_dataset(ds)
        dimension_ranks = {}
        for d in ds.dimensions:
            vectors = []
            for p in ds.measures:
                np.testing.assert_array_equal(leaves[d, p].values,
                                              by_key["leaf", d, p].matrix.values)
                vectors.append(aggregate_leaf(leaves[d, p]))
                assert vectors[-1].tobytes() == \
                    by_key["leaf", d, p].result.ranks.tobytes()
            _, dimension_ranks[d] = aggregate_dimension(
                vectors, measure_labels=ds.measures,
                alternative_labels=ds.algorithms)
            assert dimension_ranks[d].tobytes() == \
                by_key["dimension", d].result.ranks.tobytes()
        matrix, scores, ranks = aggregate_overall(
            [dimension_ranks[d] for d in ds.dimensions],
            dimension_labels=ds.dimensions, alternative_labels=ds.algorithms)
        assert matrix.criterion_labels == \
            report.final_matrix.criterion_labels
        assert scores.tobytes() == report.final_scores.tobytes()
        assert ranks.tobytes() == report.final_ranks.tobytes()

    def test_missing_cells_listed_before_any_evaluation(self, monkeypatch):
        import hra
        calls = []
        monkeypatch.setattr(hra.hierarchy, "rtopsis",
                            lambda *args: calls.append(args))
        ds = random_dataset(m=3, n=2, k=2, l=2, seed=5)
        values = dict(ds.values)
        gone = [(10, "p1", "alg0", "f1"), (20, "p0", "alg2", "f0")]
        for key in gone:
            del values[key]
        partial = PerformanceDataset(
            algorithms=ds.algorithms, functions=ds.functions,
            dimensions=ds.dimensions, measures=ds.measures, values=values)
        with pytest.raises(MissingCell) as excinfo:
            run_hra(partial)
        assert excinfo.value.missing == gone
        assert calls == []

    def test_peak_memory_within_five_cube_sizes(self):
        # the nodes keep every leaf's rank matrix and its normalized and
        # weighted copies; ranking one leaf at a time keeps the rest small
        dataset = random_dataset(50, 100, 4, 5, seed=11)
        tracemalloc.start()
        try:
            run_hra(dataset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * dataset.array.nbytes


class TestHraConfig:
    def test_rejects_empty_axes(self):
        with pytest.raises(ShapeMismatch):
            HraConfig(dimensions=(), measures=("m",))

    def test_rejects_duplicate_measures(self):
        with pytest.raises(ShapeMismatch):
            HraConfig(dimensions=(1,), measures=("m", "m"))

    def test_rejects_unknown_objective_measure(self):
        from hra import Objective
        with pytest.raises(ShapeMismatch):
            HraConfig(dimensions=(1,), measures=("m",),
                      objectives={"zzz": Objective.MAXIMIZE})

    def test_rejects_wrong_level_weight_lengths(self):
        with pytest.raises(ShapeMismatch):
            HraConfig(dimensions=(1, 2), measures=("m",),
                      dimension_weights=(1.0,))
