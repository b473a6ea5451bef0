"""Unit and integration tests for the three-level aggregation."""

import dataclasses
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracle
from conftest import count_evaluations, random_dataset
from hra import (
    CriteriaSpec,
    DecisionMatrix,
    Direction,
    EmptyMatrix,
    HraConfig,
    InvalidWeights,
    MissingCell,
    ParseError,
    PerformanceDataset,
    ShapeMismatch,
    aggregate_dimension,
    aggregate_leaf,
    aggregate_overall,
    fixtures,
    TopsisResult,
    rank_columns,
    rtopsis,
    run_hra,
    scores_to_ranks,
    squared_gaps,
)
from hra.hierarchy import Evaluation, HraReport
from hra.topsis import check_weights
from test_properties import assert_gaps_rebuild


class TestAggregateLeaf:
    def test_dominating_row_ranks_first(self):
        rm = DecisionMatrix([[1, 1, 1], [2, 3, 2], [3, 2, 3]])
        ranks = aggregate_leaf(rm)
        assert ranks[0] == 1.0

    def test_identical_rows_tie(self):
        rm = DecisionMatrix([[1.5, 1.5], [1.5, 1.5], [3.0, 3.0]])
        np.testing.assert_array_equal(aggregate_leaf(rm), [1.5, 1.5, 3.0])

    def test_matches_reference(self, synthetic_dataset):
        ds = synthetic_dataset
        d, p = ds.dimensions[0], ds.measures[0]
        raw = [[ds.values[(d, p, a, f)] for f in ds.functions]
               for a in ds.algorithms]
        ranked = oracle.rank_columns(raw)
        expected, _ = oracle.rtopsis_ranks(ranked)
        rm = DecisionMatrix(np.array(ranked), ds.algorithms, ds.functions)
        np.testing.assert_array_equal(aggregate_leaf(rm), expected)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_dropped_alternatives_keep_the_domain(self, data):
        # the reduced matrix is scored on the full matrix's rank domain, so
        # the kept rows rank as their full-matrix scores do
        m = data.draw(st.integers(1, 8), label="m")
        n = data.draw(st.integers(1, 5), label="n")
        raw = data.draw(arrays(float, (m, n), elements=st.integers(0, 3)))
        matrix = rank_columns(DecisionMatrix(raw))
        kept = sorted(data.draw(st.sets(st.integers(0, m - 1), min_size=1),
                                label="kept"))
        gone = [a for i, a in enumerate(matrix.alternative_labels)
                if i not in kept]
        expected = scores_to_ranks(rtopsis(matrix).closeness[kept])
        assert aggregate_leaf(matrix.drop_alternatives(*gone)).tobytes() \
            == expected.tobytes()

    def test_no_caller_array_changes_its_flags(self):
        matrix = DecisionMatrix([[1.0, 2.0], [2.0, 1.0]])
        matrix.values.flags.writeable = True  # the matrix owns its copy
        aggregate_leaf(matrix)
        assert matrix.values.flags.writeable
        vectors = [np.array([1.0, 2.0]), np.array([2.0, 1.0])]
        joined, _ = aggregate_dimension(vectors)
        aggregate_overall(vectors)
        assert all(v.flags.writeable for v in vectors)
        vectors[0][0] = 2.0
        assert joined.values.tolist() == [[1.0, 2.0], [2.0, 1.0]]
        assert not joined.values.flags.writeable


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
        for node in report.level("dimension"):
            d, matrix = node.key[1], node.matrix
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
        ds = random_dataset(m=5, n=4, k=2, l=3, seed=12)
        config = HraConfig.for_dataset(ds,
                                       objectives={"p1": Direction.BENEFIT})
        report = run_hra(ds, config)
        ref = oracle.run_hierarchy(
            ds.values, list(ds.algorithms), list(ds.functions),
            list(ds.dimensions), list(ds.measures),
            maximize_measures=("p1",))
        for key, ranks in report.leaf_ranks.items():
            np.testing.assert_array_equal(ranks, ref["leaf_ranks"][key])
        np.testing.assert_array_equal(report.final_ranks, ref["final_ranks"])

    def test_weight_length_validated(self, synthetic_dataset, monkeypatch):
        # the config holds no functions axis: run_hra checks function_weights
        # against the dataset's functions, however the config was built,
        # before any leaf, and the message names the vector first
        calls = count_evaluations(monkeypatch)
        ds = synthetic_dataset
        for config in (HraConfig.for_dataset(ds, function_weights=(0.5, 0.5)),
                       HraConfig(ds.dimensions, ds.measures, (0.5, 0.5))):
            with pytest.raises(ShapeMismatch) as excinfo:
                run_hra(ds, config)
            assert str(excinfo.value) == \
                "function_weights: expected 6 weights, got 2"
        assert calls == []

    def test_function_weight_sum_validated(self, synthetic_dataset,
                                           monkeypatch):
        calls = count_evaluations(monkeypatch)
        ds = synthetic_dataset
        config = HraConfig.for_dataset(ds, function_weights=[0.5] * 6)
        with pytest.raises(InvalidWeights) as excinfo:
            run_hra(ds, config)
        assert str(excinfo.value) == (
            "function_weights: weights [0.5 0.5 0.5 0.5 0.5 0.5] sum to 3.0, "
            "expected 1 within 1e-12")
        assert calls == []


class TestEvaluationNodes:
    """A report is its algorithms plus one node per TOPSIS evaluation."""

    def test_report_fields(self):
        assert [f.name for f in dataclasses.fields(HraReport)] == \
            ["algorithms", "nodes"]
        assert [f.name for f in dataclasses.fields(Evaluation)] == \
            ["key", "result", "children"]
        assert [f.name for f in dataclasses.fields(TopsisResult)] == \
            ["matrix", "spec", "s_plus", "s_minus", "closeness", "ranks"]

    def test_stored_arrays_are_read_only(self, synthetic_dataset):
        for node in run_hra(synthetic_dataset).nodes:
            result = node.result
            assert node.matrix is result.matrix and node.spec is result.spec
            for array in (result.matrix.values, result.spec.weights,
                          result.s_plus, result.s_minus, result.closeness,
                          result.ranks):
                assert not array.flags.writeable
        # each read of the trace is built afresh, so writing into one
        # leaves the stored state and the next read as they were
        trace = result.trace
        expected = trace.normalized.copy()
        trace.normalized[...] = -1.0
        np.testing.assert_array_equal(result.trace.normalized, expected)

    def test_squared_gaps_rebuild_every_node(self, synthetic_dataset):
        for node in run_hra(synthetic_dataset).nodes:
            trace = node.result.trace
            assert_gaps_rebuild(
                squared_gaps(trace.weighted, trace.pis, trace.nis),
                (node.result.s_plus, node.result.s_minus))

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
        for d in report.dimension_ranks:
            assert report.dimension_ranks[d] is \
                by_key["dimension", d].result.ranks
        overall = report.nodes[-1]
        assert report.final_scores is overall.result.closeness
        assert report.final_ranks is overall.result.ranks

    def test_decomposed_calls_are_bit_identical(self, synthetic_dataset):
        ds = synthetic_dataset
        report = run_hra(ds)
        by_key = {node.key: node for node in report.nodes}
        dimension_ranks = {}
        for d in ds.dimensions:
            vectors = []
            for p in ds.measures:
                leaf = rank_columns(ds.matrix(d, p))
                np.testing.assert_array_equal(leaf.values,
                                              by_key["leaf", d, p].matrix.values)
                vectors.append(aggregate_leaf(leaf))
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
            report.nodes[-1].matrix.criterion_labels
        assert scores.tobytes() == report.final_scores.tobytes()
        assert ranks.tobytes() == report.final_ranks.tobytes()

    def test_missing_cells_listed_before_any_evaluation(self, monkeypatch):
        calls = count_evaluations(monkeypatch)
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

    def test_dimensions_equal_as_text_fail_before_any_evaluation(
            self, monkeypatch):
        # both would be written as dimension_10.csv and both label a
        # column '10' of the overall matrix
        calls = count_evaluations(monkeypatch)
        with pytest.raises(ShapeMismatch, match="would reload as 10"):
            run_hra(PerformanceDataset.from_array(
                algorithms=("a", "b"), functions=("f",),
                dimensions=(10, "10"), measures=("best",),
                array=np.arange(4.0).reshape(2, 1, 2, 1)))
        assert calls == []

    def test_peak_memory_within_two_cube_sizes_and_one_and_a_half_kept(
            self):
        # the nodes keep each leaf's rank matrix and their per-row vectors,
        # and derive the trace on read; the missing-cell check builds a
        # boolean mask, and each leaf is copied out of the cube only when it
        # is ranked
        dataset = random_dataset(50, 100, 4, 5, seed=11)
        tracemalloc.start()
        try:
            report = run_hra(dataset)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.invocation_count == 1 + 4 + 5 * 4
        assert peak <= 2 * dataset.array.nbytes
        assert kept <= 1.5 * dataset.array.nbytes


def per_node(ds, config) -> dict:
    """Every node's TopsisResult by the public per-node calls: rank_columns,
    then rtopsis under the level's rank spec, node by node. aggregate_leaf,
    aggregate_dimension and aggregate_overall give the same bits."""
    m = len(ds.algorithms)
    results = {}

    def evaluate(key, matrix, weights):
        results[key] = rtopsis(matrix, CriteriaSpec.for_ranks(m, matrix.n,
                                                              weights))
        return results[key].ranks

    dimension_ranks = []
    for d in config.dimensions:
        leaf_ranks = []
        for p in config.measures:
            leaf = rank_columns(ds.matrix(d, p), config.objective_for(p))
            leaf_ranks.append(evaluate(("leaf", d, p), leaf,
                                       config.function_weights))
            assert aggregate_leaf(leaf, config.function_weights).tobytes() \
                == leaf_ranks[-1].tobytes()
        matrix, ranks = aggregate_dimension(
            leaf_ranks, config.measure_weights, config.measures,
            ds.algorithms)
        dimension_ranks.append(evaluate(("dimension", d), matrix,
                                        config.measure_weights))
        assert ranks.tobytes() == dimension_ranks[-1].tobytes()
    matrix, scores, ranks = aggregate_overall(
        dimension_ranks, config.dimension_weights, config.dimensions,
        ds.algorithms)
    overall = results["overall",] = rtopsis(matrix, CriteriaSpec.for_ranks(
        m, matrix.n, config.dimension_weights))
    assert scores.tobytes() == overall.closeness.tobytes()
    assert ranks.tobytes() == overall.ranks.tobytes()
    return results


def assert_matches_per_node(report, expected: dict):
    """Each node's matrix and four vectors equal the per-node path's, byte
    for byte, and so do the labels and weights it read."""
    assert sorted(map(repr, expected)) == sorted(repr(n.key) for n in
                                                 report.nodes)
    for node in report.nodes:
        want = expected[node.key]
        assert node.matrix.values.tobytes() == want.matrix.values.tobytes()
        assert node.matrix.alternative_labels == want.matrix.alternative_labels
        assert node.matrix.criterion_labels == want.matrix.criterion_labels
        assert node.spec.weights.tobytes() == want.spec.weights.tobytes()
        assert node.spec.domains == want.spec.domains
        for field in ("s_plus", "s_minus", "closeness", "ranks"):
            mine, theirs = getattr(node.result, field), getattr(want, field)
            assert (mine.dtype, mine.shape, mine.tobytes()) == \
                (theirs.dtype, theirs.shape, theirs.tobytes()), \
                (node.key, field)


def benchmark_dataset(monkeypatch, shape, seed) -> PerformanceDataset:
    """The benchmark's simulated cube, from perfbench/workloads.py."""
    monkeypatch.syspath_prepend(Path(__file__).resolve().parent.parent
                                / "perfbench")
    import workloads

    algorithms, functions = workloads.Shape(*shape).labels()
    cube = workloads.simulate(workloads.Shape(*shape), seed)
    return PerformanceDataset.from_array(
        algorithms=algorithms, functions=functions,
        dimensions=cube.dimensions, measures=workloads.MEASURES,
        array=cube.stats.transpose(0, 3, 1, 2))


@st.composite
def configured_datasets(draw):
    """A dataset of integer values 0-3, so most leaves hold ties, and a
    config over a subset of its dimensions and measures in any order, with
    or without weights at each level and benefit measures; and a block
    size for topsis_stack."""
    k, l, m, n = (draw(st.integers(1, top)) for top in (3, 4, 6, 5))
    ds = PerformanceDataset.from_array(
        algorithms=tuple(f"a{i}" for i in range(m)),
        functions=tuple(f"f{j}" for j in range(n)),
        dimensions=tuple(10 * (d + 1) for d in range(k)),
        measures=tuple(f"p{q}" for q in range(l)),
        array=draw(arrays(float, (k, l, m, n),
                          elements=st.sampled_from([0.0, 1.0, 2.0, 3.0]))))

    def subset(axis):
        order = draw(st.permutations(axis))
        return tuple(order[:draw(st.integers(1, len(axis)))])

    def weights(size):
        drawn = draw(st.none() | st.lists(st.integers(1, 9), min_size=size,
                                          max_size=size))
        return None if drawn is None else tuple(np.array(drawn) / sum(drawn))

    dimensions, measures = subset(ds.dimensions), subset(ds.measures)
    config = HraConfig(
        dimensions, measures, function_weights=weights(n),
        measure_weights=weights(len(measures)),
        dimension_weights=weights(len(dimensions)),
        objectives={p: Direction.BENEFIT
                    for p in draw(st.sets(st.sampled_from(measures)))})
    return ds, config, draw(st.integers(1, 64))


class TestStackKernel:
    """run_hra's three batched kernel calls give every node the bits of the
    per-node public path."""

    def test_three_kernel_calls_make_every_evaluation(self, monkeypatch):
        # the positive control for the tests that forbid any evaluation:
        # the same patch sees all 25 evaluations of a valid run
        calls = count_evaluations(monkeypatch)
        report = run_hra(random_dataset(m=6, n=8, k=4, l=5, seed=55))
        assert calls == [20, 4, 1]
        assert report.invocation_count == sum(calls) == 25

    @pytest.mark.parametrize("shape, seed", [
        ((13, 30), 1), ((13, 30), 16), ((100, 300), 2)],
        ids=["1", "16", "100x300-2"])
    def test_benchmark_cubes(self, monkeypatch, shape, seed):
        # seed 16's overall node splits alg-006 and alg-001 on rounding;
        # 100x300 is the large-run cube, which topsis_stack takes in many
        # blocks per level
        ds = benchmark_dataset(monkeypatch, shape, seed)
        config = HraConfig.for_dataset(ds)
        assert_matches_per_node(run_hra(ds, config), per_node(ds, config))

    def test_each_input_is_checked_once(self, monkeypatch):
        # one checked matrix per level and one missing-cell scan; each leaf
        # is ranked from its slice of the cube, not gathered into a matrix
        calls = {"checked": 0, "missing_cells": 0}

        def counting(owner, name, key):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        def refuse(*args, **kwargs):
            raise AssertionError("run_hra gathered or ranked a leaf matrix")

        ds = random_dataset(m=6, n=8, k=4, l=5, seed=55)
        counting(DecisionMatrix, "__post_init__", "checked")
        counting(PerformanceDataset, "missing_cells", "missing_cells")
        monkeypatch.setattr(PerformanceDataset, "matrix", refuse)
        for module in ("hra.topsis", "hra.hierarchy"):
            monkeypatch.setattr(sys.modules[module], "rank_columns", refuse,
                                raising=False)
        report = run_hra(ds)
        assert calls == {"checked": 3, "missing_cells": 1}
        assert report.invocation_count == 25

    @given(configured_datasets())
    @settings(max_examples=150, deadline=None)
    def test_any_config(self, case):
        ds, config, block = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sys.modules["hra.topsis"], "BLOCK_VALUES", block)
            report = run_hra(ds, config)
        assert_matches_per_node(report, per_node(ds, config))


class TestHraConfig:
    def test_rejects_empty_axes(self):
        with pytest.raises(ShapeMismatch):
            HraConfig(dimensions=(), measures=("m",))

    def test_rejects_duplicate_measures(self):
        with pytest.raises(ShapeMismatch):
            HraConfig(dimensions=(1,), measures=("m", "m"))

    def test_rejects_unknown_objective_measure(self):
        with pytest.raises(ShapeMismatch):
            HraConfig(dimensions=(1,), measures=("m",),
                      objectives={"zzz": Direction.BENEFIT})

    def test_objective_values_become_directions(self):
        config = HraConfig(dimensions=(1,), measures=("m", "n"),
                           objectives={"m": "benefit"})
        assert config.objective_for("m") is Direction.BENEFIT
        assert config.objective_for("n") is Direction.COST

    def test_rejects_wrong_level_weight_lengths(self):
        with pytest.raises(ShapeMismatch):
            HraConfig(dimensions=(1, 2), measures=("m",),
                      dimension_weights=(1.0,))

    def test_objectives_cannot_change(self):
        config = HraConfig(dimensions=(1,), measures=("m", "n"),
                           objectives={"n": "benefit"})
        assert config.objectives == (("n", Direction.BENEFIT),)
        with pytest.raises(TypeError):
            config.objectives["n"] = "sideways"
        assert config.objective_for("n") is Direction.BENEFIT

    def test_equal_configs_hash_alike(self):
        def build():
            return HraConfig(dimensions=[10, 30], measures=["a", "b"],
                             function_weights=[0.25, 0.75],
                             measure_weights=[0.5, 0.5],
                             dimension_weights=np.array([0.4, 0.6]),
                             objectives={"b": Direction.BENEFIT, "a": "cost"})
        assert build() == build()
        assert hash(build()) == hash(build())
        assert len({build(), build()}) == 1

    def test_weights_as_numbers_in_text_or_from_an_iterator(self):
        config = HraConfig(dimensions=(10, 30), measures=("a",),
                           function_weights=(w for w in (0.25, 0.75)),
                           dimension_weights=("0.5", "0.5"))
        assert config.function_weights == (0.25, 0.75)
        assert config.dimension_weights == (0.5, 0.5)

    def test_caller_lists_do_not_reach_the_config(self):
        weights = {name: [0.5, 0.5] for name in
                   ("function_weights", "measure_weights",
                    "dimension_weights")}
        objectives = {"a": "benefit"}
        config = HraConfig(dimensions=(10, 30), measures=("a", "b"),
                           objectives=objectives, **weights)
        for name, vector in weights.items():
            vector[0] = 0.9
            assert getattr(config, name) == (0.5, 0.5)
        objectives["b"] = "benefit"
        assert config.objectives == (("a", Direction.BENEFIT),)


FIVE = ("best", "worst", "median", "mean", "std")


@pytest.mark.parametrize("build, error, message", [
    (lambda: HraConfig(dimensions=(10, 10), measures=("best",)),
     ShapeMismatch, "duplicate dimension 10"),
    (lambda: HraConfig(dimensions=(10, 30, "10"), measures=("best",)),
     ShapeMismatch, "dimension '10' would reload as 10"),
    (lambda: HraConfig(dimensions=("10",), measures=("best",)),
     ShapeMismatch, "dimension '10' would reload as 10"),
    (lambda: HraConfig(dimensions=(10,), measures=("1", 2, 1)),
     ShapeMismatch, "measure 2 would reload as '2'"),
    (lambda: HraConfig(dimensions=(10,), measures=(" m",)),
     ShapeMismatch, "measure ' m' would reload as 'm'"),
    (lambda: HraConfig(dimensions=(10,), measures=("best",),
                       objectives={"best": "sideways"}),
     ShapeMismatch, "'sideways' is not a valid Direction"),
    (lambda: HraConfig(dimensions=(10,), measures=("best",),
                       objectives={"best": "maximize"}),
     ShapeMismatch, "'maximize' is not a valid Direction"),
    (lambda: HraConfig(dimensions=(10,), measures=FIVE,
                       measure_weights=(0.3,) * 5),
     InvalidWeights, "measure_weights: weights [0.3 0.3 0.3 0.3 0.3] sum to "
                     "1.5, expected 1 within 1e-12"),
    (lambda: HraConfig(dimensions=(10,), measures=FIVE,
                       measure_weights=(0.5, 0.5, 0.0, 0.0, 0.0)),
     InvalidWeights, "measure_weights: weights must be strictly positive, "
                     "got [0.5 0.5 0.  0.  0. ]"),
    (lambda: HraConfig(dimensions=(10,), measures=FIVE,
                       measure_weights=(0.5, 0.5)),
     ShapeMismatch, "measure_weights: expected 5 weights, got 2"),
    (lambda: HraConfig(dimensions=(10, 30), measures=("best",),
                       dimension_weights=(0.9, 0.5)),
     InvalidWeights, "dimension_weights: weights [0.9 0.5] sum to 1.4, "
                     "expected 1 within 1e-12"),
    (lambda: HraConfig(dimensions=(10, 30), measures=("best",),
                       dimension_weights=(1.5, -0.5)),
     InvalidWeights, "dimension_weights: weights must be strictly positive, "
                     "got [ 1.5 -0.5]"),
    (lambda: HraConfig(dimensions=(10, 30), measures=("best",),
                       dimension_weights=(1.0,)),
     ShapeMismatch, "dimension_weights: expected 2 weights, got 1"),
    (lambda: HraConfig(dimensions=(10,), measures=("a",),
                       measure_weights=("x",)),
     InvalidWeights, "measure_weights: weights must be real numbers, got "
                     "('x',)"),
    (lambda: HraConfig(dimensions=(10,), measures=("a",),
                       dimension_weights=(1 + 0j,)),
     InvalidWeights, "dimension_weights: weights must be real numbers, got "
                     "((1+0j),)"),
    (lambda: HraConfig(dimensions=(10,), measures=("a",),
                       function_weights=("x",)),
     InvalidWeights, "function_weights: weights must be real numbers, got "
                     "('x',)"),
    (lambda: HraConfig(dimensions=(10,), measures=("a",),
                       function_weights=(0.5, 1j)),
     InvalidWeights, "function_weights: weights must be real numbers, got "
                     "(0.5, 1j)"),
    (lambda: HraConfig(dimensions=(10,), measures=("a",),
                       function_weights=((0.5, 0.5),)),
     ShapeMismatch, "function_weights: expected a vector of weights, got an "
                    "array of shape (1, 2)"),
    (lambda: check_weights("w", [1j], 1),
     InvalidWeights, "w: weights must be real numbers, got [1j]"),
    (lambda: check_weights("w", [0.5, None], 2),
     InvalidWeights, "w: weights contain non-finite values"),
    (lambda: HraConfig(dimensions=(10,), measures="best"),
     ShapeMismatch, "measures must be a sequence of labels, got 'best'"),
    (lambda: HraConfig(dimensions=b"10", measures=("best",)),
     ShapeMismatch, "dimensions must be a sequence of labels, got b'10'"),
    (lambda: HraConfig(dimensions=10, measures=("best",)),
     ShapeMismatch, "dimensions must be a sequence of labels, got 10"),
    (lambda: aggregate_dimension([]),
     EmptyMatrix, "no rank vectors to join"),
    (lambda: aggregate_overall([]),
     EmptyMatrix, "no rank vectors to join"),
    (lambda: aggregate_dimension([np.ones(2)], measure_labels="P"),
     ShapeMismatch, "criterion_labels must be a sequence of labels, got 'P'"),
    (lambda: HraConfig(dimensions=(10,), measures=("a",), objectives=5),
     ShapeMismatch, "objectives must map measures to directions, got 5"),
    (lambda: HraConfig(dimensions=(10,), measures=("a",), objectives=["a"]),
     ShapeMismatch, "objectives must map measures to directions, got ['a']"),
    (lambda: aggregate_dimension([["a"]]),
     ParseError, "rank vector 0: could not convert string to float: 'a'"),
], ids=["repeated-dimension", "dimensions-equal-as-text", "text-dimension",
        "measures-equal-as-text", "blank-edged-measure", "misspelt-objective",
        "removed-objective", "measure-weights-sum",
        "measure-weights-not-positive", "measure-weights-count",
        "dimension-weights-sum", "dimension-weights-not-positive",
        "dimension-weights-count", "measure-weight-text",
        "dimension-weight-complex",
        "function-weight-text", "function-weight-complex",
        "function-weights-not-a-vector", "complex-weight",
        "missing-weight", "text-measures", "bytes-dimensions",
        "int-dimensions", "no-leaf-ranks", "no-dimension-ranks",
        "text-measure-labels", "int-objectives", "objectives-not-pairs",
        "text-rank-vector"])
def test_raise_sites(build, error, message):
    with pytest.raises(error) as excinfo:
        build()
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message
