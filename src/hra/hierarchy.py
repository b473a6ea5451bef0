"""Three-level aggregation tree over a performance dataset.

Level 1 turns every (dimension, measure) leaf into a rank vector, level 2
joins the measure vectors of each dimension into one per-dimension ranking,
and level 3 joins the dimensions into the overall ranking. Every node of
the tree is one fixed-domain TOPSIS evaluation, so a full run costs exactly
1 + k + l*k evaluations for k dimensions and l measures; run_hra makes them
in three calls of the kernel `topsis.topsis_stack`, one per level. One
builder, _level, turns a stack of rank matrices into nodes, for run_hra's
levels and for the decomposed calls aggregate_leaf, aggregate_dimension and
aggregate_overall alike, each a stack of one.

Vectors passed between levels are ranks, not raw closeness scores.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

from ._blas import np
from .dataio import PerformanceDataset
from .exceptions import EmptyMatrix, MissingCell, ShapeMismatch
from .files import _parse_dimension, check_labels, label_tuple
from .topsis import (CriteriaSpec, DecisionMatrix, Direction, TopsisResult,
                      _real_values, _sharing, check_weights, mean_ranks,
                      topsis_stack)


@dataclass(frozen=True)
class HraConfig:
    """Which dimensions/measures to aggregate, and the weights per level.

    Weight vectors left as None mean equal weights. measure_weights and
    dimension_weights are checked by `check_weights` when the config is
    built; the config holds no functions axis, so it checks only that
    function_weights is a vector of real numbers, and run_hra checks it
    against the dataset. Every message names its vector.
    Measures default to Direction.COST (smaller is better); `objectives`
    maps a measure to another direction, such as {"p": Direction.BENEFIT},
    and is stored as (measure, Direction) pairs in measures order. Every
    field is a tuple, so a config cannot change and hashes.
    """

    dimensions: tuple
    measures: tuple[str, ...]
    function_weights: tuple[float, ...] | None = None
    measure_weights: tuple[float, ...] | None = None
    dimension_weights: tuple[float, ...] | None = None
    objectives: tuple[tuple[str, Direction], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "dimensions",
                           label_tuple("dimensions", self.dimensions))
        object.__setattr__(self, "measures",
                           label_tuple("measures", self.measures))
        if len(self.dimensions) < 1 or len(self.measures) < 1:
            raise ShapeMismatch("config needs at least one dimension and "
                                "one measure")
        check_labels("dimension", self.dimensions, _parse_dimension)
        check_labels("measure", self.measures)
        object.__setattr__(self, "function_weights", check_weights(
            "function_weights", self.function_weights))
        object.__setattr__(self, "measure_weights", check_weights(
            "measure_weights", self.measure_weights, len(self.measures)))
        object.__setattr__(self, "dimension_weights", check_weights(
            "dimension_weights", self.dimension_weights, len(self.dimensions)))
        try:
            given = dict(self.objectives or ())
        except (TypeError, ValueError):
            raise ShapeMismatch(f"objectives must map measures to directions, "
                                f"got {self.objectives!r}") from None
        unknown = set(given) - set(self.measures)
        if unknown:
            raise ShapeMismatch(f"objectives name unknown measures: "
                                f"{sorted(unknown)}")
        object.__setattr__(self, "objectives", tuple(
            (p, Direction(given[p])) for p in self.measures if p in given)
            or None)

    @classmethod
    def for_dataset(cls, dataset: PerformanceDataset,
                    **kwargs) -> "HraConfig":
        return cls(dimensions=dataset.dimensions, measures=dataset.measures,
                   **kwargs)

    def objective_for(self, measure: str) -> Direction:
        return dict(self.objectives or ()).get(measure, Direction.COST)


@dataclass(frozen=True)
class Evaluation:
    """One node of the tree: a single fixed-domain TOPSIS evaluation.

    key is ("leaf", d, p), ("dimension", d) or ("overall",); result holds
    the matrix and spec it read (the spec has the weights actually used);
    children are the keys of the nodes whose rank vectors are the matrix's
    columns, none for a leaf.
    """

    key: tuple
    result: TopsisResult
    children: tuple[tuple, ...] = ()

    matrix = property(lambda self: self.result.matrix)
    spec = property(lambda self: self.result.spec)


@dataclass(frozen=True)
class HraReport:
    """One aggregation run: the algorithms, which label every matrix row,
    and the nodes in evaluation order: the leaves dimension by dimension,
    then the dimensions, then the overall node. The other attributes are
    views derived from the nodes."""

    algorithms: tuple[str, ...]
    nodes: tuple[Evaluation, ...] = field(repr=False)

    def level(self, name: str) -> tuple[Evaluation, ...]:
        """The nodes whose key starts with name, in evaluation order."""
        return tuple(node for node in self.nodes if node.key[0] == name)

    traces = property(lambda self: {n.key: n.result for n in self.nodes})
    invocation_count = property(lambda self: len(self.nodes))
    leaf_ranks = property(lambda self: {
        n.key[1:]: n.result.ranks for n in self.level("leaf")})
    dimension_ranks = property(lambda self: {
        n.key[1]: n.result.ranks for n in self.level("dimension")})
    final_scores = property(lambda self: self.nodes[-1].result.closeness)
    final_ranks = property(lambda self: self.nodes[-1].result.ranks)


def _level(keys, stack: np.ndarray, criterion_labels, algorithms, weights,
           children=itertools.repeat(()), domain_rows=None
           ) -> tuple[list, np.ndarray]:
    """One kernel call over a level's (..., m, n) stack of rank matrices,
    whose leading axes run in key order: the level's nodes and its (..., m)
    ranks. Labels and domain_rows are checked once, on the first matrix;
    every node's matrix shares them and holds its slice of a read-only view
    of the stack, which the caller owns and never writes."""
    criteria = label_tuple("criterion_labels", criterion_labels)
    first = DecisionMatrix(stack[(0,) * (stack.ndim - 2)], algorithms,
                           tuple(map(str, criteria)), domain_rows)
    stack = stack.view()
    stack.flags.writeable = False
    m, n = stack.shape[-2:]
    spec = CriteriaSpec.for_ranks(first.domain_rows, n, weights)
    vectors = topsis_stack(stack, spec, first.alternative_labels,
                           first.criterion_labels)
    rows = zip(stack.reshape(-1, m, n), *(v.reshape(-1, m) for v in vectors))
    return [Evaluation(key, TopsisResult(_sharing(values, first), spec, *row),
                       kids) for key, kids, (values, *row)
            in zip(keys, children, rows)], vectors[3]


def _join(vectors: Sequence[np.ndarray], weights, criterion_labels,
          alternative_labels, prefix: str) -> TopsisResult:
    """The node of one matrix whose columns are the rank vectors, labelled
    by criterion_labels as text (prefix1, prefix2, ... when None)."""
    vectors = [_real_values(f"rank vector {j}", v) for j, v in
               enumerate(label_tuple("rank vectors", vectors, "vectors"))]
    if not vectors:
        raise EmptyMatrix("no rank vectors to join")
    sizes = {v.shape for v in vectors}
    if len(sizes) != 1 or vectors[0].ndim != 1:
        raise ShapeMismatch(f"rank vectors have inconsistent shapes: {sizes}")
    if criterion_labels is None:
        criterion_labels = [f"{prefix}{j + 1}" for j in range(len(vectors))]
    [node], _ = _level([()], np.stack(vectors, axis=1), criterion_labels,
                       alternative_labels or (), weights)
    return node.result


def aggregate_leaf(rank_matrix: DecisionMatrix,
                   function_weights: Sequence[float] | None = None
                   ) -> np.ndarray:
    """Rank vector of one (dimension, measure) leaf."""
    return _level([()], rank_matrix.values, rank_matrix.criterion_labels,
                  rank_matrix.alternative_labels, function_weights,
                  domain_rows=rank_matrix.domain_rows)[1]


def aggregate_dimension(leaf_ranks: Sequence[np.ndarray],
                        measure_weights: Sequence[float] | None = None,
                        measure_labels: Sequence[str] | None = None,
                        alternative_labels: Sequence[str] | None = None,
                        ) -> tuple[DecisionMatrix, np.ndarray]:
    """Join the per-measure rank vectors of one dimension: the matrix
    (columns in measure order) and the dimension's rank vector."""
    result = _join(leaf_ranks, measure_weights, measure_labels,
                   alternative_labels, "P")
    return result.matrix, result.ranks


def aggregate_overall(dimension_ranks: Sequence[np.ndarray],
                      dimension_weights: Sequence[float] | None = None,
                      dimension_labels: Sequence[str] | None = None,
                      alternative_labels: Sequence[str] | None = None,
                      ) -> tuple[DecisionMatrix, np.ndarray, np.ndarray]:
    """Join the per-dimension rank vectors into the final ranking: the final
    matrix, the closeness scores and the overall ranks."""
    result = _join(dimension_ranks, dimension_weights, dimension_labels,
                   alternative_labels, "D")
    return result.matrix, result.closeness, result.ranks


def run_hra(dataset: PerformanceDataset,
            config: HraConfig | None = None) -> HraReport:
    """Full three-level aggregation of a complete dataset.

    Deterministic: identical inputs give bit-identical reports. The report
    holds one node per TOPSIS evaluation, always 1 + k + l*k of them, from
    three kernel calls: the (k, l, m, n) stack of leaf rank matrices, the
    (k, m, l) stack of dimension matrices and the (m, k) overall matrix.
    function_weights, then every absent cell, is checked before any leaf is
    ranked. Each leaf is ranked straight from its (m, n) slice of the
    dataset's cube, as rank_columns ranks it, one leaf at a time, so the
    rank transform's temporaries stay leaf-sized.
    """
    if config is None:
        config = HraConfig.for_dataset(dataset)
    check_weights("function_weights", config.function_weights,
                  len(dataset.functions))
    missing = dataset.missing_cells(config.dimensions, config.measures)
    if missing:
        raise MissingCell(missing)
    dimensions, measures = config.dimensions, config.measures
    algorithms = dataset.algorithms
    d_index, p_index = dataset._index[:2]
    leaves = np.empty((len(dimensions), len(measures))
                      + dataset.array.shape[2:])
    for i, d in enumerate(dimensions):
        for j, p in enumerate(measures):
            values = dataset.array[d_index[d], p_index[p]]
            if config.objective_for(p) is Direction.BENEFIT:
                values = -values
            leaves[i, j] = mean_ranks(values, axis=0)
    leaf_keys = [tuple(("leaf", d, p) for p in measures) for d in dimensions]
    dimension_keys = tuple(("dimension", d) for d in dimensions)
    leaf_nodes, leaf_ranks = _level(
        itertools.chain(*leaf_keys), leaves, dataset.functions, algorithms,
        config.function_weights)
    dimension_nodes, dimension_ranks = _level(
        dimension_keys, np.ascontiguousarray(leaf_ranks.transpose(0, 2, 1)),
        measures, algorithms, config.measure_weights, leaf_keys)
    overall, _ = _level(
        [("overall",)], np.ascontiguousarray(dimension_ranks.T), dimensions,
        algorithms, config.dimension_weights, [dimension_keys])
    return HraReport(algorithms, tuple(leaf_nodes + dimension_nodes + overall))
