"""Three-level aggregation tree over a performance dataset.

Level 1 turns every (dimension, measure) leaf into a rank vector, level 2
joins the measure vectors of each dimension into one per-dimension ranking,
and level 3 joins the dimensions into the overall ranking. Every node of
the tree is one fixed-domain TOPSIS evaluation made by `evaluate`, so a
full run costs exactly 1 + k + l*k evaluations for k dimensions and l
measures.

Vectors passed between levels are ranks, not raw closeness scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .dataio import PerformanceDataset
from .exceptions import ShapeMismatch
from .ranking import Objective, RankMatrix, rank_leaves
from .rtopsis import CriteriaSpec, DecisionMatrix, TopsisResult, rtopsis


@dataclass(frozen=True)
class HraConfig:
    """Which dimensions/measures to aggregate, and the weights per level.

    Weight vectors left as None mean equal weights. Measures default to
    MINIMIZE; override individual ones through `objectives`.
    """

    dimensions: tuple
    measures: tuple[str, ...]
    function_weights: tuple[float, ...] | None = None
    measure_weights: tuple[float, ...] | None = None
    dimension_weights: tuple[float, ...] | None = None
    objectives: Mapping[str, Objective] | None = None

    def __post_init__(self):
        object.__setattr__(self, "dimensions", tuple(self.dimensions))
        object.__setattr__(self, "measures", tuple(self.measures))
        if len(self.dimensions) < 1 or len(self.measures) < 1:
            raise ShapeMismatch("config needs at least one dimension and "
                                "one measure")
        if len(set(self.dimensions)) != len(self.dimensions):
            raise ShapeMismatch(f"duplicate dimensions: {self.dimensions}")
        if len(set(self.measures)) != len(self.measures):
            raise ShapeMismatch(f"duplicate measures: {self.measures}")
        for name, weights, expected in (
                ("measure_weights", self.measure_weights, len(self.measures)),
                ("dimension_weights", self.dimension_weights,
                 len(self.dimensions))):
            if weights is not None and len(weights) != expected:
                raise ShapeMismatch(f"{name} has {len(weights)} entries, "
                                    f"expected {expected}")
        if self.objectives:
            unknown = set(self.objectives) - set(self.measures)
            if unknown:
                raise ShapeMismatch(f"objectives name unknown measures: "
                                    f"{sorted(unknown)}")

    @classmethod
    def for_dataset(cls, dataset: PerformanceDataset,
                    **kwargs) -> "HraConfig":
        return cls(dimensions=dataset.dimensions, measures=dataset.measures,
                   **kwargs)

    def objective_for(self, measure: str) -> Objective:
        return (self.objectives or {}).get(measure, Objective.MINIMIZE)


@dataclass(frozen=True)
class Evaluation:
    """One node of the tree: a single fixed-domain TOPSIS evaluation.

    key is ("leaf", d, p), ("dimension", d) or ("overall",); spec holds the
    weights actually used; children are the keys of the nodes whose rank
    vectors are the matrix's columns, none for a leaf.
    """

    key: tuple
    matrix: DecisionMatrix
    spec: CriteriaSpec
    result: TopsisResult
    children: tuple[tuple, ...] = ()


def evaluate(key: tuple, matrix: DecisionMatrix,
             weights: Sequence[float] | None = None,
             children: Sequence[tuple] = ()) -> Evaluation:
    """The tree's one kernel: cost criteria on the rank domain
    (0, domain_rows + 1), the given or equal weights, one rtopsis call."""
    spec = CriteriaSpec.for_ranks(matrix.domain_rows, matrix.n, weights)
    return Evaluation(key, matrix, spec, rtopsis(matrix, spec),
                      tuple(children))


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
    dimension_matrices = property(lambda self: {
        n.key[1]: n.matrix for n in self.level("dimension")})
    dimension_ranks = property(lambda self: {
        n.key[1]: n.result.ranks for n in self.level("dimension")})
    final_matrix = property(lambda self: self.nodes[-1].matrix)
    final_scores = property(lambda self: self.nodes[-1].result.closeness)
    final_ranks = property(lambda self: self.nodes[-1].result.ranks)


def _stack(vectors: Sequence[np.ndarray], criterion_labels,
           alternative_labels) -> DecisionMatrix:
    """Rank vectors as the columns of one matrix; criterion labels become
    strings, alternatives default to A1..Am."""
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    sizes = {v.shape for v in vectors}
    if len(sizes) != 1 or vectors[0].ndim != 1:
        raise ShapeMismatch(f"rank vectors have inconsistent shapes: {sizes}")
    return DecisionMatrix(np.column_stack(vectors),
                          tuple(alternative_labels or ()),
                          tuple(str(c) for c in criterion_labels))


def aggregate_leaf(rank_matrix: RankMatrix,
                   function_weights: Sequence[float] | None = None
                   ) -> np.ndarray:
    """Rank vector of one (dimension, measure) leaf."""
    return evaluate(("leaf",), rank_matrix, function_weights).result.ranks


def aggregate_dimension(leaf_ranks: Sequence[np.ndarray],
                        measure_weights: Sequence[float] | None = None,
                        measure_labels: Sequence[str] | None = None,
                        alternative_labels: Sequence[str] | None = None,
                        ) -> tuple[DecisionMatrix, np.ndarray]:
    """Join the per-measure rank vectors of one dimension: the matrix
    (columns in measure order) and the dimension's rank vector."""
    if measure_labels is None:
        measure_labels = [f"P{i + 1}" for i in range(len(leaf_ranks))]
    matrix = _stack(leaf_ranks, measure_labels, alternative_labels)
    node = evaluate(("dimension",), matrix, measure_weights)
    return node.matrix, node.result.ranks


def aggregate_overall(dimension_ranks: Sequence[np.ndarray],
                      dimension_weights: Sequence[float] | None = None,
                      dimension_labels: Sequence[str] | None = None,
                      alternative_labels: Sequence[str] | None = None,
                      ) -> tuple[DecisionMatrix, np.ndarray, np.ndarray]:
    """Join the per-dimension rank vectors into the final ranking: the final
    matrix, the closeness scores and the overall ranks."""
    if dimension_labels is None:
        dimension_labels = [f"D{i + 1}" for i in range(len(dimension_ranks))]
    matrix = _stack(dimension_ranks, dimension_labels, alternative_labels)
    node = evaluate(("overall",), matrix, dimension_weights)
    return node.matrix, node.result.closeness, node.result.ranks


def run_hra(dataset: PerformanceDataset,
            config: HraConfig | None = None) -> HraReport:
    """Full three-level aggregation of a complete dataset.

    Deterministic: identical inputs give bit-identical reports. The report
    holds one node per TOPSIS evaluation, always 1 + k + l*k of them.
    """
    if config is None:
        config = HraConfig.for_dataset(dataset)
    nodes: dict[tuple, Evaluation] = {}
    for (d, p), leaf in rank_leaves(dataset, config.dimensions,
                                    config.measures, config.objective_for):
        nodes["leaf", d, p] = evaluate(("leaf", d, p), leaf,
                                       config.function_weights)

    def join(key, children, labels, weights):
        matrix = _stack([nodes[c].result.ranks for c in children], labels,
                        dataset.algorithms)
        nodes[key] = evaluate(key, matrix, weights, children)

    for d in config.dimensions:
        join(("dimension", d), [("leaf", d, p) for p in config.measures],
             config.measures, config.measure_weights)
    join(("overall",), [("dimension", d) for d in config.dimensions],
         config.dimensions, config.dimension_weights)
    return HraReport(dataset.algorithms, tuple(nodes.values()))
