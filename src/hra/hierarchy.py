"""Three-level aggregation tree over a performance dataset.

Level 1 turns every (dimension, measure) leaf into a rank vector, level 2
joins the measure vectors of each dimension into one per-dimension ranking,
and level 3 joins the dimensions into the overall ranking. Every join is
one fixed-domain TOPSIS evaluation, so a full run costs exactly
1 + k + l*k evaluations for k dimensions and l measures.

Vectors passed between levels are ranks, not raw closeness scores; the
scores of every evaluation are kept in the report's traces for audit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .dataio import PerformanceDataset
from .exceptions import ShapeMismatch
from .ranking import Objective, RankMatrix, rank_block
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
class HraReport:
    """Every level of one aggregation run, plus the evaluation traces."""

    algorithms: tuple[str, ...]
    leaf_ranks: dict
    dimension_matrices: dict
    dimension_ranks: dict
    final_matrix: DecisionMatrix
    final_scores: np.ndarray
    final_ranks: np.ndarray
    invocation_count: int
    traces: dict = field(repr=False, default_factory=dict)


def _rank_evaluation(matrix: DecisionMatrix,
                     weights: Sequence[float] | None) -> TopsisResult:
    """One fixed-domain TOPSIS pass over a rank-valued matrix."""
    spec = CriteriaSpec.for_ranks(matrix.domain_rows, matrix.n, weights)
    return rtopsis(matrix, spec)


def _join(vectors: Sequence[np.ndarray], weights: Sequence[float] | None,
          criterion_labels, alternative_labels
          ) -> tuple[DecisionMatrix, TopsisResult]:
    """Stack rank vectors as the columns of one matrix and evaluate it.

    This is the dimension and the overall level; criterion labels become
    strings, alternatives default to A1..Am.
    """
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    sizes = {v.shape for v in vectors}
    if len(sizes) != 1 or vectors[0].ndim != 1:
        raise ShapeMismatch(f"rank vectors have inconsistent shapes: {sizes}")
    matrix = DecisionMatrix(np.column_stack(vectors),
                            tuple(alternative_labels or ()),
                            tuple(str(c) for c in criterion_labels))
    return matrix, _rank_evaluation(matrix, weights)


def aggregate_leaf(rank_matrix: RankMatrix,
                   function_weights: Sequence[float] | None = None
                   ) -> np.ndarray:
    """Rank vector of one (dimension, measure) leaf."""
    return _rank_evaluation(rank_matrix, function_weights).ranks


def aggregate_dimension(leaf_ranks: Sequence[np.ndarray],
                        measure_weights: Sequence[float] | None = None,
                        measure_labels: Sequence[str] | None = None,
                        alternative_labels: Sequence[str] | None = None,
                        ) -> tuple[DecisionMatrix, np.ndarray]:
    """Join the per-measure rank vectors of one dimension.

    Returns the intermediate matrix (columns in measure order) and the
    dimension's rank vector.
    """
    if measure_labels is None:
        measure_labels = [f"P{i + 1}" for i in range(len(leaf_ranks))]
    matrix, result = _join(leaf_ranks, measure_weights, measure_labels,
                           alternative_labels)
    return matrix, result.ranks


def aggregate_overall(dimension_ranks: Sequence[np.ndarray],
                      dimension_weights: Sequence[float] | None = None,
                      dimension_labels: Sequence[str] | None = None,
                      alternative_labels: Sequence[str] | None = None,
                      ) -> tuple[DecisionMatrix, np.ndarray, np.ndarray]:
    """Join the per-dimension rank vectors into the final ranking.

    Returns the final matrix, the closeness scores, and the overall ranks.
    """
    if dimension_labels is None:
        dimension_labels = [f"D{i + 1}" for i in range(len(dimension_ranks))]
    matrix, result = _join(dimension_ranks, dimension_weights,
                           dimension_labels, alternative_labels)
    return matrix, result.closeness, result.ranks


def run_hra(dataset: PerformanceDataset,
            config: HraConfig | None = None) -> HraReport:
    """Full three-level aggregation of a complete dataset.

    Deterministic: identical inputs give bit-identical reports. The
    invocation count in the report counts actual TOPSIS evaluations and
    always equals 1 + k + l*k.
    """
    if config is None:
        config = HraConfig.for_dataset(dataset)
    block = dataset.block(config.dimensions, config.measures)
    ranked = rank_block(block, [config.objective_for(p)
                                for p in config.measures])
    algorithms = dataset.algorithms
    traces: dict[tuple, TopsisResult] = {}

    leaf_ranks: dict[tuple, np.ndarray] = {}
    for i, d in enumerate(config.dimensions):
        for j, p in enumerate(config.measures):
            leaf = RankMatrix(ranked[i, j], algorithms, dataset.functions)
            traces[("leaf", d, p)] = _rank_evaluation(
                leaf, config.function_weights)
            leaf_ranks[(d, p)] = traces[("leaf", d, p)].ranks

    dimension_matrices: dict = {}
    dimension_ranks: dict = {}
    for d in config.dimensions:
        dimension_matrices[d], traces[("dimension", d)] = _join(
            [leaf_ranks[(d, p)] for p in config.measures],
            config.measure_weights, config.measures, algorithms)
        dimension_ranks[d] = traces[("dimension", d)].ranks

    final_matrix, final = _join(
        [dimension_ranks[d] for d in config.dimensions],
        config.dimension_weights, config.dimensions, algorithms)
    traces[("overall",)] = final

    return HraReport(algorithms=algorithms, leaf_ranks=leaf_ranks,
                     dimension_matrices=dimension_matrices,
                     dimension_ranks=dimension_ranks,
                     final_matrix=final_matrix, final_scores=final.closeness,
                     final_ranks=final.ranks, invocation_count=len(traces),
                     traces=traces)
