"""Mean-rank transformation of raw performance columns.

Raw measure values are replaced by their within-column mean ranks before any
aggregation, which removes scale effects across benchmark functions and
blunts outliers. Ranks are kept as floats: ties produce half-integer mean
ranks even though competition tables print integers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from .exceptions import NonFiniteValue, ShapeMismatch
from .rtopsis import DecisionMatrix, mean_ranks

if TYPE_CHECKING:
    from .dataio import PerformanceDataset


class Objective(enum.Enum):
    """Whether smaller or larger raw values are better within a column."""

    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"


@dataclass(frozen=True)
class RankMatrix(DecisionMatrix):
    """Decision matrix whose columns are mean ranks.

    Same labels and shape as its source; every column lies in [1, m] and
    sums to m(m+1)/2.
    """

    def __post_init__(self):
        super().__post_init__()
        m = self.m
        expected = m * (m + 1) / 2.0
        sums = self.values.sum(axis=0)
        bad = ~np.isclose(sums, expected, rtol=0.0, atol=1e-9 * max(expected, 1.0))
        if bad.any():
            j = int(np.argmax(bad))
            raise ShapeMismatch(
                f"column {self.criterion_labels[j]!r} sums to {sums[j]}, "
                f"expected {expected}; not a mean-rank column")
        if (self.values < 1.0).any() or (self.values > m).any():
            raise ShapeMismatch(f"rank values must lie in [1, {m}]")


def _signed(values: np.ndarray, objective: Objective) -> np.ndarray:
    """Values oriented so that ascending order puts the best value first."""
    return -values if Objective(objective) is Objective.MAXIMIZE else values


def mean_rank_column(values: Sequence[float],
                     objective: Objective = Objective.MINIMIZE) -> np.ndarray:
    """Mean ranks of one column; ties get the mean of the spanned positions.

    MINIMIZE puts rank 1 on the smallest value, MAXIMIZE on the largest.
    """
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise NonFiniteValue("cannot rank non-finite values")
    return mean_ranks(_signed(values, objective))


def rank_columns(matrix: DecisionMatrix,
                 objective: Objective = Objective.MINIMIZE) -> RankMatrix:
    """Apply the mean-rank transformation to every column independently."""
    return RankMatrix(mean_ranks(_signed(matrix.values, objective), axis=0),
                      matrix.alternative_labels, matrix.criterion_labels)


def rank_leaves(dataset: "PerformanceDataset", dimensions, measures,
                objective_for: Callable[[str], Objective]):
    """Yield ((d, p), RankMatrix) per leaf, dimension by dimension; a
    MissingCell lists every absent cell of the block before any leaf is
    ranked, then the leaves are ranked one at a time."""
    block = dataset.block(dimensions, measures)
    for i, d in enumerate(dimensions):
        for j, p in enumerate(measures):
            yield (d, p), rank_columns(
                DecisionMatrix(block[i, j], dataset.algorithms,
                               dataset.functions), objective_for(p))


def rank_dataset(dataset: "PerformanceDataset",
                 objectives: Mapping[str, Objective] | None = None
                 ) -> dict[tuple, RankMatrix]:
    """One RankMatrix per (dimension, measure) leaf of a complete dataset.

    Measures default to MINIMIZE (all five CEC statistics are error values,
    smaller is better); pass an objectives map to override per measure.
    """
    objectives = dict(objectives or {})
    return dict(rank_leaves(dataset, dataset.dimensions, dataset.measures,
                            lambda p: objectives.get(p, Objective.MINIMIZE)))
