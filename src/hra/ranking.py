"""Mean-rank transformation of raw performance columns.

Raw measure values are replaced by their within-column mean ranks before any
aggregation, which removes scale effects across benchmark functions and
blunts outliers. Ranks are kept as floats: ties produce half-integer mean
ranks even though competition tables print integers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .exceptions import ShapeMismatch
from .rtopsis import DecisionMatrix, mean_ranks


class Objective(enum.Enum):
    """Whether smaller or larger raw values are better within a column."""

    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"


@dataclass(frozen=True)
class RankMatrix(DecisionMatrix):
    """Decision matrix whose columns are mean ranks.

    Same labels and shape as its source; every column lies in [1, m] and
    sums to m(m+1)/2. Mean ranks are halves, so the sums are exact in
    float64 and are compared exactly.
    """

    def __post_init__(self):
        super().__post_init__()
        m = self.m
        expected = m * (m + 1) / 2.0
        sums = self.values.sum(axis=0)
        bad = sums != expected
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


def rank_columns(matrix: DecisionMatrix,
                 objective: Objective = Objective.MINIMIZE) -> RankMatrix:
    """Apply the mean-rank transformation to every column independently."""
    return RankMatrix(mean_ranks(_signed(matrix.values, objective), axis=0),
                      matrix.alternative_labels, matrix.criterion_labels)
