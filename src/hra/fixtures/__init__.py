"""Bundled CEC'17 reference tables."""

from __future__ import annotations

from pathlib import Path

from ..dataio import load_rank_matrix_csv
from ..topsis import DecisionMatrix

FIXTURES_DIR = Path(__file__).parent  # the directory holding the CSVs

MEASURE_RANK_TABLES = {
    10: "cec17_measure_ranks_dim10.csv",
    30: "cec17_measure_ranks_dim30.csv",
    50: "cec17_measure_ranks_dim50.csv",
    100: "cec17_measure_ranks_dim100.csv",
}
DIMENSION_RANK_TABLE = "cec17_dimension_ranks.csv"
OVERALL_RANKING_TABLE = "cec17_overall_ranking.csv"

CEC17_DIMENSIONS = (10, 30, 50, 100)


def load_measure_ranks(dimension: int) -> DecisionMatrix:
    """13x5 rank table of one problem dimension (columns: the 5 statistics)."""
    return load_rank_matrix_csv(FIXTURES_DIR / MEASURE_RANK_TABLES[dimension])


def load_dimension_ranks() -> DecisionMatrix:
    """13x4 rank table whose columns are the per-dimension rankings."""
    return load_rank_matrix_csv(FIXTURES_DIR / DIMENSION_RANK_TABLE)


def load_overall_ranking() -> DecisionMatrix:
    """13x3 table: closeness score, aggregated rank, competition rank."""
    return load_rank_matrix_csv(FIXTURES_DIR / OVERALL_RANKING_TABLE)
