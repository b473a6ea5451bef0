"""Hierarchical rank aggregation of algorithm benchmark results.

Raw performance values are rank-transformed per benchmark function, then
aggregated with fixed-domain TOPSIS three times: per (dimension, measure)
leaf, per dimension, and overall. The fixed domain makes every score
independent of which other alternatives are present.
"""

__version__ = "0.1.0"

from .dataio import (
    STAT_MEASURES,
    PerformanceDataset,
    RawRuns,
    RunStatistics,
    compute_statistics,
    dataset_from_runs,
    emit_report,
    load_long_csv,
    load_rank_matrix_csv,
    save_long_csv,
    save_rank_matrix_csv,
)
from .exceptions import (
    ChecksumMismatch,
    DegenerateDomain,
    DegenerateIdeals,
    DomainViolation,
    DuplicateTuple,
    EmptyMatrix,
    EmptyRuns,
    HraError,
    InconsistentStatistics,
    InvalidWeights,
    IoError,
    IoFailure,
    MissingCell,
    NetworkError,
    NonFiniteValue,
    ParseError,
    ParseFailure,
    ShapeMismatch,
    UnknownLayout,
    ValidationFailure,
    ZeroUpperBound,
)
from .fetch import FetchResult, fetch_raw, load_raw_runs
from .hierarchy import (
    HraConfig,
    HraReport,
    aggregate_dimension,
    aggregate_leaf,
    aggregate_overall,
    run_hra,
)
from .ranking import (
    Objective,
    RankMatrix,
    mean_rank_column,
    rank_columns,
    rank_dataset,
)
from .rtopsis import (
    CriteriaSpec,
    DecisionMatrix,
    Direction,
    Normalization,
    TopsisResult,
    TopsisTrace,
    closeness,
    equal_weights,
    ideal_solutions,
    mean_ranks,
    normalize,
    rtopsis,
    scores_to_ranks,
    separations,
    weight_matrix,
)
from .verify import CheckResult, verify_reference_tables

__all__ = [name for name in dir() if not name.startswith("_")]
