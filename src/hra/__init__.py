"""Hierarchical rank aggregation of algorithm benchmark results.

Raw performance values are rank-transformed per benchmark function, then
aggregated with fixed-domain TOPSIS three times: per (dimension, measure)
leaf, per dimension, and overall. The fixed domain makes every score
independent of which other alternatives are present.
"""

__version__ = "0.1.0"

import os as _os
import sys as _sys

# hra calls no BLAS routine, but OpenBLAS starts its worker threads when
# numpy loads, and each idle worker spins for about 0.1 s of CPU before it
# sleeps. So numpy is loaded with one BLAS thread, unless numpy is already
# loaded or the user has set a thread count. OpenBLAS reads the variable
# once, at load, so it is removed again: os.environ and child processes
# never see it.
if "numpy" not in _sys.modules and not any(
        name in _os.environ for name in
        ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .dataio import (
    STAT_MEASURES,
    PerformanceDataset,
    RawRuns,
    dataset_from_runs,
    emit_report,
    load_long_csv,
    load_rank_matrix_csv,
    save_long_csv,
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
    rank_columns,
    rtopsis,
    scores_to_ranks,
    separations,
    squared_gaps,
    weight_matrix,
)
from .verify import CheckResult, verify_reference_tables

__all__ = [n for n in dir() if n[0] != "_" and type(globals()[n]) is not type(_os)]
