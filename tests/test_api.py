"""The names `from hra import *` exports: the public surface, pinned so
that it changes only on purpose."""

import hra.hierarchy

PUBLIC = [
    "CheckResult", "ChecksumMismatch", "CriteriaSpec", "DecisionMatrix",
    "DegenerateDomain", "DegenerateIdeals", "Direction", "DomainViolation",
    "DuplicateTuple", "EmptyMatrix", "EmptyRuns", "FetchResult", "HraConfig",
    "HraError", "HraReport", "InconsistentStatistics", "InvalidWeights",
    "IoError", "IoFailure", "MissingCell", "NetworkError", "NonFiniteValue",
    "Normalization", "ParseError", "ParseFailure", "PerformanceDataset",
    "RawRuns", "STAT_MEASURES", "ShapeMismatch", "TopsisResult",
    "TopsisTrace", "UnknownLayout",
    "ValidationFailure", "ZeroUpperBound", "aggregate_dimension",
    "aggregate_leaf", "aggregate_overall", "closeness", "dataset_from_runs",
    "emit_report", "equal_weights", "fetch_raw", "ideal_solutions",
    "load_long_csv", "load_rank_matrix_csv", "load_raw_runs", "mean_ranks",
    "normalize", "rank_columns", "rtopsis", "run_hra",
    "save_long_csv", "scores_to_ranks",
    "separations", "squared_gaps", "verify_reference_tables",
    "weight_matrix",
]


def test_star_import_exports_the_public_names_and_no_submodule():
    assert sorted(hra.__all__) == PUBLIC
    namespace = {}
    exec("from hra import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC
    # the submodules stay reachable as attributes
    assert hra.hierarchy.rank_columns is hra.rank_columns
