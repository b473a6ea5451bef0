"""Hierarchical rank aggregation of algorithm benchmark results.

Raw performance values are rank-transformed per benchmark function, then
aggregated with fixed-domain TOPSIS three times: per (dimension, measure)
leaf, per dimension, and overall. The fixed domain makes every score
independent of which other alternatives are present.
"""

__version__ = "0.1.0"

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

# The other public names, by the submodule that defines them. Each is
# imported on first use (__getattr__), so `import hra` loads no numpy and
# `hra stats`, which needs only fetch and files, loads none at all.
_LAZY = {
    "dataio": ("PerformanceDataset", "dataset_from_runs", "emit_report",
               "load_long_csv", "load_rank_matrix_csv", "save_long_csv"),
    "fetch": ("FetchResult", "fetch_raw", "load_raw_runs"),
    "files": ("RawRuns", "STAT_MEASURES"),
    "hierarchy": ("HraConfig", "HraReport", "aggregate_dimension",
                  "aggregate_leaf", "aggregate_overall", "run_hra"),
    "topsis": ("CriteriaSpec", "DecisionMatrix", "Direction",
               "Normalization", "TopsisResult", "TopsisTrace", "closeness",
               "equal_weights", "ideal_solutions", "mean_ranks",
               "normalize", "rank_columns", "rtopsis", "scores_to_ranks",
               "separations", "squared_gaps", "weight_matrix"),
    "verify": ("CheckResult", "verify_reference_tables"),
}
_SOURCE = {name: module for module, names in _LAZY.items() for name in names}
_SUBMODULES = ("cli", "dataio", "exceptions", "fetch", "files", "fixtures",
               "hierarchy", "topsis", "verify")

__all__ = sorted([n for n in globals() if n[0] != "_"
                  and isinstance(globals()[n], type)] + list(_SOURCE))


def __getattr__(name):
    """A public name or submodule, imported on first use."""
    import importlib

    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

