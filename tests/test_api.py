"""The names `from hra import *` exports: the public surface, pinned so
that it changes only on purpose, and the module-qualified names README.md
gives, which must resolve."""

import pkgutil
import re
from pathlib import Path

import pytest

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
    assert hra.hierarchy.mean_ranks is hra.mean_ranks


# a backticked `hra.<module>.<name>` or `<module>.<name>` in README.md, with
# what follows the dotted name (a call's arguments) left off
QUALIFIED = re.compile(r"(?<![\w.])(?:hra\.)?\w+(?:\.\w+)+")


def readme_qualified_names():
    """Every dotted name in an inline code span of README.md whose first
    part, after an optional `hra.`, is an hra submodule; fenced code blocks
    are left out."""
    text = (Path(__file__).parent.parent / "README.md").read_text(
        encoding="utf-8")
    text = re.sub(r"^```.*?^```", "", text, flags=re.DOTALL | re.MULTILINE)
    modules = {module.name for module in pkgutil.iter_modules(hra.__path__)}
    return sorted({name for span in re.findall(r"`([^`]+)`", text)
                   for name in QUALIFIED.findall(span)
                   if name.removeprefix("hra.").split(".")[0] in modules})


def test_readme_module_qualified_names_resolve():
    names = readme_qualified_names()
    assert names, "README.md names no submodule"
    unresolved = []
    for name in names:
        value = hra
        for attribute in name.removeprefix("hra.").split("."):
            value = getattr(value, attribute, None)
        if value is None:
            unresolved.append(name)
    assert not unresolved, unresolved


def _dataset(**changes):
    """A one-cell dataset, built by the keyword's constructor: values= goes
    to PerformanceDataset, array= to from_array."""
    axes = dict(algorithms=("a",), functions=("f",), dimensions=(10,),
                measures=("best",))
    if "values" in changes:
        return hra.PerformanceDataset(**axes, **changes)
    return hra.PerformanceDataset.from_array(**axes, **changes)


@pytest.mark.parametrize("build, error, message", [
    (lambda: hra.aggregate_dimension(5),
     hra.ShapeMismatch, "rank vectors must be a sequence of vectors, got 5"),
    (lambda: hra.aggregate_overall(5),
     hra.ShapeMismatch, "rank vectors must be a sequence of vectors, got 5"),
    (lambda: _dataset(values=5),
     hra.ShapeMismatch, "values must map cells to numbers, got 5"),
    (lambda: _dataset(values={(10, "best", "a"): 1.0}),
     hra.ShapeMismatch, "cell (10, 'best', 'a') is not (dimension, measure, "
                        "algorithm, function)"),
    (lambda: _dataset(values={7: 1.0}),
     hra.ShapeMismatch, "cell 7 is not (dimension, measure, algorithm, "
                        "function)"),
    (lambda: _dataset(values={(10, "best", "a", "f"): "x"}),
     hra.ParseError, "cell (10, best, a, f): could not convert string to "
                     "float: 'x'"),
    (lambda: _dataset(array=[[[["x"]]]]),
     hra.ParseError, "value array: could not convert string to float: 'x'"),
    (lambda: _dataset(array=[[[[1.0], [1.0, 2.0]]]]),
     hra.ShapeMismatch, "value array: nested sequences of unequal lengths "
                        "make no array"),
    (lambda: hra.DecisionMatrix([[1.0], [1.0, 2.0]]),
     hra.ShapeMismatch, "decision matrix: nested sequences of unequal "
                        "lengths make no array"),
], ids=["int-leaf-ranks", "int-dimension-ranks", "int-values",
        "three-part-key", "int-key", "text-value", "text-array",
        "ragged-array", "ragged-decision-matrix"])
def test_inputs_of_the_wrong_kind_raise_hra_errors(build, error, message):
    # README: the library's constructors raise hra's own errors, never a
    # bare ValueError or TypeError
    with pytest.raises(error) as excinfo:
        build()
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message
