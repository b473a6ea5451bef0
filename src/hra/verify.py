"""Self-contained consistency checks of the bundled CEC'17 tables.

Each aggregation level is recomputed from the level below it, fixtures
only, no network, by the kernel `hra run` uses, topsis.topsis_stack, on a
stack of one matrix: the four per-dimension rankings from the per-measure rank
tables (aggregate_dimension), and the overall scores and ranks from the
per-dimension table (aggregate_overall).
Every check compares each recomputed value, printed the way its table
prints it, with the table's text: ranks with `g`, scores with four
decimals. So a score passes exactly when it rounds to its printed value.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fixtures
from .hierarchy import aggregate_dimension, aggregate_overall
from .topsis import DecisionMatrix


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail}"


def _check(name: str, computed, table: DecisionMatrix, column: int,
           fmt: str, agreement: str) -> CheckResult:
    """Names every algorithm whose computed value, formatted with fmt,
    differs from its table entry formatted the same way."""
    mismatches = []
    for label, c, e in zip(table.alternative_labels, computed,
                           table.values[:, column]):
        c, e = format(c, fmt), format(e, fmt)
        if c != e:
            mismatches.append(f"{label} computed {c} expected {e}")
    if mismatches:
        return CheckResult(name, False, "; ".join(mismatches))
    return CheckResult(name, True, f"all {table.m} {agreement}")


def verify_reference_tables() -> list[CheckResult]:
    """Run all six checks; hermetic (bundled fixtures only)."""
    checks: list[CheckResult] = []
    dimension_table = fixtures.load_dimension_ranks()
    for j, dim in enumerate(fixtures.CEC17_DIMENSIONS):
        _, ranks = aggregate_dimension(
            fixtures.load_measure_ranks(dim).values.T)
        checks.append(_check(f"dim{dim}-ranking", ranks, dimension_table, j,
                             "g", "ranks agree exactly"))

    overall_table = fixtures.load_overall_ranking()
    _, scores, ranks = aggregate_overall(dimension_table.values.T)
    checks.append(_check("overall-scores", scores, overall_table, 0, ".4f",
                         "scores agree to 4 decimals"))
    checks.append(_check("overall-ranks", ranks, overall_table, 1, "g",
                         "ranks agree exactly"))
    return checks
