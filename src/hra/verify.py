"""Self-contained consistency checks of the bundled CEC'17 tables.

Each aggregation level is recomputed from the level below it, fixtures
only, no network, by the same kernel `hra run` uses: the four per-dimension
rankings from the per-measure rank tables (aggregate_dimension), and the
overall scores and ranks from the per-dimension table (aggregate_overall).
Scores are compared within a tolerance because the reference table prints
four decimals; ranks must match exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fixtures
from .hierarchy import aggregate_dimension, aggregate_overall

DEFAULT_TOLERANCE = 5e-4


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail}"


def _compare_ranks(name: str, computed: np.ndarray, expected: np.ndarray,
                   labels) -> CheckResult:
    mismatches = [
        f"{label} computed {c:g} expected {e:g}"
        for label, c, e in zip(labels, computed, expected)
        if c != e
    ]
    if mismatches:
        return CheckResult(name, False, "; ".join(mismatches))
    return CheckResult(name, True, f"all {len(labels)} ranks agree exactly")


def verify_reference_tables(tolerance: float = DEFAULT_TOLERANCE
                            ) -> list[CheckResult]:
    """Run all six checks; hermetic (bundled fixtures only)."""
    checks: list[CheckResult] = []
    dimension_table = fixtures.load_dimension_ranks()
    for j, dim in enumerate(fixtures.CEC17_DIMENSIONS):
        measure_table = fixtures.load_measure_ranks(dim)
        _, ranks = aggregate_dimension(measure_table.values.T)
        checks.append(_compare_ranks(f"dim{dim}-ranking", ranks,
                                     dimension_table.values[:, j],
                                     measure_table.alternative_labels))

    overall_table = fixtures.load_overall_ranking()
    _, scores, ranks = aggregate_overall(dimension_table.values.T)
    reference_scores = overall_table.values[:, 0]
    errors = np.abs(scores - reference_scores)
    worst = int(np.argmax(errors))
    if errors[worst] <= tolerance:
        detail = (f"max |score error| {errors[worst]:.2e} "
                  f"<= tolerance {tolerance:g}")
        checks.append(CheckResult("overall-scores", True, detail))
    else:
        label = overall_table.alternative_labels[worst]
        checks.append(CheckResult(
            "overall-scores", False,
            f"{label}: computed {scores[worst]:.6f}, reference "
            f"{reference_scores[worst]:.4f}, error {errors[worst]:.2e} "
            f"> tolerance {tolerance:g}"))
    checks.append(_compare_ranks("overall-ranks", ranks,
                                 overall_table.values[:, 1],
                                 overall_table.alternative_labels))
    return checks
