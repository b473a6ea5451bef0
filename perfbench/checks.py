"""Reference answers and output checks for the benchmark's invocations.

Each check returns a list of problems; an empty list means the output is
correct. References come from the generated cube, never from hra: the run
workloads are checked against the brute-force oracle in tests/oracle.py,
and stats output against a numpy recomputation of the statistics.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
from pathlib import Path

from workloads import MEASURES, Cube

SCORE_TOLERANCE = 1e-12  # absolute, on closeness scores in [0, 1]
STATS_TOLERANCE = 1e-12  # relative, on recomputed statistics


def load_oracle(path: Path):
    spec = importlib.util.spec_from_file_location("oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _CubeValues:
    """Read-only (dimension, measure, algorithm, function) -> value view."""

    def __init__(self, cube: Cube):
        self._index = [{label: i for i, label in enumerate(axis)}
                       for axis in (cube.dimensions, MEASURES,
                                    cube.algorithms, cube.functions)]
        self._stats = cube.stats.tolist()

    def __getitem__(self, key):
        d, p, a, f = (index[label] for index, label in zip(self._index, key))
        return self._stats[d][a][f][p]


def ranking_reference(cube: Cube, oracle) -> list[tuple[str, float, float]]:
    """(algorithm, score, rank) rows the final ranking must reproduce."""
    result = oracle.run_hierarchy(_CubeValues(cube), cube.algorithms,
                                  cube.functions, cube.dimensions, MEASURES)
    return list(zip(cube.algorithms, result["final_scores"],
                    result["final_ranks"]))


def _read_table(path: Path, header: list[str], rows: int):
    """(data rows, problems) of a CSV whose header and length must match."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            table = list(csv.reader(handle))
    except OSError as exc:
        return [], [f"cannot read {path.name}: {exc}"]
    if not table or table[0] != header:
        return [], [f"{path.name}: unexpected header {table[:1]}"]
    if len(table) - 1 != rows:
        return [], [f"{path.name}: {len(table) - 1} rows, expected {rows}"]
    return table[1:], []


def check_ranking(path: Path, reference) -> list[str]:
    """final_ranking.csv: algorithms in order, exact ranks, close scores."""
    rows, problems = _read_table(path, ["algorithm", "score", "hra_rank"],
                                 len(reference))
    for row, (algorithm, score, rank) in zip(rows, reference):
        try:
            got_score, got_rank = float(row[1]), float(row[2])
        except (IndexError, ValueError):
            problems.append(f"{path.name}: malformed row {row}")
            continue
        if row[0] != algorithm or got_rank != rank \
                or not abs(got_score - score) <= SCORE_TOLERANCE:
            problems.append(f"{path.name}: {row} but the oracle has "
                            f"{[algorithm, score, rank]}")
    return problems


def stats_reference(cube: Cube) -> dict[tuple, float]:
    """Expected long-CSV cells, keyed by the CSV's text fields."""
    stats = cube.stats.tolist()
    return {(str(d), p, f, a): stats[di][ai][fi][pi]
            for di, d in enumerate(cube.dimensions)
            for pi, p in enumerate(MEASURES)
            for ai, a in enumerate(cube.algorithms)
            for fi, f in enumerate(cube.functions)}


def check_stats(path: Path, reference: dict[tuple, float]) -> list[str]:
    """Every cell present once, each within STATS_TOLERANCE relative."""
    rows, problems = _read_table(
        path, ["dimension", "measure", "function", "algorithm", "value"],
        len(reference))
    seen = set()
    for row in rows:
        key = tuple(row[:4])
        try:
            value = float(row[4])
        except (IndexError, ValueError):
            problems.append(f"{path.name}: malformed row {row}")
            continue
        if key in seen or key not in reference:
            problems.append(f"{path.name}: unexpected or repeated cell {key}")
            continue
        seen.add(key)
        expected = reference[key]
        if not abs(value - expected) \
                <= STATS_TOLERANCE * max(abs(value), abs(expected)):
            problems.append(f"{path.name}: {key} = {value!r}, "
                            f"recomputed {expected!r}")
    return problems


def digests(directory: Path) -> dict[str, str]:
    """sha256 of every file under directory, keyed by relative path."""
    return {str(path.relative_to(directory)):
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.rglob("*")) if path.is_file()}
