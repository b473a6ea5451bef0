"""Seeded CEC'17-style workload generator.

Every (dimension, algorithm, function) cell gets 51 simulated runs of final
error values. About a fifth of the cells are solved (every run is exactly
0), some runs of easy cells reach 0, and composition functions stall on an
exact plateau value, so the five derived statistics carry the exact ties
that real competition tables have. best/worst/median/mean/std are derived
from the runs, so they are mutually consistent and the loader's ordering
check has real work to do. tests/conftest.py's random_dataset would not do:
its p0..p4 measures never reach the ordering check and its uniform draws
never tie.

Nothing here imports hra: the benchmark's inputs and its reference answers
must not depend on the code under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

RUNS = 51
CHECKPOINTS = 14  # CEC'17 records the error at 14 fractions of MaxFEs
DIMENSIONS = (10, 30, 50, 100)
MEASURES = ("best", "worst", "median", "mean", "std")
SOLVED_SHARE = 0.2


@dataclass(frozen=True)
class Shape:
    algorithms: int
    functions: int

    def labels(self):
        algorithms = tuple(f"alg-{i:03d}" for i in range(self.algorithms))
        functions = tuple(f"F{j + 1}" for j in range(self.functions))
        return algorithms, functions


@dataclass(frozen=True)
class Cube:
    """Simulated runs and their statistics, axes (dimension, alg, fn, ...)."""

    algorithms: tuple[str, ...]
    functions: tuple[str, ...]
    runs: np.ndarray   # (k, m, n, RUNS) final errors
    stats: np.ndarray  # (k, m, n, 5) in MEASURES order

    @property
    def dimensions(self):
        return DIMENSIONS


def statistics(runs: np.ndarray) -> np.ndarray:
    """best, worst, median, mean, sample std along the last axis."""
    return np.stack([runs.min(axis=-1), runs.max(axis=-1),
                     np.median(runs, axis=-1), runs.mean(axis=-1),
                     runs.std(axis=-1, ddof=1)], axis=-1)


def simulate(shape: Shape, seed: int) -> Cube:
    rng = np.random.default_rng(seed)
    k, m, n = len(DIMENSIONS), shape.algorithms, shape.functions
    scale = np.log10(np.asarray(DIMENSIONS, dtype=float) / 10.0)
    difficulty = rng.uniform(-2.0, 3.5, size=n)
    skill = rng.normal(0.0, 0.6, size=m)
    interaction = rng.normal(0.0, 0.5, size=(m, n))
    log_centre = (difficulty[None, None, :] + 0.8 * scale[:, None, None]
                  + skill[None, :, None] + interaction[None, :, :])
    spread = rng.uniform(0.05, 0.6, size=(k, m, n, 1))
    runs = 10.0 ** (log_centre[..., None]
                    + spread * rng.standard_normal((k, m, n, RUNS)))

    # Easy cells are solved outright; the threshold puts SOLVED_SHARE of
    # all cells below it, so the share holds at every size.
    solvable = log_centre + rng.normal(0.0, 0.5, size=(k, m, n))
    solved = solvable <= np.quantile(solvable, SOLVED_SHARE)
    runs[solved] = 0.0
    # Near-solved cells reach 0 on some runs: ties in the best column.
    lucky = (solvable < np.quantile(solvable, 2 * SOLVED_SHARE))[..., None] \
        & (rng.random((k, m, n, RUNS)) < 0.3)
    runs[lucky] = 0.0
    # The last third are composition functions, which stall on a plateau.
    plateau = np.zeros((k, m, n, RUNS), dtype=bool)
    tail = n - 2 * n // 3
    plateau[:, :, n - tail:, :] = rng.random((k, m, tail, RUNS)) < 0.4
    levels = 100.0 * rng.integers(1, 5, size=(k, 1, n, 1))
    runs = np.where(plateau & ~solved[..., None],
                    np.broadcast_to(levels, runs.shape), runs)

    algorithms, functions = shape.labels()
    return Cube(algorithms, functions, runs, statistics(runs))


def write_long_csv(cube: Cube, path: Path) -> int:
    """The cube's statistics in hra's long format; returns the row count.

    Rows follow save_long_csv's order (dimension, measure, function,
    algorithm) and values use the shortest round-trip text, so loading
    recovers every float exactly.
    """
    lines = ["dimension,measure,function,algorithm,value"]
    for di, d in enumerate(cube.dimensions):
        for pi, p in enumerate(MEASURES):
            table = cube.stats[di, :, :, pi].T.tolist()  # (n, m)
            for f, row in zip(cube.functions, table):
                prefix = f"{d},{p},{f},"
                lines.extend(prefix + a + "," + repr(v)
                             for a, v in zip(cube.algorithms, row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines) - 1


def write_raw_runs(cube: Cube, seed: int, directory: Path) -> int:
    """One `<algorithm>_<function>_<dimension>.txt` per cell.

    Each file is a CHECKPOINTS x RUNS matrix whose rows shrink towards the
    final errors in its last row, as the CEC'17 result files do. Returns
    the number of files written.
    """
    rng = np.random.default_rng([seed, 1])
    directory.mkdir(parents=True, exist_ok=True)
    # fraction of the way from the start error to the final error
    decay = np.concatenate([np.geomspace(1.0, 1e-3, CHECKPOINTS - 1), [0.0]])
    count = 0
    for di, d in enumerate(cube.dimensions):
        for ai, a in enumerate(cube.algorithms):
            for fi, f in enumerate(cube.functions):
                final = cube.runs[di, ai, fi]
                start = final + 10.0 ** rng.uniform(2.0, 4.0, size=RUNS)
                matrix = final + (start - final) * decay[:, None]
                text = "\n".join(" ".join(map(repr, row))
                                 for row in matrix.tolist())
                (directory / f"{a}_{f}_{d}.txt").write_text(
                    text + "\n", encoding="utf-8")
                count += 1
    return count
