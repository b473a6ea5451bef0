import math
from pathlib import Path

import numpy as np
import pytest

import hra.hierarchy
from hra import dataio, fixtures

DATA_DIR = Path(__file__).parent / "data"
SYNTHETIC_CSV = DATA_DIR / "synthetic_5x6.csv"

# published overall results (four decimals), in fixture row order
OVERALL_SCORES = (0.7735, 0.6515, 0.5338, 0.4822, 0.7198, 0.6082, 0.1500,
                  0.0940, 0.2517, 0.3571, 0.2373, 0.7281, 0.8497)
OVERALL_RANKS = (2, 5, 7, 8, 4, 6, 12, 13, 10, 9, 11, 3, 1)


@pytest.fixture
def synthetic_dataset():
    return dataio.load_long_csv(SYNTHETIC_CSV)


@pytest.fixture
def dimension_table():
    """13x4 table of per-dimension rankings."""
    return fixtures.load_dimension_ranks()


def random_dataset(m, n, k, l, seed):
    """Dense random dataset with plain labelled axes, values > 0."""
    rng = np.random.default_rng(seed)
    algorithms = tuple(f"alg{i}" for i in range(m))
    functions = tuple(f"f{j}" for j in range(n))
    dimensions = tuple(10 * (d + 1) for d in range(k))
    measures = tuple(f"p{q}" for q in range(l))
    values = {(d, p, a, f): float(v) for (d, p, a, f), v in zip(
        ((d, p, a, f) for d in dimensions for p in measures
         for a in algorithms for f in functions),
        rng.uniform(0.0, 100.0, size=m * n * k * l))}
    return dataio.PerformanceDataset(algorithms=algorithms,
                                     functions=functions,
                                     dimensions=dimensions,
                                     measures=measures, values=values)


def count_evaluations(monkeypatch) -> list[int]:
    """Patch the stack kernel where hra.hierarchy looks it up. The returned
    list gets, for each call, the number of matrices in the stack, which is
    the number of TOPSIS evaluations the call makes."""
    kernel = hra.hierarchy.topsis_stack
    counts = []

    def counting(values, *args, **kwargs):
        counts.append(math.prod(np.shape(values)[:-2]))
        return kernel(values, *args, **kwargs)

    monkeypatch.setattr(hra.hierarchy, "topsis_stack", counting)
    return counts
