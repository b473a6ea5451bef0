"""Brute-force reference implementation used to cross-check the engine.

Deliberately naive: plain Python loops over lists of lists, no numpy, and
no imports from the hra package. Every formula is transcribed directly and
independently, so agreement with the engine is meaningful evidence rather
than a tautology. Slow is fine here.
"""

import math


# ---------------------------------------------------------------------------
# fixed-domain TOPSIS, step by step
# ---------------------------------------------------------------------------

def normalize(matrix, domains, mode="maxmin"):
    """mode 'max': x/d2.  mode 'maxmin': (x-d1)/(d2-d1)."""
    out = []
    for row in matrix:
        new_row = []
        for x, (d1, d2) in zip(row, domains):
            if mode == "max":
                new_row.append(x / d2)
            elif mode == "maxmin":
                new_row.append((x - d1) / (d2 - d1))
            else:
                raise ValueError(mode)
        out.append(new_row)
    return out


def weight(normalized, weights):
    return [[w * x for x, w in zip(row, weights)] for row in normalized]


def ideal_solutions(weights, domains, directions, mode="maxmin"):
    """directions: 'benefit' or 'cost' per criterion; returns (pis, nis).

    The worst end of a domain sits where the normalization puts d1: at 0
    for 'maxmin', at (d1/d2)*w for 'max'.
    """
    pis, nis = [], []
    for w, (d1, d2), kind in zip(weights, domains, directions):
        if mode == "max":
            low = (d1 / d2) * w
        elif mode == "maxmin":
            low = 0.0
        else:
            raise ValueError(mode)
        if kind == "benefit":
            pis.append(w)
            nis.append(low)
        elif kind == "cost":
            pis.append(low)
            nis.append(w)
        else:
            raise ValueError(kind)
    return pis, nis


def separations(weighted, pis, nis):
    s_plus, s_minus = [], []
    for row in weighted:
        s_plus.append(math.sqrt(sum((r - p) ** 2 for r, p in zip(row, pis))))
        s_minus.append(math.sqrt(sum((r - q) ** 2 for r, q in zip(row, nis))))
    return s_plus, s_minus


def closeness(s_plus, s_minus):
    return [sm / (sp + sm) for sp, sm in zip(s_plus, s_minus)]


def rtopsis_scores(matrix, weights, domains, directions, mode="maxmin"):
    n = normalize(matrix, domains, mode)
    r = weight(n, weights)
    pis, nis = ideal_solutions(weights, domains, directions, mode)
    s_plus, s_minus = separations(r, pis, nis)
    return closeness(s_plus, s_minus)


# ---------------------------------------------------------------------------
# mean ranks
# ---------------------------------------------------------------------------

def mean_ranks(values, descending=False):
    """Rank positions 1..m, tied values get the mean of the spanned positions.

    Ascending by default (smallest value -> rank 1); descending=True ranks
    the largest value first.
    """
    keyed = [-v for v in values] if descending else list(values)
    order = sorted(range(len(keyed)), key=lambda i: keyed[i])
    ranks = [0.0] * len(keyed)
    start = 0
    while start < len(order):
        stop = start
        while stop + 1 < len(order) and keyed[order[stop + 1]] == keyed[order[start]]:
            stop += 1
        tied_mean = (start + stop + 2) / 2.0  # positions are start+1 .. stop+1
        for t in range(start, stop + 1):
            ranks[order[t]] = tied_mean
        start = stop + 1
    return ranks


def rank_columns(matrix, descending=False):
    """Apply mean_ranks to each column of a row-major matrix."""
    m = len(matrix)
    n = len(matrix[0])
    ranked = [[0.0] * n for _ in range(m)]
    for j in range(n):
        col = mean_ranks([matrix[i][j] for i in range(m)], descending)
        for i in range(m):
            ranked[i][j] = col[i]
    return ranked


def rank_vector_spec(m, n):
    """Weights/domains/directions for a rank matrix: equal weights, (0, m+1),
    all cost."""
    return ([1.0 / n] * n, [(0.0, m + 1.0)] * n, ["cost"] * n)


def rtopsis_ranks(matrix, weights=None, domains=None, directions=None):
    """Full pass on a rank matrix: scores, then descending mean ranks."""
    m, n = len(matrix), len(matrix[0])
    default_w, default_d, default_k = rank_vector_spec(m, n)
    scores = rtopsis_scores(
        matrix,
        weights if weights is not None else default_w,
        domains if domains is not None else default_d,
        directions if directions is not None else default_k,
    )
    return mean_ranks(scores, descending=True), scores


# ---------------------------------------------------------------------------
# full three-level aggregation
# ---------------------------------------------------------------------------

def run_hierarchy(values, algorithms, functions, dimensions, measures,
                  function_weights=None, measure_weights=None,
                  dimension_weights=None, maximize_measures=()):
    """Transcription of the whole pipeline on a dense value table.

    values: dict (dimension, measure, algorithm, function) -> float.
    Returns a dict with every intermediate level.
    """
    m = len(algorithms)
    leaf_ranks = {}
    for d in dimensions:
        for p in measures:
            raw = [[values[(d, p, a, f)] for f in functions] for a in algorithms]
            if p in maximize_measures:
                ranked = rank_columns(raw, descending=True)
            else:
                ranked = rank_columns(raw)
            ranks, _ = rtopsis_ranks(ranked, weights=function_weights)
            leaf_ranks[(d, p)] = ranks

    dim_matrices, dim_ranks = {}, {}
    for d in dimensions:
        c_d = [[leaf_ranks[(d, p)][i] for p in measures] for i in range(m)]
        dim_matrices[d] = c_d
        ranks, _ = rtopsis_ranks(c_d, weights=measure_weights)
        dim_ranks[d] = ranks

    final_matrix = [[dim_ranks[d][i] for d in dimensions] for i in range(m)]
    final_ranks, final_scores = rtopsis_ranks(final_matrix,
                                              weights=dimension_weights)
    return {
        "leaf_ranks": leaf_ranks,
        "dimension_matrices": dim_matrices,
        "dimension_ranks": dim_ranks,
        "final_matrix": final_matrix,
        "final_scores": final_scores,
        "final_ranks": final_ranks,
    }
