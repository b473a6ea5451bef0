"""Fixed-domain TOPSIS over labelled decision matrices.

Classic TOPSIS anchors its ideal solutions in the data, so adding or
removing an alternative can reorder the survivors (rank reversal). Here the
anchors come from a per-criterion domain [d1, d2] declared up front: the
positive and negative ideals depend only on the criteria specification, and
the score of an alternative never changes when other rows come or go.

All functions are pure and operate on immutable inputs; evaluating many
matrices concurrently is safe.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import (
    DegenerateDomain,
    DegenerateIdeals,
    DomainViolation,
    EmptyMatrix,
    InvalidWeights,
    NonFiniteValue,
    ShapeMismatch,
    ZeroUpperBound,
)

WEIGHT_SUM_TOL = 1e-12


class Direction(enum.Enum):
    """Criterion orientation: larger-is-better or smaller-is-better."""

    BENEFIT = "benefit"
    COST = "cost"


class Normalization(enum.Enum):
    """Step-5 normalization variant; equivalent whenever d1 = 0."""

    MAX = "max"
    MAXMIN = "maxmin"


def _freeze(array: np.ndarray) -> np.ndarray:
    array = np.array(array, dtype=float)
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class DecisionMatrix:
    """m alternatives rated on n criteria, with unique row/column labels.

    domain_rows is the row count that anchors the default rank domain
    (0, domain_rows + 1). It is frozen at construction and survives
    drop_alternatives, so evaluating a reduced matrix under the default
    spec cannot silently shift the domain and reintroduce rank reversal.
    """

    values: np.ndarray
    alternative_labels: tuple[str, ...] = ()
    criterion_labels: tuple[str, ...] = ()
    domain_rows: int | None = None

    def __post_init__(self):
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if values.ndim != 2:
            raise ShapeMismatch(f"decision matrix must be 2-D, got {values.ndim}-D")
        m, n = values.shape
        if m < 1 or n < 1:
            raise EmptyMatrix(f"decision matrix must be at least 1x1, got {m}x{n}")
        if not np.isfinite(values).all():
            i, j = np.argwhere(~np.isfinite(values))[0]
            raise NonFiniteValue(f"non-finite value at row {i}, column {j}")
        alternatives = tuple(self.alternative_labels) or tuple(
            f"A{i + 1}" for i in range(m))
        criteria = tuple(self.criterion_labels) or tuple(
            f"C{j + 1}" for j in range(n))
        if len(alternatives) != m:
            raise ShapeMismatch(
                f"{len(alternatives)} alternative labels for {m} rows")
        if len(criteria) != n:
            raise ShapeMismatch(f"{len(criteria)} criterion labels for {n} columns")
        if len(set(alternatives)) != m:
            raise ShapeMismatch("alternative labels are not unique")
        if len(set(criteria)) != n:
            raise ShapeMismatch("criterion labels are not unique")
        domain_rows = m if self.domain_rows is None else int(self.domain_rows)
        if domain_rows < m:
            raise ShapeMismatch(
                f"domain_rows {domain_rows} is smaller than the row count {m}")
        object.__setattr__(self, "values", _freeze(values))
        object.__setattr__(self, "alternative_labels", alternatives)
        object.__setattr__(self, "criterion_labels", criteria)
        object.__setattr__(self, "domain_rows", domain_rows)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def drop_alternatives(self, *labels: str) -> "DecisionMatrix":
        """New matrix without the named rows. Labels must exist."""
        gone = set(labels)
        unknown = gone - set(self.alternative_labels)
        if unknown:
            raise KeyError(f"unknown alternatives: {sorted(unknown)}")
        keep = [i for i, a in enumerate(self.alternative_labels) if a not in gone]
        return DecisionMatrix(self.values[keep],
                              tuple(self.alternative_labels[i] for i in keep),
                              self.criterion_labels,
                              domain_rows=self.domain_rows)


@dataclass(frozen=True)
class CriteriaSpec:
    """Per-criterion direction, fixed domain [d1, d2], and weight.

    Weights must be strictly positive and sum to 1 within 1e-12; an
    out-of-tolerance vector is rejected rather than silently renormalized.
    Domains must satisfy d1 < d2 and d2 > 0 (max normalization divides
    by d2).
    """

    directions: tuple[Direction, ...]
    domains: tuple[tuple[float, float], ...]
    weights: np.ndarray

    def __post_init__(self):
        directions = tuple(Direction(d) for d in self.directions)
        domains = tuple((float(d1), float(d2)) for d1, d2 in self.domains)
        weights = np.asarray(self.weights, dtype=float)
        n = len(directions)
        if n == 0:
            raise EmptyMatrix("criteria spec must cover at least one criterion")
        if len(domains) != n:
            raise ShapeMismatch(
                f"directions ({n}), domains ({len(domains)}) and weights "
                f"({weights.shape}) must have equal length")
        if weights.shape != (n,):
            got = (weights.size if weights.ndim == 1
                   else f"an array of shape {weights.shape}")
            raise ShapeMismatch(f"expected {n} weights, got {got}")
        for j, (d1, d2) in enumerate(domains):
            if not (np.isfinite(d1) and np.isfinite(d2)):
                raise DegenerateDomain(f"domain of criterion {j} is not finite")
            if d2 <= 0.0:
                raise ZeroUpperBound(
                    f"criterion {j} has upper bound {d2}; must be > 0")
            if d1 >= d2:
                raise DegenerateDomain(
                    f"criterion {j} has domain [{d1}, {d2}] with d1 >= d2")
        if not np.isfinite(weights).all():
            raise InvalidWeights("weights contain non-finite values")
        if (weights <= 0.0).any():
            raise InvalidWeights(f"weights must be strictly positive, got {weights}")
        total = float(weights.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidWeights(
                f"weights {weights} sum to {total!r}, expected 1 within "
                f"{WEIGHT_SUM_TOL}")
        object.__setattr__(self, "directions", directions)
        object.__setattr__(self, "domains", domains)
        object.__setattr__(self, "weights", _freeze(weights))

    @property
    def n(self) -> int:
        return len(self.directions)

    @classmethod
    def for_ranks(cls, n_alternatives: int, n_criteria: int,
                  weights: Sequence[float] | None = None) -> "CriteriaSpec":
        """Spec for rank-valued criteria: cost direction, domain (0, m+1).

        The domain is frozen from n_alternatives at construction time, so
        later row deletions cannot shift it (which would reintroduce rank
        reversal). Weights default to equal.
        """
        if weights is None:
            weights = equal_weights(n_criteria)
        return cls(directions=(Direction.COST,) * n_criteria,
                   domains=((0.0, float(n_alternatives) + 1.0),) * n_criteria,
                   weights=np.asarray(weights, dtype=float))


def equal_weights(n: int) -> np.ndarray:
    if n < 1:
        raise ShapeMismatch(f"cannot build weights for {n} criteria")
    return np.full(n, 1.0 / n)


@dataclass(frozen=True)
class TopsisTrace:
    """Intermediate quantities of one evaluation, for auditing; built by
    TopsisResult.trace."""

    normalized: np.ndarray
    weighted: np.ndarray
    pis: np.ndarray
    nis: np.ndarray
    s_plus: np.ndarray
    s_minus: np.ndarray


@dataclass(frozen=True)
class TopsisResult:
    """One evaluation: the matrix and spec it read, and the per-row vectors
    it computed (separations, closeness coefficients and ranks)."""

    matrix: DecisionMatrix
    spec: CriteriaSpec
    s_plus: np.ndarray
    s_minus: np.ndarray
    closeness: np.ndarray
    ranks: np.ndarray

    @property
    def alternative_labels(self) -> tuple[str, ...]:
        return self.matrix.alternative_labels

    @property
    def trace(self) -> TopsisTrace:
        """The full trace, rebuilt on every read by the calls rtopsis made,
        so its bits are the stored ones. It is not cached: a result keeps no
        m x n array beyond its matrix."""
        normalized = normalize(self.matrix, self.spec)
        pis, nis = ideal_solutions(self.spec)
        return TopsisTrace(normalized, weight_matrix(normalized, self.spec),
                           pis, nis, self.s_plus, self.s_minus)


def _spec_matrix_agree(spec: CriteriaSpec, n: int) -> None:
    if spec.n != n:
        raise ShapeMismatch(f"spec covers {spec.n} criteria, matrix has {n}")


def normalize(matrix: DecisionMatrix, spec: CriteriaSpec,
              mode: Normalization = Normalization.MAXMIN) -> np.ndarray:
    """Normalized matrix n_ij: x/d2 (max) or (x-d1)/(d2-d1) (max-min).

    Every value must lie inside its criterion domain; outputs are in [0, 1]
    for in-domain data (max mode additionally needs d1 >= 0 for the lower
    bound).
    """
    mode = Normalization(mode)
    _spec_matrix_agree(spec, matrix.n)
    d1 = np.array([d[0] for d in spec.domains])
    d2 = np.array([d[1] for d in spec.domains])
    values = matrix.values
    out_of_domain = (values < d1) | (values > d2)
    if out_of_domain.any():
        i, j = np.argwhere(out_of_domain)[0]
        raise DomainViolation(
            f"value {values[i, j]} of alternative "
            f"{matrix.alternative_labels[i]!r} is outside the domain "
            f"[{d1[j]}, {d2[j]}] of criterion {matrix.criterion_labels[j]!r}")
    if mode is Normalization.MAX:
        return values / d2
    return (values - d1) / (d2 - d1)


def weight_matrix(normalized: np.ndarray, spec: CriteriaSpec) -> np.ndarray:
    """Weighted normalized matrix r_ij = w_j * n_ij."""
    normalized = np.asarray(normalized, dtype=float)
    _spec_matrix_agree(spec, normalized.shape[-1])
    if not np.isfinite(normalized).all():
        raise NonFiniteValue("normalized matrix contains non-finite values")
    return normalized * spec.weights


def ideal_solutions(spec: CriteriaSpec) -> tuple[np.ndarray, np.ndarray]:
    """(PIS, NIS) in weighted-normalized space, from the criteria alone.

    Max-min normalization puts a domain's ends at 0 and 1, so a benefit
    criterion has r+ = w and r- = 0, and a cost criterion the reverse.
    Data never enters, which is exactly what makes scores reversal-proof.
    """
    benefit = np.array([d is Direction.BENEFIT for d in spec.directions])
    return (np.where(benefit, spec.weights, 0.0),
            np.where(benefit, 0.0, spec.weights))


def squared_gaps(weighted: np.ndarray, pis: np.ndarray,
                 nis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-criterion squared gaps (r_ij - PIS_j)^2 and (r_ij - NIS_j)^2, two
    (m, n) arrays; row i of each sums to S+_i^2 and S-_i^2."""
    weighted = np.atleast_2d(np.asarray(weighted, dtype=float))
    pis = np.asarray(pis, dtype=float)
    nis = np.asarray(nis, dtype=float)
    if weighted.shape[1] != pis.shape[0] or pis.shape != nis.shape:
        raise ShapeMismatch(
            f"weighted matrix has {weighted.shape[1]} columns, ideals have "
            f"{pis.shape[0]} and {nis.shape[0]}")
    return (weighted - pis) ** 2, (weighted - nis) ** 2


def separations(weighted: np.ndarray, pis: np.ndarray,
                nis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean distances of each row to PIS and NIS."""
    gaps_plus, gaps_minus = squared_gaps(weighted, pis, nis)
    return np.sqrt(gaps_plus.sum(axis=1)), np.sqrt(gaps_minus.sum(axis=1))


def closeness(s_plus: np.ndarray, s_minus: np.ndarray) -> np.ndarray:
    """Closeness coefficients CC = S- / (S+ + S-), in [0, 1]."""
    s_plus = np.asarray(s_plus, dtype=float)
    s_minus = np.asarray(s_minus, dtype=float)
    if s_plus.shape != s_minus.shape:
        raise ShapeMismatch(f"separation shapes differ: "
                            f"{s_plus.shape} vs {s_minus.shape}")
    denom = s_plus + s_minus
    if (denom == 0.0).any():
        raise DegenerateIdeals(
            "S+ + S- is zero for some alternative (PIS equals NIS)")
    return s_minus / denom


def mean_ranks(x, axis: int = -1) -> np.ndarray:
    """Ascending ranks 1..m along one axis; exact ties share the mean rank.

    A stable argsort orders each slice; a run of equal sorted values
    spanning positions first..last gets (first + last) / 2 + 1. Equality
    is exact, so -0.0 ties with 0.0. The result is C-contiguous, so slices
    of it feed the same summation order as freshly stacked columns.
    """
    x = np.moveaxis(np.asarray(x, dtype=float), axis, -1)
    order = np.argsort(x, axis=-1, kind="stable")
    ordered = np.take_along_axis(x, order, axis=-1)
    m = x.shape[-1]
    position = np.broadcast_to(np.arange(m), x.shape)
    starts = np.ones(x.shape, dtype=bool)
    starts[..., 1:] = ordered[..., 1:] != ordered[..., :-1]
    ends = np.ones(x.shape, dtype=bool)
    ends[..., :-1] = starts[..., 1:]
    first = np.maximum.accumulate(np.where(starts, position, 0), axis=-1)
    last = np.flip(np.minimum.accumulate(
        np.flip(np.where(ends, position, m), axis=-1), axis=-1), axis=-1)
    ranks = np.empty(x.shape)
    np.put_along_axis(ranks, order, (first + last) / 2.0 + 1.0, axis=-1)
    return np.ascontiguousarray(np.moveaxis(ranks, -1, axis))


def scores_to_ranks(scores: np.ndarray) -> np.ndarray:
    """Ranks over descending scores; 1 = best, exact ties get mean ranks.

    Tie detection is exact float equality on purpose: under this pipeline
    equal scores arise only from structurally equivalent rows, and a
    tolerance would make rankings configuration-dependent. Output always
    sums to m(m+1)/2.
    """
    scores = np.asarray(scores, dtype=float)
    if not np.isfinite(scores).all():
        raise NonFiniteValue("scores contain non-finite values")
    return mean_ranks(-scores)


def rtopsis(matrix: DecisionMatrix,
            spec: CriteriaSpec | None = None) -> TopsisResult:
    """Full pipeline: max-min normalize, weight, ideals, separations,
    closeness.

    With spec=None the matrix is treated as rank data: cost criteria,
    equal weights, domain (0, m+1) anchored at the matrix's frozen
    domain_rows (so matrices derived by row deletion keep their original
    domain and their original scores).
    """
    if spec is None:
        spec = CriteriaSpec.for_ranks(matrix.domain_rows, matrix.n)
    weighted = weight_matrix(normalize(matrix, spec), spec)
    s_plus, s_minus = separations(weighted, *ideal_solutions(spec))
    scores = closeness(s_plus, s_minus)
    ranks = scores_to_ranks(scores)
    for array in (s_plus, s_minus, scores, ranks):
        array.flags.writeable = False
    return TopsisResult(matrix, spec, s_plus, s_minus, scores, ranks)
