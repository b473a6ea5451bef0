"""Fixed-domain TOPSIS over labelled decision matrices.

Classic TOPSIS anchors its ideal solutions in the data, so adding or
removing an alternative can reorder the survivors (rank reversal). Here the
anchors come from a per-criterion domain [d1, d2] declared up front: the
positive and negative ideals depend only on the criteria specification, and
the score of an alternative never changes when other rows come or go.

`topsis_stack` is the one evaluation kernel: it scores a whole stack of
matrices under one spec, and `rtopsis` is that kernel on a stack of one.
All functions are pure and operate on immutable inputs; evaluating many
matrices concurrently is safe.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

from ._blas import np
from .exceptions import (
    DegenerateDomain,
    DegenerateIdeals,
    DomainViolation,
    EmptyMatrix,
    InvalidWeights,
    NonFiniteValue,
    ParseError,
    ShapeMismatch,
    ZeroUpperBound,
)
from .files import check_labels, label_tuple

WEIGHT_SUM_TOL = 1e-12
BLOCK_VALUES = 1 << 13  # values weighted and summed at a time by topsis_stack


class _Choice(enum.Enum):
    """An enum whose unknown values raise ShapeMismatch."""

    @classmethod
    def _missing_(cls, value):
        raise ShapeMismatch(f"{value!r} is not a valid {cls.__qualname__}")


class Direction(_Choice):
    """Criterion orientation: larger-is-better or smaller-is-better."""

    BENEFIT = "benefit"
    COST = "cost"


class Normalization(_Choice):
    """Step-5 normalization variant; equivalent whenever d1 = 0."""

    MAX = "max"
    MAXMIN = "maxmin"


def _freeze(array: np.ndarray) -> np.ndarray:
    array = np.array(array, dtype=float)
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class DecisionMatrix:
    """m alternatives rated on n criteria, labelled under label_fault's rule.

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
        values = np.atleast_2d(_real_values("decision matrix", self.values))
        if values.ndim != 2:
            raise ShapeMismatch(f"decision matrix must be 2-D, got {values.ndim}-D")
        m, n = values.shape
        if m < 1 or n < 1:
            raise EmptyMatrix(f"decision matrix must be at least 1x1, got {m}x{n}")
        if not np.isfinite(values).all():
            i, j = np.argwhere(~np.isfinite(values))[0]
            raise NonFiniteValue(f"non-finite value at row {i}, column {j}")
        alternatives = label_tuple("alternative_labels",
                                   self.alternative_labels) or tuple(
            f"A{i + 1}" for i in range(m))
        criteria = label_tuple("criterion_labels",
                               self.criterion_labels) or tuple(
            f"C{j + 1}" for j in range(n))
        if len(alternatives) != m:
            raise ShapeMismatch(
                f"{len(alternatives)} alternative labels for {m} rows")
        if len(criteria) != n:
            raise ShapeMismatch(f"{len(criteria)} criterion labels for {n} columns")
        check_labels("alternative", alternatives)
        check_labels("criterion", criteria)
        try:
            if isinstance(self.domain_rows, bool):
                raise TypeError
            domain_rows = m if self.domain_rows is None \
                else operator.index(self.domain_rows)
        except TypeError:
            raise ShapeMismatch(f"domain_rows must be an integer, got "
                                f"{self.domain_rows!r}") from None
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
            raise ShapeMismatch(f"unknown alternatives: {sorted(unknown)}")
        keep = [i for i, a in enumerate(self.alternative_labels) if a not in gone]
        return DecisionMatrix(self.values[keep],
                              tuple(self.alternative_labels[i] for i in keep),
                              self.criterion_labels,
                              domain_rows=self.domain_rows)


def _sharing(values: np.ndarray, like: DecisionMatrix) -> DecisionMatrix:
    """A matrix with like's labels and domain_rows that holds values itself,
    checked by no one: only for finite values of like's shape that are
    read-only and owned by the caller, which never makes them writable
    again."""
    matrix = object.__new__(DecisionMatrix)
    matrix.__dict__.update(vars(like), values=values)
    return matrix


@dataclass(frozen=True)
class CriteriaSpec:
    """Per-criterion direction, fixed domain [d1, d2], and weight.

    Weights must be real numbers, strictly positive, and sum to 1 within
    1e-12; an out-of-tolerance vector is rejected rather than silently
    renormalized.
    Domains must satisfy d1 < d2 and d2 > 0 (max normalization divides
    by d2).
    """

    directions: tuple[Direction, ...]
    domains: tuple[tuple[float, float], ...]
    weights: np.ndarray

    def __post_init__(self):
        directions = tuple(map(Direction, label_tuple(
            "directions", self.directions, "Direction values")))
        domains = tuple(_domain(j, ends) for j, ends in enumerate(
            label_tuple("domains", self.domains, "(d1, d2) pairs")))
        weights = _real(self.weights)
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
            if not (math.isfinite(d1) and math.isfinite(d2)):
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
                   weights=weights)


def _domain(j: int, ends) -> tuple[float, float]:
    """Criterion j's domain ends as floats: two of them, each a number."""
    try:
        d1, d2 = ends
    except (TypeError, ValueError):
        raise ShapeMismatch(f"domain of criterion {j} must be two ends, got "
                            f"{ends!r}") from None
    try:
        return float(d1), float(d2)
    except (TypeError, ValueError):
        raise DegenerateDomain(f"domain of criterion {j} has an end that is "
                               f"not a number: {ends!r}") from None


def _real_values(name: str, values) -> np.ndarray:
    """values as a float array, with name first in any error: nested
    sequences of unequal lengths raise ShapeMismatch; a complex number, or
    a value that float() cannot convert, raises ParseError, as check_runs
    does for a run."""
    try:
        if np.iscomplexobj(values):
            raise TypeError("a complex number is not real")
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        if _ragged(values):
            raise ShapeMismatch(f"{name}: nested sequences of unequal "
                                "lengths make no array") from None
        raise ParseError(f"{name}: {exc}") from None


def _ragged(values) -> bool:
    """Whether values nest sequences of unequal lengths: numpy cannot lay
    them out as one array, or leaves a sequence where a number belongs."""
    try:
        cells = np.asarray(values, dtype=object)
    except ValueError:
        return True
    return any(np.ndim(cell) for cell in cells.flat)


def _real(weights) -> np.ndarray:
    """weights as a float array, read once if they are an iterator; values
    that are not real numbers raise InvalidWeights."""
    if isinstance(weights, Iterator):
        weights = tuple(weights)
    try:
        return _real_values("weights", weights)
    except ParseError:
        raise InvalidWeights(
            f"weights must be real numbers, got {weights!r}") from None


def check_weights(name: str, weights,
                  n: int | None = None) -> tuple[float, ...] | None:
    """CriteriaSpec's rule for n weights, with name first in any error; with
    n None, only that the weights are a vector of real numbers."""
    if weights is None:
        return None
    try:
        if n is not None:
            return tuple(CriteriaSpec.for_ranks(1, n, weights).weights.tolist())
        weights = _real(weights)
        if weights.ndim != 1:
            raise ShapeMismatch(f"expected a vector of weights, got an array "
                                f"of shape {weights.shape}")
        return tuple(weights.tolist())
    except (InvalidWeights, ShapeMismatch) as exc:
        raise type(exc)(f"{name}: {exc}") from None


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
        """The full trace, rebuilt on every read by the steps topsis_stack
        takes, so its bits are the stored ones. It is not cached: a result
        keeps no m x n array beyond its matrix."""
        normalized = normalize(self.matrix, self.spec)
        pis, nis = ideal_solutions(self.spec)
        return TopsisTrace(normalized, weight_matrix(normalized, self.spec),
                           pis, nis, self.s_plus, self.s_minus)


def _spec_matrix_agree(spec: CriteriaSpec, n: int) -> None:
    if spec.n != n:
        raise ShapeMismatch(f"spec covers {spec.n} criteria, matrix has {n}")


def _in_domain(values: np.ndarray, spec: CriteriaSpec, alternative_labels,
               criterion_labels) -> tuple[np.ndarray, np.ndarray]:
    """The domain ends d1 and d2, once every value lies in its criterion's
    domain (NaN lies in none); else DomainViolation names the first value
    outside by its labels, and its matrix when the values are a stack."""
    _spec_matrix_agree(spec, values.shape[-1])
    d1, d2 = (np.array(ends) for ends in zip(*spec.domains))
    outside = ~((values >= d1) & (values <= d2))
    if outside.any():
        *stack, i, j = np.argwhere(outside)[0].tolist()
        where = f" in matrix {tuple(stack)}" if stack else ""
        raise DomainViolation(
            f"value {values[(*stack, i, j)]} of alternative "
            f"{alternative_labels[i]!r}{where} is outside the domain "
            f"[{d1[j]}, {d2[j]}] of criterion {criterion_labels[j]!r}")
    return d1, d2


def normalize(matrix: DecisionMatrix, spec: CriteriaSpec,
              mode: Normalization = Normalization.MAXMIN) -> np.ndarray:
    """Normalized matrix n_ij: x/d2 (max) or (x-d1)/(d2-d1) (max-min).

    Every value must lie inside its criterion domain; outputs are in [0, 1]
    for in-domain data (max mode additionally needs d1 >= 0 for the lower
    bound).
    """
    mode = Normalization(mode)
    values = matrix.values
    d1, d2 = _in_domain(values, spec, matrix.alternative_labels,
                        matrix.criterion_labels)
    if mode is Normalization.MAX:
        return values / d2
    return _maxmin(values, d1, d2)


def _maxmin(values: np.ndarray, d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
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

    An argsort orders each slice; a run of equal sorted values spanning
    positions first..last gets (first + last) / 2 + 1. Every member of a
    run gets that rank, so the order of equal values among themselves does
    not matter and the sort need not be stable. Equality is exact, so -0.0
    ties with 0.0; a NaN equals nothing, so NaNs take the last ranks, one
    each, in no set order among themselves (no caller in hra passes one).
    The result is C-contiguous, so slices of it feed the same summation
    order as freshly stacked columns. A call holds about eight arrays the
    size of x at once (the order, the sorted copy, run starts, lengths and
    means, the gathered ranks and the contiguous copy), which is why
    run_hra ranks one leaf at a time rather than its whole cube.
    """
    x = np.moveaxis(np.asarray(x, dtype=float), axis, -1)
    order = np.argsort(x, axis=-1)
    ordered = np.take_along_axis(x, order, axis=-1)
    starts = np.ones(x.shape, dtype=bool)
    starts[..., 1:] = ordered[..., 1:] != ordered[..., :-1]
    starts = starts.ravel()
    # each slice starts a run, so no run crosses from one slice to the next
    first = np.flatnonzero(starts)
    length = np.diff(first, append=starts.size)
    mean = first % x.shape[-1] + (length + 1) / 2.0
    ranks = np.empty(x.shape)
    np.put_along_axis(ranks, order,
                      mean[np.cumsum(starts) - 1].reshape(x.shape), axis=-1)
    return np.ascontiguousarray(np.moveaxis(ranks, -1, axis))


def rank_columns(matrix: DecisionMatrix,
                 direction: Direction = Direction.COST) -> DecisionMatrix:
    """The rank transform: every column replaced by its mean ranks, 1 =
    best, so the smallest value ranks first for COST and the largest for
    BENEFIT. Labels and shape are kept; each column lies in [1, m] and sums
    to m(m+1)/2. Ranks stay floats, since ties give half-integer ranks."""
    values = matrix.values
    if Direction(direction) is Direction.BENEFIT:
        values = -values
    return DecisionMatrix(mean_ranks(values, axis=0),
                          matrix.alternative_labels, matrix.criterion_labels)


def scores_to_ranks(scores: np.ndarray) -> np.ndarray:
    """Ranks over descending scores; 1 = best, exact ties get mean ranks.

    Tie detection is exact float equality, which is not enough: rows whose
    closeness is mathematically equal, such as rows that are permutations
    of each other under equal weights, can get floats one ulp apart and so
    two strict ranks. On the benchmark's 13x30 seed-16 cube, overall
    node, the rows (2, 2, 1, 1) of alg-006 and (1, 1, 2, 2) of alg-001
    score 0.8877919451632956 and 0.8877919451632955 and rank 1 and 2;
    ROADMAP item 1 is the fix. Output always sums to m(m+1)/2.
    """
    scores = np.asarray(scores, dtype=float)
    if not np.isfinite(scores).all():
        raise NonFiniteValue("scores contain non-finite values")
    return mean_ranks(-scores)


def topsis_stack(values, spec: CriteriaSpec, alternative_labels,
                 criterion_labels) -> tuple[np.ndarray, ...]:
    """Fixed-domain TOPSIS of each (m, n) matrix of a (..., m, n) stack, all
    under one spec and labelled alike: (S+, S-, closeness, ranks), each
    (..., m) and read-only.

    The domain check, which refuses NaN, and the degenerate-ideal check run
    once per stack. Rows are normalized, weighted and summed BLOCK_VALUES
    values at a time, each row as one C-contiguous run, so the temporaries
    stay small and a matrix gets the same bits alone as in any stack.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim < 2:
        raise ShapeMismatch(f"a stack of matrices needs 2 or more axes, got "
                            f"{values.ndim}")
    d1, d2 = _in_domain(values, spec, alternative_labels, criterion_labels)
    pis, nis = ideal_solutions(spec)
    rows = values.reshape(-1, spec.n)
    s_plus, s_minus = np.empty(len(rows)), np.empty(len(rows))
    step = max(1, BLOCK_VALUES // spec.n)
    for start in range(0, len(rows), step):
        block = slice(start, start + step)
        weighted = weight_matrix(_maxmin(rows[block], d1, d2), spec)
        s_plus[block], s_minus[block] = separations(weighted, pis, nis)
    s_plus, s_minus = (s.reshape(values.shape[:-1]) for s in (s_plus, s_minus))
    scores = closeness(s_plus, s_minus)
    ranks = scores_to_ranks(scores)
    for array in (s_plus, s_minus, scores, ranks):
        array.flags.writeable = False
    return s_plus, s_minus, scores, ranks


def rtopsis(matrix: DecisionMatrix,
            spec: CriteriaSpec | None = None) -> TopsisResult:
    """topsis_stack on a stack of one: the matrix's result.

    With spec=None the matrix is treated as rank data: cost criteria,
    equal weights, domain (0, m+1) anchored at the matrix's frozen
    domain_rows (so matrices derived by row deletion keep their original
    domain and their original scores).
    """
    if spec is None:
        spec = CriteriaSpec.for_ranks(matrix.domain_rows, matrix.n)
    return TopsisResult(matrix, spec, *topsis_stack(
        matrix.values, spec, matrix.alternative_labels,
        matrix.criterion_labels))
