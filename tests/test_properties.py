"""Property-based tests of the engine's structural invariants."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import oracle

from hra import (
    CriteriaSpec,
    DecisionMatrix,
    Direction,
    Normalization,
    ideal_solutions,
    mean_ranks,
    normalize,
    rank_columns,
    rtopsis,
    scores_to_ranks,
    squared_gaps,
    weight_matrix,
)

DOMAIN_HI = 100.0

finite_values = st.floats(min_value=0.0, max_value=DOMAIN_HI,
                          allow_nan=False, allow_infinity=False)


@st.composite
def matrices(draw, max_m=8, max_n=6):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    values = draw(arrays(float, (m, n), elements=finite_values))
    return DecisionMatrix(values)


@st.composite
def weight_vectors(draw, n):
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n,
                                 max_size=n)))
    weights = raw / raw.sum()
    if abs(weights.sum() - 1.0) > 1e-12:  # guard against pathological sums
        weights = np.full(n, 1.0 / n)
    return weights


directions = st.sampled_from((Direction.COST, Direction.BENEFIT))


@st.composite
def matrix_with_spec(draw):
    dm = draw(matrices())
    spec = CriteriaSpec(directions=draw(st.tuples(*[directions] * dm.n)),
                        domains=((0.0, DOMAIN_HI),) * dm.n,
                        weights=draw(weight_vectors(dm.n)))
    return dm, spec


@st.composite
def matrix_with_shifted_domains(draw):
    """Up to 20 rows; each criterion has its own domain [d1, d2], often
    with d1 > 0, and the values lie inside it."""
    m = draw(st.integers(1, 20))
    n = draw(st.integers(1, 6))
    lows = draw(arrays(float, n, elements=st.floats(0.0, 50.0)))
    spans = draw(arrays(float, n, elements=st.floats(0.5, 50.0)))
    fractions = draw(arrays(float, (m, n), elements=st.floats(0.0, 1.0)))
    spec = CriteriaSpec(directions=draw(st.tuples(*[directions] * n)),
                        domains=tuple(zip(lows, lows + spans)),
                        weights=draw(weight_vectors(n)))
    return DecisionMatrix(lows + fractions * spans), spec


def assert_gaps_rebuild(gaps, separations):
    """Each row of squared gaps gives its separation bit for bit, and the
    per-criterion shares sum to S^2 (relative error is meaningless below
    the smallest normal float, hence the absolute floor)."""
    for gap, s in zip(gaps, separations):
        assert np.sqrt(gap.sum(axis=1)).tobytes() == s.tobytes()
        np.testing.assert_allclose(gap.sum(axis=1), s ** 2, rtol=1e-12,
                                   atol=np.finfo(float).tiny)


@given(matrix_with_spec())
@settings(max_examples=150, deadline=None)
def test_closeness_in_unit_interval(pair):
    dm, spec = pair
    cc = rtopsis(dm, spec).closeness
    assert (cc >= 0.0).all() and (cc <= 1.0).all()


@given(matrix_with_spec())
@settings(max_examples=150, deadline=None)
def test_max_equals_maxmin_when_lower_bound_zero(pair):
    dm, spec = pair
    a = normalize(dm, spec, Normalization.MAX)
    b = normalize(dm, spec, Normalization.MAXMIN)
    assert np.array_equal(a, b)  # bit-identical, not merely close


@given(matrix_with_shifted_domains(), st.sampled_from(Normalization))
@settings(max_examples=150, deadline=None)
def test_squared_gaps_rebuild_the_separations(pair, mode):
    dm, spec = pair
    if mode is Normalization.MAXMIN:  # the trace rtopsis derives on read
        result = rtopsis(dm, spec)
        trace = result.trace
        weighted, pis, nis = trace.weighted, trace.pis, trace.nis
        separations = result.s_plus, result.s_minus
    else:
        weighted = weight_matrix(normalize(dm, spec, mode), spec)
        pis, nis = ideal_solutions(spec)
        separations = [np.sqrt(((weighted - ideal) ** 2).sum(axis=1))
                       for ideal in (pis, nis)]
    assert_gaps_rebuild(squared_gaps(weighted, pis, nis), separations)


@given(st.one_of(matrix_with_spec(), matrix_with_shifted_domains()),
       st.data())
@settings(max_examples=300, deadline=None)
def test_dominance_monotonicity(pair, data):
    dm, spec = pair
    lo, hi = np.array(spec.domains).T
    cost = np.array([d is Direction.COST for d in spec.directions])
    base = dm.values[data.draw(st.integers(0, dm.m - 1))]
    # nudge every criterion the "worse" way, toward the worst end of its
    # domain, strictly on at least one
    margin = np.where(cost, hi - base, base - lo)
    fractions = np.array(data.draw(st.lists(st.floats(0.01, 0.9),
                                            min_size=dm.n, max_size=dm.n)))
    worse = np.clip(base + np.where(cost, 1.0, -1.0) * fractions * margin,
                    lo, hi)
    if np.abs(worse - base).max() < 1e-3:
        return  # perturbation too small to outweigh rounding, skip case
    stacked = DecisionMatrix(np.vstack([dm.values, base, worse]))
    cc = rtopsis(stacked, spec).closeness
    assert cc[-2] > cc[-1]


@given(matrix_with_spec(), st.data())
@settings(max_examples=150, deadline=None)
def test_row_deletion_immunity(pair, data):
    dm, spec = pair
    if dm.m < 2:
        return
    full = rtopsis(dm, spec).closeness
    keep = data.draw(st.lists(st.integers(0, dm.m - 1), min_size=1,
                              unique=True))
    keep = sorted(keep)
    sub = DecisionMatrix(dm.values[keep],
                         tuple(dm.alternative_labels[i] for i in keep))
    survived = rtopsis(sub, spec).closeness
    assert np.array_equal(survived, full[keep])  # bit-identical


@given(matrix_with_spec(), st.data())
@settings(max_examples=100, deadline=None)
def test_row_permutation_equivariance(pair, data):
    dm, spec = pair
    perm = data.draw(st.permutations(range(dm.m)))
    perm = list(perm)
    permuted = DecisionMatrix(dm.values[perm],
                              tuple(dm.alternative_labels[i] for i in perm))
    base = rtopsis(dm, spec)
    shuffled = rtopsis(permuted, spec)
    assert np.array_equal(shuffled.closeness, base.closeness[perm])
    assert np.array_equal(shuffled.ranks, base.ranks[perm])


@given(matrix_with_spec(), st.data())
@settings(max_examples=100, deadline=None)
def test_criterion_permutation_invariance(pair, data):
    dm, spec = pair
    perm = list(data.draw(st.permutations(range(dm.n))))
    permuted_matrix = DecisionMatrix(
        dm.values[:, perm], dm.alternative_labels,
        tuple(dm.criterion_labels[j] for j in perm))
    permuted_spec = CriteriaSpec(
        directions=tuple(spec.directions[j] for j in perm),
        domains=tuple(spec.domains[j] for j in perm),
        weights=spec.weights[perm])
    base = rtopsis(dm, spec).closeness
    shuffled = rtopsis(permuted_matrix, permuted_spec).closeness
    np.testing.assert_allclose(shuffled, base, rtol=1e-12, atol=1e-15)


@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1,
                max_size=30))
@settings(max_examples=200, deadline=None)
def test_scores_to_ranks_sum(scores):
    m = len(scores)
    assert scores_to_ranks(scores).sum() == m * (m + 1) / 2


@given(st.lists(st.integers(0, 5), min_size=1, max_size=25))
@settings(max_examples=200, deadline=None)
def test_mean_rank_column_sum(values):
    m = len(values)
    column = np.array([float(v) for v in values])
    ranks = rank_columns(DecisionMatrix(column[:, None])).values[:, 0]
    assert ranks.sum() == m * (m + 1) / 2
    assert (ranks >= 1.0).all() and (ranks <= m).all()


@given(matrices(), directions)
@settings(max_examples=100, deadline=None)
def test_rank_columns_produces_valid_rank_matrix(dm, direction):
    # mean ranks are halves, so the column sums are exact in float64
    ranked = rank_columns(dm, direction)
    m = dm.m
    assert (ranked.values.sum(axis=0) == m * (m + 1) / 2).all()
    assert ((ranked.values >= 1.0) & (ranked.values <= m)).all()


# a few integers plus both zeros: ties everywhere, and -0.0 must tie 0.0
tie_heavy = st.sampled_from((-0.0, 0.0, 1.0, 2.0, 3.0))


@given(arrays(float, array_shapes(min_dims=1, max_dims=3, min_side=0,
                                  max_side=6),
              elements=tie_heavy))
@example(np.zeros(0))
@example(np.zeros((3, 0)))
@example(np.zeros((2, 0, 4)))
@settings(max_examples=200, deadline=None)
def test_mean_ranks_matches_oracle_on_every_axis(x):
    """Along every axis, empty ones too, each value ranks 1 + #smaller +
    (#equal - 1) / 2 within its slice, exactly, as the oracle ranks it."""
    for axis in range(x.ndim):
        ranks = mean_ranks(x, axis)
        assert ranks.shape == x.shape and ranks.flags.c_contiguous
        assert ranks.dtype == np.float64
        slices = np.moveaxis(x, axis, -1)
        smaller = (slices[..., None, :] < slices[..., :, None]).sum(-1)
        equal = (slices[..., None, :] == slices[..., :, None]).sum(-1)
        np.testing.assert_array_equal(
            ranks, np.moveaxis(1 + smaller + (equal - 1) / 2, -1, axis))
        if x.size:
            columns = slices.reshape(-1, x.shape[axis])
            ranked = np.moveaxis(ranks, axis, -1).reshape(columns.shape)
            for column, got in zip(columns, ranked):
                np.testing.assert_array_equal(
                    got, oracle.mean_ranks(column.tolist()))

