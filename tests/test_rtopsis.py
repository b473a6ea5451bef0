"""Unit tests for the fixed-domain TOPSIS core."""

import math
import sys

import numpy as np
import pytest

import oracle
from conftest import OVERALL_RANKS, OVERALL_SCORES
from hra import (
    CriteriaSpec,
    DecisionMatrix,
    DegenerateDomain,
    DegenerateIdeals,
    Direction,
    DomainViolation,
    EmptyMatrix,
    InvalidWeights,
    NonFiniteValue,
    Normalization,
    ShapeMismatch,
    ZeroUpperBound,
    closeness,
    equal_weights,
    ideal_solutions,
    normalize,
    rank_columns,
    rtopsis,
    scores_to_ranks,
    separations,
    squared_gaps,
    weight_matrix,
)
from hra.rtopsis import topsis_stack

COST = Direction.COST
BENEFIT = Direction.BENEFIT


def cost_spec(weights, domains):
    return CriteriaSpec(directions=(COST,) * len(weights), domains=domains,
                        weights=np.asarray(weights, dtype=float))


class TestDecisionMatrix:
    def test_default_labels(self):
        dm = DecisionMatrix([[1.0, 2.0], [3.0, 4.0]])
        assert dm.alternative_labels == ("A1", "A2")
        assert dm.criterion_labels == ("C1", "C2")
        assert dm.m == 2 and dm.n == 2

    def test_values_are_immutable(self):
        dm = DecisionMatrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            dm.values[0, 0] = 9.0

    def test_values_survive_their_owner_becoming_writable(self):
        # the owner of a read-only array may switch writing back on, so the
        # matrix checks and keeps its own copy
        source = np.array([[1.0, 2.0]])
        source.flags.writeable = False
        dm = DecisionMatrix(source)
        source.flags.writeable = True
        source[0, 0] = np.nan
        assert dm.values.tolist() == [[1.0, 2.0]]

    def test_rejects_nan(self):
        with pytest.raises(NonFiniteValue):
            DecisionMatrix([[1.0, float("nan")]])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ShapeMismatch):
            DecisionMatrix([[1.0], [2.0]], alternative_labels=("x", "x"))

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(ShapeMismatch):
            DecisionMatrix([[1.0], [2.0]], alternative_labels=("only-one",))

    def test_drop_alternatives(self):
        dm = DecisionMatrix([[1.0], [2.0], [3.0]],
                            alternative_labels=("a", "b", "c"))
        smaller = dm.drop_alternatives("b")
        assert smaller.alternative_labels == ("a", "c")
        np.testing.assert_array_equal(smaller.values, [[1.0], [3.0]])
        with pytest.raises(KeyError):
            dm.drop_alternatives("nope")

    def test_drop_alternatives_keeps_default_domain(self, dimension_table):
        # removing rows must not shift the default (0, m+1) domain, so the
        # survivors keep their exact scores even under the default spec
        full = rtopsis(dimension_table)
        smaller = dimension_table.drop_alternatives("DYYPO", "PPSO")
        assert smaller.domain_rows == 13
        keep = [i for i, a in enumerate(dimension_table.alternative_labels)
                if a not in ("DYYPO", "PPSO")]
        np.testing.assert_array_equal(rtopsis(smaller).closeness,
                                      full.closeness[keep])

    def test_domain_rows_cannot_undercut_row_count(self):
        with pytest.raises(ShapeMismatch):
            DecisionMatrix([[1.0], [2.0]], domain_rows=1)

    @pytest.mark.parametrize("rows", [2.5, 3.0, "3", None])
    def test_domain_rows_must_be_an_integer(self, rows):
        # int(2.5) would silently anchor the domain at (0, 3)
        if rows is None:
            assert DecisionMatrix(np.ones((2, 2)), domain_rows=np.int64(3)) \
                .domain_rows == 3
            return
        with pytest.raises(ShapeMismatch) as excinfo:
            DecisionMatrix(np.ones((2, 2)), domain_rows=rows)
        assert str(excinfo.value) == \
            f"domain_rows must be an integer, got {rows!r}"


class TestCriteriaSpec:
    def test_rejects_degenerate_domain(self):
        with pytest.raises(DegenerateDomain):
            cost_spec([1.0], ((3.0, 3.0),))

    def test_rejects_nonpositive_upper_bound(self):
        with pytest.raises(ZeroUpperBound):
            cost_spec([1.0], ((-2.0, 0.0),))
        with pytest.raises(ZeroUpperBound):
            cost_spec([1.0], ((-3.0, -1.0),))

    def test_rejects_bad_weights(self):
        with pytest.raises(InvalidWeights):
            cost_spec([0.5, 0.4], ((0, 1), (0, 1)))  # sums to 0.9
        with pytest.raises(InvalidWeights):
            cost_spec([1.5, -0.5], ((0, 1), (0, 1)))
        with pytest.raises(InvalidWeights):
            cost_spec([float("nan"), 1.0], ((0, 1), (0, 1)))

    def test_weights_survive_their_owner_becoming_writable(self):
        source = np.array([0.5, 0.5])
        source.flags.writeable = False
        spec = CriteriaSpec.for_ranks(3, 2, source)
        source.flags.writeable = True
        source[:] = -1.0
        assert spec.weights.tolist() == [0.5, 0.5]

    def test_numbers_given_as_text_are_weights(self):
        assert CriteriaSpec.for_ranks(3, 2, ["0.5", "0.5"]).weights.tolist() \
            == [0.5, 0.5]

    def test_equal_weight_default_for_ranks(self):
        spec = CriteriaSpec.for_ranks(13, 4)
        assert spec.domains == ((0.0, 14.0),) * 4
        assert all(d is COST for d in spec.directions)
        np.testing.assert_allclose(spec.weights, 0.25)

    def test_rank_domain_frozen_at_construction(self):
        # the domain comes from the row count given up front, not from any
        # later matrix, so deleting alternatives cannot shift it
        spec = CriteriaSpec.for_ranks(13, 2)
        assert spec.domains[0] == (0.0, 14.0)


class TestNormalize:
    def test_midpoint_both_modes(self):
        dm = DecisionMatrix([[7.0]])
        spec = cost_spec([1.0], ((0.0, 14.0),))
        assert normalize(dm, spec, Normalization.MAXMIN)[0, 0] == 0.5
        # equal because d1 = 0
        assert normalize(dm, spec, Normalization.MAX)[0, 0] == 0.5

    def test_published_row(self, dimension_table):
        spec = CriteriaSpec.for_ranks(13, 4)
        normalized = normalize(dimension_table, spec)
        jso = dimension_table.alternative_labels.index("jSO")
        np.testing.assert_allclose(normalized[jso],
                                   [3 / 14, 2 / 14, 2 / 14, 5 / 14],
                                   rtol=1e-15)

    def test_domain_violation_names_cell(self):
        dm = DecisionMatrix([[15.0]], alternative_labels=("row",),
                            criterion_labels=("col",))
        spec = cost_spec([1.0], ((0.0, 14.0),))
        with pytest.raises(DomainViolation, match="row.*col"):
            normalize(dm, spec)

    def test_maxmin_with_shifted_domain(self):
        dm = DecisionMatrix([[10.5]])
        spec = cost_spec([1.0], ((7.0, 14.0),))
        assert normalize(dm, spec, Normalization.MAXMIN)[0, 0] == 0.5
        assert normalize(dm, spec, Normalization.MAX)[0, 0] == 0.75

    def test_matches_reference(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(1.0, 9.0, size=(5, 3))
        dm = DecisionMatrix(values)
        spec = cost_spec([0.2, 0.3, 0.5], ((0.0, 10.0),) * 3)
        for mode, name in ((Normalization.MAX, "max"),
                           (Normalization.MAXMIN, "maxmin")):
            expected = oracle.normalize(values.tolist(), spec.domains, name)
            np.testing.assert_allclose(normalize(dm, spec, mode), expected,
                                       rtol=1e-15)


class TestWeightMatrix:
    def test_direct_product(self):
        spec = cost_spec([0.25, 0.75], ((0, 1), (0, 1)))
        out = weight_matrix(np.array([[0.5, 0.5]]), spec)
        np.testing.assert_allclose(out, [[0.125, 0.375]])

    def test_single_criterion_identity(self):
        spec = cost_spec([1.0], ((0, 1),))
        np.testing.assert_array_equal(
            weight_matrix(np.array([[0.3], [0.7]]), spec), [[0.3], [0.7]])

    def test_published_row_weighted(self, dimension_table):
        spec = CriteriaSpec.for_ranks(13, 4)
        weighted = weight_matrix(normalize(dimension_table, spec), spec)
        jso = dimension_table.alternative_labels.index("jSO")
        np.testing.assert_allclose(weighted[jso],
                                   [3 / 56, 2 / 56, 2 / 56, 5 / 56],
                                   rtol=1e-15)

    def test_shape_mismatch(self):
        spec = cost_spec([0.5, 0.5], ((0, 1), (0, 1)))
        with pytest.raises(ShapeMismatch):
            weight_matrix(np.zeros((2, 3)), spec)


class TestIdealSolutions:
    def test_cost_with_zero_lower_bound(self):
        spec = CriteriaSpec.for_ranks(13, 4)
        pis, nis = ideal_solutions(spec)
        np.testing.assert_array_equal(pis, np.zeros(4))
        np.testing.assert_array_equal(nis, np.full(4, 0.25))

    def test_benefit_mirrors_cost(self):
        spec = CriteriaSpec(directions=(BENEFIT,) * 4,
                            domains=((0.0, 14.0),) * 4,
                            weights=np.full(4, 0.25))
        pis, nis = ideal_solutions(spec)
        np.testing.assert_array_equal(pis, np.full(4, 0.25))
        np.testing.assert_array_equal(nis, np.zeros(4))

    def test_nonzero_lower_bound(self):
        # max-min normalization puts d1 = 7 at 0, so a cost criterion's PIS
        # is 0 whatever d1 is
        spec = cost_spec([0.2, 0.8], ((7.0, 14.0), (0.0, 1.0)))
        pis, nis = ideal_solutions(spec)
        assert pis[0] == 0.0
        assert nis[0] == 0.2

    def test_data_independent(self):
        # same spec, any data: the anchors never move
        spec = cost_spec([0.5, 0.5], ((1.0, 9.0), (1.0, 9.0)))
        pis1, nis1 = ideal_solutions(spec)
        pis2, nis2 = ideal_solutions(spec)
        np.testing.assert_array_equal(pis1, pis2)
        np.testing.assert_array_equal(nis1, nis2)


class TestSeparations:
    def test_row_at_ideals(self):
        pis = np.array([0.0, 0.0])
        nis = np.array([0.5, 0.5])
        s_plus, s_minus = separations(np.array([pis, nis]), pis, nis)
        assert s_plus[0] == 0.0 and s_minus[1] == 0.0

    def test_published_row_distances(self, dimension_table):
        spec = CriteriaSpec.for_ranks(13, 4)
        result = rtopsis(dimension_table, spec)
        jso = dimension_table.alternative_labels.index("jSO")
        assert result.trace.s_plus[jso] == pytest.approx(math.sqrt(42) / 56,
                                                         rel=1e-14)
        assert result.trace.s_minus[jso] == pytest.approx(math.sqrt(490) / 56,
                                                          rel=1e-14)
        # jSO ranks (3, 2, 2, 5) on the (0, 14) domain with equal weights:
        # its squared gaps are (rank / 56)^2 and ((14 - rank) / 56)^2
        trace = result.trace
        gaps_plus, gaps_minus = squared_gaps(trace.weighted, trace.pis,
                                             trace.nis)
        ranks = dimension_table.values[jso]
        np.testing.assert_allclose(gaps_plus[jso], (ranks / 56) ** 2,
                                   rtol=1e-14)
        np.testing.assert_allclose(gaps_minus[jso], ((14 - ranks) / 56) ** 2,
                                   rtol=1e-14)

    def test_shape_mismatch(self):
        for function in (separations, squared_gaps):
            with pytest.raises(ShapeMismatch):
                function(np.zeros((2, 3)), np.zeros(2), np.zeros(2))


class TestCloseness:
    def test_extremes_and_symmetry(self):
        np.testing.assert_array_equal(
            closeness(np.array([0.0, 0.3]), np.array([0.4, 0.3])),
            [1.0, 0.5])

    def test_published_value(self):
        cc = closeness(np.array([0.11573]), np.array([0.39528]))
        assert cc[0] == pytest.approx(0.7735, abs=5e-5)

    def test_degenerate(self):
        with pytest.raises(DegenerateIdeals):
            closeness(np.array([0.0]), np.array([0.0]))


class TestScoresToRanks:
    def test_descending(self):
        np.testing.assert_array_equal(scores_to_ranks([0.9, 0.1, 0.5]),
                                      [1, 3, 2])

    def test_tie_averaging(self):
        np.testing.assert_array_equal(scores_to_ranks([0.4, 0.4]), [1.5, 1.5])

    def test_published_scores_to_published_ranks(self):
        np.testing.assert_array_equal(scores_to_ranks(list(OVERALL_SCORES)),
                                      OVERALL_RANKS)

    def test_rejects_nan(self):
        with pytest.raises(NonFiniteValue):
            scores_to_ranks([0.1, float("nan")])


class TestTopsisStack:
    SPEC = CriteriaSpec((COST, BENEFIT, COST, BENEFIT, COST),
                        ((0.0, 5.0),) * 4 + ((1.0, 6.0),),
                        [0.1, 0.2, 0.3, 0.25, 0.15])

    @pytest.mark.parametrize("block", [1, 7, 8192])
    def test_each_matrix_scores_as_it_does_alone(self, monkeypatch, block):
        # blocks of 1 and 7 values cut the stack's rows across matrices
        monkeypatch.setattr(sys.modules["hra.rtopsis"], "BLOCK_VALUES", block)
        stack = np.random.default_rng(3).integers(1, 6, size=(2, 3, 4, 5))
        vectors = topsis_stack(stack, self.SPEC, "abcd", "vwxyz")
        for v in vectors:
            assert v.shape == (2, 3, 4) and not v.flags.writeable
        monkeypatch.undo()
        for index in np.ndindex(2, 3):
            alone = rtopsis(DecisionMatrix(stack[index]), self.SPEC)
            for v, field in zip(vectors, ("s_plus", "s_minus", "closeness",
                                          "ranks")):
                assert v[index].tobytes() == getattr(alone, field).tobytes()

    def test_value_outside_names_its_matrix(self):
        stack = np.ones((2, 3, 1))
        stack[1, 2, 0] = 7.0
        with pytest.raises(DomainViolation) as excinfo:
            topsis_stack(stack, cost_spec([1.0], ((0.0, 4.0),)),
                         ("a", "b", "c"), ("x",))
        assert str(excinfo.value) == (
            "value 7.0 of alternative 'c' in matrix (1,) is outside the domain "
            "[0.0, 4.0] of criterion 'x'")

    def test_nan_lies_in_no_domain(self):
        with pytest.raises(DomainViolation, match="value nan of alternative "
                                                  "'b' is outside"):
            topsis_stack([[1.0], [np.nan]], cost_spec([1.0], ((0.0, 4.0),)),
                         ("a", "b"), ("x",))


class TestRtopsis:
    def test_published_overall_table(self, dimension_table):
        result = rtopsis(dimension_table, CriteriaSpec.for_ranks(13, 4))
        np.testing.assert_allclose(result.closeness, OVERALL_SCORES,
                                   atol=5e-5)
        np.testing.assert_array_equal(result.ranks, OVERALL_RANKS)

    def test_two_by_two(self):
        dm = DecisionMatrix([[1.0, 1.0], [2.0, 2.0]])
        result = rtopsis(dm, cost_spec([0.5, 0.5], ((0.0, 3.0),) * 2))
        np.testing.assert_allclose(result.closeness, [2 / 3, 1 / 3],
                                   rtol=1e-12)
        np.testing.assert_array_equal(result.ranks, [1, 2])

    def test_single_row_at_midpoint(self):
        result = rtopsis(DecisionMatrix([[1.0, 1.0, 1.0]]))  # domain (0, 2)
        np.testing.assert_allclose(result.closeness, [0.5], rtol=1e-15)
        assert result.ranks[0] == 1.0

    def test_trace_consistent_with_closeness(self, dimension_table):
        result = rtopsis(dimension_table)
        recomputed = result.trace.s_minus / (result.trace.s_plus
                                             + result.trace.s_minus)
        np.testing.assert_array_equal(recomputed, result.closeness)
        m = dimension_table.m
        assert result.ranks.sum() == m * (m + 1) / 2

    def test_default_spec_is_rank_spec(self):
        dm = DecisionMatrix([[1.0, 2.0], [2.0, 1.0]])
        result = rtopsis(dm)
        np.testing.assert_array_equal(
            result.closeness,
            rtopsis(dm, CriteriaSpec.for_ranks(2, 2)).closeness)
        assert result.matrix is dm
        assert result.alternative_labels == ("A1", "A2")
        assert result.spec.directions == (COST, COST)
        assert result.spec.domains == ((0.0, 3.0),) * 2
        np.testing.assert_array_equal(result.spec.weights, [0.5, 0.5])

    def test_matches_reference_on_random_matrices(self):
        # half the trials use the domain [0, 10]; the other half give each
        # criterion its own domain with d1 > 0
        rng = np.random.default_rng(11)
        for trial in range(50):
            m = int(rng.integers(1, 9))
            n = int(rng.integers(1, 6))
            if trial % 2:
                lows = rng.uniform(0.5, 10.0, size=n)
                spans = rng.uniform(0.5, 20.0, size=n)
            else:
                lows, spans = np.zeros(n), np.full(n, 10.0)
            values = lows + rng.uniform(0.05, 0.95, size=(m, n)) * spans
            weights = rng.uniform(0.1, 1.0, size=n)
            weights /= weights.sum()
            directions = tuple(rng.choice([COST, BENEFIT], size=n))
            spec = CriteriaSpec(directions=directions,
                                domains=tuple(zip(lows, lows + spans)),
                                weights=weights)
            expected = oracle.rtopsis_scores(
                values.tolist(), weights.tolist(), spec.domains,
                [d.value for d in directions])
            result = rtopsis(DecisionMatrix(values), spec)
            np.testing.assert_allclose(result.closeness, expected,
                                       rtol=1e-12, atol=1e-15)

    def test_domain_ends_rank_in_order(self):
        # on [1, 14] the worst value 1 scores 0 and the best value 14 scores
        # 1, in either direction
        dm = DecisionMatrix([[1.0], [2.0], [14.0]])
        benefit = rtopsis(dm, CriteriaSpec(directions=(BENEFIT,),
                                           domains=((1.0, 14.0),),
                                           weights=[1.0]))
        assert benefit.closeness[0] == 0.0 and benefit.closeness[2] == 1.0
        assert benefit.closeness[1] == pytest.approx(1 / 13, rel=1e-15)
        np.testing.assert_array_equal(benefit.ranks, [3, 2, 1])
        cost = rtopsis(dm, cost_spec([1.0], ((1.0, 14.0),)))
        np.testing.assert_array_equal(cost.ranks, [1, 2, 3])

    def test_empty_matrix_rejected(self):
        with pytest.raises(EmptyMatrix):
            DecisionMatrix(np.zeros((0, 3)))


@pytest.mark.parametrize("build, error, message", [
    (lambda: DecisionMatrix(np.ones((2, 2, 2))),
     ShapeMismatch, "decision matrix must be 2-D, got 3-D"),
    (lambda: DecisionMatrix(np.ones((2, 2)), criterion_labels=("a",)),
     ShapeMismatch, "1 criterion labels for 2 columns"),
    (lambda: DecisionMatrix(np.ones((2, 2)), criterion_labels=("a", "a")),
     ShapeMismatch, "duplicate criterion 'a'"),
    (lambda: DecisionMatrix(np.ones((2, 1)), ("a", " #next"), ("c",)),
     ShapeMismatch, "alternative ' #next' would reload as '#next'"),
    (lambda: cost_spec([], ()),
     EmptyMatrix, "criteria spec must cover at least one criterion"),
    (lambda: cost_spec([1.0], ((0.0, math.inf),)),
     DegenerateDomain, "domain of criterion 0 is not finite"),
    (lambda: CriteriaSpec.for_ranks(3, 2, [0.2, 0.3, 0.5]),
     ShapeMismatch, "expected 2 weights, got 3"),
    (lambda: CriteriaSpec.for_ranks(3, 2, [[0.5, 0.5]]),
     ShapeMismatch, "expected 2 weights, got an array of shape (1, 2)"),
    (lambda: CriteriaSpec((COST, COST), ((0.0, 4.0),), [0.5, 0.5]),
     ShapeMismatch,
     "directions (2), domains (1) and weights ((2,)) must have equal length"),
    (lambda: equal_weights(0),
     ShapeMismatch, "cannot build weights for 0 criteria"),
    (lambda: weight_matrix(np.array([[np.nan, 1.0]]),
                           CriteriaSpec.for_ranks(3, 2)),
     NonFiniteValue, "normalized matrix contains non-finite values"),
    (lambda: closeness(np.ones(2), np.ones(3)),
     ShapeMismatch, "separation shapes differ: (2,) vs (3,)"),
    (lambda: topsis_stack(np.ones(3), CriteriaSpec.for_ranks(3, 3), "a",
                          "xyz"),
     ShapeMismatch, "a stack of matrices needs 2 or more axes, got 1"),
    (lambda: topsis_stack(np.ones((2, 2, 3)), CriteriaSpec.for_ranks(3, 2),
                          "ab", "xyz"),
     ShapeMismatch, "spec covers 2 criteria, matrix has 3"),
    (lambda: CriteriaSpec.for_ranks(3, 2, ["0.5", "half"]),
     InvalidWeights, "weights must be real numbers, got ['0.5', 'half']"),
    (lambda: DecisionMatrix([[1.0, 2.0]], criterion_labels="xy"),
     ShapeMismatch, "criterion_labels must be a sequence of labels, got 'xy'"),
    (lambda: DecisionMatrix([[1.0]], alternative_labels=b"a"),
     ShapeMismatch, "alternative_labels must be a sequence of labels, got "
                    "b'a'"),
    (lambda: CriteriaSpec(("up",), ((0.0, 1.0),), [1.0]),
     ShapeMismatch, "'up' is not a valid Direction"),
    (lambda: CriteriaSpec((COST,), ((0, 1, 2),), [1.0]),
     ShapeMismatch, "domain of criterion 0 must be two ends, got (0, 1, 2)"),
    (lambda: CriteriaSpec((COST,), ((0, "a"),), [1.0]),
     DegenerateDomain,
     "domain of criterion 0 has an end that is not a number: (0, 'a')"),
    (lambda: rank_columns(DecisionMatrix([[1.0]]), "x"),
     ShapeMismatch, "'x' is not a valid Direction"),
    (lambda: normalize(DecisionMatrix([[1.0]]), CriteriaSpec.for_ranks(1, 1),
                       "max2"),
     ShapeMismatch, "'max2' is not a valid Normalization"),
], ids=["3-d-values", "criterion-label-count", "repeated-criterion-label",
        "blank-edged-alternative",
        "no-criteria", "infinite-domain", "weight-count", "2-d-weights",
        "domain-count", "equal-weights-of-none", "non-finite-weighting",
        "unequal-separations", "stack-of-a-vector", "stack-spec-count",
        "weight-not-a-number", "text-criterion-labels",
        "bytes-alternative-labels", "unknown-direction", "three-domain-ends",
        "domain-end-not-a-number", "unknown-rank-direction",
        "unknown-normalization"])
def test_raise_sites(build, error, message):
    with pytest.raises(error) as excinfo:
        build()
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message
