"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see the lines as they happen)."""

import functools
import hashlib
import time
import urllib.request

import numpy as np

import oracle
from conftest import (OVERALL_RANKS, OVERALL_SCORES, SYNTHETIC_CSV,
                      count_evaluations, random_dataset)
from hra import (
    CriteriaSpec,
    DecisionMatrix,
    Direction,
    Normalization,
    aggregate_dimension,
    emit_report,
    fixtures,
    load_long_csv,
    normalize,
    rank_columns,
    rtopsis,
    run_hra,
    scores_to_ranks,
)
from hra.cli import main
from hra.verify import verify_reference_tables

SCORE_TOLERANCE = 5e-4
ORACLE_TOLERANCE = 1e-12

# Rows of the dimension-10 measure table touched by its known anomaly (the
# mean column carries two 3s and no 1). Re-aggregation agrees exactly with
# the published dimension ranking anyway, so this tolerance set exists for
# localization only and is never exercised.
TOLERATED_DIM10_ROWS = frozenset({"jSO", "EBOwithCMAR"})


def acceptance(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL: {description}")
                raise
            print(f"ACCEPTANCE {number} PASS: {description}"
                  + (f" ({detail})" if detail else ""))
        return wrapper
    return decorate


@acceptance(1, "overall table reproduced from the dimension-rank fixture")
def test_overall_table_reproduction():
    table = fixtures.load_dimension_ranks()
    spec = CriteriaSpec.for_ranks(13, 4)  # equal 0.25, (0, 14), cost
    rtopsis(table, spec)  # warmup so the timing below is steady-state
    start = time.perf_counter()
    result = rtopsis(table, spec)
    elapsed = time.perf_counter() - start
    errors = np.abs(result.closeness - OVERALL_SCORES)
    assert errors.max() <= SCORE_TOLERANCE, (
        f"worst score error {errors.max():.2e} exceeds {SCORE_TOLERANCE}")
    np.testing.assert_array_equal(result.ranks, OVERALL_RANKS)
    assert elapsed < 0.010, f"evaluation took {elapsed * 1e3:.2f} ms"
    return (f"13/13 scores within {SCORE_TOLERANCE}, ranks exact, "
            f"{elapsed * 1e6:.0f} us")


@acceptance(2, "per-dimension rankings reproduced from the measure-rank "
               "fixtures")
def test_dimension_rankings_reproduction():
    dimension_table = fixtures.load_dimension_ranks()
    exact_cells = 0
    tolerated_used = []
    for column, dim in enumerate(fixtures.CEC17_DIMENSIONS):
        table = fixtures.load_measure_ranks(dim)
        _, ranks = aggregate_dimension(
            [table.values[:, j] for j in range(table.n)],
            measure_weights=[0.2] * 5,
            measure_labels=table.criterion_labels,
            alternative_labels=table.alternative_labels)
        expected = dimension_table.values[:, column]
        mismatches = [
            (label, got, want) for label, got, want
            in zip(table.alternative_labels, ranks, expected) if got != want]
        exact_cells += len(expected) - len(mismatches)
        tolerated = TOLERATED_DIM10_ROWS if dim == 10 else frozenset()
        hard = [m for m in mismatches if m[0] not in tolerated]
        assert not hard, (
            f"dim{dim} disagreements: " + "; ".join(
                f"{label}: computed {got:g}, published {want:g}"
                for label, got, want in hard))
        tolerated_used += [f"dim{dim}:{label}" for label, _, _ in mismatches]
    assert exact_cells == 52 or tolerated_used, "cell accounting is off"
    detail = f"{exact_cells}/52 cells exact"
    if tolerated_used:
        detail += f"; tolerated swaps used: {tolerated_used}"
    return detail


@acceptance(3, "end-to-end aggregation matches the brute-force reference "
               "on the bundled synthetic dataset")
def test_synthetic_dataset_matches_reference():
    ds = load_long_csv(SYNTHETIC_CSV)
    assert (len(ds.algorithms), len(ds.functions)) == (5, 6)
    assert (len(ds.dimensions), len(ds.measures)) == (2, 5)
    report = run_hra(ds)
    ref = oracle.run_hierarchy(ds.values, list(ds.algorithms),
                               list(ds.functions), list(ds.dimensions),
                               list(ds.measures))
    worst = 0.0
    for key, result in report.traces.items():
        if key[0] == "leaf":
            expected, _ = oracle.rtopsis_ranks(
                oracle.rank_columns(
                    [[ds.values[(key[1], key[2], a, f)]
                      for f in ds.functions] for a in ds.algorithms]))
            np.testing.assert_array_equal(result.ranks, expected)
    for d in ds.dimensions:
        np.testing.assert_array_equal(report.dimension_ranks[d],
                                      ref["dimension_ranks"][d])
    worst = np.abs(report.final_scores
                   - np.asarray(ref["final_scores"])).max()
    assert worst <= ORACLE_TOLERANCE, f"score deviation {worst:.2e}"
    np.testing.assert_array_equal(report.final_ranks, ref["final_ranks"])
    return f"max score deviation {worst:.1e}"


@acceptance(4, "invariant suite over 1,000 randomized matrices")
def test_randomized_invariant_suite():
    rng = np.random.default_rng(20_26)
    domain_hi = 50.0
    for trial in range(1000):
        m = int(rng.integers(1, 21))
        n = int(rng.integers(1, 11))
        values = rng.uniform(0.0, 40.0, size=(m, n))
        dm = DecisionMatrix(values)
        weights = rng.uniform(0.1, 1.0, size=n)
        weights /= weights.sum()
        if abs(weights.sum() - 1.0) > 1e-12:
            weights = np.full(n, 1.0 / n)
        spec = CriteriaSpec(directions=(Direction.COST,) * n,
                            domains=((0.0, domain_hi),) * n, weights=weights)
        result = rtopsis(dm, spec)

        # closeness stays in the unit interval
        assert (result.closeness >= 0.0).all()
        assert (result.closeness <= 1.0).all()

        # max and max-min normalization coincide when d1 = 0
        assert np.array_equal(normalize(dm, spec, Normalization.MAX),
                              normalize(dm, spec, Normalization.MAXMIN))

        # a strictly dominated copy of a row scores strictly lower
        base = values[int(rng.integers(0, m))]
        worse = base + rng.uniform(1.0, 5.0, size=n)
        stacked = DecisionMatrix(np.vstack([base, worse]))
        cc = rtopsis(stacked, spec).closeness
        assert cc[0] > cc[1]

        # deleting rows leaves surviving closeness bit-identical
        if m >= 2:
            keep = sorted(rng.choice(m, size=int(rng.integers(1, m)),
                                     replace=False))
            survivors = DecisionMatrix(
                values[keep], tuple(dm.alternative_labels[i] for i in keep))
            assert np.array_equal(rtopsis(survivors, spec).closeness,
                                  result.closeness[keep])

        # rank transform preserves column sums
        expected_sum = m * (m + 1) / 2
        assert (rank_columns(dm).values.sum(axis=0) == expected_sum).all()

        # derived ranks always sum to m(m+1)/2
        assert scores_to_ranks(result.closeness).sum() == expected_sum
    return "6 invariants x 1000 matrices"


@acceptance(5, "aggregation of 4 dimensions x 5 measures performs exactly "
               "25 evaluations")
def test_invocation_count(monkeypatch):
    calls = count_evaluations(monkeypatch)
    ds = random_dataset(m=6, n=8, k=4, l=5, seed=55)
    report = run_hra(ds)
    assert sum(calls) == 25, f"observed {sum(calls)} evaluations"
    assert report.invocation_count == 25
    return "1 + 4 + 5*4 = 25 evaluations observed"


@acceptance(6, "competition-scale aggregation finishes under a second and "
               "is deterministic")
def test_scale_and_determinism(tmp_path):
    ds = random_dataset(m=13, n=30, k=4, l=5, seed=17)
    start = time.perf_counter()
    report = run_hra(ds)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"run took {elapsed:.3f} s"

    def digest(directory):
        sha = hashlib.sha256()
        for path in sorted(emit_report(run_hra(ds), "csv", directory)):
            sha.update(path.read_bytes())
        return sha.hexdigest()

    assert digest(tmp_path / "one") == digest(tmp_path / "two")
    np.testing.assert_array_equal(run_hra(ds).final_scores,
                                  report.final_scores)
    return f"{elapsed * 1e3:.0f} ms, consecutive report hashes equal"


@acceptance(7, "verification command is hermetic and reports 6/6 PASS")
def test_verification_command(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("network access attempted during verification")

    monkeypatch.setattr(urllib.request, "urlopen", refuse)
    checks = verify_reference_tables()
    assert len(checks) == 6
    assert all(check.passed for check in checks), [c.line() for c in checks]
    code = main(["verify-paper"])
    out = capsys.readouterr().out
    assert code == 0
    assert "6/6 checks PASS" in out
    return "6/6 checks, no network touched"
