"""Tests for statistics, CSV round trips, and report rendering."""

import codecs
import csv
import dataclasses
import errno
import hashlib
import math
import os
import re
import stat
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import SYNTHETIC_CSV, random_dataset
from hra import (
    DecisionMatrix,
    DuplicateTuple,
    EmptyMatrix,
    EmptyRuns,
    HraError,
    InconsistentStatistics,
    IoError,
    MissingCell,
    NonFiniteValue,
    ParseError,
    PerformanceDataset,
    RawRuns,
    ShapeMismatch,
    dataset_from_runs,
    emit_report,
    fixtures,
    load_long_csv,
    load_rank_matrix_csv,
    run_hra,
    save_long_csv,
)
from hra import dataio, files
from hra.dataio import format_number


def reference_statistics(runs):
    """Plain-python cross-check, independent of numpy."""
    n = len(runs)
    s = sorted(runs)
    median = s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2
    mean = sum(runs) / n
    std = 0.0 if n == 1 else math.sqrt(
        sum((x - mean) ** 2 for x in runs) / (n - 1))
    return s[0], s[-1], median, mean, std


def cell_statistics(runs, population_std=False):
    """measure -> value of the one cell that dataset_from_runs summarizes
    from runs, in STAT_MEASURES order."""
    ds = dataset_from_runs(RawRuns({(10, "alg", "f"): runs}),
                           population_std=population_std)
    return {p: ds.values[(10, p, "alg", "f")] for p in ds.measures}


class TestComputeStatistics:
    """The statistics of one cell, computed by dataset_from_runs."""

    def test_three_runs(self):
        assert tuple(cell_statistics([1.0, 2.0, 3.0]).values()) \
            == (1, 3, 2, 2, 1)

    def test_single_run(self):
        assert tuple(cell_statistics([5.0]).values()) == (5, 5, 5, 5, 0)

    def test_fifty_one_random_runs_match_reference(self):
        rng = np.random.default_rng(51)
        runs = rng.uniform(0.0, 1e3, size=51).tolist()
        got = tuple(cell_statistics(runs).values())
        np.testing.assert_allclose(got, reference_statistics(runs),
                                   rtol=1e-12)

    def test_even_length_median(self):
        assert cell_statistics([4.0, 1.0, 3.0, 2.0])["median"] == 2.5

    def test_population_std(self):
        sample = cell_statistics([1.0, 2.0, 3.0])["std"]
        population = cell_statistics([1.0, 2.0, 3.0],
                                     population_std=True)["std"]
        assert sample == pytest.approx(1.0)
        assert population == pytest.approx(math.sqrt(2.0 / 3.0))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        runs = rng.uniform(size=20)
        shuffled = rng.permutation(runs)
        assert cell_statistics(runs) == cell_statistics(shuffled)

    def test_empty(self):
        with pytest.raises(EmptyRuns):
            cell_statistics([])

    def test_non_finite(self):
        with pytest.raises(NonFiniteValue):
            cell_statistics([1.0, float("inf")])


def one_cell_statistics(runs, population_std):
    """The per-cell definition every cell must reproduce bit for bit:
    numpy's median, mean and std, and best and worst by min() and max(),
    which keep the first of equal runs (of 0.0 and -0.0, the first in run
    order; numpy's sign for that case depends on its SIMD lanes)."""
    values = np.asarray(runs, dtype=float)
    std = 0.0 if values.size == 1 \
        else values.std(ddof=0 if population_std else 1)
    return [min(runs), max(runs), np.median(values), values.mean(), std]


class TestBatchedStatistics:
    """dataset_from_runs gives each cell the statistics of its one-cell
    definition, whatever else the runs hold."""

    @pytest.mark.parametrize("population_std", [False, True])
    def test_bit_identical_to_one_cell_at_a_time(self, population_std):
        rng = np.random.default_rng(5)
        runs = {}
        for d, count in enumerate((1, 2, 51, 51, 2, 1, 7, 51)):
            for f, kind in enumerate(("spread", "ties", "zeros", "tiny")):
                if kind == "spread":
                    values = rng.lognormal(0.0, 3.0, count)
                elif kind == "ties":
                    values = rng.integers(0, 3, count) * 100.0
                elif kind == "zeros":  # -0.0 beside 0.0
                    values = rng.choice([0.0, -0.0, 1e-300], count)
                else:
                    values = 1e5 + rng.uniform(0.0, 1e-9, count)
                runs[(10 * (d + 1), "alg", f"f{f}")] = tuple(values.tolist())
        ds = dataset_from_runs(RawRuns(runs), population_std=population_std)
        for (d, a, f), values in runs.items():
            got = np.array([ds.values[(d, p, a, f)] for p in ds.measures])
            one = np.array(list(cell_statistics(values,
                                                population_std).values()))
            reference = np.array(one_cell_statistics(values, population_std))
            assert got.view(np.uint64).tolist() \
                == one.view(np.uint64).tolist() \
                == reference.view(np.uint64).tolist(), (d, f, values)

    def test_single_runs_have_zero_std(self):
        raw = RawRuns({(10, "a", "f"): (-0.0,), (10, "a", "g"): (3.0,)})
        for population_std in (False, True):
            ds = dataset_from_runs(raw, population_std=population_std)
            # numpy's median and mean of [-0.0] are +0.0
            assert [v.hex() for v in ds.array[0, :, 0, 0].tolist()] \
                == ["-0x0.0p+0"] * 2 + ["0x0.0p+0"] * 3
            assert ds.array[0, 4, 0, 1] == 0.0


@st.composite
def run_lists(draw):
    """1 to 300 finite runs: spread, tied, of tiny spread, all equal, or
    zeros of both signs beside subnormals."""
    n = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(("spread", "ties", "tiny", "equal",
                                 "zeros")))
    if kind == "spread":
        element = st.floats(0.0, 1e12, allow_subnormal=True)
    elif kind == "ties":
        element = st.sampled_from(draw(st.lists(
            st.floats(0.0, 1e4), min_size=1, max_size=3)))
    elif kind == "tiny":
        base = draw(st.floats(1e-8, 1e6))
        element = st.floats(base, base * (1 + 1e-12))
    elif kind == "equal":
        element = st.just(draw(st.floats(0.0, 1e12)))
    else:
        element = st.sampled_from((0.0, -0.0, 5e-324, 1e-300))
    return tuple(draw(st.lists(element, min_size=n, max_size=n)))


def bits(values):
    return [float(value).hex() for value in values]


class TestRunStatistics:
    """The statistics of one cell, computed without numpy."""

    @given(st.lists(run_lists(), min_size=1, max_size=4), st.booleans())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_numpy_bit_for_bit(self, cells, population_std):
        """Median, mean and std are numpy's bit for bit, the mean clamped
        into [best, worst]; best and worst are numpy's values, their zero
        signs those of min() and max()."""
        raw = RawRuns({(10, "alg", f"f{i}"): runs
                       for i, runs in enumerate(cells)})
        ds = dataset_from_runs(raw, population_std=population_std)
        for (d, a, f), runs in raw.runs.items():
            got = [ds.values[(d, p, a, f)] for p in ds.measures]
            values = np.array(runs)
            best, worst = values.min(), values.max()
            mean = min(max(values.mean(), best), worst)
            std = 0.0 if len(runs) == 1 \
                else values.std(ddof=0 if population_std else 1)
            assert got[:2] == [best, worst]
            assert bits(got) == bits([min(runs), max(runs),
                                      np.median(values), mean, std])

    @pytest.mark.parametrize("runs, best, worst", [
        ((0.0, -0.0), "0x0.0p+0", "0x0.0p+0"),
        ((-0.0, 0.0), "-0x0.0p+0", "-0x0.0p+0"),
        ((1.0, -0.0, 0.0, -0.0), "-0x0.0p+0", "0x1.0000000000000p+0"),
        ((0.0,) * 9 + (-0.0,) * 9, "0x0.0p+0", "0x0.0p+0"),
        ((-0.0,) * 9 + (0.0,) * 9, "-0x0.0p+0", "-0x0.0p+0"),
    ])
    def test_a_zero_best_or_worst_is_the_first_in_run_order(
            self, runs, best, worst):
        got = cell_statistics(runs)
        assert (got["best"].hex(), got["worst"].hex()) == (best, worst)


class TestPerformanceDataset:
    def test_axes_and_completeness(self, synthetic_dataset):
        ds = synthetic_dataset
        assert len(ds.values) == 5 * 6 * 2 * 5
        assert ds.missing_cells() == []

    def test_matrix_shape_and_labels(self, synthetic_dataset):
        ds = synthetic_dataset
        dm = ds.matrix(ds.dimensions[0], "mean")
        assert dm.alternative_labels == ds.algorithms
        assert dm.criterion_labels == ds.functions
        leaf = ds.array[0, ds.measures.index("mean")]
        assert dm.values.tobytes() == leaf.tobytes()
        assert not np.shares_memory(dm.values, ds.array)

    def test_missing_cells_of_unknown_labels(self, synthetic_dataset):
        # a label outside the axes lacks every cell, listed in the order of
        # the selection and then of the algorithm and function axes
        ds = synthetic_dataset
        d = ds.dimensions[0]

        def every(d, p):
            return [(d, p, a, f) for a in ds.algorithms for f in ds.functions]

        assert ds.missing_cells((d,), ("gone",)) == every(d, "gone")
        assert ds.missing_cells((999,), ("best",)) == every(999, "best")
        assert ds.missing_cells((999, d), ("best", "gone")) == \
            every(999, "best") + every(999, "gone") + every(d, "gone")
        assert ds.missing_cells((d,), ("best",)) == []

    def test_matrix_of_partial_leaf_lists_its_cells(self, synthetic_dataset):
        ds = synthetic_dataset
        d, p = ds.dimensions[1], "mean"
        gone = [(d, p, ds.algorithms[0], ds.functions[4]),
                (d, p, ds.algorithms[3], ds.functions[1])]
        other = (d, "best", ds.algorithms[2], ds.functions[2])
        values = dict(ds.values)
        for key in (other, *reversed(gone)):
            del values[key]
        partial = PerformanceDataset(algorithms=ds.algorithms,
                                     functions=ds.functions,
                                     dimensions=ds.dimensions,
                                     measures=ds.measures, values=values)
        with pytest.raises(MissingCell) as excinfo:
            partial.matrix(d, p)
        assert excinfo.value.missing == gone
        assert partial.missing_cells((d,), (p,)) == gone
        assert partial.missing_cells() == [other] + gone
        complete = partial.matrix(ds.dimensions[0], p)
        assert complete.values.tobytes() == \
            ds.matrix(ds.dimensions[0], p).values.tobytes()

    def test_rejects_cell_outside_axes(self):
        with pytest.raises(ShapeMismatch):
            PerformanceDataset(algorithms=("a",), functions=("f",),
                               dimensions=(1,), measures=("m",),
                               values={(1, "m", "a", "other"): 1.0})

    def test_rejects_inconsistent_statistics(self):
        values = {(1, "best", "a", "f"): 5.0, (1, "worst", "a", "f"): 1.0,
                  (1, "median", "a", "f"): 3.0}
        with pytest.raises(InconsistentStatistics):
            PerformanceDataset(algorithms=("a",), functions=("f",),
                               dimensions=(1,),
                               measures=("best", "worst", "median"),
                               values=values)

    def test_rejects_negative_std(self):
        with pytest.raises(InconsistentStatistics):
            PerformanceDataset(algorithms=("a",), functions=("f",),
                               dimensions=(1,), measures=("std",),
                               values={(1, "std", "a", "f"): -0.5})

    def test_rebuild_from_values_is_equal(self, synthetic_dataset):
        ds = synthetic_dataset
        again = PerformanceDataset(algorithms=ds.algorithms,
                                   functions=ds.functions,
                                   dimensions=ds.dimensions,
                                   measures=ds.measures, values=ds.values)
        assert again == ds
        assert dict(again.values) == dict(ds.values)

    def test_values_view_of_partial_dataset(self, synthetic_dataset):
        ds = synthetic_dataset
        values = dict(ds.values)
        gone = (ds.dimensions[1], "mean", ds.algorithms[2], ds.functions[0])
        del values[gone]
        partial = PerformanceDataset(algorithms=ds.algorithms,
                                     functions=ds.functions,
                                     dimensions=ds.dimensions,
                                     measures=ds.measures, values=values)
        assert len(partial.values) == len(ds.values) - 1
        assert list(partial.values) == [key for key in ds.values
                                        if key != gone]
        assert gone not in partial.values
        assert partial.missing_cells() == [gone]
        assert partial != ds
        with pytest.raises(TypeError):
            partial.values[gone] = 1.0

    def test_loaders_keep_their_cube_and_from_array_copies(self):
        # the loaders hand _dataset a cube no caller holds, so it is kept
        # as it is; from_array's caller may go on writing its array
        axes = ((10,), ("best",), ("a", "b"), ("f",))
        cube = np.arange(2.0).reshape(1, 1, 2, 1)
        kept = dataio._dataset(axes, cube)
        assert np.shares_memory(kept.array, cube)
        assert not cube.flags.writeable
        given = np.arange(2.0).reshape(1, 1, 2, 1)
        copied = PerformanceDataset.from_array(
            dimensions=axes[0], measures=axes[1], algorithms=axes[2],
            functions=axes[3], array=given)
        assert not np.shares_memory(copied.array, given)
        assert given.flags.writeable
        assert copied == kept

    def test_cell_lookup(self, synthetic_dataset):
        ds = synthetic_dataset
        key = (ds.dimensions[0], "best", ds.algorithms[0], ds.functions[0])
        assert ds.values[key] == ds.matrix(*key[:2]).values[0, 0]
        with pytest.raises(MissingCell):
            ds.matrix(999, "best")


class TestLongCsv:
    def test_round_trip_is_identity(self, synthetic_dataset, tmp_path):
        ds = synthetic_dataset
        path = tmp_path / "again.csv"
        save_long_csv(ds, path)
        again = load_long_csv(path)
        assert again.values == ds.values  # bit-identical floats
        assert again.algorithms == ds.algorithms
        assert again.functions == ds.functions
        assert again.dimensions == ds.dimensions
        assert again.measures == ds.measures

    def test_dimension_table_round_trips(self, dimension_table, tmp_path):
        dataset = leaf_dataset(dimension_table)
        assert load_long_csv(save_long_csv(dataset, tmp_path / "rt.csv")) \
            == dataset

    def test_cec_shaped_cardinality(self, tmp_path):
        path = tmp_path / "cec_shape.csv"
        with open(path, "w") as fh:
            fh.write("dimension,measure,function,algorithm,value\n")
            for d in (10, 30, 50, 100):
                for p in ("best", "worst", "median", "mean", "std"):
                    for f in range(30):
                        for a in range(13):
                            v = 1.0 + ((d + f + a) % 9)
                            if p == "std":
                                v = 0.5
                            fh.write(f"{d},{p},f{f + 1},alg{a},{v}\n")
        ds = load_long_csv(path)
        assert len(ds.values) == 13 * 30 * 4 * 5 == 7800
        assert ds.missing_cells() == []
        assert ds.dimensions == (10, 30, 50, 100)

    def test_missing_tuple_surfaces_in_run(self, tmp_path):
        text = SYNTHETIC_CSV.read_text().splitlines()
        clipped = tmp_path / "partial.csv"
        clipped.write_text("\n".join(text[:-1]) + "\n")
        ds = load_long_csv(clipped)  # loading a partial file is fine
        last = text[-1].split(",")
        expected = (int(last[0]), last[1], last[3], last[2])
        with pytest.raises(MissingCell) as excinfo:
            run_hra(ds)
        assert excinfo.value.missing == [expected]

    def test_duplicate_tuple(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("dimension,measure,function,algorithm,value\n"
                        "10,best,f1,a,1.0\n10,best,f1,a,2.0\n")
        with pytest.raises(DuplicateTuple):
            load_long_csv(path)

    @pytest.mark.parametrize("line3,line5,error,line", [
        ("10,best,f1,a,1.0", "10,best,f2,a,oops", DuplicateTuple, 3),
        ("10,best,f2,a,oops", "10,best,f1,a,1.0", ParseError, 3),
        ("10,best,f2,a,inf", "10,best,f1,a,1.0", NonFiniteValue, 3),
        ("10,best,f2,a", "10,best,f1,a,1.0", ParseError, 3),
        ("10,best,f2,a,2.0", "10,best,f1,a,oops", ParseError, 5),
    ])
    def test_first_error_in_file_order_wins(self, tmp_path, line3, line5,
                                            error, line):
        path = tmp_path / "two_errors.csv"
        path.write_text("dimension,measure,function,algorithm,value\n"
                        f"10,best,f1,a,1.0\n{line3}\n10,best,f3,a,1.0\n"
                        f"{line5}\n")
        with pytest.raises(error, match=f":{line}:"):
            load_long_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("dim,meas,func,alg,val\n1,b,f,a,1.0\n")
        with pytest.raises(ParseError, match="header"):
            load_long_csv(path)

    def test_bad_value_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("dimension,measure,function,algorithm,value\n"
                        "10,best,f1,a,oops\n")
        with pytest.raises(ParseError, match=":2:"):
            load_long_csv(path)

    def test_non_finite_value(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("dimension,measure,function,algorithm,value\n"
                        "10,best,f1,a,nan\n")
        with pytest.raises(NonFiniteValue):
            load_long_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError, match="no_such"):
            load_long_csv(tmp_path / "no_such.csv")

    def test_quoted_hash_label_is_data(self, tmp_path):
        path = tmp_path / "hash.csv"
        path.write_text('# provenance\n'
                        'dimension,measure,function,algorithm,value\n'
                        '10,best,f1,a,1.0\n'
                        '"#top",best,f1,a,2.0\n'
                        '#top,best,f1,a,9.0\n'
                        '  # note,best,f1,a,9.0\n'
                        '"#multi\nline",best,f1,a,3.0\n'
                        '#c,"spans\n#two lines",f1,a,9.0\n'
                        '"#top",best,f2,a,4.0\n'
                        '10,best,f2,a,5.0\n')
        ds = load_long_csv(path)
        assert ds.dimensions == (10, "#top", "#multi\nline")
        assert dict(ds.values) == {
            (10, "best", "a", "f1"): 1.0, ("#top", "best", "a", "f1"): 2.0,
            ("#multi\nline", "best", "a", "f1"): 3.0,
            ("#top", "best", "a", "f2"): 4.0, (10, "best", "a", "f2"): 5.0}

    def test_carriage_return_label_round_trips(self, synthetic_dataset,
                                               tmp_path):
        ds = synthetic_dataset
        relabeled = PerformanceDataset.from_array(
            algorithms=("c\rd",) + ds.algorithms[1:],
            functions=("f\rg",) + ds.functions[1:],
            dimensions=("d\r1",) + ds.dimensions[1:], measures=ds.measures,
            array=ds.array)
        path = save_long_csv(relabeled, tmp_path / "data.csv")
        assert load_long_csv(path) == relabeled
        # the rows without a carriage return keep their bytes
        plain = save_long_csv(ds, tmp_path / "plain.csv").read_bytes()
        kept = [line for line in path.read_bytes().split(b"\n")
                if b"\r" not in line]
        assert len(kept) > 1 and set(kept) <= set(plain.split(b"\n"))

    def test_dimension_int_only_in_canonical_form(self, tmp_path):
        path = tmp_path / "dims.csv"
        path.write_text("dimension,measure,function,algorithm,value\n"
                        "10,best,f1,a,1.0\n010,best,f1,a,2.0\n"
                        "+10,best,f1,a,3.0\n -5 ,best,f1,a,4.0\n")
        ds = load_long_csv(path)
        assert ds.dimensions == (10, "010", "+10", -5)
        save_long_csv(ds, tmp_path / "again.csv")
        assert load_long_csv(tmp_path / "again.csv") == ds
        path.write_text("dimension,measure,function,algorithm,value\n"
                        "10,best,f1,a,1.0\n 10,best,f1,a,2.0\n")
        with pytest.raises(DuplicateTuple, match=":3:"):
            load_long_csv(path)

    def test_comment_with_open_quote_is_one_line(self, tmp_path):
        path = tmp_path / "comment.csv"
        path.write_text("dimension,measure,function,algorithm,value\n"
                        "10,best,f1,a,1.0\n"
                        '# see,"notes\n'
                        "10,best,f2,a,2.0\n10,best,f1,b,3.0\n"
                        "10,best,f2,b,4.0\n")
        ds = load_long_csv(path)
        assert len(ds.values) == 4 and ds.missing_cells() == []

    def test_error_names_physical_line(self, tmp_path):
        path = tmp_path / "lines.csv"
        path.write_text('# "provenance\n'
                        "dimension,measure,function,algorithm,value\n"
                        '10,best,"f\n1",a,1.0\n'
                        "10,best,f2,a,oops\n")
        with pytest.raises(ParseError, match=":5: value column"):
            load_long_csv(path)

    def test_field_over_csv_limit_names_line(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("dimension,measure,function,algorithm,value\n"
                        "10,best,f1,a,1.0\n"
                        f"10,best,f1,{'x' * 140000},1.0\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:3: "
                                             "field larger than field limit"):
            load_long_csv(path)

    def test_seventeen_digit_serialization(self):
        x = 0.1 + 0.2  # not exactly 0.3
        assert float(format_number(x)) == x


HEADER = "dimension,measure,function,algorithm,value\n"


def described(ds):
    return (ds.dimensions, ds.measures, ds.algorithms, ds.functions,
            ds.array.tobytes())


def load_outcome(load, path):
    """A loader's dataset as axes plus array bytes, or its error."""
    try:
        return described(load(path))
    except HraError as exc:
        return type(exc), str(exc)


DIMENSION_TEXTS = ("10", "010", "+10", " 10", "30 ", "-5", "dé")
LABEL_TEXTS = ("best", "worst", "mean", "a", " a", "a ", "été",
               "日本 x", "\u00a0b", "f\x0c1", "", "LSHADE-cnEpSin",
               "L" * 250, "\x1cg")
VALUE_TEXTS = ("1.0", "1_0", " 1e3 ", "nan", "inf", "-0.0", "", "x", "1e500",
               "\u00a02", "\x1c3", "4\x0b", "0x10", "\u0661")
OTHER_LINES = ("", " ", "# provenance", '# see,"notes', "#,,,,1")


@st.composite
def long_csv_files(draw):
    """Bytes of long CSVs: half of them clean, the rest with the row
    reader's corners (odd values, ragged rows, quotes, comments, blanks,
    repeated rows, CRLF, a bad header, a byte that is not UTF-8); any of
    them may start with one or two byte-order marks."""
    rough = draw(st.booleans())
    value = st.one_of(st.floats(allow_nan=False, allow_infinity=False)
                      .map(repr), st.integers(-3, 3).map(str))
    if rough:
        value = st.one_of(value, st.sampled_from(VALUE_TEXTS))
    label = st.sampled_from(LABEL_TEXTS)
    rows = draw(st.lists(st.tuples(st.sampled_from(DIMENSION_TEXTS), label,
                                   label, label, value), max_size=8))
    lines = []
    for fields in map(list, rows):
        corner = draw(st.integers(0, 11)) if rough else None
        if corner == 0:
            fields = fields[:4]
        elif corner == 1:
            fields.append("x")
        elif corner == 2:
            fields[3] = '"' + fields[3] + ',q"'
        lines.append(",".join(fields))
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(OTHER_LINES)) if rough else "")
        if rough and draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(lines)))
    head, ending = HEADER[:-1], "\n"
    if rough:
        head = draw(st.sampled_from((head,) * 4 + (
            " Dimension , measure,function,algorithm,VALUE", "dim,m,f,a,v")))
        ending = draw(st.sampled_from(("\n", "\n", "\r\n")))
    text = ending.join([head] + lines)
    if draw(st.booleans()):
        text += ending
    data = text.encode()
    if rough and draw(st.integers(0, 9)) == 0:
        data = data.replace(b"a", b"\xff", 1)
    if draw(st.integers(0, 9)) == 0:
        data = codecs.BOM_UTF8 * draw(st.integers(1, 2)) + data
    return data


def line_starts(data: bytes) -> list[int]:
    """Every offset at which a line of data starts, and its end."""
    return [0] + [i + 1 for i, byte in enumerate(data) if byte == ord("\n")] \
        + [len(data)]


def columns_outcome(path, cut):
    """The columnar path's dataset, its halves cut at byte cut, as axes
    plus array bytes; None where it leaves the file to the row reader."""
    ds = dataio._load_columns(path, cut)
    return None if ds is None else described(ds)


PREFIX = "x" * 20  # two algorithm labels share these first 20 bytes
# plain, so the columnar path takes it: a byte-order mark, comment lines
# before the header and in the body, the label 'C#', and a last line
# whose labels are new to every axis; 'abcdefgh' and 'abcdefg ' fill one
# 8-byte word, so their block groups its function texts as integers
HOSTILE_PLAIN = codecs.BOM_UTF8 + (
    "# provenance, with, commas\n\n" + HEADER
    + "10,best,f1,C#,1.5\n"
    + " # a comment line\n"
    + f"10,best,f1,{PREFIX}alg_a,2\n"
    + f"10,best,f2,{PREFIX}alg_b,3\n"
    + "\n"
    + "30,worst,f2,C#,4\n"
    + "#,,,,9\n"
    + f"30,worst,f1,{PREFIX}alg_a,5e-3\n"
    + "30,best,abcdefgh,C#,7\n"
    + "30,best,abcdefg ,C#,8\n"
    + "010,best,f3,late,6\n").encode()


class TestColumnarLoader:
    """load_long_csv parses plain files column by column; the row reader
    is the reference for every file and the source of every error."""

    def test_plain_file_takes_columnar_path(self):
        ds = dataio._load_columns(SYNTHETIC_CSV)
        assert ds is not None
        assert described(ds) == load_outcome(dataio._load_rows, SYNTHETIC_CSV)

    @pytest.mark.parametrize("body", [
        '"10",best,f1,a,1.0\n',  # a quote
        "10,best,f1,a,1.0\r\n",  # CRLF
        "10,best,f1,a,\x1c3\n",  # float() does not strip \x1c as a blank
        "10,best,f1,a,1.0\n 10,best,f1,a,2.0\n",  # a repeated cell
        "10,best,f1,a,nan\n",  # non-finite
        "10,best,f1,a,-inf\n",
        "10,best,f1,a\n",  # four fields
        f"10,best,f1,{'L' * 257},1.0\n",  # a label over 256 bytes
        "10,best,f1,a,1.0\n\t\n",  # a line of blanks
    ])
    def test_other_files_take_row_path(self, tmp_path, body):
        path = tmp_path / "data.csv"
        path.write_text(HEADER + body)
        assert dataio._load_columns(path) is None
        assert load_outcome(load_long_csv, path) \
            == load_outcome(dataio._load_rows, path)

    @pytest.mark.parametrize("body", [
        "# note\n10,best,f1,a,1.0\n",  # a comment
        "10,best,f1,C#,1.0\n",  # a '#' inside a label is data
        "10,best,f1,a,1.0\n \u00a0# note, with, commas\n#,,,,1\n",
    ])
    def test_comments_take_columnar_path(self, tmp_path, body):
        path = tmp_path / "data.csv"
        path.write_text(HEADER + body)
        ds = dataio._load_columns(path)
        assert ds is not None
        assert described(ds) == load_outcome(dataio._load_rows, path)

    def test_comment_before_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("# provenance\n\n" + HEADER + "10,best,f1,a,1.0\n")
        ds = dataio._load_columns(path)
        assert ds is not None and ds.algorithms == ("a",)
        assert described(ds) == load_outcome(dataio._load_rows, path)

    @pytest.mark.parametrize("text", [
        HEADER + "10,best,f1,a,1.0\n",
        "# provenance\n" + HEADER + "10,best,f1,a,1.0\n",
    ], ids=["header", "comment"])
    def test_byte_order_mark_is_skipped(self, tmp_path, text):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text)
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        ds = dataio._load_columns(marked)  # stays on the columnar path
        assert ds is not None
        assert described(ds) == load_outcome(dataio._load_rows, marked) \
            == load_outcome(dataio._load_rows, plain)
        # CRLF line endings send the marked file to the row reader
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(codecs.BOM_UTF8 + text.replace("\n", "\r\n").encode())
        assert dataio._load_columns(crlf) is None
        assert load_outcome(load_long_csv, crlf) == described(ds)

    def test_second_byte_order_mark_is_data(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(codecs.BOM_UTF8 * 2 + (HEADER + "10,best,f1,a,1.0\n")
                         .encode())
        outcome = load_outcome(load_long_csv, path)
        assert outcome == load_outcome(dataio._load_rows, path)
        assert outcome[0] is ParseError and "\ufeffdimension" in outcome[1]

    def test_blank_lines_and_missing_final_newline(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("\n\n" + HEADER + "\n10,best,f1,\u00e9,1.0\n\n"
                        "30,best,f1,\u00e9,-0.0")
        assert dataio._load_columns(path) is not None
        assert load_outcome(load_long_csv, path) \
            == load_outcome(dataio._load_rows, path)

    def test_blocks_keep_first_appearance_order(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataio, "_BLOCK_BYTES", 64)
        path = tmp_path / "data.csv"
        path.write_text(HEADER + "".join(
            f"{d},p{i % 3},f{i % 5},a{i % 7},{i}\n"
            for i, d in enumerate((30, 10) * 20)))
        ds = dataio._load_columns(path)
        assert ds is not None and ds.dimensions == (30, 10)
        assert ds.algorithms[:3] == ("a0", "a1", "a2")
        assert described(ds) == load_outcome(dataio._load_rows, path)

    @pytest.mark.parametrize("value", ["1_0", "1_1.5e1_0", " +.5\x0b"])
    def test_float_grammar_takes_columnar_path(self, tmp_path, value):
        path = tmp_path / "data.csv"
        path.write_text(HEADER + f"10,best,f1,a,{value}\n")
        ds = dataio._load_columns(path)
        assert ds is not None and ds.array.ravel().tolist() == [float(value)]
        assert described(ds) == load_outcome(dataio._load_rows, path)

    def test_labels_sharing_a_prefix_stay_distinct(self, tmp_path):
        labels = ["aaaaaaaa-x", "aaaaaaaa-y", "aaaaaaaabbbbbbbb-x",
                  "aaaaaaaabbbbbbbb-y", "L" * 255 + "x", "L" * 255 + "y"]
        path = tmp_path / "data.csv"
        path.write_text(HEADER + "".join(
            f"10,{label},{label},{label},{i}\n"
            for i, label in enumerate(labels)))
        ds = dataio._load_columns(path)
        assert ds is not None
        assert ds.measures == ds.functions == ds.algorithms == tuple(labels)
        assert described(ds) == load_outcome(dataio._load_rows, path)

    @given(long_csv_files(), st.integers(min_value=0))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_outcome_as_row_reader(self, tmp_path, data, line):
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        assert load_outcome(load_long_csv, path) \
            == load_outcome(dataio._load_rows, path)
        # halves cut at any line start merge to what one pass gives
        starts = line_starts(data)
        assert columns_outcome(path, starts[line % len(starts)]) \
            == columns_outcome(path, len(data))

    @pytest.mark.parametrize("hostile", [False, True],
                             ids=["synthetic", "hostile"])
    def test_every_line_start_splits_like_one_pass(self, tmp_path, hostile):
        path = SYNTHETIC_CSV
        if hostile:
            path = tmp_path / "data.csv"
            path.write_bytes(HOSTILE_PLAIN)
        data = path.read_bytes()
        one_pass = columns_outcome(path, len(data))
        assert one_pass == load_outcome(dataio._load_rows, path)
        if hostile:  # the last line's labels are new to every axis
            assert one_pass[:4] == (
                (10, 30, "010"), ("best", "worst"),
                ("C#", PREFIX + "alg_a", PREFIX + "alg_b", "late"),
                ("f1", "f2", "abcdefgh", "abcdefg", "f3"))
        for cut in line_starts(data):
            assert columns_outcome(path, cut) == one_pass, cut

    def test_peak_memory_within_three_file_sizes(self, tmp_path):
        path = save_long_csv(random_dataset(50, 100, 4, 5, seed=11),
                             tmp_path / "data.csv")
        assert dataio._load_columns(path) is not None
        tracemalloc.start()
        try:
            load_long_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * path.stat().st_size


class TestRankMatrixCsv:
    def test_dimension_table_fixture(self):
        dm = fixtures.load_dimension_ranks()
        assert (dm.m, dm.n) == (13, 4)
        np.testing.assert_array_equal(
            dm.values[dm.alternative_labels.index("jSO")], [3, 2, 2, 5])

    def test_measure_table_fixture(self):
        dm = fixtures.load_measure_ranks(30)
        assert (dm.m, dm.n) == (13, 5)
        np.testing.assert_array_equal(
            dm.values[dm.alternative_labels.index("EBOwithCMAR")],
            [1, 1, 1, 1, 3])

    def test_one_by_one(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("algorithm,only\nsolo,1\n")
        dm = load_rank_matrix_csv(path)
        assert (dm.m, dm.n) == (1, 1)
        assert dm.values[0, 0] == 1.0

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(EmptyMatrix):
            load_rank_matrix_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("algorithm,c1\n")
        with pytest.raises(EmptyMatrix):
            load_rank_matrix_csv(path)

    def test_no_criteria_columns(self, tmp_path):
        path = tmp_path / "labels_only.csv"
        path.write_text("algorithm\nthing\n")
        with pytest.raises(EmptyMatrix):
            load_rank_matrix_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("algorithm,c1,c2\na,1\n")
        with pytest.raises(ParseError, match=":2:"):
            load_rank_matrix_csv(path)

    def test_duplicate_label(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("algorithm,c1\na,1\na,2\n")
        with pytest.raises(ParseError, match="duplicate"):
            load_rank_matrix_csv(path)

    def test_duplicate_label_names_line(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("algorithm,c1\n" + "".join(
            f"a{i},{i}\n" for i in range(20000)) + "a7,1\n")
        with pytest.raises(ParseError, match=re.escape(
                f"{path}:20002: duplicate alternative 'a7'")):
            load_rank_matrix_csv(path)

    def test_comment_with_open_quote_is_one_line(self, tmp_path):
        path = tmp_path / "comment.csv"
        path.write_text('algorithm,c1\na,1\n# see,"notes\nb,2\n')
        matrix = load_rank_matrix_csv(path)
        assert matrix.alternative_labels == ("a", "b")
        np.testing.assert_array_equal(matrix.values, [[1.0], [2.0]])

    def test_field_over_csv_limit_names_line(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text(f"algorithm,c1\n{'x' * 140000},1\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:2: "
                                             "field larger than field limit"):
            load_rank_matrix_csv(path)

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "commented.csv"
        path.write_text("# provenance\nalgorithm,c1\n# mid comment\na,4\n")
        assert load_rank_matrix_csv(path).values[0, 0] == 4.0

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "marked.csv"
        path.write_bytes(codecs.BOM_UTF8 + b"# note\nalgorithm,c1\na,4\n")
        matrix = load_rank_matrix_csv(path)
        assert matrix.criterion_labels == ("c1",)
        assert matrix.alternative_labels == ("a",)


def parse_markdown_table(text):
    """Invert the report renderer for round-trip checks."""
    lines = [l for l in text.strip().splitlines() if not set(l) <= set("|- ")]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in lines]
    return rows[0], rows[1:]


class TestEmitReport:
    def test_csv_files_and_determinism(self, synthetic_dataset, tmp_path):
        report = run_hra(synthetic_dataset)
        first = emit_report(report, "csv", tmp_path / "one")
        second = emit_report(report, "csv", tmp_path / "two")
        names = sorted(p.name for p in first)
        assert names == ["dimension_10.csv", "dimension_30.csv",
                         "final_matrix.csv", "final_ranking.csv",
                         "leaf_ranks.csv"]
        for a, b in zip(sorted(first), sorted(second)):
            assert a.read_bytes() == b.read_bytes()

    def test_final_ranking_schema(self, synthetic_dataset, tmp_path):
        report = run_hra(synthetic_dataset)
        emit_report(report, "csv", tmp_path)
        lines = (tmp_path / "final_ranking.csv").read_text().splitlines()
        assert lines[0] == "algorithm,score,hra_rank"
        assert len(lines) == 1 + len(report.algorithms)
        label, score, rank = lines[1].split(",")
        assert label == report.algorithms[0]
        assert float(score) == report.final_scores[0]
        assert float(rank) == report.final_ranks[0]

    def test_markdown_round_trip(self, synthetic_dataset, tmp_path):
        report = run_hra(synthetic_dataset)
        emit_report(report, "markdown", tmp_path)
        header, rows = parse_markdown_table(
            (tmp_path / "final_ranking.md").read_text())
        assert header == ["algorithm", "score", "hra_rank"]
        for row, label, score, rank in zip(rows, report.algorithms,
                                           report.final_scores,
                                           report.final_ranks):
            assert row[0] == label
            assert float(row[1]) == score  # full-precision cells
            assert float(row[2]) == rank

    def test_label_with_comma_round_trips(self, synthetic_dataset,
                                          tmp_path):
        ds = synthetic_dataset
        renamed = dict(zip(ds.algorithms, ("DE, adaptive",)
                           + ds.algorithms[1:]))
        relabeled = PerformanceDataset(
            algorithms=tuple(renamed.values()), functions=ds.functions,
            dimensions=ds.dimensions, measures=ds.measures,
            values={(d, p, renamed[a], f): v
                    for (d, p, a, f), v in ds.values.items()})
        save_long_csv(relabeled, tmp_path / "data.csv")
        report = run_hra(load_long_csv(tmp_path / "data.csv"))
        emit_report(report, "csv", tmp_path / "report")
        final = load_rank_matrix_csv(tmp_path / "report" / "final_matrix.csv")
        assert final.alternative_labels == relabeled.algorithms
        np.testing.assert_array_equal(final.values,
                                      report.nodes[-1].matrix.values)
        with open(tmp_path / "report" / "final_ranking.csv",
                  newline="") as handle:
            rows = list(csv.reader(handle))
        assert [row[0] for row in rows[1:]] == list(relabeled.algorithms)
        assert {len(row) for row in rows} == {3}

    def test_hash_labels_round_trip(self, synthetic_dataset, tmp_path):
        ds = synthetic_dataset
        algorithms = ("#top",) + ds.algorithms[1:]
        dimensions = ("#d",) + ds.dimensions[1:]
        relabeled = PerformanceDataset.from_array(
            algorithms=algorithms, functions=ds.functions,
            dimensions=dimensions, measures=ds.measures, array=ds.array)
        save_long_csv(relabeled, tmp_path / "data.csv")
        loaded = load_long_csv(tmp_path / "data.csv")
        assert loaded == relabeled
        report = run_hra(loaded)
        emit_report(report, "csv", tmp_path / "report")
        final = load_rank_matrix_csv(tmp_path / "report" / "final_matrix.csv")
        assert final.alternative_labels == algorithms
        np.testing.assert_array_equal(final.values,
                                      report.nodes[-1].matrix.values)
        ranking = load_rank_matrix_csv(
            tmp_path / "report" / "final_ranking.csv")
        assert ranking.alternative_labels == algorithms
        np.testing.assert_array_equal(ranking.values[:, 1],
                                      report.final_ranks)
        with open(tmp_path / "report" / "leaf_ranks.csv",
                  newline="") as handle:
            rows = list(csv.reader(handle))
        assert [row[0] for row in rows[1::len(algorithms) * len(ds.measures)]] == \
            [str(d) for d in dimensions]

    def test_carriage_return_labels_round_trip(self, synthetic_dataset,
                                               tmp_path):
        ds = synthetic_dataset
        algorithms = ("c\rd",) + ds.algorithms[1:]
        report = run_hra(PerformanceDataset.from_array(
            algorithms=algorithms, functions=ds.functions,
            dimensions=("d\r1",) + ds.dimensions[1:],
            measures=("m\rn",) + ds.measures[1:], array=ds.array))
        emit_report(report, "csv", tmp_path)
        ranking = load_rank_matrix_csv(tmp_path / "final_ranking.csv")
        assert ranking.alternative_labels == algorithms
        np.testing.assert_array_equal(ranking.values[:, 1],
                                      report.final_ranks)
        final = load_rank_matrix_csv(tmp_path / "final_matrix.csv")
        assert final.criterion_labels == \
            report.nodes[-1].matrix.criterion_labels
        with open(tmp_path / "leaf_ranks.csv", newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        assert rows == [[str(node.key[1]), str(node.key[2]), a,
                         format_number(r)]
                        for node in report.level("leaf")
                        for a, r in zip(algorithms, node.result.ranks)]

    def test_markdown_escapes_pipe(self, synthetic_dataset, tmp_path):
        report = run_hra(synthetic_dataset)
        piped = dataclasses.replace(
            report, algorithms=("a|b",) + report.algorithms[1:])
        emit_report(piped, "markdown", tmp_path)
        lines = (tmp_path / "final_ranking.md").read_text().splitlines()
        cells = re.split(r"(?<!\\)\|", lines[2].strip().strip("|"))
        assert [c.strip() for c in cells][0] == "a\\|b"
        assert len(cells) == 3

    @pytest.mark.parametrize("label,name", [
        (10, "dimension_10.csv"),
        ("a b", "dimension_a b.csv"),
        ("\u00e9" * 60, "dimension_" + "\u00e9" * 60 + ".csv"),
        ("D" * 241, "dimension_" + "D" * 241 + ".csv"),  # 255 bytes
        ("a/b", "dimension_a%2Fb.csv"),
        ("a%2Fb", "dimension_a%252Fb.csv"),
        ("a\0b", "dimension_a%00b.csv"),
    ], ids=["int", "blank", "non-ascii", "255-bytes", "slash", "percent",
            "nul"])
    def test_dimension_file_name(self, label, name):
        assert dataio.dimension_file_name(label, "csv") == name

    def test_over_long_dimension_file_names_stay_distinct(self):
        labels = ["D" * 243, "D" * 244, "\u00e9" * 200,
                  "\u00e9" * 200 + "x", "/" * 100, "%" * 100]
        names = [dataio.dimension_file_name(label, "md") for label in labels]
        assert len(set(names)) == len(names)
        for label, name in zip(labels, names):
            digest = hashlib.sha256(label.encode()).hexdigest()[:16]
            assert name.startswith("dimension_")
            assert name.endswith(f"%~{digest}.md")
            assert 250 <= len(name.encode()) <= 255
            assert "/" not in name

    def test_destination_collision(self, synthetic_dataset, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a directory")
        report = run_hra(synthetic_dataset)
        with pytest.raises(IoError):
            emit_report(report, "csv", blocker)

    def test_unknown_format(self, synthetic_dataset):
        report = run_hra(synthetic_dataset)
        with pytest.raises(ShapeMismatch):
            emit_report(report, "xml", "anywhere")


# pieces of round-trip labels: what csv must quote, what a comment rule or
# a Unicode-aware strip could catch, and non-BMP text; csv reads NUL from
# Python 3.11 on
ROUND_TRIP_PIECES = (",", '"', "#", "|", "\r", "\n", "\r\n", " ", "\x1c", "é",
                     "\U0001f600", "C#", "10") \
    + (("\0",) if sys.version_info >= (3, 11) else ())
# labels over 8 bytes that share a prefix, and labels of 256 and 257 bytes
LONG_LABELS = ("P" * 20 + "a", "P" * 20 + "b", "L" * 255 + "x",
               "L" * 255 + "y", "L" * 256 + "x", "L" * 256 + "y")


@st.composite
def round_trip_labels(draw, plain):
    """A stripped label: printable ASCII without ',' or '"' when plain,
    else Unicode text around ROUND_TRIP_PIECES; or one of LONG_LABELS."""
    if draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from(LONG_LABELS))
    if plain:
        return draw(st.text(st.characters(
            min_codepoint=0x20, max_codepoint=0x7e,
            blacklist_characters=',"'), max_size=12)).strip()
    text = st.text(st.characters(
        blacklist_categories=("Cs",),
        blacklist_characters=() if "\0" in ROUND_TRIP_PIECES else "\0"),
        min_size=1, max_size=3)
    return "".join(draw(st.lists(st.one_of(
        st.sampled_from(ROUND_TRIP_PIECES), text), max_size=5))).strip()


# blanks that str.strip(), and so both long-CSV loaders, drop from a field
BLANKS = (" ", "\t", "\r", "\x1c", "\xa0")


@st.composite
def blank_edged(draw, label):
    """A label with up to two BLANKS before and after it."""
    edge = st.text(st.sampled_from(BLANKS), max_size=2)
    return draw(edge) + draw(label) + draw(edge)


@st.composite
def round_trip_arguments(draw, hostile=False):
    """from_array arguments of complete datasets; half of them have plain
    labels only. A dimension is an int or a label that stays text. When
    hostile, a text label may start or end with BLANKS or be an int, and a
    dimension may also be an int's canonical text or a float."""
    label = round_trip_labels(draw(st.booleans()))
    text_dimension = label.filter(
        lambda t: isinstance(files._parse_dimension(t), str))
    dimension = st.one_of(st.integers(-20, 200), text_dimension)
    if hostile:
        label = st.one_of(label, blank_edged(label), st.integers(-20, 200))
        dimension = st.one_of(dimension, blank_edged(text_dimension),
                              st.integers(-20, 200).map(str), st.floats())
    axes = [draw(st.lists(strategy, min_size=1, max_size=size, unique=True))
            for strategy, size in (
                (dimension, 2),
                (label.filter(lambda t: t not in files.STAT_MEASURES), 2),
                (label, 3), (label, 3))]
    values = draw(arrays(float, tuple(map(len, axes)), elements=st.floats(
        allow_nan=False, allow_infinity=False)))
    return dict(zip(files.AXIS_NAMES, axes), array=values)


def round_trip_datasets():
    return round_trip_arguments().map(
        lambda arguments: PerformanceDataset.from_array(**arguments))


class TestRoundTripProperty:
    def test_labels_survive_save_load_run_emit_reload(self, tmp_path):
        columnar = []  # per example: did the saved file take that path

        @given(round_trip_datasets())
        @settings(max_examples=150, deadline=None)
        def round_trip(dataset):
            directory = tmp_path / str(len(columnar))
            directory.mkdir()
            path = save_long_csv(dataset, directory / "data.csv")
            columnar.append(dataio._load_columns(path) is not None)
            loaded = load_long_csv(path)
            assert loaded == dataset
            report = run_hra(loaded)
            emit_report(report, "csv", directory / "report")
            ranking = load_rank_matrix_csv(
                directory / "report" / "final_ranking.csv")
            assert ranking.alternative_labels == report.algorithms
            assert ranking.criterion_labels == ("score", "hra_rank")
            np.testing.assert_array_equal(ranking.values, np.column_stack(
                [report.final_scores, report.final_ranks]))
            header, *rows = (row for _, row in dataio._data_rows(
                directory / "report" / "leaf_ranks.csv"))
            assert header == ["dimension", "measure", "algorithm", "rank"]
            assert [(files._parse_dimension(d), p, a, float(r))
                    for d, p, a, r in rows] == [
                (d, p, a, r) for (d, p), ranks in report.leaf_ranks.items()
                for a, r in zip(report.algorithms, ranks.tolist())]

        round_trip()
        assert set(columnar) == {False, True}  # both loader paths ran

    def test_blank_edged_labels_are_refused_or_reload_equal(self, tmp_path):
        """Also ints on text axes, and int texts or floats as dimensions:
        an example is refused, naming an offending label, exactly when one
        of its labels reads back from its text as another label or shares
        that text with another label of its axis."""
        examples = []

        @given(round_trip_arguments(hostile=True))
        @settings(max_examples=150, deadline=None)
        def refused_or_reloaded(arguments):
            offending = []
            for name, parse in zip(files.AXIS_NAMES, files.AXIS_PARSERS):
                texts = [str(label) for label in arguments[name]]
                offending += [label for label, text in zip(arguments[name],
                                                           texts)
                              if parse(text) != label or texts.count(text) > 1]
            try:
                dataset = PerformanceDataset.from_array(**arguments)
            except ShapeMismatch as exc:
                examples.append("refused")
                assert any(repr(label) in str(exc) for label in offending)
                return
            examples.append("built")
            assert offending == []
            path = tmp_path / f"{len(examples)}.csv"
            assert load_long_csv(save_long_csv(dataset, path)) == dataset

        refused_or_reloaded()
        assert set(examples) == {"refused", "built"}


def snapshot(directory):
    """{name: bytes} of every file in a directory."""
    return {path.name: path.read_bytes() for path in directory.iterdir()
            if path.is_file()}


def failing_on_call(writer, call, after_rows=2):
    """A writer that, on its call-th use, writes after_rows rows and then
    fails as a full disk does."""
    calls = []

    def wrapped(handle, rows):
        calls.append(None)
        if len(calls) != call:
            return writer(handle, rows)
        writer(handle, list(rows)[:after_rows])
        raise OSError(errno.ENOSPC, "No space left on device")

    return wrapped


class TestWriteFiles:
    """write_files is all or nothing: before the renames nothing changes,
    and after them every file is whole, old or new."""

    def test_failure_before_renames_keeps_old_files(self, tmp_path):
        paths = [tmp_path / f"{name}.txt" for name in "abc"]
        for path in paths:
            path.write_text(f"old {path.name}\n")
        before = snapshot(tmp_path)

        def fail(handle):
            handle.write("half")
            raise OSError(errno.EIO, "Input/output error")

        writers = {paths[0]: lambda h: h.write("new\n"),
                   paths[1]: lambda h: h.write("new\n"), paths[2]: fail}
        with pytest.raises(IoError, match=r"cannot write .*c\.txt: "
                                          r"Input/output error"):
            dataio.write_files(writers)
        assert snapshot(tmp_path) == before

    def test_failure_during_renames_leaves_whole_files(self, tmp_path,
                                                       monkeypatch):
        paths = [tmp_path / f"{name}.txt" for name in "abc"]
        for path in paths:
            path.write_text("old\n")
        replace, calls = dataio.os.replace, []

        def flaky_replace(source, target):
            calls.append(target)
            if len(calls) == 2:
                raise OSError(errno.EIO, "Input/output error")
            replace(source, target)

        monkeypatch.setattr(dataio.os, "replace", flaky_replace)
        with pytest.raises(IoError, match=r"b\.txt"):
            dataio.write_files({path: lambda h: h.write("new\n")
                                for path in paths})
        assert snapshot(tmp_path) == {"a.txt": b"new\n", "b.txt": b"old\n",
                                      "c.txt": b"old\n"}

    def test_other_errors_remove_temporary_files(self, tmp_path):
        def interrupted(handle):
            handle.write("half")
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            dataio.write_files({tmp_path / "a.txt": lambda h: h.write("x"),
                                tmp_path / "b.txt": interrupted})
        assert list(tmp_path.iterdir()) == []

    def test_directory_at_a_path_fails_before_writing(self, tmp_path):
        (tmp_path / "a.txt").write_text("old\n")
        (tmp_path / "b.txt").mkdir()
        with pytest.raises(IoError, match=r"b\.txt: not a regular file"):
            dataio.write_files({tmp_path / name: lambda h: h.write("new\n")
                                for name in ("a.txt", "b.txt")})
        assert (tmp_path / "a.txt").read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt",
                                                              "b.txt"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_fifo_at_a_path_fails_before_writing(self, tmp_path):
        """A device, FIFO or /dev/fd path is neither written through nor
        renamed over, also behind a symlink (as /dev/stdout is)."""
        fifo = tmp_path / "p.csv"
        os.mkfifo(fifo)
        link = tmp_path / "link.csv"
        link.symlink_to(fifo)
        for path in (fifo, link):
            with pytest.raises(IoError, match=rf"{path.name}: not a regular"):
                dataio.write_files({tmp_path / "a.txt": lambda h: h.write("x"),
                                    path: lambda h: h.write("new\n")})
        assert stat.S_ISFIFO(fifo.stat().st_mode) and link.is_symlink()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv",
                                                              "p.csv"]

    def test_temporary_name_never_takes_over_a_file(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setattr(dataio.os, "urandom", lambda n: bytes(n))
        taken = tmp_path / f".hra-{bytes(8).hex()}.tmp"
        taken.write_text("someone else's\n")
        with pytest.raises(IoError, match="a.txt"):
            dataio.write_files({tmp_path / "a.txt": lambda h: h.write("x")})
        assert snapshot(tmp_path) == {taken.name: b"someone else's\n"}

    def test_symlink_is_replaced_not_written_through(self, tmp_path):
        outside = tmp_path / "outside.txt"
        outside.write_text("keep\n")
        link = tmp_path / "report.txt"
        link.symlink_to(outside)
        dataio.write_files({link: lambda h: h.write("new\n")})
        assert not link.is_symlink() and link.read_text() == "new\n"
        assert outside.read_text() == "keep\n"

    def test_mode_is_what_open_gives(self, synthetic_dataset, tmp_path):
        old = os.umask(0o027)
        try:
            with open(tmp_path / "plain.txt", "w"):
                pass
            emit_report(run_hra(synthetic_dataset), "csv", tmp_path / "r")
        finally:
            os.umask(old)
        expected = stat.S_IMODE((tmp_path / "plain.txt").stat().st_mode)
        assert expected == 0o640
        for path in (tmp_path / "r").iterdir():
            assert stat.S_IMODE(path.stat().st_mode) == expected

    def test_existing_file_keeps_its_mode(self, tmp_path):
        private, read_only = tmp_path / "private.csv", tmp_path / "ro.csv"
        for path, mode in ((private, 0o600), (read_only, 0o444)):
            path.write_text("old\n")
            path.chmod(mode)
        dataio.write_files({path: lambda h: h.write("new\n")
                            for path in (private, read_only)})
        for path, mode in ((private, 0o600), (read_only, 0o444)):
            assert path.read_text() == "new\n"
            assert stat.S_IMODE(path.stat().st_mode) == mode

    def test_save_long_csv_interrupted(self, dimension_table, tmp_path,
                                       monkeypatch):
        path = save_long_csv(leaf_dataset(
            DecisionMatrix(np.array([[1.0], [2.0]]), ("a", "b"), ("c",))),
            tmp_path / "matrix.csv")
        before = snapshot(tmp_path)
        monkeypatch.setattr(dataio, "_write_rows",
                            failing_on_call(dataio._write_rows, 1))
        with pytest.raises(IoError, match="matrix.csv"):
            save_long_csv(leaf_dataset(dimension_table), path)
        assert snapshot(tmp_path) == before

    def test_missing_parent_directories_are_created(self, dimension_table,
                                                    tmp_path):
        dataset = leaf_dataset(dimension_table)
        flat = save_long_csv(dataset, tmp_path / "m.csv")
        nested = save_long_csv(dataset, tmp_path / "new" / "nested" / "m.csv")
        assert nested.read_bytes() == flat.read_bytes()
        assert sorted(p.name for p in nested.parent.iterdir()) == ["m.csv"]


def leaf_dataset(matrix):
    """The dataset of one (10, 'rank') leaf whose algorithms and functions
    are a matrix's rows and columns."""
    return PerformanceDataset.from_array(
        algorithms=matrix.alternative_labels, functions=matrix.criterion_labels,
        dimensions=(10,), measures=("rank",), array=matrix.values[None, None])


def _from_array(**changes):
    """A 1x1x2x1 dataset built by from_array, some arguments changed."""
    kwargs = dict(algorithms=("a", "b"), functions=("f",), dimensions=(10,),
                  measures=("best",), array=np.ones((1, 1, 2, 1)))
    return PerformanceDataset.from_array(**{**kwargs, **changes})


def _file(path, text):
    path.write_text(text)
    return path


@pytest.mark.parametrize("build, error, message", [
    (lambda tmp: _from_array(algorithms=(), array=np.ones((1, 1, 0, 1))),
     EmptyMatrix, "dataset has no algorithms"),
    (lambda tmp: _from_array(algorithms=("a", "a")),
     ShapeMismatch, "duplicate algorithm 'a'"),
    (lambda tmp: _from_array(dimensions=(10, "10"),
                             array=np.ones((2, 1, 2, 1))),
     ShapeMismatch, "dimension '10' would reload as 10"),
    (lambda tmp: _from_array(dimensions=("10",)),
     ShapeMismatch, "dimension '10' would reload as 10"),
    (lambda tmp: _from_array(dimensions=(10.0,)),
     ShapeMismatch, "dimension 10.0 would reload as '10.0'"),
    (lambda tmp: _from_array(algorithms=(1, "1")),
     ShapeMismatch, "algorithm 1 would reload as '1'"),
    (lambda tmp: _from_array(algorithms=(1, 2)),
     ShapeMismatch, "algorithm 1 would reload as '1'"),
    (lambda tmp: _from_array(algorithms=("a ", "b")),
     ShapeMismatch, "algorithm 'a ' would reload as 'a'"),
    (lambda tmp: _from_array(array=np.ones((1, 1, 3, 1))),
     ShapeMismatch,
     "value array has shape (1, 1, 3, 1), the axes need (1, 1, 2, 1)"),
    (lambda tmp: _from_array(array=np.array([1.0, np.inf]).reshape(1, 1, 2, 1)),
     NonFiniteValue, "cell (10, best, b, f) is inf"),
    (lambda tmp: PerformanceDataset(
        algorithms=("a",), functions=("f",), dimensions=(10,),
        measures=("best",), values={(10, "best", "a", "f"): math.nan}),
     NonFiniteValue, "cell (10, best, a, f) is nan"),
    (lambda tmp: dataset_from_runs(
        RawRuns({(10, 1, "f"): (1.0,), (10, "a", "f"): (1.0,)})),
     ShapeMismatch, "algorithm 1 would reload as '1'"),
    (lambda tmp: RawRuns({(10, "a", "f"): ()}),
     EmptyRuns, "(10, 'a', 'f'): no runs recorded"),
    (lambda tmp: RawRuns({(10, "a", "f"): (1.0, math.nan)}),
     NonFiniteValue, "(10, 'a', 'f'): run value nan is not finite"),
    (lambda tmp: load_long_csv(_file(tmp / "data.csv", "")),
     ParseError, "{tmp}/data.csv: file has no header row"),
    (lambda tmp: load_long_csv(_file(tmp / "data.csv", "\n\r\n\n")),
     ParseError, "{tmp}/data.csv: file has no header row"),
    (lambda tmp: load_rank_matrix_csv(
        _file(tmp / "m.csv", "algorithm,c1\na,x\n")),
     ParseError, "{tmp}/m.csv:2: column 'c1' is not a number: 'x'"),
    (lambda tmp: load_rank_matrix_csv(
        _file(tmp / "m.csv", "algorithm,c1,c2\na,1,2\nb,2,nan\n")),
     NonFiniteValue, "{tmp}/m.csv:3: column 'c2' is not finite: 'nan'"),
    (lambda tmp: load_rank_matrix_csv(
        _file(tmp / "m.csv", "# note\nalgorithm,a,b,a\nx,1,2,3\n")),
     ParseError, "{tmp}/m.csv:2: duplicate criterion 'a'"),
    (lambda tmp: PerformanceDataset(
        algorithms="ab", functions=("f",), dimensions=(10,),
        measures=("best",), values={}),
     ShapeMismatch, "algorithms must be a sequence of labels, got 'ab'"),
    (lambda tmp: _from_array(functions="f"),
     ShapeMismatch, "functions must be a sequence of labels, got 'f'"),
    (lambda tmp: RawRuns({(10, "a", "f"): "12"}),
     ParseError, "(10, 'a', 'f'): runs must be a sequence of numbers, got "
                 "'12'"),
    (lambda tmp: RawRuns({(10, "a", "f"): b"12"}),
     ParseError, "(10, 'a', 'f'): runs must be a sequence of numbers, got "
                 "b'12'"),
    (lambda tmp: RawRuns({(10, "a", "f"): ["x"]}),
     ParseError, "(10, 'a', 'f'): could not convert string to float: 'x'"),
    (lambda tmp: emit_report(run_hra(_from_array()), "xml", tmp),
     ShapeMismatch, "unknown report format 'xml'"),
], ids=["empty-axis", "repeated-label", "dimensions-equal-as-text",
        "text-dimension", "float-dimension", "algorithms-equal-as-text",
        "int-algorithms", "blank-edged-algorithm", "array-shape",
        "inf-in-array", "nan-in-mapping", "int-run-algorithm", "no-runs",
        "nan-run", "empty-long-csv", "blank-long-csv",
        "non-numeric-rank-column", "non-finite-rank-cell",
        "repeated-rank-criterion", "text-algorithms", "text-functions",
        "text-runs", "bytes-runs", "run-not-a-number", "unknown-format"])
def test_raise_sites(tmp_path, build, error, message):
    with pytest.raises(error) as excinfo:
        build(tmp_path)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message.format(tmp=tmp_path)
