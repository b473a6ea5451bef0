"""Tests for statistics, CSV round trips, and report rendering."""

import codecs
import csv
import dataclasses
import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    compute_statistics,
    dataset_from_runs,
    emit_report,
    fixtures,
    load_long_csv,
    load_rank_matrix_csv,
    run_hra,
    save_long_csv,
    save_rank_matrix_csv,
)
from hra import dataio
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


class TestComputeStatistics:
    def test_three_runs(self):
        assert compute_statistics([1.0, 2.0, 3.0]) == (1, 3, 2, 2, 1)

    def test_single_run(self):
        assert compute_statistics([5.0]) == (5, 5, 5, 5, 0)

    def test_fifty_one_random_runs_match_reference(self):
        rng = np.random.default_rng(51)
        runs = rng.uniform(0.0, 1e3, size=51).tolist()
        got = compute_statistics(runs)
        np.testing.assert_allclose(got, reference_statistics(runs),
                                   rtol=1e-12)

    def test_even_length_median(self):
        assert compute_statistics([4.0, 1.0, 3.0, 2.0]).median == 2.5

    def test_population_std(self):
        sample = compute_statistics([1.0, 2.0, 3.0]).std
        population = compute_statistics([1.0, 2.0, 3.0],
                                        population_std=True).std
        assert sample == pytest.approx(1.0)
        assert population == pytest.approx(math.sqrt(2.0 / 3.0))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        runs = rng.uniform(size=20)
        shuffled = rng.permutation(runs)
        assert compute_statistics(runs) == compute_statistics(shuffled)

    def test_empty(self):
        with pytest.raises(EmptyRuns):
            compute_statistics([])

    def test_non_finite(self):
        with pytest.raises(NonFiniteValue):
            compute_statistics([1.0, float("inf")])


def one_cell_statistics(runs, population_std):
    """The per-cell numpy definition the batch must reproduce bit for bit."""
    runs = np.asarray(runs, dtype=float)
    std = 0.0 if runs.size == 1 else runs.std(ddof=0 if population_std else 1)
    return [runs.min(), runs.max(), np.median(runs), runs.mean(), std]


class TestBatchedStatistics:
    """dataset_from_runs summarizes all cells of one run count at once."""

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
            one = np.array(compute_statistics(values, population_std))
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


class TestPerformanceDataset:
    def test_axes_and_completeness(self, synthetic_dataset):
        ds = synthetic_dataset
        assert ds.is_complete
        assert len(ds.values) == 5 * 6 * 2 * 5
        assert ds.missing_cells() == []

    def test_matrix_shape_and_labels(self, synthetic_dataset):
        ds = synthetic_dataset
        dm = ds.matrix(ds.dimensions[0], "mean")
        assert dm.alternative_labels == ds.algorithms
        assert dm.criterion_labels == ds.functions

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

    def test_cell_lookup(self, synthetic_dataset):
        ds = synthetic_dataset
        key = (ds.dimensions[0], "best", ds.algorithms[0], ds.functions[0])
        assert ds.cell(*key) == ds.values[key]
        with pytest.raises(MissingCell):
            ds.cell(999, "best", ds.algorithms[0], ds.functions[0])


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
        assert ds.is_complete
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
        assert len(ds.values) == 4 and ds.is_complete

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
               "L" * 250)
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
        "10,best,f1,a,1_0\n",  # float() accepts it, loadtxt does not
        "10,best,f1,a,\x1c3\n",  # loadtxt accepts it, float() does not
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

    def test_hash_collision_takes_row_path(self, tmp_path, monkeypatch):
        # with no mixing, a label's key is its last word, so these collide
        monkeypatch.setattr(dataio, "_WORD_MIX", np.uint64(0))
        path = tmp_path / "data.csv"
        path.write_text(HEADER + "10,best,f1,aaaaaaaa-tail,1.0\n"
                        "10,best,f2,bbbbbbbb-tail,2.0\n")
        assert dataio._load_columns(path) is None
        assert load_long_csv(path).algorithms == ("aaaaaaaa-tail",
                                                  "bbbbbbbb-tail")

    @given(long_csv_files())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_outcome_as_row_reader(self, tmp_path, data):
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        assert load_outcome(load_long_csv, path) \
            == load_outcome(dataio._load_rows, path)

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
        np.testing.assert_array_equal(dm.row("jSO"), [3, 2, 2, 5])

    def test_measure_table_fixture(self):
        dm = fixtures.load_measure_ranks(30)
        assert (dm.m, dm.n) == (13, 5)
        np.testing.assert_array_equal(dm.row("EBOwithCMAR"), [1, 1, 1, 1, 3])

    def test_one_by_one(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("algorithm,only\nsolo,1\n")
        dm = load_rank_matrix_csv(path)
        assert (dm.m, dm.n) == (1, 1)
        assert dm.values[0, 0] == 1.0

    def test_round_trip(self, tmp_path, dimension_table):
        path = tmp_path / "rt.csv"
        save_rank_matrix_csv(dimension_table, path)
        again = load_rank_matrix_csv(path)
        np.testing.assert_array_equal(again.values, dimension_table.values)
        assert again.alternative_labels == dimension_table.alternative_labels
        assert again.criterion_labels == dimension_table.criterion_labels

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

    def test_hash_label_round_trips(self, tmp_path):
        matrix = DecisionMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]),
                                ("#top", " #next"), ("#c1", "c2"))
        path = save_rank_matrix_csv(matrix, tmp_path / "hash.csv")
        assert path.read_text().splitlines() == [
            "algorithm,#c1,c2",
            '"#top",1,2', '" #next",3,4']
        again = load_rank_matrix_csv(path)
        assert again.alternative_labels == ("#top", "#next")
        assert again.criterion_labels == ("#c1", "c2")
        np.testing.assert_array_equal(again.values, matrix.values)


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
                                      report.final_matrix.values)
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
                                      report.final_matrix.values)
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
        with pytest.raises(ValueError):
            emit_report(report, "xml", "anywhere")
