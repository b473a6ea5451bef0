"""Tests for source mirroring and raw run-file parsing."""

import codecs
import hashlib
import math
import os
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hra import (
    ChecksumMismatch,
    EmptyRuns,
    HraError,
    IoError,
    NetworkError,
    NonFiniteValue,
    ParseError,
    RawRuns,
    UnknownLayout,
    dataset_from_runs,
    fetch_raw,
    load_raw_runs,
)
from hra import fetch
from hra.fetch import MANIFEST_NAME, URL_TIMEOUT_S, parse_inventory


SHA = "0" * 64  # a well-formed sha256 field


def make_source(root, files):
    """Write files plus a matching inventory; return the file:// URL."""
    lines = []
    for name, payload in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        data = payload.encode()
        path.write_bytes(data)
        digest = hashlib.sha256(data).hexdigest()
        lines.append(f"{name},{len(data)},{digest}")
    (root / "inventory.txt").write_text("\n".join(lines) + "\n")
    return root.as_uri()


class TestFetchRaw:
    def test_fetch_and_manifest(self, tmp_path):
        source = tmp_path / "src"
        source.mkdir()
        url = make_source(source, {"solver_1_10.txt": "1 2 3\n",
                                   "deep/solver_2_10.txt": "4 5 6\n"})
        dest = tmp_path / "dest"
        result = fetch_raw(url, dest)
        assert sorted(result.downloaded) == ["deep/solver_2_10.txt",
                                             "solver_1_10.txt"]
        assert result.skipped == ()
        assert (dest / "solver_1_10.txt").read_text() == "1 2 3\n"
        manifest = (dest / MANIFEST_NAME).read_text()
        assert manifest == (source / "inventory.txt").read_text()

    def test_idempotent_rerun(self, tmp_path):
        source = tmp_path / "src"
        source.mkdir()
        url = make_source(source, {"solver_1_10.txt": "1 2 3\n"})
        dest = tmp_path / "dest"
        fetch_raw(url, dest)
        before = (dest / MANIFEST_NAME).read_bytes()
        again = fetch_raw(url, dest)
        assert again.downloaded == ()
        assert again.skipped == ("solver_1_10.txt",)
        assert (dest / MANIFEST_NAME).read_bytes() == before

    def test_corrupted_local_copy_is_refetched(self, tmp_path):
        source = tmp_path / "src"
        source.mkdir()
        url = make_source(source, {"solver_1_10.txt": "1 2 3\n"})
        dest = tmp_path / "dest"
        fetch_raw(url, dest)
        (dest / "solver_1_10.txt").write_text("damaged")
        result = fetch_raw(url, dest)
        assert result.downloaded == ("solver_1_10.txt",)
        assert (dest / "solver_1_10.txt").read_text() == "1 2 3\n"

    def test_truncated_source_file(self, tmp_path):
        source = tmp_path / "src"
        source.mkdir()
        url = make_source(source, {"solver_1_10.txt": "1 2 3\n"})
        (source / "solver_1_10.txt").write_text("1 ")  # breaks the checksum
        with pytest.raises(ChecksumMismatch, match="solver_1_10.txt"):
            fetch_raw(url, tmp_path / "dest")

    def test_inventory_byte_order_mark_is_skipped(self, tmp_path):
        url = make_source(tmp_path / "src", {"a/run_F1_10.txt": "1 2\n"})
        inventory = tmp_path / "src" / "inventory.txt"
        inventory.write_bytes(codecs.BOM_UTF8 + inventory.read_bytes())
        result = fetch_raw(url, tmp_path / "dest")
        assert result.downloaded == ("a/run_F1_10.txt",)
        assert (tmp_path / "dest" / "a" / "run_F1_10.txt").exists()

    def test_missing_inventory(self, tmp_path):
        empty = tmp_path / "src"
        empty.mkdir()
        with pytest.raises(NetworkError):
            fetch_raw(empty.as_uri(), tmp_path / "dest")

    def test_malformed_inventory(self):
        with pytest.raises(ParseError):
            parse_inventory("path-without-fields\n", "inv")
        with pytest.raises(ParseError):
            parse_inventory("a.txt,notanumber,ff\n", "inv")
        with pytest.raises(ParseError):
            parse_inventory("# only comments\n", "inv")

    @pytest.mark.parametrize("path", ["/etc/passwd", "../outside.txt",
                                      "deep/../../x.txt", "", ".", " ./ "])
    def test_inventory_path_must_stay_inside(self, path):
        with pytest.raises(ParseError, match=r"inv:2: path must be relative"):
            parse_inventory(f"ok.txt,1,{SHA}\n{path},1,{SHA}\n", "inv")

    @pytest.mark.parametrize("path", ["manifest.csv", "./manifest.csv",
                                      " .//manifest.csv "])
    def test_inventory_path_must_not_be_the_manifest(self, path):
        with pytest.raises(ParseError, match=r"inv:2: path .* is where the "
                                             r"manifest is written"):
            parse_inventory(f"ok.txt,1,{SHA}\n{path},1,{SHA}\n", "inv")

    @pytest.mark.parametrize("first, again", [
        ("ok.txt", "ok.txt"), ("ok.txt", "./ok.txt"), ("a/b.txt", "a//b.txt"),
        ("a/b.txt", "a/./b.txt/")])
    def test_inventory_path_must_not_repeat(self, first, again):
        with pytest.raises(ParseError, match=r"inv:3: path .* repeats line 1"):
            parse_inventory(f"{first},1,{SHA}\n# note\n{again},2,{SHA}\n",
                            "inv")

    @pytest.mark.parametrize("size, sha", [
        ("-5", SHA), ("+5", SHA), ("1_000", SHA), ("\uff15", SHA),
        ("", SHA), ("5", "abc"), ("5", "0" * 63), ("5", "0" * 65),
        ("5", "0" * 63 + "g")], ids=[
        "minus", "plus", "underscore", "fullwidth-digit", "empty-count",
        "abc", "63-digits", "65-digits", "non-hex"])
    def test_hostile_fields_rejected(self, size, sha):
        with pytest.raises(ParseError, match=r"inv:2: (byte count|sha256) "):
            parse_inventory(f"ok.txt,1,{SHA}\na.txt,{size},{sha}\n", "inv")

    def test_fields_are_stripped(self):
        digest = "AB" * 32
        [entry] = parse_inventory(f" a b.txt , 007 ,{digest} \n", "inv")
        assert entry == fetch.ManifestEntry("a b.txt", 7, digest.lower())

    def test_paths_are_percent_encoded_in_urls(self, tmp_path):
        names = [f"{algorithm}_f1_10.txt"
                 for algorithm in ("a#b", "c d", "e?f", "50%")]
        url = make_source(tmp_path / "src", {name: f"{i} 1\n"
                                             for i, name in enumerate(names)})
        dest = tmp_path / "dest"
        assert sorted(fetch_raw(url, dest).downloaded) == sorted(names)
        assert sorted(fetch_raw(url, dest).skipped) == sorted(names)
        assert (dest / MANIFEST_NAME).read_bytes() == \
            (tmp_path / "src" / "inventory.txt").read_bytes()
        assert dataset_from_runs(load_raw_runs(dest)).algorithms == (
            "50%", "a#b", "c d", "e?f")

    def test_urlopen_has_timeout(self, tmp_path, monkeypatch):
        calls = []

        def urlopen(url, timeout=None):
            calls.append(timeout)
            raise urllib.error.URLError("refused")

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        with pytest.raises(NetworkError):
            fetch_raw(tmp_path.as_uri(), tmp_path / "dest")
        assert calls == [URL_TIMEOUT_S]


def test_import_does_not_load_network_modules():
    probe = ("import sys, hra; print(sorted({'urllib.request', 'http.client'}"
             " & set(sys.modules)))")
    found = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                           text=True, check=True)
    assert found.stdout.strip() == "[]"


class TestLoadRawRuns:
    def test_flat_single_line(self, tmp_path):
        (tmp_path / "solver_1_10.txt").write_text("3.0 1.0 2.0\n")
        raw = load_raw_runs(tmp_path)
        assert raw.runs[(10, "solver", "1")] == (3.0, 1.0, 2.0)

    def test_flat_one_per_line(self, tmp_path):
        (tmp_path / "solver_1_10.txt").write_text("3.0\n1.0\n2.0\n")
        raw = load_raw_runs(tmp_path)
        assert raw.runs[(10, "solver", "1")] == (3.0, 1.0, 2.0)

    def test_checkpoint_matrix_keeps_last_row(self, tmp_path):
        (tmp_path / "solver_1_10.txt").write_text(
            "9 9 9\n5 5 5\n1.5 2.5 3.5\n")
        raw = load_raw_runs(tmp_path)
        assert raw.runs[(10, "solver", "1")] == (1.5, 2.5, 3.5)

    def test_algorithm_names_with_underscores(self, tmp_path):
        (tmp_path / "multi_part_name_7_30.txt").write_text("1 2\n")
        raw = load_raw_runs(tmp_path)
        assert (30, "multi_part_name", "7") in raw.runs

    def test_ragged_rows(self, tmp_path):
        (tmp_path / "solver_1_10.txt").write_text("1 2 3\n4 5\n")
        with pytest.raises(UnknownLayout, match="ragged"):
            load_raw_runs(tmp_path)

    def test_non_numeric(self, tmp_path):
        (tmp_path / "solver_1_10.txt").write_text("one two\n")
        with pytest.raises(UnknownLayout):
            load_raw_runs(tmp_path)

    def test_empty_directory(self, tmp_path):
        with pytest.raises(ParseError, match="no run files"):
            load_raw_runs(tmp_path)

    def test_non_run_files_ignored(self, tmp_path):
        (tmp_path / "notes.txt").write_text("not a run file")
        (tmp_path / "solver_1_10.txt").write_text("1 2\n")
        raw = load_raw_runs(tmp_path)
        assert len(raw.runs) == 1

    def test_directory_named_like_a_run_file_is_skipped(self, tmp_path):
        (tmp_path / "a_f1_10.txt").mkdir()
        (tmp_path / "a_f1_10.txt" / "solver_1_10.txt").write_text("1 2\n")
        raw = load_raw_runs(tmp_path)
        assert raw.runs == {(10, "solver", "1"): (1.0, 2.0)}

    def test_unreadable_run_file_is_io_error(self, tmp_path, monkeypatch):
        (tmp_path / "solver_1_10.txt").write_text("1 2\n")

        def denied(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(fetch, "open", denied, raising=False)
        with pytest.raises(IoError, match=r"cannot read .*solver_1_10\.txt"):
            load_raw_runs(tmp_path)

    def test_dimension_int_only_in_canonical_form(self, tmp_path):
        (tmp_path / "a_f_10.txt").write_text("1 2\n")
        (tmp_path / "a_f_010.txt").write_text("3 4\n")
        raw = load_raw_runs(tmp_path)
        assert dataset_from_runs(raw).dimensions == (10, "010")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        (tmp_path / "solver_F1_10.txt").write_bytes(
            codecs.BOM_UTF8 + b"1 2\n")
        assert load_raw_runs(tmp_path).runs == {(10, "solver", "F1"):
                                                (1.0, 2.0)}

    def test_negative_error_value(self, tmp_path):
        (tmp_path / "solver_1_10.txt").write_text("1 -2 3\n")
        with pytest.raises(ParseError, match="negative"):
            load_raw_runs(tmp_path)


class TestDatasetFromRuns:
    def test_toy_statistics(self):
        raw = RawRuns({(10, "solver", "f1"): (1.0, 2.0, 3.0)})
        ds = dataset_from_runs(raw)
        assert ds.measures == ("best", "worst", "median", "mean", "std")
        cells = [ds.values[(10, p, "solver", "f1")] for p in ds.measures]
        assert cells == [1.0, 3.0, 2.0, 2.0, 1.0]

    def test_axes_sorted_and_complete(self, tmp_path):
        for name, body in (("b_2_30.txt", "1 2\n"), ("a_1_10.txt", "3 4\n"),
                           ("b_1_10.txt", "5 6\n"), ("a_2_30.txt", "7 8\n"),
                           ("a_2_10.txt", "1 1\n"), ("b_2_10.txt", "2 2\n"),
                           ("a_1_30.txt", "3 3\n"), ("b_1_30.txt", "4 4\n")):
            (tmp_path / name).write_text(body)
        ds = dataset_from_runs(load_raw_runs(tmp_path))
        assert ds.algorithms == ("a", "b")
        assert ds.dimensions == (10, 30)
        assert ds.functions == ("1", "2")
        assert ds.missing_cells() == []

    def test_population_std_flag(self):
        raw = RawRuns({(10, "s", "f"): (1.0, 2.0, 3.0)})
        sample = dataset_from_runs(raw).values[(10, "std", "s", "f")]
        population = dataset_from_runs(
            raw, population_std=True).values[(10, "std", "s", "f")]
        assert sample == pytest.approx(1.0)
        assert population < sample


def parse_run_file(path):
    return fetch._parse_run_file(path, set())


def parse_run_text(path):
    return fetch._parse_run_text(path, path.read_bytes())


def run_outcome(parse, path):
    """A run-file parser's values as exact float hex, or its error."""
    try:
        return [value.hex() for value in parse(path)]
    except HraError as exc:
        return type(exc), str(exc)


PLAIN_TOKENS = ("0", "1.5", "1.", ".5", "+.5e-3", "1e5", "-2E+07", "007",
                "1e500", "-0.0", "123456789.123456789e-300")
ODD_TOKENS = ("1e", "e5", "1.2.3", "--1", ".", "+", "1e+", "1_0", "nan",
              "-inf", "Infinity", "\u0661", "\uff11.5", "1\u00a02", "x")
SEPARATORS = (" ", "  ", "\t", " \t ")


@st.composite
def run_files(draw):
    """Bytes of run files: one row, one value per line, a matrix, a ragged
    or an empty file, their lines ending in LF or CRLF; half of them
    plain, the rest with odd tokens, blank and '#' lines, lone CRs, a
    Unicode space, a BOM or a non-UTF-8 byte."""
    rough = draw(st.booleans())
    token = st.sampled_from(PLAIN_TOKENS)
    if rough:
        token = st.one_of(token, st.sampled_from(ODD_TOKENS))
    layout = draw(st.sampled_from(("row", "column", "matrix", "ragged",
                                   "empty")))
    width = draw(st.integers(1, 5))
    if layout == "row":
        widths = [width]
    elif layout == "column":
        widths = [1] * draw(st.integers(1, 6))
    elif layout == "matrix":
        widths = [width] * draw(st.integers(2, 5))
    elif layout == "ragged":
        widths = draw(st.lists(st.integers(1, 5), min_size=2, max_size=5))
    else:
        widths = []
    separator = st.sampled_from(SEPARATORS)
    lines = []
    for count in widths:
        tokens = draw(st.lists(token, min_size=count, max_size=count))
        line = "".join(draw(separator) + t for t in tokens)[1:]
        if draw(st.integers(0, 3)) == 0:
            line = draw(separator) + line + draw(separator)
        lines.append(line)
        if draw(st.integers(0, 4)) == 0:
            extra = ("", "\t") + (("# provenance", " #x 1 2") if rough else ())
            lines.append(draw(st.sampled_from(extra)))
    ending = draw(st.sampled_from(("\n", "\r\n") + ("\r",) * rough))
    text = ending.join(lines) + draw(st.sampled_from(("", ending)))
    if rough:
        text = draw(st.sampled_from(("", "\ufeff", "\u2003"))) + text
    data = text.encode()
    if rough and draw(st.integers(0, 9)) == 0:
        data += b"\xff"
    return data


class TestPlainRunFiles:
    """A plain run file skips converting the rows it discards; the text
    loop is the reference for every file and the source of every error."""

    @given(run_files())
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_outcome_as_text_loop(self, tmp_path, data):
        path = tmp_path / "solver_1_10.txt"
        path.write_bytes(data)
        expected = run_outcome(parse_run_text, path)
        assert run_outcome(parse_run_file, path) == expected
        plain = fetch._plain_runs(data, set())
        if plain is not None:
            assert [value.hex() for value in plain] == expected

    @pytest.mark.parametrize("body", [
        "1 2 3\n",  # one row
        "3\n1\n2",  # one value per line, no final newline
        "9 9\n5 5\n1.5 2.5\n",  # a checkpoint matrix
        "\n\t1.\t.5  \n\n +.5e-3 1e5\n\n",  # blanks and tabs
        "-0.0 1e500\n",  # a value float() overflows stays for check_runs
        "1 2\r\n3 4\r\n",  # CRLF
    ])
    def test_plain_files_take_plain_path(self, tmp_path, body):
        path = tmp_path / "solver_1_10.txt"
        path.write_text(body)
        assert fetch._plain_runs(path.read_bytes(), set()) is not None
        assert run_outcome(parse_run_file, path) \
            == run_outcome(parse_run_text, path)

    @pytest.mark.parametrize("body", [
        "",  # empty
        " \n\t\n",  # only blanks
        "1 2 3\n4 5\n",  # ragged
        "# note\n1 2\n",  # a comment
        "1 2\r3 4\n",  # a lone CR is a line break to str.splitlines
        "1 2\r",  # so is a CR at the end of the file
        "1e 2\n", "e5\n", "1.2.3\n", "--1\n", ".\n",  # not a float
        "1_0\n", "nan\n", "inf\n",  # float() accepts them
        "\u0661\n",  # a Unicode digit
        "1\u00a02\n",  # a Unicode space
        "\ufeff1 2\n",  # a BOM
        "1\x0b2\n", "1\x0c2\n",  # line breaks only to str.splitlines
    ])
    def test_other_files_take_text_loop(self, tmp_path, body):
        path = tmp_path / "solver_1_10.txt"
        path.write_text(body, encoding="utf-8")
        assert fetch._plain_runs(path.read_bytes(), set()) is None
        assert run_outcome(parse_run_file, path) \
            == run_outcome(parse_run_text, path)

    def test_text_loop_reads_the_file_once(self, tmp_path, monkeypatch):
        path = tmp_path / "solver_1_10.txt"
        path.write_bytes(b"# checkpoints x runs\r\n9 9\r\n1 2\r\n")
        reads = []
        read_bytes, read_text = Path.read_bytes, Path.read_text

        def counted(kind, read):
            def wrapper(*args, **kwargs):
                reads.append(kind)
                return read(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(fetch, "open", counted("open", open),
                            raising=False)
        monkeypatch.setattr(Path, "read_bytes", counted("bytes", read_bytes))
        monkeypatch.setattr(Path, "read_text", counted("text", read_text))
        assert load_raw_runs(tmp_path).runs == {(10, "solver", "1"): (1, 2)}
        assert reads == ["open"]

    def test_non_utf8_byte_takes_text_loop(self, tmp_path):
        path = tmp_path / "solver_1_10.txt"
        path.write_bytes(b"1 2\xff\n")
        assert fetch._plain_runs(path.read_bytes(), set()) is None
        with pytest.raises(ParseError, match="not UTF-8"):
            parse_run_file(path)

    def test_known_shapes_grow_only_with_matched_shapes(self):
        known = set()
        assert fetch._plain_runs(b"1 22\n-3.5\t4e5\n", known) \
            == (-3.5, 4e5)
        assert known == {b"0", b"00", b"-0.0", b"0e0"}
        assert fetch._plain_runs(b"1e 22 7\n", known) is None
        assert known == {b"0", b"00", b"-0.0", b"0e0"}


def _run_file(path, text="1\n"):
    path.parent.mkdir(exist_ok=True)
    path.write_text(text)
    return path


def _sibling_run_files(root):
    """a_f1_10.txt in two subdirectories: two files for one key."""
    for sub in ("x", "y"):
        _run_file(root / sub / "a_f1_10.txt")
    return root


@pytest.mark.parametrize("build, error, message", [
    (lambda tmp: load_raw_runs(_run_file(tmp / "a_f1_10.txt")),
     IoError, "not a directory: {tmp}/a_f1_10.txt"),
    (lambda tmp: load_raw_runs(_sibling_run_files(tmp)),
     ParseError, "{tmp}/y/a_f1_10.txt: duplicate run file for (10, 'a', 'f1')"),
    (lambda tmp: load_raw_runs(_run_file(tmp / "a_f1_10.txt", "1 -5 3\n").parent),
     ParseError, "{tmp}/a_f1_10.txt: negative error value -5.0"),
    (lambda tmp: load_raw_runs(_run_file(tmp / "a_f1_10.txt", "1\nnan\n").parent),
     NonFiniteValue, "{tmp}/a_f1_10.txt: run value nan is not finite"),
    (lambda tmp: load_raw_runs(_run_file(tmp / "a_f1_10.txt", "-inf -1\n").parent),
     NonFiniteValue, "{tmp}/a_f1_10.txt: run value -inf is not finite"),
], ids=["file-not-directory", "duplicate-in-siblings", "negative-run",
        "nan-run", "minus-infinity-run"])
def test_raise_sites(tmp_path, build, error, message):
    with pytest.raises(error) as excinfo:
        build(tmp_path)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message.format(tmp=tmp_path)


def _faulty_directory(root, fault):
    """Eight run files s0..s7 under root and at most one fault: a negative
    value, a ragged matrix, both (the ragged one first), or a second file
    for key s1 that sorts last, alone, holding a ragged matrix, or followed
    by a negative value."""
    for i in range(8):
        _run_file(root / f"s{i}_f1_10.txt", f"{i} {i + 1}\n")
    if fault in ("negative", "ragged-then-negative"):
        _run_file(root / "s5_f1_10.txt", "1 -5 3\n")
    if fault in ("ragged", "ragged-then-negative"):
        _run_file(root / "s2_f1_10.txt", "1 2\n3\n")
    elif fault.startswith("duplicate"):
        _run_file(root / "z" / "s1_f1_10.txt",
                  "1 2\n3\n" if fault == "duplicate-ragged" else "1\n")
        if fault == "duplicate-then-negative":
            _run_file(root / "z" / "t_f1_10.txt", "-1\n")
    return len(list(root.rglob("*.txt")))


def _runs_outcome(directory, cut=None):
    """_load_runs' keys and values in order, or its error."""
    try:
        return list(fetch._load_runs(directory, cut).runs.items())
    except HraError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("fault, error", [
    ("none", None), ("negative", ParseError), ("ragged", UnknownLayout),
    ("duplicate", ParseError), ("duplicate-ragged", ParseError),
    ("duplicate-then-negative", ParseError),
    ("ragged-then-negative", UnknownLayout)])
def test_every_split_loads_like_one_pass(tmp_path, fault, error):
    """The two halves, cut here before every file and after the last,
    give the runs or the error of one pass over the files (one half)."""
    count = _faulty_directory(tmp_path, fault)
    one_pass = _runs_outcome(tmp_path, count)
    if error is None:
        assert [key for key, _ in one_pass] == [
            (10, f"s{i}", "f1") for i in range(8)]
    else:
        assert one_pass[0] is error
    if fault.startswith("duplicate"):
        assert one_pass[1] == (f"{tmp_path}/z/s1_f1_10.txt: duplicate run "
                               "file for (10, 's1', 'f1')")
    for cut in range(count + 1):
        assert _runs_outcome(tmp_path, cut) == one_pass, cut
    assert _runs_outcome(tmp_path) == one_pass


def test_run_files_keep_the_rglob_set_and_order(tmp_path):
    """One scandir pass finds the files that sorted(rglob("*.txt")) with an
    is_file() check found, in that order: by path parts, so `a/...` comes
    before `a-b...` and `a.b/...`, though '/' sorts after '-' and '.'."""
    root = tmp_path / "runs"
    for name in ("a/s_f_10.txt", "a-b_f_10.txt", "a.b/s_f_10.txt",
                 "x_y_10.txt/s_g_10.txt", "a/deeper/s_f_10.txt",
                 "ab_10.txt", "s_f_10.csv", ".txt", "real.dat"):
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text("1 2\n")
    (root / "l_f_10.txt").symlink_to(root / "real.dat")  # a file
    (root / "d_f_10.txt").symlink_to(root / "a")  # a directory
    (root / "linked").symlink_to(root / "a")  # not followed
    (root / "gone_f_10.txt").symlink_to(root / "missing.txt")
    files, sizes = fetch._run_files(root)
    assert files == [f"{root}/{name}" for name in (
        "a/deeper/s_f_10.txt", "a/s_f_10.txt", "a-b_f_10.txt",
        "a.b/s_f_10.txt", "l_f_10.txt", "x_y_10.txt/s_g_10.txt")]
    assert files == [str(path) for path in sorted(root.rglob("*.txt"))
                     if len(path.stem.rsplit("_", 2)) == 3
                     and path.is_file()]
    assert sizes == [os.stat(path).st_size for path in files]


def test_run_files_of_the_working_directory(tmp_path, monkeypatch):
    """Paths under "." read as rglob's do: `a_f_10.txt`, not `./a_f_10.txt`,
    so an error names the file as before."""
    _run_file(tmp_path / "a_f_10.txt", "1 -5 3\n")
    _run_file(tmp_path / "sub" / "b_f_10.txt")
    monkeypatch.chdir(tmp_path)
    assert fetch._run_files(Path("."))[0] == ["a_f_10.txt", "sub/b_f_10.txt"]
    with pytest.raises(ParseError, match=r"^a_f_10\.txt: negative"):
        load_raw_runs(".")


@pytest.mark.parametrize("runs, error, rule", [
    ((), EmptyRuns, "no runs recorded"),
    ((1.0, math.nan), NonFiniteValue, "run value nan is not finite"),
    ((math.inf,), NonFiniteValue, "run value inf is not finite"),
    ((2.0, -math.inf), NonFiniteValue, "run value -inf is not finite"),
    ((1.0, -5.0, 3.0), ParseError, "negative error value -5.0"),
], ids=["empty", "nan", "inf", "minus-inf", "negative"])
def test_one_run_rule_for_keys_and_files(tmp_path, runs, error, rule):
    """RawRuns and load_raw_runs share check_runs: the same error and text,
    after the key or after the run file's path."""
    key = (10, "a", "f1")
    cases = [(RawRuns, {key: runs}, key)]
    if runs:  # a run file that holds no number is an UnknownLayout
        path = _run_file(tmp_path / "a_f1_10.txt",
                         " ".join(map(str, runs)) + "\n")
        cases.append((load_raw_runs, tmp_path, path))
    for build, argument, name in cases:
        with pytest.raises(error) as excinfo:
            build(argument)
        assert type(excinfo.value) is error
        assert str(excinfo.value) == f"{name}: {rule}"


def test_load_raw_runs_checks_each_run_file_once(tmp_path, monkeypatch):
    """check_runs runs once per run file, where its error names the file;
    the RawRuns it returns holds what the library constructor would."""
    from hra import files

    names, check_runs = [], files.check_runs

    def counted(name, values):
        names.append(name)
        return check_runs(name, values)

    monkeypatch.setattr(files, "check_runs", counted)
    monkeypatch.setattr(fetch, "check_runs", counted)
    paths = [_run_file(tmp_path / name, text) for name, text in (
        ("a_f1_10.txt", "1 2 3\n"), ("a_f2_10.txt", "9 9\n-0.0 4\n"),
        ("b_f1_30.txt", "5\n6\n"))]
    raw = load_raw_runs(tmp_path)
    assert names == list(map(str, paths))
    assert raw.runs == {(10, "a", "f1"): (1.0, 2.0, 3.0),
                        (10, "a", "f2"): (-0.0, 4.0),
                        (30, "b", "f1"): (5.0, 6.0)}
    assert raw == RawRuns(raw.runs)
