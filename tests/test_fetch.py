"""Tests for source mirroring and raw run-file parsing."""

import hashlib
import urllib.error
import urllib.request

import pytest

from hra import (
    ChecksumMismatch,
    NetworkError,
    ParseError,
    RawRuns,
    UnknownLayout,
    dataset_from_runs,
    fetch_raw,
    load_raw_runs,
)
from hra.fetch import MANIFEST_NAME, URL_TIMEOUT_S, parse_inventory


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
            parse_inventory(f"ok.txt,1,ff\n{path},1,ff\n", "inv")

    def test_urlopen_has_timeout(self, tmp_path, monkeypatch):
        calls = []

        def urlopen(url, timeout=None):
            calls.append(timeout)
            raise urllib.error.URLError("refused")

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        with pytest.raises(NetworkError):
            fetch_raw(tmp_path.as_uri(), tmp_path / "dest")
        assert calls == [URL_TIMEOUT_S]


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

    def test_expected_run_count_enforced(self, tmp_path):
        (tmp_path / "solver_1_10.txt").write_text("1 2 3\n")
        with pytest.raises(ParseError, match="expected 51"):
            load_raw_runs(tmp_path, expected_runs=51)

    def test_dimension_int_only_in_canonical_form(self, tmp_path):
        (tmp_path / "a_f_10.txt").write_text("1 2\n")
        (tmp_path / "a_f_010.txt").write_text("3 4\n")
        raw = load_raw_runs(tmp_path)
        assert raw.dimensions() == [10, "010"]

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
        assert ds.is_complete

    def test_population_std_flag(self):
        raw = RawRuns({(10, "s", "f"): (1.0, 2.0, 3.0)})
        sample = dataset_from_runs(raw).values[(10, "std", "s", "f")]
        population = dataset_from_runs(
            raw, population_std=True).values[(10, "std", "s", "f")]
        assert sample == pytest.approx(1.0)
        assert population < sample
