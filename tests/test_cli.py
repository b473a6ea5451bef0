"""End-to-end tests of the command-line surface."""

import errno
import hashlib
import http.client
import shutil
import urllib.request

import numpy as np
import pytest

import hra
from conftest import SYNTHETIC_CSV
from hra import (cli, dataio, fetch, fixtures, hierarchy, load_long_csv,
                 load_rank_matrix_csv, rtopsis, run_hra)
from hra.cli import main
from hra.verify import verify_reference_tables
from test_dataio import failing_on_call, snapshot
from test_fetch import make_source

TABLE_PATH = fixtures.FIXTURES_DIR / fixtures.DIMENSION_RANK_TABLE


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_full_pipeline(self, capsys, tmp_path):
        out_dir = tmp_path / "report"
        code, out, err = run_cli(capsys, "run", "--data", str(SYNTHETIC_CSV),
                                 "--weights", "equal", "--out", str(out_dir))
        assert code == 0 and err == ""
        assert (out_dir / "final_ranking.csv").exists()
        assert "algorithm" in out and "alg_c" in out

    def test_byte_identical_reruns(self, capsys, tmp_path):
        args = ("run", "--data", str(SYNTHETIC_CSV))
        code1, out1, _ = run_cli(capsys, *args, "--out",
                                 str(tmp_path / "one"))
        code2, out2, _ = run_cli(capsys, *args, "--out",
                                 str(tmp_path / "two"))
        assert code1 == code2 == 0
        assert out1.replace("one", "X") == out2.replace("two", "X")
        assert (tmp_path / "one/final_ranking.csv").read_bytes() == \
               (tmp_path / "two/final_ranking.csv").read_bytes()

    def test_missing_file_exits_4(self, capsys, tmp_path):
        missing = tmp_path / "nowhere.csv"
        code, out, err = run_cli(capsys, "run", "--data", str(missing))
        assert code == 4
        assert str(missing) in err
        assert err.count("\n") == 1  # exactly one diagnostic line

    def test_bad_weight_sum_exits_3(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "run", "--data", str(SYNTHETIC_CSV), "--out",
            str(tmp_path), "--dimension-weights", "0.5,0.4")
        assert code == 3
        assert "0.5" in err and "0.4" in err
        assert err.count("\n") == 1

    def test_wrong_weight_count_exits_3(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "--data", str(SYNTHETIC_CSV),
                               "--out", str(tmp_path), "--weights", "0.5,0.5")
        assert code == 3 and "--weights" in err

    def test_markdown_format(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "run", "--data", str(SYNTHETIC_CSV),
                             "--out", str(tmp_path / "md"), "--format",
                             "markdown")
        assert code == 0
        assert (tmp_path / "md/final_ranking.md").exists()

    def test_verbose_dumps_traces(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "run", "--data", str(SYNTHETIC_CSV),
                               "--out", str(tmp_path), "--verbose")
        assert code == 0
        assert "trace [leaf/10/best]" in out
        assert "PIS" in out and "S-" in out

    def test_line_break_in_a_label_keeps_one_line_per_row(self, capsys,
                                                          tmp_path):
        data = tmp_path / "nl.csv"
        data.write_bytes(b'dimension,measure,function,algorithm,value\n'
                         b'10,"be\rst",f1,"c\nd",1.0\n10,"be\rst",f1,b,2.0\n'
                         b'10,"be\rst",f2,"c\nd",3.0\n10,"be\rst",f2,b,1.0\n')
        code, out, err = run_cli(capsys, "run", "--data", str(data), "--out",
                                 str(tmp_path / "rep"), "--format",
                                 "markdown", "--verbose")
        assert code == 0 and err == ""
        assert "trace [leaf/10/be\\rst]\n" in out and "\r" not in out
        assert out.splitlines()[-4:-1] == ["algorithm    score  rank",
                                           "c\\nd        0.5000   1.5",
                                           "b           0.5000   1.5"]
        assert (tmp_path / "rep" / "final_ranking.md").read_bytes() == (
            b"| algorithm | score | hra_rank |\n| --- | --- | --- |\n"
            b"| c\\nd | 0.5 | 1.5 |\n| b | 0.5 | 1.5 |\n")
        leaves = (tmp_path / "rep" / "leaf_ranks.md").read_bytes().decode()
        assert "| 10 | be\\rst | c\\nd | 1.5 |\n" in leaves
        assert leaves.count("\n") == 4 and "\r" not in leaves


# sha256 of every report file and of stdout for `hra run --data
# synthetic_5x6.csv --out report`, recorded before the report was rebuilt as
# a tree of evaluation nodes: identical inputs give identical bytes
REPORT_DIGESTS = {
    "csv": {
        "dimension_10.csv": "e81e98a2d7e27454fc6457db8a7ba922"
                            "e7955be7f5c512617f4968bf0ea852ee",
        "dimension_30.csv": "993b219b9b3ad48f1b5a182ba3737550"
                            "d88a8fb78a3a3d9f5941552b1259c687",
        "final_matrix.csv": "161bc504fe508f4b067537bce7089dc2"
                            "503b834aad58502511cc4ccd6fae6d1c",
        "final_ranking.csv": "506738501464e66875e1fb50ec539bbe"
                             "7571d6cb8e4614b23f6fa5bd9b7ffaff",
        "leaf_ranks.csv": "4c73075c3b3a91783d523b13ad9ca21f"
                          "8fb583b552090acd529329e8667b4c1f",
    },
    "markdown": {
        "dimension_10.md": "1f52f6b161d00f8443c8c9d2f1ba66fb"
                           "2592c04cc5f988b4cadaa9f53ed500b2",
        "dimension_30.md": "b186dcce430d85f1fe96b9d055e490ef"
                           "60ef1cfb7757569392d63362d2e7d877",
        "final_matrix.md": "e898ff67259bbd8307d4bc7023a5a41d"
                           "8739b2e8340e021e7f2d199bda595bdb",
        "final_ranking.md": "34fbc589e165eff6b659ad06317895b9"
                            "bb3257b9340e02c2e5f1894a9610afa2",
        "leaf_ranks.md": "82f097eaa5fea9b600a45d2754eda871"
                         "eb5513dd16aa0da0430a851e16e51372",
    },
}
STDOUT_DIGESTS = {
    False: "35be7311e8c498182317cc71f4494e52"
           "4dcec1d7fcd69e18088f10ae054c1459",
    True: "2dc811b095de5c20dde543997a6b0007"
          "540864b87ec7def4b15b0327941bb667",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestReportBytes:
    @pytest.mark.parametrize("verbose", [False, True])
    @pytest.mark.parametrize("fmt", ["csv", "markdown"])
    def test_pinned_digests(self, capsys, tmp_path, monkeypatch, fmt,
                            verbose):
        monkeypatch.chdir(tmp_path)  # stdout names the relative --out
        code, out, err = run_cli(
            capsys, "run", "--data", str(SYNTHETIC_CSV), "--out", "report",
            "--format", fmt, *(["--verbose"] if verbose else []))
        assert code == 0 and err == ""
        assert {path.name: sha256(path.read_bytes()) for path
                in (tmp_path / "report").iterdir()} == REPORT_DIGESTS[fmt]
        assert sha256(out.encode()) == STDOUT_DIGESTS[verbose]

    @pytest.mark.parametrize("fmt,ext", [("csv", "csv"), ("markdown", "md")])
    def test_dimension_labels_that_are_not_file_names(self, capsys, tmp_path,
                                                      fmt, ext):
        labels = ("a/b", "a%2Fb", "D" * 250)
        data = tmp_path / "data.csv"
        data.write_text("dimension,measure,function,algorithm,value\n" + "".join(
            f"{d},p,{f},{a},{v}\n" for d in labels for f in ("f1", "f2")
            for v, a in enumerate(("x", "y") if f == "f1" else ("y", "x"))))
        out_dir = tmp_path / "report"
        code, _, err = run_cli(capsys, "run", "--data", str(data), "--out",
                               str(out_dir), "--format", fmt)
        assert code == 0 and err == ""
        digest = sha256(labels[2].encode())[:16]
        names = {"a/b": f"dimension_a%2Fb.{ext}",
                 "a%2Fb": f"dimension_a%252Fb.{ext}",
                 labels[2]: ("dimension_" + labels[2])[:236 - len(ext)]
                 + f"%~{digest}.{ext}"}
        assert len(names[labels[2]].encode()) == 255
        assert sorted(path.name for path in out_dir.iterdir()) == sorted(
            [f"leaf_ranks.{ext}", f"final_matrix.{ext}",
             f"final_ranking.{ext}", *names.values()])
        if fmt == "csv":
            report = run_hra(load_long_csv(data))
            for d, name in names.items():
                table = load_rank_matrix_csv(out_dir / name)
                np.testing.assert_array_equal(table.values[:, -1],
                                              report.dimension_ranks[d])


class TestRtopsis:
    def test_published_matrix(self, capsys):
        code, out, err = run_cli(capsys, "rtopsis", "--matrix",
                                 str(TABLE_PATH), "--weights", "equal")
        assert code == 0 and err == ""
        jso_line = next(l for l in out.splitlines() if l.startswith("jSO"))
        assert "0.7735" in jso_line
        assert jso_line.rstrip().endswith("2")

    def test_direction_flip_reverses_dominated_pair(self, capsys, tmp_path):
        path = tmp_path / "pair.csv"
        path.write_text("algorithm,c1,c2\nlow,1,1\nhigh,2,2\n")
        _, cost_out, _ = run_cli(capsys, "rtopsis", "--matrix", str(path))
        _, benefit_out, _ = run_cli(capsys, "rtopsis", "--matrix", str(path),
                                    "--direction", "benefit")

        def rank_of(out, label):
            line = next(l for l in out.splitlines() if l.startswith(label))
            return line.split()[-1]

        assert rank_of(cost_out, "low") == "1"
        assert rank_of(cost_out, "high") == "2"
        assert rank_of(benefit_out, "low") == "2"
        assert rank_of(benefit_out, "high") == "1"

    def test_two_by_two_scores(self, capsys, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("algorithm,c1,c2\nfirst,1,1\nsecond,2,2\n")
        code, out, _ = run_cli(capsys, "rtopsis", "--matrix", str(path))
        assert code == 0
        assert "0.6667" in out and "0.3333" in out

    def test_explicit_domain_matches_default(self, capsys):
        _, default_out, _ = run_cli(capsys, "rtopsis", "--matrix",
                                    str(TABLE_PATH))
        _, explicit_out, _ = run_cli(capsys, "rtopsis", "--matrix",
                                     str(TABLE_PATH), "--domain", "0:14")
        assert default_out == explicit_out

    def test_bad_domain_syntax_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "rtopsis", "--matrix",
                               str(TABLE_PATH), "--domain", "zero-fourteen")
        assert code == 1 and "--domain" in err

    def test_out_of_domain_value_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "rtopsis", "--matrix",
                               str(TABLE_PATH), "--domain", "0:4")
        assert code == 3 and "outside the domain" in err


class TestVerifyPaper:
    def test_all_checks_pass(self, capsys):
        code, out, err = run_cli(capsys, "verify-paper")
        assert code == 0 and err == ""
        assert "6/6 checks PASS" in out
        assert out.count("PASS") == 7  # six lines plus the summary

    def test_zero_tolerance_fails_scores_only(self, capsys):
        code, out, _ = run_cli(capsys, "verify-paper", "--tolerance", "0")
        assert code == 1
        assert "FAIL overall-scores" in out
        assert "5/6 checks PASS" in out

    def test_corrupted_fixture_named(self, capsys, tmp_path, monkeypatch):
        corrupt = tmp_path / "fixtures"
        shutil.copytree(fixtures.FIXTURES_DIR, corrupt)
        target = corrupt / fixtures.MEASURE_RANK_TABLES[30]
        target.write_text(target.read_text().replace("EBOwithCMAR,1,1,1,1,3",
                                                     "EBOwithCMAR,9,9,9,9,9"))
        monkeypatch.setattr(fixtures, "FIXTURES_DIR", corrupt)
        code, out, _ = run_cli(capsys, "verify-paper")
        assert code == 1
        assert "FAIL dim30-ranking" in out
        assert "EBOwithCMAR" in out

    def test_hermetic(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("network access attempted")

        monkeypatch.setattr(urllib.request, "urlopen", refuse)
        code, out, _ = run_cli(capsys, "verify-paper")
        assert code == 0 and "6/6 checks PASS" in out

    def test_reads_only_the_bundled_tables(self, capsys, tmp_path,
                                           monkeypatch):
        monkeypatch.setenv("HRA_FIXTURES", str(tmp_path / "nonexistent"))
        code, out, _ = run_cli(capsys, "verify-paper")
        assert code == 0 and "6/6 checks PASS" in out

    def test_checks_the_kernel_of_run(self, monkeypatch):
        """Every recomputed level is one evaluation of hierarchy.evaluate:
        four dimensions and the overall ranking."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return rtopsis(*args, **kwargs)

        monkeypatch.setattr(hierarchy, "rtopsis", counted)
        assert all(check.passed for check in verify_reference_tables())
        assert len(calls) == 5


class TestStats:
    def test_toy_directory(self, capsys, tmp_path):
        runs_dir = tmp_path / "runs"
        runs_dir.mkdir()
        (runs_dir / "solver_1_10.txt").write_text("1 2 3\n")
        out_csv = tmp_path / "stats.csv"
        code, out, err = run_cli(capsys, "stats", str(runs_dir), "--out",
                                 str(out_csv))
        assert code == 0 and err == ""
        body = out_csv.read_text()
        assert body.startswith("dimension,measure,function,algorithm,value\n")
        rows = dict()
        for line in body.splitlines()[1:]:
            d, p, f, a, v = line.split(",")
            rows[p] = float(v)
        assert rows == {"best": 1.0, "worst": 3.0, "median": 2.0,
                        "mean": 2.0, "std": 1.0}

    def test_out_into_missing_nested_directory(self, capsys, tmp_path):
        runs_dir = tmp_path / "runs"
        runs_dir.mkdir()
        (runs_dir / "solver_1_10.txt").write_text("1 2 3\n4 5 6\n")
        flat, nested = tmp_path / "x.csv", tmp_path / "new" / "dir" / "x.csv"
        for out_csv in (flat, nested):
            code, _, err = run_cli(capsys, "stats", str(runs_dir), "--out",
                                   str(out_csv))
            assert code == 0 and err == ""
        assert nested.read_bytes() == flat.read_bytes()

    def test_empty_directory_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "stats", str(tmp_path), "--out",
                               str(tmp_path / "x.csv"))
        assert code == 2 and "no run files" in err

    def test_population_std_flag(self, capsys, tmp_path):
        runs_dir = tmp_path / "runs"
        runs_dir.mkdir()
        (runs_dir / "solver_1_10.txt").write_text("1 2 3\n")
        out_csv = tmp_path / "stats.csv"
        code, _, _ = run_cli(capsys, "stats", str(runs_dir), "--out",
                             str(out_csv), "--std-population")
        assert code == 0
        std_line = next(l for l in out_csv.read_text().splitlines()
                        if l.split(",")[1] == "std")
        assert float(std_line.split(",")[-1]) == pytest.approx(0.8164965809)


class TestFetch:
    def test_fetch_then_idempotent(self, capsys, tmp_path):
        source = tmp_path / "src"
        source.mkdir()
        url = make_source(source, {"solver_1_10.txt": "1 2 3\n"})
        dest = tmp_path / "dest"
        code, out, _ = run_cli(capsys, "fetch", url, "--out", str(dest))
        assert code == 0 and "1 downloaded" in out
        code, out, _ = run_cli(capsys, "fetch", url, "--out", str(dest))
        assert code == 0 and "0 downloaded" in out and "1 already" in out

    def test_escaping_inventory_path_exits_2(self, capsys, tmp_path):
        source = tmp_path / "src" / "site"
        source.mkdir(parents=True)
        url = make_source(source, {"ok_1_10.txt": "1\n",
                                   "../outside.txt": "1 2 3\n"})
        dest = tmp_path / "out" / "dest"
        code, _, err = run_cli(capsys, "fetch", url, "--out", str(dest))
        assert code == 2 and err.count("\n") == 1
        assert "outside.txt" in err
        assert not (tmp_path / "out").exists()

    @pytest.fixture
    def urls(self, monkeypatch):
        """Every URL opened during the test, in order."""
        urlopen, urls = urllib.request.urlopen, []

        def recorded(url, **kwargs):
            urls.append(url)
            return urlopen(url, **kwargs)

        monkeypatch.setattr(urllib.request, "urlopen", recorded)
        return urls

    def test_hostile_inventory_rejected_before_download(self, capsys,
                                                        tmp_path, urls):
        source = tmp_path / "src"
        source.mkdir()
        (source / "a.txt").write_text("1 2\n")
        (source / "inventory.txt").write_text("a.txt,-5,abc\n")
        dest = tmp_path / "out" / "dest"
        code, _, err = run_cli(capsys, "fetch", source.as_uri(), "--out",
                               str(dest))
        assert code == 2 and err.count("\n") == 1
        assert "inventory.txt:1: byte count" in err
        assert urls == [f"{source.as_uri()}/inventory.txt"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("second, message", [
        ("./manifest.csv", "is where the manifest is written"),
        ("a//run_1_10.txt", "repeats line 1")], ids=["manifest", "repeat"])
    def test_colliding_inventory_path_rejected_before_download(
            self, capsys, tmp_path, urls, second, message):
        source = tmp_path / "src"
        (source / "a").mkdir(parents=True)
        (source / "a" / "run_1_10.txt").write_text("1 2\n")
        (source / "manifest.csv").write_text("1 2\n")
        digest = hashlib.sha256(b"1 2\n").hexdigest()
        (source / "inventory.txt").write_text(
            f"a/run_1_10.txt,4,{digest}\n{second},4,{digest}\n")
        dest = tmp_path / "out" / "dest"
        code, _, err = run_cli(capsys, "fetch", source.as_uri(), "--out",
                               str(dest))
        assert code == 2 and err.count("\n") == 1
        assert f"inventory.txt:2: path {second!r} {message}" in err
        assert urls == [f"{source.as_uri()}/inventory.txt"]
        assert not (tmp_path / "out").exists()

    def test_unreachable_source_exits_4(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "fetch",
                               (tmp_path / "void").as_uri(), "--out",
                               str(tmp_path / "dest"))
        assert code == 4 and err.count("\n") == 1


class TestNotUtf8:
    """A byte that is not UTF-8 is a parse error naming the file."""

    def check(self, capsys, path, *argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and err.count("\n") == 1
        assert err.startswith("hra: parse error: ") and str(path) in err

    def test_long_csv(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        rows = "".join(f"10,best,f{i},a,1.0\n" for i in range(5000))
        path.write_bytes(b"dimension,measure,function,algorithm,value\n"
                         + rows.encode() + b"10,best,\xff,a,1.0\n")
        self.check(capsys, path, "run", "--data", str(path), "--out",
                   str(tmp_path / "report"))

    def test_rank_matrix(self, capsys, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_bytes(b"algorithm,c1\na,1\n\xff,2\n")
        self.check(capsys, path, "rtopsis", "--matrix", str(path))

    def test_run_file(self, capsys, tmp_path):
        runs = tmp_path / "runs"
        runs.mkdir()
        (runs / "a_1_10.txt").write_text("1 2 3\n")
        (runs / "b_1_10.txt").write_bytes(b"1 2\xff 3\n")
        self.check(capsys, runs / "b_1_10.txt", "stats", str(runs),
                   "--out", str(tmp_path / "stats.csv"))

    def test_inventory(self, capsys, tmp_path):
        source = tmp_path / "src"
        source.mkdir()
        (source / "inventory.txt").write_bytes(b"a\xff.txt,1,ff\n")
        self.check(capsys, "inventory.txt", "fetch", source.as_uri(),
                   "--out", str(tmp_path / "dest"))


class TestFieldSizeLimit:
    """A field over csv.field_size_limit() is a parse error naming its
    line, not a traceback."""

    LABEL = "x" * 140000

    def check(self, capsys, path, line, *argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and err.count("\n") == 1
        assert err.startswith(f"hra: parse error: {path}:{line}: field "
                              "larger than field limit")

    def test_long_csv(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("dimension,measure,function,algorithm,value\n"
                        f"10,best,f1,{self.LABEL},1.0\n")
        self.check(capsys, path, 2, "run", "--data", str(path), "--out",
                   str(tmp_path / "report"))

    def test_rank_matrix(self, capsys, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_text(f"algorithm,c1\na,1\n{self.LABEL},2\n")
        self.check(capsys, path, 3, "rtopsis", "--matrix", str(path))


class TestUsage:
    def test_no_subcommand_exits_1(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1 and err.count("\n") == 1

    def test_unknown_flag_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "rtopsis", "--nope")
        assert code == 1


# exit code and stderr prefix of every error class the package exports;
# the three family bases carry the codes their members inherit
EXIT_CODES = {
    "ParseFailure": (2, "parse"), "ParseError": (2, "parse"),
    "DuplicateTuple": (2, "parse"), "EmptyMatrix": (2, "parse"),
    "NonFiniteValue": (2, "parse"),
    "ValidationFailure": (3, "validation"),
    "ShapeMismatch": (3, "validation"), "DomainViolation": (3, "validation"),
    "DegenerateDomain": (3, "validation"),
    "ZeroUpperBound": (3, "validation"),
    "DegenerateIdeals": (3, "validation"),
    "InvalidWeights": (3, "validation"), "MissingCell": (3, "validation"),
    "EmptyRuns": (3, "validation"),
    "InconsistentStatistics": (3, "validation"),
    "IoFailure": (4, "i/o"), "IoError": (4, "i/o"),
    "NetworkError": (4, "i/o"), "ChecksumMismatch": (4, "i/o"),
    "UnknownLayout": (4, "i/o"),
}
EXPORTED_ERRORS = sorted(
    name for name, obj in vars(hra).items()
    if isinstance(obj, type) and issubclass(obj, hra.HraError)
    and obj is not hra.HraError)


@pytest.mark.parametrize("name", EXPORTED_ERRORS)
def test_error_class_exit_code(name, capsys, tmp_path, monkeypatch):
    error = getattr(hra, name)

    def fail(path):
        raise error(["cell"]) if issubclass(error, hra.MissingCell) \
            else error("boom")

    monkeypatch.setattr(cli, "load_long_csv", fail)
    code, out, err = run_cli(capsys, "run", "--data", "x.csv", "--out",
                             str(tmp_path))
    expected_code, prefix = EXIT_CODES[name]
    assert code == expected_code
    assert err.startswith(f"hra: {prefix} error: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def swapped_labels(tmp_path):
    """synthetic_5x6.csv with alg_a and alg_b swapped: another dataset
    whose report has the same file names."""
    text = SYNTHETIC_CSV.read_text()
    path = tmp_path / "swapped.csv"
    path.write_text(text.replace("alg_a", "alg_x").replace("alg_b", "alg_a")
                    .replace("alg_x", "alg_b"))
    return path


class TestInterruptedWrites:
    """A failed write leaves every earlier file byte-identical and no
    temporary file, and exits 4 with one line."""

    def assert_one_io_error(self, code, err, name):
        assert code == 4
        assert err.startswith("hra: i/o error: cannot write ")
        assert name in err and err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["csv", "markdown"])
    def test_report_fails_on_third_file(self, capsys, tmp_path, monkeypatch,
                                        fmt):
        out_dir = tmp_path / "report"
        code, _, _ = run_cli(capsys, "run", "--data", str(SYNTHETIC_CSV),
                             "--out", str(out_dir), "--format", fmt)
        assert code == 0
        before = snapshot(out_dir)
        writer = "_write_rows" if fmt == "csv" else "_write_markdown"
        monkeypatch.setattr(dataio, writer,
                            failing_on_call(getattr(dataio, writer), 3))
        code, out, err = run_cli(capsys, "run", "--data",
                                 str(swapped_labels(tmp_path)), "--out",
                                 str(out_dir), "--format", fmt)
        self.assert_one_io_error(code, err, "dimension_30.")
        assert out == ""
        assert snapshot(out_dir) == before
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(before)

    def test_directory_at_a_report_path(self, capsys, tmp_path):
        out_dir = tmp_path / "report"
        run_cli(capsys, "run", "--data", str(SYNTHETIC_CSV), "--out",
                str(out_dir))
        (out_dir / "final_ranking.csv").unlink()
        (out_dir / "final_ranking.csv").mkdir()
        before = snapshot(out_dir)
        code, _, err = run_cli(capsys, "run", "--data",
                               str(swapped_labels(tmp_path)), "--out",
                               str(out_dir))
        self.assert_one_io_error(code, err, "final_ranking.csv")
        assert "not a regular file" in err
        assert snapshot(out_dir) == before
        assert len(list(out_dir.iterdir())) == len(before) + 1

    def test_rerun_leaves_only_report_files(self, capsys, tmp_path):
        out_dir = tmp_path / "report"
        for data in (SYNTHETIC_CSV, swapped_labels(tmp_path)):
            code, _, _ = run_cli(capsys, "run", "--data", str(data),
                                 "--out", str(out_dir))
            assert code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "dimension_10.csv", "dimension_30.csv", "final_matrix.csv",
            "final_ranking.csv", "leaf_ranks.csv"]
        assert "alg_b," in (out_dir / "final_ranking.csv").read_text(
            ).splitlines()[1]

    def test_stats_out(self, capsys, tmp_path, monkeypatch):
        runs_dir = tmp_path / "runs"
        runs_dir.mkdir()
        (runs_dir / "solver_1_10.txt").write_text("1 2 3\n")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out_csv = out_dir / "stats.csv"
        assert run_cli(capsys, "stats", str(runs_dir), "--out",
                       str(out_csv))[0] == 0
        before = snapshot(out_dir)
        (runs_dir / "solver_1_10.txt").write_text("4 5 6\n")
        monkeypatch.setattr(dataio, "_write_rows",
                            failing_on_call(dataio._write_rows, 1))
        code, _, err = run_cli(capsys, "stats", str(runs_dir), "--out",
                               str(out_csv))
        self.assert_one_io_error(code, err, "stats.csv")
        assert snapshot(out_dir) == before

    @pytest.mark.parametrize("command", ["run", "stats", "fetch"])
    def test_regular_file_at_an_out_directory(self, capsys, tmp_path,
                                              command):
        blocker = tmp_path / "blocker"
        blocker.write_text("old\n")
        runs_dir = tmp_path / "runs"
        runs_dir.mkdir()
        (runs_dir / "solver_1_10.txt").write_text("1 2 3\n")
        argv = {"run": ("run", "--data", str(SYNTHETIC_CSV), "--out",
                        str(blocker)),
                "stats": ("stats", str(runs_dir), "--out",
                          str(blocker / "stats.csv")),
                "fetch": ("fetch", make_source(tmp_path / "src", {
                    "solver_1_10.txt": "1 2 3\n"}), "--out", str(blocker))}
        code, out, err = run_cli(capsys, *argv[command])
        self.assert_one_io_error(code, err, str(blocker))
        assert out == "" and blocker.read_text() == "old\n"
        assert not list(tmp_path.rglob(".hra-*.tmp"))

    def test_fetch_from_no_url(self, capsys, tmp_path, monkeypatch):
        dest = tmp_path / "dest"
        dest.mkdir()
        (dest / "solver_1_10.txt").write_text("1 2 3\n")
        before = snapshot(dest)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "fetch", "notaurl", "--out", "dest")
        assert code == 4 and out == "" and err.count("\n") == 1
        assert err.startswith("hra: i/o error: cannot fetch notaurl/")
        assert snapshot(dest) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dest"]

    def test_fetch_cut_off_after_half_a_payload(self, capsys, tmp_path,
                                                monkeypatch):
        source, dest = tmp_path / "source", tmp_path / "dest"
        url = make_source(source, {"solver_1_10.txt": "4 5 6\n"})
        dest.mkdir()
        (dest / "solver_1_10.txt").write_text("1 2 3\n")  # a stale copy
        before = snapshot(dest)
        urlopen = urllib.request.urlopen

        class CutOff:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def read(self):
                raise http.client.IncompleteRead(b"4 5", 3)

        def cut_payload(url, **kwargs):
            return CutOff() if url.endswith("solver_1_10.txt") \
                else urlopen(url, **kwargs)

        monkeypatch.setattr(urllib.request, "urlopen", cut_payload)
        code, out, err = run_cli(capsys, "fetch", url, "--out", str(dest))
        assert code == 4 and out == "" and err.count("\n") == 1
        assert err.startswith("hra: i/o error: cannot fetch ")
        assert "solver_1_10.txt" in err and "IncompleteRead" in err
        assert snapshot(dest) == before
        assert sorted(p.name for p in dest.iterdir()) == ["solver_1_10.txt"]

    def test_fetch_payload(self, capsys, tmp_path, monkeypatch):
        source, dest = tmp_path / "source", tmp_path / "dest"
        source.mkdir()
        dest.mkdir()
        url = make_source(source, {"solver_1_10.txt": "4 5 6\n"})
        (dest / "solver_1_10.txt").write_text("1 2 3\n")  # a stale copy
        before = snapshot(dest)

        def failing_replace(source, target):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(dataio.os, "replace", failing_replace)
        code, _, err = run_cli(capsys, "fetch", url, "--out", str(dest))
        self.assert_one_io_error(code, err, "solver_1_10.txt")
        assert snapshot(dest) == before

    def test_fetch_manifest(self, capsys, tmp_path, monkeypatch):
        one, two, dest = (tmp_path / name for name in ("one", "two", "dest"))
        one.mkdir()
        two.mkdir()
        url = make_source(one, {"solver_1_10.txt": "1 2 3\n"})
        assert run_cli(capsys, "fetch", url, "--out", str(dest))[0] == 0
        before = snapshot(dest)
        url = make_source(two, {"solver_2_10.txt": "4 5 6\n",
                                "solver_1_10.txt": "1 2 3\n"})
        line, calls = fetch.ManifestEntry.line, []

        def failing_line(entry):
            calls.append(entry)
            if len(calls) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return line(entry)

        monkeypatch.setattr(fetch.ManifestEntry, "line", failing_line)
        code, _, err = run_cli(capsys, "fetch", url, "--out", str(dest))
        self.assert_one_io_error(code, err, "manifest.csv")
        after = snapshot(dest)
        assert after.pop("solver_2_10.txt") == b"4 5 6\n"  # a payload
        assert after == before
