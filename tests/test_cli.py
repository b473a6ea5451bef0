"""End-to-end tests of the command-line surface."""

import errno
import hashlib
import http.client
import json
import os
import random
import re
import runpy
import shutil
import string
import subprocess
import sys
import tempfile
import urllib.request
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hra
from conftest import SYNTHETIC_CSV, count_evaluations
from hra import (cli, dataio, dataset_from_runs, fetch, files, fixtures,
                 hierarchy, load_long_csv, load_rank_matrix_csv, load_raw_runs,
                 run_hra, verify)
from hra.cli import main
from hra.verify import verify_reference_tables
from test_dataio import failing_on_call, snapshot
from test_fetch import make_source

TABLE_PATH = fixtures.FIXTURES_DIR / fixtures.DIMENSION_RANK_TABLE
DEMOS_DIR = Path(__file__).resolve().parents[1] / "demos"


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
        assert code == 3
        assert err == ("hra: validation error: --weights: expected 6 "
                       "weights, got 2\n")

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


# the same for `hra run --data tied.csv --out weighted` with the weights of
# WEIGHT_FLAGS, where tied.csv is what write_tie_heavy_csv writes: integer
# values 0-3 over 7 algorithms, 9 functions, 3 dimensions and 5 measures, so
# most leaves hold ties and every level sums unequal weights
WEIGHTED_REPORT_DIGESTS = {
    "csv": {
        "dimension_10.csv": "13d8ee213c1ea1046000563fa5408ac6"
                            "ed0ab2e4bc2bf2ea0f1615aed80723c3",
        "dimension_30.csv": "60d914a064f35e560cc7569fe8f8b84b"
                            "5be024c8ce4846d70f77374f443a0988",
        "dimension_50.csv": "0179f38477d6f26ac04a5897617b3e4c"
                            "7e320951a3b7944a2603602ec4a53e91",
        "final_matrix.csv": "7b65dd5c8659dc190d12ac8466a8c491"
                            "f400ad222fcb1f4558c14c390d78ab64",
        "final_ranking.csv": "f78e3f1ec697071e31e6c3bac1b082ec"
                             "a0f1fe64485f09902916b9b57d4985bc",
        "leaf_ranks.csv": "81eb116c4bfc35bf49135a35599ab4b8"
                          "900d77596e82be68f1f985ff208a5fa6",
    },
    "markdown": {
        "dimension_10.md": "2892694e3430b992cc219c6091fe0677"
                           "d1852b33a1a2258e2b193db1218527bc",
        "dimension_30.md": "34b75219163aa3d2daa362f138c35705"
                           "04c24a9198e63cf39193cdece94b5bd1",
        "dimension_50.md": "03781e580db97c1931b797e66ef29ef9"
                           "7fe3a4513b7b15575b3fe8a8b5afd90b",
        "final_matrix.md": "59d591abd638d4d2abe1f4c7e01becaa"
                           "43489fb39765aa6980f5798198180dfd",
        "final_ranking.md": "3dc5a4233d3df10b8dd37245d470ecf8"
                            "8bff213f0ee3dcc305fe9ca025b31718",
        "leaf_ranks.md": "bee5ebe1436be2bfe9836444d3b9d76f"
                         "0fbe2ecf89a3520642678f0690a39f2e",
    },
}
WEIGHTED_STDOUT_DIGESTS = {
    False: "04a2a14d189d97bb1a9a6206811611f0"
           "f7b1fe0131f61642cd02b8a22c2e1193",
    True: "08f146a4935843e39612830aa864d4b7"
          "9c05431236839c40dc0b58c461ca857c",
}
WEIGHT_FLAGS = (
    "--weights", "0.05,0.05,0.1,0.1,0.1,0.1,0.1,0.15,0.25",
    "--measure-weights", "0.1,0.15,0.2,0.25,0.3",
    "--dimension-weights", "0.5,0.3,0.2")


def write_tie_heavy_csv(path: Path) -> None:
    """Integer values from random.Random(31), whose stream does not depend
    on the Python or numpy version."""
    rng = random.Random(31)
    path.write_text("dimension,measure,function,algorithm,value\n" + "".join(
        f"{d},p{q},f{j},a{i},{rng.randrange(4)}\n" for d in (10, 30, 50)
        for q in range(5) for j in range(9) for i in range(7)))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestReportBytes:
    @pytest.mark.parametrize("verbose", [False, True])
    @pytest.mark.parametrize("fmt", ["csv", "markdown"])
    def test_pinned_digests(self, capsys, tmp_path, monkeypatch, fmt,
                            verbose):
        monkeypatch.chdir(tmp_path)  # stdout names the relative --out
        write_tie_heavy_csv(tmp_path / "tied.csv")
        for data, flags, out_dir, reports, stdouts in (
                (SYNTHETIC_CSV, (), "report", REPORT_DIGESTS, STDOUT_DIGESTS),
                ("tied.csv", WEIGHT_FLAGS, "weighted",
                 WEIGHTED_REPORT_DIGESTS, WEIGHTED_STDOUT_DIGESTS)):
            code, out, err = run_cli(
                capsys, "run", "--data", str(data), *flags, "--out", out_dir,
                "--format", fmt, *(["--verbose"] if verbose else []))
            assert code == 0 and err == ""
            assert {path.name: sha256(path.read_bytes()) for path
                    in (tmp_path / out_dir).iterdir()} == reports[fmt]
            assert sha256(out.encode()) == stdouts[verbose]

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

    def test_backslash_before_pipe_in_a_label(self, capsys, tmp_path):
        """A markdown cell doubles the label's own '\\', so the escaped '|'
        after it cannot end the cell; csv keeps the label's bytes."""
        data = tmp_path / "data.csv"
        data.write_text("dimension,measure,function,algorithm,value\n" + "".join(
            f"10,p,{f},{a},{v}\n" for f in ("f1", "f2")
            for v, a in enumerate(("x\\|y", "z"))))
        for fmt in ("csv", "markdown"):
            assert run_cli(capsys, "run", "--data", str(data), "--out",
                           str(tmp_path / fmt), "--format", fmt)[0] == 0
        csv_row = (tmp_path / "csv/final_ranking.csv").read_text() \
            .splitlines()[1]
        md_row = (tmp_path / "markdown/final_ranking.md").read_text() \
            .splitlines()[2]
        assert csv_row.startswith("x\\|y,")
        assert md_row.startswith("| x\\\\\\|y | ")
        assert gfm_cells(md_row)[0] == "x\\|y" and len(gfm_cells(md_row)) == 3


def gfm_cells(row: str) -> list[str]:
    """The cells of a GFM table row: a '|' ends a cell unless a backslash
    escapes it, and a backslash before ASCII punctuation escapes it."""
    cells, cell = [], ""
    for token in re.findall(r"\\.|.", row.strip()[1:-1]) + ["|"]:
        if token == "|":
            cells.append(cell.strip())
            cell = ""
        elif token[0] == "\\" and token[1] in string.punctuation:
            cell += token[1]
        else:
            cell += token
    return cells


# sha256 of the derived traces as printed before a TopsisResult stopped
# storing them; the verbose `hra run` output is pinned above
RTOPSIS_VERBOSE_DIGEST = ("48c4075df6fe9f271cd1ffb9bb19cf4f"
                          "54cc5c8786bfebf24b4086c357934fd1")
DEMO_01_DIGEST = ("7555c63585af75a0c3c50acb134cbc7c"
                  "3e6760dc1d297103d5b7236ec1b1999c")


class TestTraceBytes:
    def test_rtopsis_verbose(self, capsys):
        code, out, err = run_cli(capsys, "rtopsis", "--verbose", "--matrix",
                                 str(TABLE_PATH))
        assert code == 0 and err == ""
        out = re.sub(r"(?m)^trace \[.*\]$", "trace [M]", out)
        assert out.count("trace [M]\n") == 1
        assert sha256(out.encode()) == RTOPSIS_VERBOSE_DIGEST

    def test_demo_01(self, capsys):
        runpy.run_path(str(DEMOS_DIR / "01_fixed_domain_topsis.py"),
                       run_name="__main__")
        assert sha256(capsys.readouterr().out.encode()) == DEMO_01_DIGEST


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

    def test_moved_printed_score_fails_scores_only(self, capsys, tmp_path,
                                                   monkeypatch):
        """A printed score one unit of its 4th decimal off fails the score
        check alone, and names the algorithm."""
        corrupt = tmp_path / "fixtures"
        shutil.copytree(fixtures.FIXTURES_DIR, corrupt)
        target = corrupt / fixtures.OVERALL_RANKING_TABLE
        text = target.read_text()
        assert "jSO,0.7735,2,2" in text
        target.write_text(text.replace("jSO,0.7735,2,2", "jSO,0.7736,2,2"))
        monkeypatch.setattr(fixtures, "FIXTURES_DIR", corrupt)
        code, out, _ = run_cli(capsys, "verify-paper")
        assert code == 1
        assert [line for line in out.splitlines() if "FAIL" in line] == [
            "FAIL overall-scores: jSO computed 0.7735 expected 0.7736"]
        assert "5/6 checks PASS" in out

    def test_shifted_dimension_weights_fail_scores(self, capsys,
                                                   monkeypatch):
        """Scores off by less than 1e-4 fail once one no longer rounds to
        its printed value: the 4 decimals the table prints are the bound."""
        def shifted(ranks):
            return hierarchy.aggregate_overall(
                ranks, dimension_weights=(0.2501, 0.2499, 0.25, 0.25))

        monkeypatch.setattr(verify, "aggregate_overall", shifted)
        code, out, _ = run_cli(capsys, "verify-paper")
        assert code == 1
        assert "FAIL overall-scores: TLBO_FL computed 0.0939 expected " \
               "0.0940" in out.splitlines()

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
        """Every recomputed level is one evaluation of run_hra's kernel,
        topsis_stack on a stack of one: four dimensions and the overall
        ranking."""
        calls = count_evaluations(monkeypatch)
        assert all(check.passed for check in verify_reference_tables())
        assert calls == [1] * 5


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

    def test_blank_edged_algorithm_exits_3_and_writes_nothing(
            self, capsys, tmp_path):
        runs_dir = tmp_path / "runs"
        runs_dir.mkdir()
        for name in ("a _f1_10.txt", "a_f1_10.txt"):
            (runs_dir / name).write_text("1 2 3\n")
        out_csv = tmp_path / "stats.csv"
        code, out, err = run_cli(capsys, "stats", str(runs_dir), "--out",
                                 str(out_csv))
        assert (code, out) == (3, "")
        assert err == ("hra: validation error: algorithm 'a ' would "
                       "reload as 'a'\n")
        assert not out_csv.exists()

    def test_empty_algorithm_and_function_are_labels(self, capsys, tmp_path):
        runs_dir = tmp_path / "runs"
        runs_dir.mkdir()
        for name in ("_f1_10.txt", "b_f1_10.txt", "b__10.txt"):
            (runs_dir / name).write_text("1 2 3\n")
        out_csv = tmp_path / "stats.csv"
        code, out, err = run_cli(capsys, "stats", str(runs_dir), "--out",
                                 str(out_csv))
        assert code == 0 and err == ""
        # the present cells, not the 1 x 5 x 2 x 2 cells of the axes
        assert out == f"15 rows written to {out_csv}\n"
        dataset = load_long_csv(out_csv)
        assert sorted(dataset.algorithms) == ["", "b"]
        assert sorted(dataset.functions) == ["", "f1"]
        assert len(dataset.values) == 3 * 5
        assert dataset.missing_cells() == [(10, p, "", "")
                                           for p in dataset.measures]

    def test_equal_runs_summarize(self, capsys, tmp_path):
        """The sum of equal runs can round past them; the mean is clamped
        into [best, worst], so the cell is no ordering error."""
        runs_dir = tmp_path / "runs"
        runs_dir.mkdir()
        (runs_dir / "solverA_F1_10.txt").write_text("0.1 0.1 0.1\n")
        out_csv = tmp_path / "stats.csv"
        assert run_cli(capsys, "stats", str(runs_dir), "--out",
                       str(out_csv)) == (0, f"5 rows written to {out_csv}\n",
                                         "")
        values = load_long_csv(out_csv).values
        assert [values[(10, p, "solverA", "F1")] for p in
                ("best", "worst", "median", "mean")] == [0.1] * 4

    # Each line and exit code is the one numpy's summary gave: the label
    # rule on each axis first, then the first statistic that is not finite
    # in (dimension, measure, algorithm, function) order.
    @pytest.mark.parametrize("runs, code, line", [
        ({"a _f1_10.txt": "1.7e308 1.7e308", "a_f1_10.txt": "1 2 3"}, 3,
         "validation error: algorithm 'a ' would reload as 'a'"),
        ({"solverA_F1_10.txt": "1.7e308 1.7e308"}, 2,
         "parse error: cell (10, median, solverA, F1) is inf"),
        ({"solverA_F1_10.txt": "1.7e308 1.7e308 1.7e308",
          "solverB_F1_10.txt": "1 2"}, 2,
         "parse error: cell (10, mean, solverA, F1) is inf"),
        ({"b_F2_10.txt": "0 1e200", "a_F3_10.txt": "1.7e308 1.7e308 1.7e308",
          "c_F1_30.txt": "1.7e308 1.7e308"}, 2,
         "parse error: cell (10, mean, a, F3) is inf"),
        ({"x_F1_010.txt": "1 2", "x_F1_10.txt": "1.7e308 1.7e308"}, 2,
         "parse error: cell (10, median, x, F1) is inf"),
    ], ids=["blank-edged-algorithm", "median-overflows", "mean-overflows",
            "mean-before-std", "int-dimension-first"])
    def test_error_lines_of_the_numpy_summary(self, capsys, tmp_path, runs,
                                              code, line):
        runs_dir = tmp_path / "runs"
        runs_dir.mkdir()
        for name, text in runs.items():
            (runs_dir / name).write_text(text + "\n")
        out_csv = tmp_path / "stats.csv"
        assert run_cli(capsys, "stats", str(runs_dir), "--out",
                       str(out_csv)) == (code, "", f"hra: {line}\n")
        assert not out_csv.exists()

    @given(st.dictionaries(
        st.tuples(st.sampled_from(("10", "30", "010", "x")),
                  st.sampled_from(("a", "b_c", "x y")),
                  st.sampled_from(("F1", "F10", "#f"))),
        st.lists(st.sampled_from((0.0, -0.0, 0.1, 1e-8, 2.5, 1e4))
                 | st.floats(0.0, 1e6), min_size=1, max_size=60),
        min_size=1, max_size=12), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_output_reloads_as_dataset_from_runs(self, cells,
                                                  population_std):
        with tempfile.TemporaryDirectory() as directory:
            runs_dir = Path(directory) / "runs"
            runs_dir.mkdir()
            for (d, a, f), runs in cells.items():
                (runs_dir / f"{a}_{f}_{d}.txt").write_text(
                    " ".join(map(repr, runs)) + "\n")
            out_csv = Path(directory) / "stats.csv"
            assert main(["stats", str(runs_dir), "--out", str(out_csv)]
                        + ["--std-population"] * population_std) == 0
            written = load_long_csv(out_csv)
            expected = dataset_from_runs(load_raw_runs(runs_dir),
                                         population_std=population_std)
        assert {cell: value.hex() for cell, value in written.values.items()} \
            == {cell: value.hex() for cell, value in expected.values.items()}
        for axis in ("dimensions", "measures", "algorithms", "functions"):
            assert set(getattr(written, axis)) == \
                set(getattr(expected, axis))

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


class TestBadValueNamesTheFile:
    """A bad cell, criterion or run value is one parse-error line (exit 2)
    that names its file, and nothing is written."""

    def check(self, capsys, tmp_path, line, *argv):
        before = sorted(tmp_path.rglob("*"))
        assert run_cli(capsys, *argv) == (2, "", f"hra: parse error: {line}\n")
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("text, line", [
        ("algorithm,c1\na,1\nb,nan\n", "3: column 'c1' is not finite: 'nan'"),
        ("algorithm,c1\na,-inf\n", "2: column 'c1' is not finite: '-inf'"),
        ("algorithm,a,a\nx,1,2\n", "1: duplicate criterion 'a'"),
    ], ids=["nan-cell", "infinite-cell", "repeated-criterion"])
    def test_rank_matrix(self, capsys, tmp_path, text, line):
        path = tmp_path / "matrix.csv"
        path.write_text(text)
        self.check(capsys, tmp_path, f"{path}:{line}", "rtopsis",
                   "--matrix", str(path))

    @pytest.mark.parametrize("text, message", [
        ("1 -5 3\n", "negative error value -5.0"),
        ("1\nnan\n", "run value nan is not finite"),
    ], ids=["negative-run", "nan-run"])
    def test_run_file(self, capsys, tmp_path, text, message):
        runs = tmp_path / "runs"
        runs.mkdir()
        (runs / "a_F1_10.txt").write_text("1 2 3\n")
        (runs / "b_F1_10.txt").write_text(text)
        self.check(capsys, tmp_path, f"{runs / 'b_F1_10.txt'}: {message}",
                   "stats", str(runs), "--out", str(tmp_path / "stats.csv"))


@pytest.mark.parametrize("argv, code, line", [
    (("run", "--data", str(SYNTHETIC_CSV), "--weights", "a,b"), 3,
     "hra: validation error: --weights: expected 'equal' or comma-separated "
     "numbers, got 'a,b'"),
    (("rtopsis", "--matrix", str(TABLE_PATH), "--domain", "a:b"), 1,
     "hra: error: --domain expects numbers, got 'a:b'"),
], ids=["run-weights-not-numbers", "rtopsis-domain-not-numbers"])
def test_raise_sites(capsys, tmp_path, monkeypatch, argv, code, line):
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, *argv) == (code, "", line + "\n")
    assert list(tmp_path.iterdir()) == []


class TestUsage:
    def test_no_subcommand_exits_1(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1 and err.count("\n") == 1

    def test_unknown_flag_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "rtopsis", "--nope")
        assert code == 1


SRC_DIR = Path(hra.__file__).resolve().parents[1]

# runs `python -m hra.cli ARGS` in-process, through the module's __main__
# block, then prints the exit code, whether numpy is loaded and the
# collector's state; a module's dict is out of the collected generations
# once it is frozen
ENTRY_PROBE = """
import gc, json, runpy, sys
try:
    runpy.run_module("hra.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
collected = set(map(id, gc.get_objects()))
print(json.dumps({"code": code, "frozen": gc.get_freeze_count(),
                  "enabled": gc.isenabled(),
                  "numpy": "numpy" in sys.modules,
                  "frozen modules": [name for name in ("numpy", "hra.files")
                                     if name in sys.modules and
                                     id(vars(sys.modules[name]))
                                     not in collected]}))
"""

# `import hra` and one main(ARGS), as a library caller does
LIBRARY_PROBE = """
import gc, json, sys
import hra
from hra.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "frozen": gc.get_freeze_count(),
                  "enabled": gc.isenabled()}))
"""


def run_python(*args, cwd=None, stdin=None):
    """A fresh interpreter that imports the hra under test; stdin, if
    given, is the text fed to it through a pipe."""
    path = os.pathsep.join(filter(None, (str(SRC_DIR),
                                         os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, input=stdin)


def probe(script, *argv):
    """The JSON line a probe script prints last."""
    process = run_python("-c", script, *argv)
    assert process.returncode == 0, process.stderr
    return json.loads(process.stdout.splitlines()[-1])


class TestProcess:
    """`python -m hra.cli` runs cli.entry, as the installed script does."""

    def test_run_writes_what_main_writes(self, capsys, tmp_path,
                                          monkeypatch):
        args = ("run", "--data", str(SYNTHETIC_CSV), "--out", "report")
        for side in ("process", "main"):
            (tmp_path / side).mkdir()
        process = run_python("-m", "hra.cli", *args, cwd=tmp_path / "process")
        monkeypatch.chdir(tmp_path / "main")
        code, out, err = run_cli(capsys, *args)
        assert process.returncode == code == 0
        assert process.stdout == out and process.stderr == err == ""
        assert snapshot(tmp_path / "process" / "report") \
            == snapshot(tmp_path / "main" / "report")

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"),
                        reason="needs /dev/stdin")
    def test_data_from_a_pipe_writes_the_files_report(self, tmp_path):
        """A long CSV on a pipe, which cannot seek, is read once, by the
        row reader, and gives the report of the same file by its path."""
        out = {}
        for side, data, stdin in (
                ("file", str(SYNTHETIC_CSV), None),
                ("pipe", "/dev/stdin", SYNTHETIC_CSV.read_text("utf-8"))):
            process = run_python("-m", "hra.cli", "run", "--data", data,
                                 "--out", side, cwd=tmp_path, stdin=stdin)
            assert process.returncode == 0, process.stderr
            assert process.stderr == ""
            out[side] = process.stdout.replace(f"to {side} (", "to <out> (")
        assert out["pipe"] == out["file"]
        assert snapshot(tmp_path / "pipe") == snapshot(tmp_path / "file")

    def test_missing_file_exits_4(self, tmp_path):
        missing = tmp_path / "nowhere.csv"
        process = run_python("-m", "hra.cli", "run", "--data", str(missing),
                             "--out", str(tmp_path / "report"))
        assert process.returncode == 4 and process.stdout == ""
        assert process.stderr.count("\n") == 1 and str(missing) in \
            process.stderr
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("argv, start", [
        (["--version"], f"hra {hra.__version__}\n"),
        (["run", "--help"], "usage: hra run ")])
    def test_help_and_version_return_0(self, argv, start, capsys,
                                       monkeypatch):
        """In-process main returns 0 and prints what the process prints."""
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to it
        process = run_python("-m", "hra.cli", *argv)
        code, out, err = run_cli(capsys, *argv)
        assert process.returncode == code == 0
        assert process.stdout == out and out.startswith(start)
        assert process.stderr == err == ""

    def test_entry_freezes_the_import_time_heap(self):
        found = probe(ENTRY_PROBE, "--version")
        assert found["code"] == 0 and found["frozen"] > 0

    @pytest.mark.parametrize("command", ["run", "stats", "verify-paper"])
    def test_entry_freezes_what_the_command_imports(self, tmp_path, command):
        """The collector stays off through the command, and the freeze as
        entry returns covers the modules the command loaded, numpy among
        them except in stats."""
        runs = tmp_path / "runs"
        runs.mkdir()
        (runs / "solver_1_10.txt").write_text("1 2 3\n")
        argv = {"run": ["run", "--data", str(SYNTHETIC_CSV), "--out",
                        str(tmp_path / "report")],
                "stats": ["stats", str(runs), "--out",
                          str(tmp_path / "stats.csv")],
                "verify-paper": ["verify-paper"]}[command]
        found = probe(ENTRY_PROBE, *argv)
        assert found["code"] == 0 and found["numpy"] == (command != "stats")
        assert not found["enabled"] and found["frozen"] > 0
        assert found["frozen modules"] == (
            ["hra.files"] if command == "stats" else ["numpy", "hra.files"])

    def test_library_use_leaves_the_collector_alone(self, tmp_path):
        found = probe(LIBRARY_PROBE, "run", "--data", str(SYNTHETIC_CSV),
                      "--out", str(tmp_path))
        assert found == {"code": 0, "frozen": 0, "enabled": True}

    def test_stats_does_not_load_numpy(self, tmp_path):
        """The runs are summarized and written in pure Python."""
        runs = tmp_path / "runs"
        runs.mkdir()
        (runs / "solver_1_10.txt").write_text("1 2 3\n4 5 6\n")
        (runs / "solver_2_10.txt").write_text("1 2\n4 -0.0\n")
        found = probe(ENTRY_PROBE, "stats", str(runs), "--out",
                      str(tmp_path / "stats.csv"))
        assert found["code"] == 0 and not found["numpy"]


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

    monkeypatch.setattr(dataio, "load_long_csv", fail)
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

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_regular_file_as_a_parent(self, capsys, tmp_path, out):
        (tmp_path / "afile").write_text("kept\n")
        code, _, err = run_cli(capsys, "run", "--data", str(SYNTHETIC_CSV),
                               "--out", str(tmp_path / out))
        self.assert_one_io_error(code, err, "leaf_ranks.csv")
        assert err == (f"hra: i/o error: cannot write {tmp_path / out}"
                       "/leaf_ranks.csv: Not a directory\n")
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]
        assert (tmp_path / "afile").read_text() == "kept\n"

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
        # hra stats writes its long CSV with files' writer, not dataio's
        monkeypatch.setattr(files, "_write_rows",
                            failing_on_call(files._write_rows, 1))
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
