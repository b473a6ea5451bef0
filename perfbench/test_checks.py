"""The benchmark's own output checks must count wrong outputs as failures.

    python3 -m pytest perfbench/test_checks.py
"""

import csv

import numpy as np
import pytest

from run import Bench


def write_ranking(out, rows):
    out.mkdir(parents=True)
    with open(out / "final_ranking.csv", "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["algorithm", "score", "hra_rank"])
        writer.writerows([a, format(s, ".17g"), format(r, "g")]
                         for a, s, r in rows)


def write_stats(out, cells):
    out.mkdir(parents=True)
    with open(out / "stats.csv", "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["dimension", "measure", "function", "algorithm",
                         "value"])
        writer.writerows([*key, format(v, ".17g")] for key, v in cells.items())


@pytest.fixture(scope="module")
def run_bench(tmp_path_factory):
    return Bench("cec-run", 7, tmp_path_factory.mktemp("run"))


@pytest.fixture(scope="module")
def stats_bench(tmp_path_factory):
    return Bench("stats-raw", 7, tmp_path_factory.mktemp("stats"))


def test_correct_ranking_passes(run_bench, tmp_path):
    write_ranking(tmp_path / "out", run_bench.reference)
    assert run_bench.check_output(tmp_path / "out") == []


def test_two_swapped_ranks_count_as_a_failure(tmp_path):
    bench = Bench("cec-run", 7, tmp_path)
    write_ranking(tmp_path / "good", bench.reference)
    bench.record(bench.check_output(tmp_path / "good"))
    rows = list(bench.reference)
    order = sorted(range(len(rows)), key=lambda i: rows[i][2])
    i, j = order[0], order[-1]
    rows[i], rows[j] = ((rows[i][0], rows[i][1], rows[j][2]),
                        (rows[j][0], rows[j][1], rows[i][2]))
    write_ranking(tmp_path / "swapped", rows)
    bench.record(bench.check_output(tmp_path / "swapped"))
    assert (bench.attempted, bench.failed) == (2, 1)


def test_correct_stats_pass(stats_bench, tmp_path):
    write_stats(tmp_path / "out", stats_bench.reference)
    assert stats_bench.check_output(tmp_path / "out") == []


def test_stat_off_by_ten_thousand_ulp_counts_as_a_failure(tmp_path):
    bench = Bench("stats-raw", 7, tmp_path)
    cells = dict(bench.reference)
    write_stats(tmp_path / "good", cells)
    bench.record(bench.check_output(tmp_path / "good"))
    key = next(k for k, v in cells.items() if v > 0.0)
    cells[key] += 1e4 * np.spacing(cells[key])
    write_stats(tmp_path / "off", cells)
    bench.record(bench.check_output(tmp_path / "off"))
    assert (bench.attempted, bench.failed) == (2, 1)
