"""Large inputs have their second half parsed in a forked child.

conftest.py imports numpy before hra, so pytest's own process has OpenBLAS
threads and never forks; every case here starts a fresh interpreter, in
which `import hra` leaves one thread. An audit hook counts the forks.
"""

import json
import os
import random
import subprocess
import sys

import pytest

from hra import dataio

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                    "OMP_NUM_THREADS")

pytestmark = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2
    or not os.path.isdir("/proc/self/task"),
    reason="needs 2 CPUs and /proc/self/task")

# hra's process entry, as the `hra` script runs it, with a line appended
# to the file named by argv[1] at each os.fork()
ENTRY = """
import sys

def count_forks(event, args):
    if event == "os.fork":
        with open(marker, "a") as handle:
            handle.write("fork\\n")

marker, sys.argv = sys.argv[1], ["hra", *sys.argv[2:]]
sys.addaudithook(count_forks)
from hra.cli import entry
sys.exit(entry())
"""

# loads one input; prints the outcome, the forks made and whether a child
# of this process is left
LOAD = """
import json, os, signal, sys
import hra

if sys.argv[3:] == ["ignore SIGCHLD"]:  # children reap themselves
    signal.signal(signal.SIGCHLD, signal.SIG_IGN)
forks = []
sys.addaudithook(lambda event, args: event == "os.fork" and forks.append(1))
load = hra.load_long_csv if sys.argv[1] == "csv" else hra.load_raw_runs
try:
    load(sys.argv[2])
    outcome = "loaded"
except hra.HraError as exc:
    outcome = f"{type(exc).__name__}: {exc}"
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
print(json.dumps({"outcome": outcome, "forks": len(forks), "left": left}))
"""

# _in_two on an input over the threshold; the second half behaves as the
# case says in the child, and returns "inline" when run here
HELPER = """
import json, os, sys, time
from hra import dataio  # before numpy, so that numpy starts no thread
import numpy as np

case, marker = sys.argv[1:]
parent = os.getpid()

def first():
    if case == "first raises":
        raise RuntimeError("first")
    return "first"

def second():
    if os.getpid() == parent:
        return "inline"
    with open(marker, "w") as handle:
        handle.write(case)
    if case == "second raises":
        raise RuntimeError("second")
    if case == "second exits":
        os._exit(0)
    if case == "first raises":
        time.sleep(60)
    return {"from": "child", "values": np.arange(3.0)}

start = time.monotonic()
try:
    head, tail = dataio._in_two(first, second, dataio._FORK_BYTES + 1)
    if isinstance(tail, dict):
        tail = [tail["from"], tail["values"].tolist()]
    result = [head, tail]
except RuntimeError as exc:
    result = f"raised {exc}"
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
print(json.dumps({"result": result, "left": left,
                  "seconds": time.monotonic() - start}))
"""


def python(code, *argv, cpus=None):
    """A fresh interpreter on code, with no BLAS thread count set; cpus
    pins it to those CPUs."""
    env = {name: value for name, value in os.environ.items()
           if name not in THREAD_VARIABLES}
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)], env=env,
        capture_output=True, text=True, timeout=120,
        preexec_fn=None if cpus is None
        else lambda: os.sched_setaffinity(0, cpus))


def large_csv(path):
    """A plain long CSV over the fork threshold: 4 x 5 x 60 x 50 cells."""
    rng = random.Random(1)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("dimension,measure,function,algorithm,value\n")
        for d in (10, 30, 50, 100):
            for p in range(5):
                for f in range(50):
                    handle.writelines(f"{d},p{p},F{f},alg{a},"
                                      f"{rng.uniform(0, 1e3)!r}\n"
                                      for a in range(60))
    assert path.stat().st_size > dataio._FORK_BYTES
    return path


def large_run_directory(root):
    """160 run files of 14 checkpoints by 51 runs, over the threshold."""
    rng = random.Random(2)
    root.mkdir()
    for i in range(160):
        rows = (" ".join(repr(rng.uniform(0, 10.0 ** -c)) for _ in range(51))
                for c in range(-3, 11))
        (root / f"alg{i % 8}_F{i // 8}_10.txt").write_text(
            "\n".join(rows) + "\n", encoding="utf-8")
    assert sum(path.stat().st_size for path in root.iterdir()) \
        > dataio._FORK_BYTES
    return root


def tree_bytes(directory):
    return {path.relative_to(directory).as_posix(): path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()}


def test_one_cpu_and_two_cpus_write_the_same_bytes(tmp_path):
    data = large_csv(tmp_path / "data.csv")
    runs = large_run_directory(tmp_path / "runs")
    cpu = min(os.sched_getaffinity(0))
    forks = {}
    for tag, cpus in (("two", None), ("one", {cpu})):
        marker, out = tmp_path / f"{tag}.forks", tmp_path / tag
        for argv in (("run", "--data", data, "--out", out / "report"),
                     ("stats", runs, "--out", out / "stats.csv")):
            done = python(ENTRY, marker, *argv, cpus=cpus)
            assert done.returncode == 0, done.stderr
            assert done.stderr == ""
        forks[tag] = marker.read_text().count("fork") \
            if marker.exists() else 0
    assert forks == {"two": 2, "one": 0}
    assert tree_bytes(tmp_path / "two") == tree_bytes(tmp_path / "one")
    assert len(tree_bytes(tmp_path / "two")) == 8  # 7 report files, stats


def test_bad_run_file_in_the_child_half(tmp_path):
    runs = large_run_directory(tmp_path / "runs")
    bad = sorted(runs.glob("*.txt"))[-1]  # parsed by the child
    bad.write_text("1 -5 3\n")
    cpu = min(os.sched_getaffinity(0))
    for tag, cpus in (("two", None), ("one", {cpu})):
        marker, out = tmp_path / f"{tag}.forks", tmp_path / f"{tag}.csv"
        done = python(ENTRY, marker, "stats", runs, "--out", out, cpus=cpus)
        assert done.returncode == 2
        assert done.stderr == \
            f"hra: parse error: {bad}: negative error value -5.0\n"
        assert not out.exists()
        assert marker.exists() == (cpus is None)


@pytest.mark.parametrize("kind, fault, outcome", [
    ("csv", None, "loaded"),
    ("csv", "x\n", "ParseError: {path}:60002: expected 5 fields, got 1"),
    ("csv", "ignore SIGCHLD", "loaded"),
    ("runs", None, "loaded"),
    ("runs", "first", "ParseError: {bad}: negative error value -5.0"),
    ("runs", "last", "ParseError: {bad}: negative error value -5.0"),
], ids=["csv", "csv-bad-last-line", "csv-sigchld-ignored", "runs",
        "runs-bad-first-file", "runs-bad-last-file"])
def test_no_child_outlives_a_load(tmp_path, kind, fault, outcome):
    bad = None
    if kind == "csv":
        path = large_csv(tmp_path / "data.csv")
        if fault == "x\n":
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(fault)
    else:
        path = large_run_directory(tmp_path / "runs")
        if fault:
            files = sorted(path.glob("*.txt"))
            bad = files[0] if fault == "first" else files[-1]
            bad.write_text("1 -5 3\n")
    done = python(LOAD, kind, path, *[fault] * (fault == "ignore SIGCHLD"))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "outcome": outcome.format(path=path, bad=bad), "forks": 1,
        "left": False}


@pytest.mark.parametrize("case, result", [
    ("second returns", ["first", ["child", [0.0, 1.0, 2.0]]]),
    ("second raises", ["first", "inline"]),
    ("second exits", ["first", "inline"]),
    ("first raises", "raised first"),
])
def test_helper_falls_back_and_reaps(tmp_path, case, result):
    marker = tmp_path / "child.txt"
    done = python(HELPER, case, marker)
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout)
    assert found["result"] == result
    assert found["left"] is False
    # a sleeping child was killed, not awaited
    assert found["seconds"] < 30
    if case != "first raises":  # the second half did run in a child
        assert marker.read_text() == case
