"""Large inputs are parsed in two halves by two processes: a forked child
parses the second half while the process parses the first.

conftest.py imports numpy before hra, so pytest's own process has OpenBLAS
threads and never forks; every case here starts a fresh interpreter, in
which hra loads numpy with one thread, and `hra stats` loads no numpy at
all. An audit hook counts the forks.
"""

import json
import os
import random
import subprocess
import sys

import pytest

from hra import files

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
# of this process is left. With a path as argv[4], a file of the second
# half, this process opens no file of the input until the child has opened
# that one.
LOAD = """
import json, os, signal, sys, time
import hra

parent = os.getpid()
if sys.argv[3:4] == ["ignore SIGCHLD"]:  # children reap themselves
    signal.signal(signal.SIGCHLD, signal.SIG_IGN)
forks, opened = [], sys.argv[2] + ".opened"
sys.addaudithook(lambda event, args: event == "os.fork" and forks.append(1))
deadline = time.monotonic() + 30


def child_opens_first(event, args):
    if event != "open" or not str(args[0]).startswith(sys.argv[2] + os.sep):
        return
    if os.getpid() != parent:
        if str(args[0]) == sys.argv[4]:
            with open(opened, "w") as handle:
                handle.write("child")
        return
    while not os.path.exists(opened) and time.monotonic() < deadline:
        time.sleep(0.001)


if sys.argv[4:]:
    sys.addaudithook(child_opens_first)
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
print(json.dumps({"outcome": outcome, "forks": len(forks), "left": left,
                  "child opened": os.path.exists(opened)}))
"""

# files.parse_halves on two halves of an input over the threshold. This
# process parses half 0 once the child has started half 1, which the child
# holds until this process has started half 0; then each behaves as the
# case says. This process's halves return "here <half>".
HELPER = """
import json, os, signal, sys, time
from hra import files
from hra._blas import np  # one BLAS thread, so that this process forks

case, marker = sys.argv[1:]
parent = os.getpid()
if case.endswith("SIGCHLD ignored"):  # children reap themselves
    signal.signal(signal.SIGCHLD, signal.SIG_IGN)


def wait_for(path):
    deadline = time.monotonic() + 30
    while not os.path.exists(path) and time.monotonic() < deadline:
        time.sleep(0.001)


def parse(half):
    if os.getpid() == parent:
        with open(f"{marker}.{half}", "w"):
            pass
        wait_for(marker)
        if case.startswith("parent raises") and half == 0:
            raise RuntimeError(f"half {half}")
        if case == "parent interrupted" and half == 0:
            raise KeyboardInterrupt
        return f"here {half}"
    with open(f"{marker}.tmp", "w") as handle:
        handle.write(f"{case}: {half}")
    os.replace(f"{marker}.tmp", marker)  # appears with its text
    wait_for(f"{marker}.0")
    if case.startswith("parent"):
        time.sleep(60)
    if case == "child raises":
        raise RuntimeError("child")
    if case == "child exits":
        os._exit(0)
    if case == "child killed":
        os.kill(os.getpid(), signal.SIGKILL)
    if case == "child result cut short":  # the payload reaches the pipe
        return {"payload": bytes(1 << 20), "then": ExitWhenPickled()}
    return {"from": "child", "values": np.arange(3.0) + half}


class ExitWhenPickled:
    def __reduce__(self):
        os._exit(0)


start = time.monotonic()
try:
    result = files.parse_halves(parse, (files._FORK_BYTES, 1))
    result = [[r["from"], r["values"].tolist()] if isinstance(r, dict)
              else r for r in result]
except RuntimeError as exc:
    result = f"raised {exc}"
except KeyboardInterrupt:
    result = "interrupted"
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
    assert path.stat().st_size > files._FORK_BYTES
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
        > files._FORK_BYTES
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
    bad = sorted(runs.glob("*.txt"))[-1]  # in the child's half
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
    ("runs", "ignore SIGCHLD", "loaded"),
], ids=["csv", "csv-bad-last-line", "csv-sigchld-ignored", "runs",
        "runs-bad-first-file", "runs-bad-last-file", "runs-sigchld-ignored"])
def test_no_child_outlives_a_load(tmp_path, kind, fault, outcome):
    bad = None
    if kind == "csv":
        path = large_csv(tmp_path / "data.csv")
        if fault == "x\n":
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(fault)
    else:
        path = large_run_directory(tmp_path / "runs")
        if fault in ("first", "last"):
            files = sorted(path.glob("*.txt"))
            bad = files[0] if fault == "first" else files[-1]
            bad.write_text("1 -5 3\n")
    done = python(LOAD, kind, path, *[fault] * (fault == "ignore SIGCHLD"))
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout)
    del found["child opened"]
    assert found == {"outcome": outcome.format(path=path, bad=bad),
                     "forks": 1, "left": False}


def bad_files(names, position):
    """The files made bad for a position, and the child's file that the
    parent waits for. The bad files are the first, in the parent's half;
    the last, in the child's; or, in the middle, the last of the parent's
    half and the first of the child's. The halves are cut at the first
    file at or past the middle byte; each bad file keeps its size, so the
    cut stays where it was."""
    sizes = [path.stat().st_size for path in names]
    cut = next(i for i in range(len(names))
               if sum(sizes[:i]) >= sum(sizes) // 2)
    bad = {"first": names[:1], "middle": names[cut - 1:cut + 1],
           "last": names[-1:]}[position]
    for path in bad:
        path.write_text("1 -5 3".ljust(path.stat().st_size - 1) + "\n")
    return bad, names[max(cut, names.index(bad[-1]))]


@pytest.mark.parametrize("position", ["first", "middle", "last"])
def test_a_bad_file_the_child_took(tmp_path, position):
    """The child parses the second half and stops at a bad file there; the
    parent raises the first bad file's error in file order: of its own
    half if it holds one, which kills the child, else of the child's half,
    which it parses itself. The parent opens no run file until the child
    has opened a file of its half: its bad file, else its first."""
    runs = large_run_directory(tmp_path / "runs")
    bad, held = bad_files(sorted(runs.glob("*.txt")), position)
    done = python(LOAD, "runs", runs, "", held)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "outcome": f"ParseError: {bad[0]}: negative error value -5.0",
        "forks": 1, "left": False, "child opened": True}


# Each case names its test id, so a case inserted anywhere renames no other.
# The ids are those pytest derived from the list positions before they were
# fixed here, so that every earlier run's name still finds its case; a new
# case takes its case name as its id.
@pytest.mark.parametrize("case, result", [
    pytest.param("child returns", ["here 0", ["child", [1.0, 2.0, 3.0]]],
                 id="child returns-result0"),
    pytest.param("child raises", ["here 0", "here 1"],
                 id="child raises-result1"),
    pytest.param("child exits", ["here 0", "here 1"],
                 id="child exits-result2"),
    pytest.param("child killed", ["here 0", "here 1"],
                 id="child killed-result3"),
    pytest.param("parent raises", "raised half 0",
                 id="parent raises-raised chunk 1"),
    pytest.param("child returns, SIGCHLD ignored",
                 ["here 0", ["child", [1.0, 2.0, 3.0]]],
                 id="child returns, SIGCHLD ignored-result5"),
    pytest.param("parent raises, SIGCHLD ignored", "raised half 0",
                 id="parent raises, SIGCHLD ignored-raised chunk 1"),
    pytest.param("parent interrupted", "interrupted",
                 id="parent interrupted-interrupted"),
    pytest.param("child result cut short", ["here 0", "here 1"],
                 id="child result cut short-result8"),
])
def test_queue_falls_back_and_reaps(tmp_path, case, result):
    marker = tmp_path / "child.txt"
    done = python(HELPER, case, marker)
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout)
    assert found["result"] == result
    assert found["left"] is False
    # a sleeping child was killed, not awaited
    assert found["seconds"] < 30
    assert marker.read_text() == f"{case}: 1"  # the child parsed half 1
