"""`import hra` loads numpy's OpenBLAS with one thread unless told otherwise.

conftest.py imports numpy before hra, so every case runs in a fresh
interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                    "OMP_NUM_THREADS")

# prints the process's thread count, the three variables and every change
# made to them while hra was imported (numpy itself sets other variables)
PROBE = """
import json, os, sys
{before}
changes = []
sys.addaudithook(lambda event, args: changes.append(
    [event, *(arg.decode() for arg in args)])
    if event in ("os.putenv", "os.unsetenv")
    and args[0].decode() in {names!r} else None)
import hra
status = open("/proc/self/status").read().splitlines()
threads = next(int(line.split()[1]) for line in status
               if line.startswith("Threads:"))
print(json.dumps({{"threads": threads, "changes": changes, "environ": {{
    name: os.environ.get(name) for name in {names!r}}}}}))
"""


def _blas_name():
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # a numpy without mode="dicts"
        return ""
    return config.get("Build Dependencies", {}).get("blas", {}).get("name", "")


pytestmark = [
    pytest.mark.skipif(not Path("/proc/self/status").exists(),
                       reason="needs /proc/self/status to count threads"),
    pytest.mark.skipif("openblas" not in _blas_name().lower(),
                       reason="numpy is not built with OpenBLAS"),
]


def probe(set_variables, before=""):
    env = {name: value for name, value in os.environ.items()
           if name not in THREAD_VARIABLES}
    env.update(set_variables)
    found = subprocess.run(
        [sys.executable, "-c",
         PROBE.format(before=before, names=THREAD_VARIABLES)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(found.stdout)


def test_one_thread_and_no_variable_left_behind():
    result = probe({})
    assert result["threads"] == 1
    assert result["changes"] == [["os.putenv", "OPENBLAS_NUM_THREADS", "1"],
                                 ["os.unsetenv", "OPENBLAS_NUM_THREADS"]]
    assert result["environ"] == dict.fromkeys(THREAD_VARIABLES)


@pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_thread_count_the_caller_set_is_kept(name):
    result = probe({name: "2"})
    assert result["changes"] == []
    assert result["environ"] == {**dict.fromkeys(THREAD_VARIABLES), name: "2"}
    if os.cpu_count() >= 2:
        assert result["threads"] == 2


def test_numpy_loaded_first_is_left_alone():
    result = probe({}, before="import numpy")
    assert result["changes"] == []
    assert result["environ"] == dict.fromkeys(THREAD_VARIABLES)
