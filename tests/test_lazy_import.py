"""`import hra` and the command line's parser load no numpy: each public
name is imported on first use, and each command imports its own modules.
So `hra stats` loads no numpy."""

import json
import subprocess
import sys

import hra

# prints whether numpy is loaded after each step, in a fresh interpreter
PROBE = """
import json, sys
loaded = {}
import hra
loaded["import hra"] = "numpy" in sys.modules
import hra.cli
loaded["import hra.cli"] = "numpy" in sys.modules
hra.cli.build_parser()
loaded["build_parser()"] = "numpy" in sys.modules
hra.load_raw_runs
loaded["hra.load_raw_runs"] = "numpy" in sys.modules
hra.RawRuns({(10, "a", "f"): (1.0,)})
loaded["hra.RawRuns"] = "numpy" in sys.modules
hra.load_long_csv
loaded["hra.load_long_csv"] = "numpy" in sys.modules
print(json.dumps(loaded))
"""


def test_numpy_loads_only_with_a_name_that_needs_it():
    found = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                           text=True, check=True)
    assert json.loads(found.stdout) == {
        "import hra": False, "import hra.cli": False,
        "build_parser()": False, "hra.load_raw_runs": False,
        "hra.RawRuns": False, "hra.load_long_csv": True}


def test_every_public_name_resolves():
    for name in hra.__all__:
        value = getattr(hra, name)
        assert getattr(value, "__name__", name) == name, name
    assert hra.rtopsis is sys.modules["hra.rtopsis"].rtopsis  # the function
    assert hra.dataio.load_long_csv is hra.load_long_csv


def test_an_unknown_name_is_an_attribute_error():
    assert not hasattr(hra, "no_such_name")
    assert "load_long_csv" in dir(hra)
