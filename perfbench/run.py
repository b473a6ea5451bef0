"""Closed-loop CLI benchmark of hra, with a separate traced per-layer run.

    python3 perfbench/run.py --workload cec-run --seed 1 --seconds 20 --trace 0

Inputs are generated from --seed (see workloads.py). Set-up generates and
writes them SETUPS times, then makes one untimed warm-up invocation;
setup_s is the median write time plus the warm-up. The benchmark then runs
`python -m hra.cli ...` one process at a time, with the checkout's src/ on
PYTHONPATH, waiting for each to exit before starting the next, for
--seconds (and at least MIN_SAMPLES invocations). Every invocation's output
is checked against a reference that does not come from hra, and the report
bytes must be identical across all invocations. Times are medians over the
invocations.

With --trace 1 it also runs traced.py, which calls each layer's public
functions in-process and records spans around them, and prints the
per-layer metrics instead of the end-to-end ones. A layer the workload's
command never calls reports 0. Names and units of the metrics come from
BENCHMARK.json. The last line of standard output is the result as JSON;
the full record (environment, samples, spans) goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import checks
from workloads import DIMENSIONS, MEASURES, Shape, simulate, write_long_csv, \
    write_raw_runs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ORACLE = ROOT / "tests" / "oracle.py"
SETUPS = 3
MIN_SAMPLES = 3
IMPORT_PROBES = 5


@dataclass(frozen=True)
class Workload:
    command: str  # the hra subcommand: run or stats
    shape: Shape

    @property
    def cells(self) -> int:
        """Results-cube cells one invocation reads (run) or writes (stats)."""
        return len(DIMENSIONS) * len(MEASURES) \
            * self.shape.algorithms * self.shape.functions


# Why these three: BENCHMARK.json records it per workload.
WORKLOADS = {
    "cec-run": Workload("run", Shape(13, 30)),
    "large-run": Workload("run", Shape(100, 300)),
    "stats-raw": Workload("stats", Shape(13, 30)),
}


@dataclass(frozen=True)
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float


def invoke(argv: list[str], log: Path) -> tuple[float, float, float, int]:
    """Run one process to completion.

    Returns wall seconds, user+sys seconds, maxrss in MiB and the exit code.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=sink,
                                stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            proc.returncode)


class Bench:
    """One workload at one seed, in its own work directory."""

    def __init__(self, name: str, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.workload = WORKLOADS[name]
        cube = simulate(self.workload.shape, seed)
        if self.workload.command == "run":
            self.reference = checks.ranking_reference(
                cube, checks.load_oracle(ORACLE))
        else:
            self.reference = checks.stats_reference(cube)
        self.expected_digests = None
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def write_inputs(self, directory: Path) -> Path:
        """Generate and write the inputs under directory/input."""
        cube = simulate(self.workload.shape, self.seed)
        inputs = directory / "input"
        inputs.mkdir(parents=True)
        if self.workload.command == "run":
            write_long_csv(cube, inputs / "data.csv")
            return inputs / "data.csv"
        write_raw_runs(cube, self.seed, inputs)
        return inputs

    def argv(self, source: Path, out: Path) -> list[str]:
        if self.workload.command == "run":
            args = ["run", "--data", str(source), "--out", str(out)]
        else:
            args = ["stats", str(source), "--out", str(out / "stats.csv")]
        return [sys.executable, "-m", "hra.cli"] + args

    def check_output(self, out: Path) -> list[str]:
        """Reference check plus byte identity with every earlier output."""
        if self.workload.command == "run":
            problems = checks.check_ranking(out / "final_ranking.csv",
                                            self.reference)
        else:
            problems = checks.check_stats(out / "stats.csv", self.reference)
        found = checks.digests(out)
        if self.expected_digests is None and not problems:
            self.expected_digests = found
        elif found != self.expected_digests:
            problems.append("report bytes differ from the first invocation's")
        return problems

    def record(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def invoke_cli(self, source: Path, out: Path) -> Sample:
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        wall, cpu, rss, code = invoke(self.argv(source, out),
                                      out.parent / "cli.log")
        if code != 0:
            log = (out.parent / "cli.log").read_text(errors="replace")
            problems = [f"exit code {code}: {log.strip()[-500:]}"]
        else:
            problems = self.check_output(out)
        self.record(problems)
        return Sample(wall, cpu, rss)

    def set_up(self) -> tuple[Path, float, dict]:
        """Write the inputs SETUPS times, keep the last, warm up once.

        Set-up time is the median write time plus one untimed warm-up
        invocation; a warm-up per write would cost a large workload a
        fifth of its run.
        """
        writes, input_digests = [], set()
        for i in range(SETUPS):
            if i:
                shutil.rmtree(directory)
            directory = self.work / f"setup{i}"
            start = time.perf_counter()
            source = self.write_inputs(directory)
            writes.append(time.perf_counter() - start)
            input_digests.add(json.dumps(checks.digests(directory / "input")))
        if len(input_digests) != 1:
            self.problems.append("the same seed generated different inputs")
        warmup = self.invoke_cli(source, directory / "warmup").wall_s
        return (source, statistics.median(writes) + warmup,
                {"writes_s": writes, "warmup_s": warmup})

    def timed(self, source: Path, seconds: float) -> list[Sample]:
        samples = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds \
                or len(samples) < MIN_SAMPLES:
            samples.append(self.invoke_cli(source,
                                           self.work / "timed" / "out"))
        return samples

    def traced(self, source: Path, median_wall: float) -> tuple[dict, dict]:
        """Per-layer metrics from import probes and one traced run."""
        directory = self.work / "traced"
        out = directory / "out"
        out.mkdir(parents=True)
        bare = [invoke([sys.executable, "-c", "pass"], directory / "probe.log")
                [0] for _ in range(IMPORT_PROBES)]
        probe = ("import sys, hra; "
                 "print(len(sys.modules), int('scipy' in sys.modules))")
        with_hra = [invoke([sys.executable, "-c", probe],
                           directory / "probe.log")[0]
                    for _ in range(IMPORT_PROBES)]
        modules, scipy = map(int,
                             (directory / "probe.log").read_text().split())

        spans_path = directory / "spans.json"
        target = out / "stats.csv" if self.workload.command == "stats" else out
        code = invoke([sys.executable, str(HERE / "traced.py"),
                       self.workload.command, str(source), str(target),
                       str(spans_path)], directory / "traced.log")[3]
        if code != 0:
            log = (directory / "traced.log").read_text(errors="replace")
            self.record([f"traced run exited {code}: {log.strip()[-500:]}"])
            return {}, {}
        trace = json.loads(spans_path.read_text())
        problems = list(trace["problems"]) + self.check_output(out)
        if not Path(trace["hra_file"]).resolve().is_relative_to(SRC):
            problems.append(
                f"traced run imported hra from {trace['hra_file']}")
        self.record(problems)

        python_s = statistics.median(bare)
        hra_s = statistics.median(with_hra) - python_s
        layers = dict(trace["layers"])
        layers.update({
            "import.python_s": python_s,
            "import.hra_s": hra_s,
            "import.modules": modules,
            "import.scipy": scipy,
            "cli.residual_s": median_wall - python_s - hra_s
            - trace["cli_sum_s"],
            "trace.overhead_s": trace["overhead_s"],
        })
        return layers, trace


def environment() -> dict:
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True)
        commit = found.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    cpu = platform.processor()
    if Path("/proc/cpuinfo").exists():
        cpu = next((line.split(":", 1)[1].strip() for line in
                    Path("/proc/cpuinfo").read_text().splitlines()
                    if line.startswith("model name")), cpu)
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "git_commit": commit,
            "src_sha256": digest.hexdigest()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in (SRC / "hra" / "cli.py", ORACLE,
                           ROOT / "BENCHMARK.json") if not p.is_file()]
    if missing:
        print(f"perfbench: not an hra checkout, missing {missing[0]}",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_list = declared["per_layer" if args.trace else "end_to_end"]

    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".perfbench" / f"{run_name}-{os.getpid()}"
    try:
        bench = Bench(args.workload, args.seed, work)
        source, setup_s, setup = bench.set_up()
        samples = bench.timed(source, args.seconds)
        wall = statistics.median(s.wall_s for s in samples)
        values = {
            "wall_s": wall,
            "cpu_s": statistics.median(s.cpu_s for s in samples),
            "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
            "cells_per_s": bench.workload.cells / wall,
            "setup_s": setup_s,
        }
        trace = {}
        if args.trace:
            layers, trace = bench.traced(source, wall)
            values = {m["name"]: 0 for m in metric_list}
            values.update(layers)
            values["cli.fail_ratio"] = bench.failed / bench.attempted
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metric_list},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, environment=environment(),
                  setup=setup, samples=[asdict(s) for s in samples],
                  problems=bench.problems, trace=trace)
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{run_name}.json").write_text(json.dumps(record, indent=1))
    for problem in bench.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"environment": record["environment"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
