"""Traced in-process run: spans around the public calls of each layer.

Run as `python perfbench/traced.py run|stats INPUT OUT SPANS_JSON` with the
code under test on PYTHONPATH. The `run` pipeline is decomposed into the
calls run_hra makes (matrix, rank_columns, aggregate_leaf/dimension/overall)
and then run whole; the decomposition must reproduce run_hra's ranks and
scores bit for bit. Small inputs repeat the whole pipeline for
MIN_TRACE_SECONDS and report per-layer medians; each pass is one run id.
Spans stay in memory and are written out at the end, together with the
layer totals, counts and any problem found.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import hra
from hra import (
    HraConfig,
    PerformanceDataset,
    aggregate_dimension,
    aggregate_leaf,
    aggregate_overall,
    dataset_from_runs,
    emit_report,
    load_long_csv,
    load_raw_runs,
    rank_columns,
    run_hra,
    save_long_csv,
)


class Tracer:
    """Spans (name, start, end, parent, run id) kept in memory.

    parent is the index of the enclosing span among this run's spans.
    """

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._open[-1] if self._open else None,
                  "run": self.run_id}
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def with_self_times(self) -> list[dict]:
        """Spans plus self time: duration minus what their children cover.

        Children of one span run one after another, so their durations add.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        return [dict(span, self=span["end"] - span["start"] - child)
                for span, child in zip(self.spans, covered)]


def span_cost(samples: int = 2000) -> float:
    """Seconds one empty span costs, to state the tracing overhead."""
    probe = Tracer(run_id=-1)
    start = time.perf_counter()
    for _ in range(samples):
        with probe.span("empty"):
            pass
    return (time.perf_counter() - start) / samples


def revalidate(dataset: PerformanceDataset) -> PerformanceDataset:
    """Rebuild a dataset from its fields, which reruns every validation."""
    return PerformanceDataset(algorithms=dataset.algorithms,
                              functions=dataset.functions,
                              dimensions=dataset.dimensions,
                              measures=dataset.measures, values=dataset.values)


def trace_run(tracer: Tracer, data: Path, out: Path) -> dict:
    span = tracer.span
    with span("load_long_csv"):
        dataset = load_long_csv(data)
    with span("PerformanceDataset"):
        revalidate(dataset)
    config = HraConfig.for_dataset(dataset)
    leaf_ranks, columns = {}, 0
    with span("decomposed"):
        for d in config.dimensions:
            for p in config.measures:
                with span("matrix"):
                    matrix = dataset.matrix(d, p)
                with span("rank_columns"):
                    ranked = rank_columns(matrix, config.objective_for(p))
                with span("aggregate_leaf"):
                    leaf_ranks[(d, p)] = aggregate_leaf(
                        ranked, config.function_weights)
                columns += ranked.n
        dimension_ranks = {}
        for d in config.dimensions:
            with span("aggregate_dimension"):
                _, dimension_ranks[d] = aggregate_dimension(
                    [leaf_ranks[(d, p)] for p in config.measures],
                    config.measure_weights, config.measures,
                    dataset.algorithms)
        with span("aggregate_overall"):
            _, scores, ranks = aggregate_overall(
                [dimension_ranks[d] for d in config.dimensions],
                config.dimension_weights, config.dimensions,
                dataset.algorithms)
    with span("run_hra"):
        report = run_hra(dataset, config)
    with span("emit_report"):
        files = emit_report(report, "csv", out)

    evaluations = len(leaf_ranks) + len(dimension_ranks) + 1
    problems = []
    pairs = [(f"leaf {key}", leaf_ranks[key], report.leaf_ranks[key])
             for key in leaf_ranks]
    pairs += [(f"dimension {d}", dimension_ranks[d], report.dimension_ranks[d])
              for d in dimension_ranks]
    pairs += [("final scores", scores, report.final_scores),
              ("final ranks", ranks, report.final_ranks)]
    for label, mine, theirs in pairs:
        mine, theirs = np.asarray(mine), np.asarray(theirs)
        if mine.dtype != theirs.dtype or mine.shape != theirs.shape \
                or mine.tobytes() != theirs.tobytes():
            problems.append(f"decomposed {label} differs from run_hra's")
    if report.invocation_count != evaluations:
        problems.append(f"run_hra made {report.invocation_count} TOPSIS "
                        f"evaluations, the decomposition {evaluations}")

    parts = sum(tracer.total(name) for name in (
        "matrix", "rank_columns", "aggregate_leaf", "aggregate_dimension",
        "aggregate_overall"))
    layers = {
        "dataio.load_s": tracer.total("load_long_csv"),
        "dataio.validate_s": tracer.total("PerformanceDataset"),
        "dataio.gather_s": tracer.total("matrix"),
        "ranking.rank_s": tracer.total("rank_columns"),
        "ranking.columns": columns,
        "hierarchy.leaf_s": tracer.total("aggregate_leaf"),
        "hierarchy.dimension_s": tracer.total("aggregate_dimension"),
        "hierarchy.overall_s": tracer.total("aggregate_overall"),
        "hierarchy.run_hra_s": tracer.total("run_hra"),
        "hierarchy.self_s": tracer.total("run_hra") - parts,
        "rtopsis.evaluations": report.invocation_count,
        "dataio.emit_s": tracer.total("emit_report"),
        "dataio.emit_bytes": sum(path.stat().st_size for path in files),
    }
    # what `hra run` itself calls, for the untraced-minus-traced residual
    cli_calls = ("load_long_csv", "run_hra", "emit_report")
    return {"layers": layers, "cli_calls": cli_calls, "problems": problems}


def trace_stats(tracer: Tracer, runs_dir: Path, out: Path) -> dict:
    span = tracer.span
    with span("load_raw_runs"):
        raw = load_raw_runs(runs_dir)
    with span("dataset_from_runs"):
        dataset = dataset_from_runs(raw)
    with span("PerformanceDataset"):
        revalidate(dataset)
    with span("save_long_csv"):
        save_long_csv(dataset, out)
    layers = {
        "fetch.parse_s": tracer.total("load_raw_runs"),
        "fetch.files": len(raw.runs),
        "dataio.summarize_s": tracer.total("dataset_from_runs"),
        "dataio.validate_s": tracer.total("PerformanceDataset"),
        "dataio.save_s": tracer.total("save_long_csv"),
    }
    cli_calls = ("load_raw_runs", "dataset_from_runs", "save_long_csv")
    return {"layers": layers, "cli_calls": cli_calls, "problems": []}


PIPELINES = {"run": trace_run, "stats": trace_stats}
MIN_TRACE_SECONDS = 2.0  # small inputs repeat the pipeline; layers are medians


def main(argv) -> int:
    command, source, out, spans_path = argv
    started, passes = time.perf_counter(), []
    while not passes or time.perf_counter() - started < MIN_TRACE_SECONDS:
        tracer = Tracer(run_id=len(passes))
        with tracer.span(command):
            result = PIPELINES[command](tracer, Path(source), Path(out))
        result["cli_sum_s"] = sum(tracer.total(name)
                                  for name in result["cli_calls"])
        passes.append((tracer, result))
    spans = [span for tracer, _ in passes for span in tracer.with_self_times()]
    results = [result for _, result in passes]
    record = {
        "passes": len(passes),
        "layers": {name: statistics.median(r["layers"][name] for r in results)
                   for name in results[0]["layers"]},
        "cli_sum_s": statistics.median(r["cli_sum_s"] for r in results),
        "problems": [p for r in results for p in r["problems"]],
        "hra_file": hra.__file__,
        "overhead_s": span_cost() * len(spans) / len(passes),
        "spans": spans,
    }
    Path(spans_path).write_text(json.dumps(record, indent=1),
                                encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
