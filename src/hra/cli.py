"""Command-line interface.

Subcommands: run (full aggregation of a long CSV), rtopsis (single-matrix
evaluation), verify-paper (hermetic checks of the bundled reference
tables), stats (summarize raw run files into a long CSV), fetch (mirror a
raw-data source).

Exit codes: 0 success / all checks pass, 1 usage error or failed check;
a package error exits with the code of its family in hra.exceptions: 2
parse error, 3 validation error, 4 I/O or network error. Every error
prints exactly one diagnostic line on stderr.
"""

from __future__ import annotations

import argparse
import gc
import sys
from typing import TYPE_CHECKING

from . import __version__
from .exceptions import HraError, InvalidWeights

if TYPE_CHECKING:
    from .topsis import TopsisResult

# Each command imports its own modules, so that `import hra.cli` and the
# argument parsing load no numpy, and `hra stats`, which needs only fetch
# and files, loads none at all and can fork. The collector policy of the
# `hra` program lives in entry() alone.

EXIT_OK = 0
EXIT_USAGE = 1


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as one stderr line, exit 1,
    and returns from --help and --version instead of exiting."""

    def error(self, message):
        raise _UsageError(message)

    def exit(self, status=0, message=None):
        # with error() overridden, only --help and --version call this,
        # after printing their text and with no message
        raise _Exited(status)


class _UsageError(Exception):
    pass


class _Exited(Exception):
    """--help or --version has printed its text; args[0] is the status."""


def _parse_weights(text: str, expected: int, flag: str) -> tuple:
    """'equal' or comma-separated numbers -> the weights as checked by
    check_weights, so a bad vector fails before any aggregation starts."""
    from .topsis import check_weights, equal_weights

    try:
        weights = equal_weights(expected) if text == "equal" \
            else [float(tok) for tok in text.split(",")]
    except ValueError:
        raise InvalidWeights(f"{flag}: expected 'equal' or comma-separated "
                             f"numbers, got {text!r}") from None
    return check_weights(flag, weights, expected)


def _parse_domain(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise _UsageError(f"--domain expects lo:hi, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise _UsageError(f"--domain expects numbers, got {text!r}") from None


def _format_rank(rank: float) -> str:
    return f"{rank:g}"


def _print_ranking_table(labels, scores, ranks) -> None:
    from .dataio import one_line

    labels = [one_line(label) for label in labels]
    width = max(len("algorithm"), *(len(a) for a in labels))
    print(f"{'algorithm':<{width}}  {'score':>7}  rank")
    for label, score, rank in zip(labels, scores, ranks):
        print(f"{label:<{width}}  {score:7.4f}  {_format_rank(rank):>4}")


def _print_trace(name: str, result: TopsisResult) -> None:
    from ._blas import np
    from .dataio import one_line

    trace = result.trace

    def show(tag, array):
        text = np.array2string(np.asarray(array), precision=6,
                               suppress_small=True)
        print(f"  {tag}: {text}")

    print(f"trace [{one_line(name)}]")
    show("normalized", trace.normalized)
    show("weighted", trace.weighted)
    show("PIS", trace.pis)
    show("NIS", trace.nis)
    show("S+", trace.s_plus)
    show("S-", trace.s_minus)
    show("CC", result.closeness)


def cmd_run(args) -> int:
    from . import dataio
    from .hierarchy import HraConfig, run_hra

    dataset = dataio.load_long_csv(args.data)
    config = HraConfig.for_dataset(
        dataset,
        function_weights=_parse_weights(args.weights,
                                        len(dataset.functions), "--weights"),
        measure_weights=_parse_weights(args.measure_weights,
                                       len(dataset.measures),
                                       "--measure-weights"),
        dimension_weights=_parse_weights(args.dimension_weights,
                                         len(dataset.dimensions),
                                         "--dimension-weights"))
    report = run_hra(dataset, config)
    files = dataio.emit_report(report, args.format, args.out)
    if args.verbose:
        for node in report.nodes:
            _print_trace("/".join(map(str, node.key)), node.result)
    overall = report.nodes[-1].result
    _print_ranking_table(report.algorithms, overall.closeness, overall.ranks)
    print(f"report written to {args.out} ({len(files)} files)")
    return EXIT_OK


def cmd_rtopsis(args) -> int:
    from .dataio import load_rank_matrix_csv
    from .topsis import CriteriaSpec, Direction, rtopsis

    matrix = load_rank_matrix_csv(args.matrix)
    domain = _parse_domain(args.domain) if args.domain \
        else (0.0, float(matrix.m) + 1.0)
    spec = CriteriaSpec(directions=(Direction(args.direction),) * matrix.n,
                        domains=(domain,) * matrix.n,
                        weights=_parse_weights(args.weights, matrix.n,
                                               "--weights"))
    result = rtopsis(matrix, spec)
    if args.verbose:
        _print_trace(str(args.matrix), result)
    _print_ranking_table(matrix.alternative_labels, result.closeness,
                         result.ranks)
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    from .verify import verify_reference_tables

    checks = verify_reference_tables()
    for check in checks:
        print(check.line())
    passed = sum(check.passed for check in checks)
    print(f"{passed}/{len(checks)} checks PASS")
    return EXIT_OK if passed == len(checks) else EXIT_USAGE


def cmd_stats(args) -> int:
    from .fetch import load_raw_runs
    from .files import _save_run_statistics

    raw = load_raw_runs(args.runs_dir)  # a child parses beside this process
    rows = _save_run_statistics(raw, args.std_population, args.out)
    print(f"{rows} rows written to {args.out}")
    return EXIT_OK


def cmd_fetch(args) -> int:
    from .fetch import fetch_raw

    result = fetch_raw(args.source, args.out)
    print(f"{len(result.downloaded)} downloaded, {len(result.skipped)} "
          f"already verified; manifest at {result.manifest_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hra", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="aggregate a long-format dataset")
    run.add_argument("--data", required=True, help="long CSV of raw values")
    run.add_argument("--weights", default="equal",
                     help="function weights: 'equal' or w1,w2,...")
    run.add_argument("--measure-weights", default="equal")
    run.add_argument("--dimension-weights", default="equal")
    run.add_argument("--out", default="report", help="report directory")
    run.add_argument("--format", choices=("csv", "markdown"), default="csv")
    run.add_argument("--verbose", action="store_true",
                     help="dump the trace of every evaluation")
    run.set_defaults(func=cmd_run)

    single = sub.add_parser("rtopsis", help="evaluate one decision matrix")
    single.add_argument("--matrix", required=True,
                        help="CSV: algorithm,<criterion>,...")
    single.add_argument("--weights", default="equal")
    single.add_argument("--direction", choices=("cost", "benefit"),
                        default="cost", help="applied to every criterion")
    single.add_argument("--domain", default=None,
                        help="lo:hi for every criterion (default 0:m+1)")
    single.add_argument("--verbose", action="store_true")
    single.set_defaults(func=cmd_rtopsis)

    verify = sub.add_parser("verify-paper",
                            help="recompute the bundled reference tables")
    verify.set_defaults(func=cmd_verify_paper)

    stats = sub.add_parser("stats", help="summarize raw run files")
    stats.add_argument("runs_dir", help="directory of "
                                        "<algorithm>_<function>_<dim>.txt")
    stats.add_argument("--out", required=True, help="long CSV to write")
    stats.add_argument("--std-population", action="store_true",
                       help="population std (denominator R) instead of "
                            "sample std (R-1)")
    stats.set_defaults(func=cmd_stats)

    fetch = sub.add_parser("fetch", help="mirror a raw-data source")
    fetch.add_argument("source", help="URL prefix serving inventory.txt")
    fetch.add_argument("--out", required=True, help="destination directory")
    fetch.set_defaults(func=cmd_fetch)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _Exited as exc:
        return exc.args[0]
    except _UsageError as exc:
        print(f"hra: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HraError as exc:
        print(f"hra: {exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"hra: i/o error: {exc}", file=sys.stderr)
        return 4  # as IoFailure


def entry() -> int:
    """The `hra` program: main() on sys.argv, in a process of its own.

    The collector is off for the whole command, and gc.freeze() at the
    end moves every object still alive into the permanent generation, so
    the full collection that the interpreter runs at exit even with the
    collector off walks none of them. It is safe because one command
    makes few cycles and the process exits right after it, and none of
    hra's objects needs a finalizer (files are closed by `with` blocks).
    A child forked by `hra stats` never collects either. Library use
    (`import hra`, main()) leaves the collector alone.
    """
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
