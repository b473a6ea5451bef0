"""What hra's file input and output need without numpy.

The rule for a cell's runs (check_runs, RawRuns, and _checked_runs for
lists that already passed it), the label rule (label_tuple, label_fault,
check_labels) and each axis's field parse, the run statistics
(_statistics), the long CSV's rows and writer, the error for a file that
is not UTF-8, the all-or-nothing writer (write_files) and the helper that
parses an input's two halves on two CPUs (parse_halves). dataio, topsis,
hierarchy and fetch import what they need of them from here. `hra stats`
loads only this module, fetch and exceptions: it forks while it has one
thread, a child parses the second half of the run files while the
process parses the first, and it summarizes the runs and writes its long
CSV without numpy (_save_run_statistics).
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import os
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import partial, reduce
from operator import add, itemgetter
from pathlib import Path

from .exceptions import (EmptyMatrix, EmptyRuns, IoError, NonFiniteValue,
                         ParseError, ShapeMismatch)

LONG_CSV_HEADER = ("dimension", "measure", "function", "algorithm", "value")
STAT_MEASURES = ("best", "worst", "median", "mean", "std")
AXIS_NAMES = ("dimensions", "measures", "algorithms", "functions")


def check_runs(name, values) -> tuple[float, ...]:
    """The rule for one cell's runs, with name first in any error: a
    sequence of numbers, not text (a str or bytes would give one run per
    character or byte); at least one run, each finite and not negative.
    The first bad value raises."""
    if isinstance(values, (str, bytes)):
        raise ParseError(f"{name}: runs must be a sequence of numbers, got "
                         f"{values!r}")
    try:
        runs = tuple(map(float, values))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{name}: {exc}") from None
    if not runs:
        raise EmptyRuns(f"{name}: no runs recorded")
    bad = next((v for v in runs if not 0.0 <= v < math.inf), None)
    if bad is not None and not math.isfinite(bad):
        raise NonFiniteValue(f"{name}: run value {bad} is not finite")
    if bad is not None:
        raise ParseError(f"{name}: negative error value {bad}")
    return runs


@dataclass(frozen=True)
class RawRuns:
    """Per-run error values keyed by (dimension, algorithm, function), each
    list checked by check_runs."""

    runs: Mapping[tuple, tuple[float, ...]]

    def __post_init__(self):
        try:
            items = self.runs.items()
        except AttributeError:
            raise ShapeMismatch(f"runs must map cells to run lists, got "
                                f"{self.runs!r}") from None
        checked = {}
        for key, values in items:
            if not (isinstance(key, tuple) and len(key) == 3):
                raise ShapeMismatch(f"cell {key!r} is not (dimension, "
                                    "algorithm, function)")
            checked[key] = check_runs(key, values)
        object.__setattr__(self, "runs", checked)


def _checked_runs(runs: dict) -> RawRuns:
    """RawRuns over {key: run list}, each list as check_runs returned it,
    so that no list is checked twice."""
    raw = object.__new__(RawRuns)
    object.__setattr__(raw, "runs", runs)
    return raw


def _parse_dimension(text: str):
    """The int whose canonical decimal form is the stripped text, else the
    stripped text: '10' is 10, while '010' and '+10' stay labels."""
    text = text.strip()
    try:
        number = int(text)
    except ValueError:
        return text
    return number if str(number) == text else text


def _crlf_only(data: bytes) -> bool:
    """Whether each CR of data starts a CRLF pair. A lone CR, one at the
    end included, ends a line for csv and str.splitlines alone, so only
    the reference loops read such an input."""
    return b"\r" not in data or data.count(b"\r") == data.count(b"\r\n")


def _not_utf8(source, exc: UnicodeDecodeError) -> ParseError:
    return ParseError(f"{source}: not UTF-8 text: cannot decode "
                      f"{exc.object[exc.start:exc.end]!r}")


def label_fault(name: str, labels, parse=str.strip) -> tuple[int, str] | None:
    """The label rule of every labelled type. A file shows a label as its
    text str(label), so that text must differ from every other label's,
    and parse, which reads a field as the label's file format does, must
    turn it back into the label itself. The position and message of the
    first label that breaks the rule, else None."""
    texts: set[str] = set()
    for position, label in enumerate(labels):
        text = str(label)
        reloaded = parse(text)
        if reloaded != label:
            return position, f"{name} {label!r} would reload as {reloaded!r}"
        if text in texts:
            return position, f"duplicate {name} {label!r}"
        texts.add(text)
    return None


def label_tuple(field: str, labels, of: str = "labels") -> tuple:
    """The labels (or other items, named by of) that enter as field, as a
    tuple. Text is no sequence of them: a str or bytes would give one item
    per character or byte, so it raises ShapeMismatch, as anything that is
    not iterable does."""
    if not isinstance(labels, (str, bytes)):
        try:
            return tuple(labels)
        except TypeError:
            pass
    raise ShapeMismatch(f"{field} must be a sequence of {of}, got "
                        f"{labels!r}")


def check_labels(name: str, labels, parse=str.strip) -> None:
    """ShapeMismatch if a label breaks label_fault's rule."""
    fault = label_fault(name, labels, parse)
    if fault is not None:
        raise ShapeMismatch(fault[1])


# how a long CSV reads each axis's field back, in AXIS_NAMES order
AXIS_PARSERS = (_parse_dimension, str.strip, str.strip, str.strip)


def _axis_index(axes) -> tuple[dict, ...]:
    """label -> position for each axis; every axis non-empty, its labels
    kept by the label rule as a long CSV reads them back."""
    for name, parse, axis in zip(AXIS_NAMES, AXIS_PARSERS, axes):
        if len(axis) == 0:
            raise EmptyMatrix(f"dataset has no {name}")
        check_labels(name[:-1], axis, parse)  # 'dimension' of 'dimensions'
    return tuple({label: i for i, label in enumerate(axis)} for axis in axes)


def _axis_sort_key(value):
    return (0, value, "") if isinstance(value, int) else (1, 0, str(value))


def _cell_text(key) -> str:
    return "(" + ", ".join(map(str, key)) + ")"


# -- run statistics ---------------------------------------------------------

def _sum(values: Sequence[float]) -> float:
    """np.add.reduce of a contiguous float64 row, bit for bit: its identity
    0.0 plus numpy's pairwise_sum. Under 8 values are added left to right;
    up to 128 go to eight accumulators, seeded with the first eight and
    stepping by eight, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
    then the rest left to right; a longer row is cut at n//2 rounded down
    to a multiple of 8 and each part summed so. The builtin sum() is not
    used: from Python 3.12 it compensates float sums."""
    n = len(values)
    if n < 8:
        return reduce(add, values, 0.0)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _sum(values[:half]) + _sum(values[half:])
    whole = n - n % 8
    lanes = values[:8]
    for start in range(8, whole, 8):
        lanes = map(add, lanes, values[start:start + 8])
    r0, r1, r2, r3, r4, r5, r6, r7 = lanes
    return reduce(add, values[whole:],
                  0.0 + (((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))))


def _statistics(runs: Sequence[float], ddof: int) -> tuple[float, ...]:
    """A cell's five statistics in STAT_MEASURES order, from its runs as
    check_runs returns them: finite and at least one.

    Median, mean and std are numpy's bit for bit: np.median (the middle
    value plus 0.0, or (0.0 + a + b) / 2 of the two middle values), the
    sum divided by n, and the square root of the sum of the squared
    deviations from that mean divided by n - ddof; a single run has std 0.
    Best and worst are min() and max(): of equal runs, the first in run
    order, so of 0.0 and -0.0 the one that comes first. A finite mean is
    clamped into [best, worst]: the sum of equal runs can round past them
    (three runs of 0.1 give 0.10000000000000002). A sum that overflows
    gives an infinite statistic, which _run_statistics rejects.
    """
    n = len(runs)
    ordered = sorted(runs)
    half = n // 2
    median = 0.0 + ordered[half] if n % 2 \
        else (0.0 + ordered[half - 1] + ordered[half]) / 2
    best, worst = ordered[0], max(runs)  # sorted() is stable: min(runs)
    mean = _sum(runs) / n
    std = 0.0
    if n > 1:  # (v - mean) ** 2 would raise OverflowError, not give inf
        squares = [(value - mean) * (value - mean) for value in runs]
        std = math.sqrt(_sum(squares) / (n - ddof))
    if math.isfinite(mean):
        mean = min(max(mean, best), worst)  # unchanged when inside
    return best, worst, median, mean, std


def _run_statistics(raw: RawRuns, population_std: bool):
    """(axes, cells) of the dataset that summarizes raw: the axes
    (dimensions, STAT_MEASURES, algorithms, functions), the run keys'
    labels each sorted by _axis_sort_key, and {(d, a, f) positions:
    _statistics}. The errors are PerformanceDataset's, in its order: the
    label rule on each axis, then the first statistic that is not finite
    in (d, p, a, f) order. With the mean clamped, the statistics meet the
    dataset's ordering rule."""
    keys = raw.runs.keys()
    dimensions, algorithms, functions = (
        tuple(sorted({key[axis] for key in keys}, key=_axis_sort_key))
        for axis in range(3))
    axes = (dimensions, STAT_MEASURES, algorithms, functions)
    d_index, _, a_index, f_index = _axis_index(axes)
    ddof = 0 if population_std else 1
    cells = {(d_index[d], a_index[a], f_index[f]): _statistics(runs, ddof)
             for (d, a, f), runs in raw.runs.items()}
    bad = min(((i, j, a, f) for (i, a, f), stats in cells.items()
               for j, value in enumerate(stats) if not math.isfinite(value)),
              default=None)
    if bad is not None:
        i, j, a, f = bad
        key = dimensions[i], STAT_MEASURES[j], algorithms[a], functions[f]
        raise NonFiniteValue(f"cell {_cell_text(key)} is {cells[i, a, f][j]}")
    return axes, cells


# -- long CSV output --------------------------------------------------------

def format_number(x: float) -> str:
    """17 significant digits: enough for float64 round-trip fidelity."""
    return format(float(x), ".17g")


def _write_rows(handle, rows: Iterable[Sequence]) -> None:
    """csv.writer rows, quoting what csv leaves bare but would not reload
    as written: a first field that starts, after blanks, with '#' (a
    comment), and every field of a row with a field that holds '\r' (csv
    quotes only the line terminator '\n'). The '#' field is quoted here as
    csv.QUOTE_ALL would, its quotes doubled."""
    writerow = csv.writer(handle, lineterminator="\n").writerow
    quoted = csv.writer(handle, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for row in rows:
        for cell in row:  # a plain loop: any() over a generator cost more
            if isinstance(cell, str) and "\r" in cell:
                quoted.writerow(row)
                break
        else:
            head = row[0]
            if isinstance(head, str) and head.lstrip()[:1] == "#":
                handle.write('"' + head.replace('"', '""') + '",')
                row = row[1:]
            writerow(row)


def _long_rows(axes, cells):
    """A long CSV's header, then the row of each ((d, p, f, a) positions,
    value) of cells, in the order of cells, which is the file's (d, p, f,
    a) order; axes are (dimensions, measures, algorithms, functions)."""
    dimensions, measures, algorithms, functions = axes
    yield LONG_CSV_HEADER
    for (i, j, f, a), value in cells:
        yield [dimensions[i], measures[j], functions[f], algorithms[a],
               format_number(value)]


def _save_run_statistics(raw: RawRuns, population_std: bool, path) -> int:
    """Write save_long_csv(dataset_from_runs(raw, population_std), path)
    byte for byte, and raise its errors, with no dataset and no numpy; the
    number of rows written after the header."""
    axes, cells = _run_statistics(raw, population_std)
    order = sorted((i, f, a) for i, a, f in cells)

    def row_cells():
        for _, group in itertools.groupby(order, key=itemgetter(0)):
            group = list(group)
            for j in range(len(STAT_MEASURES)):
                for i, f, a in group:
                    yield (i, j, f, a), cells[i, a, f][j]

    write_files({Path(path): partial(_write_rows,
                                     rows=_long_rows(axes, row_cells()))})
    return len(cells) * len(STAT_MEASURES)


def write_files(writers: Mapping[Path, Callable]) -> list[Path]:
    """Write all files or none; every file hra writes comes here. Each
    writer streams its path's text (or bytes, to handle.buffer) to a short
    O_EXCL temporary file beside it, with a plain open's mode or the mode of
    the regular file it replaces, and only then are all renamed. An
    existing path that is no regular file fails first; missing parent
    directories are created. Errors remove the temporaries, not the
    directories; OSError raises IoError."""
    pending: dict[Path, Path] = {}  # path -> its temporary file
    try:
        for path, writer in writers.items():
            if path.exists() and not path.is_file():  # follows symlinks
                raise OSError("not a regular file")
            # a parent that is a regular file is left for open() to name
            with contextlib.suppress(FileExistsError):
                path.parent.mkdir(parents=True, exist_ok=True)
            temporary = path.parent / f".hra-{os.urandom(8).hex()}.tmp"
            with open(temporary, "x", encoding="utf-8", newline="") as handle:
                pending[path] = temporary
                if path.exists():  # keep the permission bits it replaces
                    os.chmod(temporary, path.stat().st_mode & 0o7777)
                writer(handle)
        for path, temporary in list(pending.items()):
            os.replace(temporary, path)
            del pending[path]
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        for temporary in pending.values():  # left only by an error
            with contextlib.suppress(OSError):
                os.unlink(temporary)
    return list(writers)


# -- both CPUs --------------------------------------------------------------

# An input over this many bytes is parsed by two processes (see
# parse_halves). Forking costs about 2 ms and wins from about 1.25 MiB on a
# 2-vCPU host, for a long CSV and for a run directory alike.
_FORK_BYTES = 3 << 19  # 1.5 MiB


def _forks(size: int) -> bool:
    """Whether parse_halves forks for a size-byte input: it is over
    _FORK_BYTES, the process may run on at least 2 CPUs, and it has
    exactly one thread, so fork() copies no lock that another thread
    holds."""
    if size <= _FORK_BYTES or not hasattr(os, "fork"):
        return False
    try:
        return len(os.sched_getaffinity(0)) >= 2 \
            and len(os.listdir("/proc/self/task")) == 1
    except (AttributeError, OSError):  # no affinity call or no /proc
        return False


def parse_halves(parse: Callable[[int], object],
                 sizes: tuple[int, int]) -> list:
    """[parse(0), parse(1)] of an input in two halves of sizes bytes, or
    the error of the first half that raises.

    When neither half is empty and _forks(sum(sizes)), a child from
    _fork() parses half 1 while this process parses half 0. An error in
    half 0 kills the child and is raised: it comes first in the input. If
    half 1's result does not arrive whole, because the child raised,
    failed or was killed, half 1 is parsed here, so the result never
    depends on the child. The child is always reaped; a caller that
    ignores SIGCHLD may have no child left to reap. Otherwise both halves
    are parsed here, in order.
    """
    forked = None
    if all(sizes) and _forks(sum(sizes)):
        with contextlib.suppress(OSError):  # no process: both run here
            forked = _fork(parse)
    if forked is None:
        return [parse(0), parse(1)]
    import signal

    pid, pipe = forked
    tail = None
    try:
        head = parse(0)
        tail = _received(pipe)
    finally:
        os.close(pipe)
        if tail is None:  # the child may still run
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)
    return [head, parse(1) if tail is None else tail[0]]


def _fork(parse: Callable[[int], object]) -> tuple[int, int]:
    """(pid, read end of a pipe) of a child from os.fork() that sends
    (parse(1),) through the pipe as one pickle and ends with os._exit:
    status 0 once it is sent, 1 on any failure, its half raising too."""
    results, send = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(results)
        os.close(send)
        raise
    if pid == 0:  # the child: never returns
        status = 1
        try:
            import pickle

            os.close(results)
            result = parse(1)
            with open(send, "wb") as pipe:
                pickle.dump((result,), pipe, 5)
            status = 0
        finally:
            os._exit(status)
    os.close(send)
    return pid, results


def _received(pipe: int) -> tuple | None:
    """The child's (result,) loaded from the pipe, or None if it does not
    arrive whole; the unpickler reads a numpy array's data straight into
    place."""
    import pickle

    with open(pipe, "rb", closefd=False) as handle:
        try:
            return pickle.load(handle)
        except Exception:  # the child's output is never trusted whole
            return None
