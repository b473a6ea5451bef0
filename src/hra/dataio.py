"""Dataset container, run statistics, and all file input/output.

Long CSV schema (one row per cell):
    dimension,measure,function,algorithm,value
Rank-matrix CSV schema (one row per alternative):
    algorithm,<criterion1>,<criterion2>,...
In both formats a line whose raw text starts, after blanks, with '#' is a
comment; a quoted first field such as "#top" is data, and the writers quote
such a field. Numbers are written with 17 significant digits so a
save/load round trip is exact.
"""

from __future__ import annotations

import array
import csv
import io
import itertools
import math
import re
from collections.abc import ItemsView, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .exceptions import (
    DuplicateTuple,
    EmptyMatrix,
    EmptyRuns,
    InconsistentStatistics,
    IoError,
    MissingCell,
    NonFiniteValue,
    ParseError,
    ShapeMismatch,
)
from .rtopsis import DecisionMatrix

if TYPE_CHECKING:
    from .hierarchy import HraReport

LONG_CSV_HEADER = ("dimension", "measure", "function", "algorithm", "value")
STAT_MEASURES = ("best", "worst", "median", "mean", "std")
AXIS_NAMES = ("dimensions", "measures", "algorithms", "functions")

Cell = tuple  # (dimension, measure, algorithm, function)


def format_number(x: float) -> str:
    """17 significant digits: enough for float64 round-trip fidelity."""
    return format(float(x), ".17g")


class RunStatistics(NamedTuple):
    best: float
    worst: float
    median: float
    mean: float
    std: float


def compute_statistics(runs: Sequence[float],
                       population_std: bool = False) -> RunStatistics:
    """Five summary statistics of a list of run results.

    std is the sample standard deviation (denominator R-1) unless
    population_std is set; a single run has std 0 under either convention.
    """
    runs = np.asarray(runs, dtype=float)
    if runs.size == 0:
        raise EmptyRuns("cannot summarize an empty run list")
    if not np.isfinite(runs).all():
        raise NonFiniteValue("run values must be finite")
    if runs.size == 1:
        std = 0.0
    else:
        std = float(runs.std(ddof=0 if population_std else 1))
    return RunStatistics(best=float(runs.min()), worst=float(runs.max()),
                         median=float(np.median(runs)),
                         mean=float(runs.mean()), std=std)


def _axis_index(axes) -> tuple[dict, ...]:
    """label -> position for each axis; every axis non-empty and unique."""
    for name, axis in zip(AXIS_NAMES, axes):
        if len(axis) == 0:
            raise EmptyMatrix(f"dataset has no {name}")
        if len(set(axis)) != len(axis):
            raise ShapeMismatch(f"duplicate entries in {name}: {axis}")
    return tuple({label: i for i, label in enumerate(axis)} for axis in axes)


def _check_statistic_ordering(dataset: "PerformanceDataset") -> None:
    """best <= median <= worst, best <= mean <= worst, std >= 0 per cell group.

    A check that involves a missing cell or measure is skipped. The first
    violation in (dimension, algorithm, function) order is reported, the
    median before the mean before the std of one group.
    """
    index = dataset._index[1]
    shape = dataset.array[:, 0].shape

    def plane(p):
        return dataset.array[:, index[p]] if p in index \
            else np.full(shape, np.nan)

    best, worst = plane("best"), plane("worst")
    checked = ("median", "mean", "std")
    bad = []
    for p in checked[:2]:
        mid = plane(p)
        present = ~(np.isnan(best) | np.isnan(mid) | np.isnan(worst))
        bad.append(present & ~((best <= mid) & (mid <= worst)))
    bad.append(plane("std") < 0.0)
    bad = np.stack(bad, axis=-1)
    if not bad.any():
        return
    i, a, f, c = np.unravel_index(np.argmax(bad), bad.shape)
    group = (f"({dataset.dimensions[i]}, {dataset.algorithms[a]}, "
             f"{dataset.functions[f]})")
    value = float(plane(checked[c])[i, a, f])
    if checked[c] == "std":
        raise InconsistentStatistics(f"{group}: std={value} is negative")
    raise InconsistentStatistics(
        f"{group}: {checked[c]}={value} outside "
        f"[best={float(best[i, a, f])}, worst={float(worst[i, a, f])}]")


class CellValues(Mapping):
    """Read-only view of a dataset's present cells.

    Maps (dimension, measure, algorithm, function) to a float; iterates in
    axis order and skips missing cells.
    """

    __slots__ = ("_dataset",)

    def __init__(self, dataset: "PerformanceDataset"):
        self._dataset = dataset

    def __getitem__(self, key) -> float:
        dataset = self._dataset
        try:
            value = float(dataset.array[dataset._position(key)])
        except (KeyError, TypeError, ValueError):
            raise KeyError(key) from None
        if math.isnan(value):
            raise KeyError(key)
        return value

    def __iter__(self):
        return iter(self._dataset._cells(~np.isnan(self._dataset.array)))

    def __len__(self) -> int:
        return int(np.count_nonzero(~np.isnan(self._dataset.array)))

    def items(self) -> ItemsView:
        return _CellItems(self)


class _CellItems(ItemsView):
    def __iter__(self):
        cube = self._mapping._dataset.array
        present = ~np.isnan(cube)
        return zip(self._mapping._dataset._cells(present),
                   cube[present].tolist())


@dataclass(frozen=True, init=False, eq=False)
class PerformanceDataset:
    """Raw values over (dimension, measure, algorithm, function) axes.

    The values live in one read-only float64 array of shape (k, l, m, n),
    indexed in the order of the four label tuples; NaN marks a missing
    cell, so present values are always finite. Axis tuples fix the
    presentation order everywhere downstream. A dataset may be partial;
    the aggregation entry point rejects partial data rather than imputing.
    `values` is the same data as a read-only mapping keyed by cell.
    """

    algorithms: tuple[str, ...]
    functions: tuple[str, ...]
    dimensions: tuple
    measures: tuple[str, ...]
    array: np.ndarray = field(repr=False)

    def __init__(self, algorithms, functions, dimensions, measures,
                 values: Mapping[Cell, float]):
        axes = (tuple(dimensions), tuple(measures), tuple(algorithms),
                tuple(functions))
        object.__setattr__(self, "_index", _axis_index(axes))
        cube = np.full(tuple(map(len, axes)), np.nan)
        for key, v in values.items():
            try:
                position = self._position(key)
            except KeyError:
                raise ShapeMismatch(f"cell {_cell_text(key)} is outside "
                                    "the declared axes") from None
            if not math.isfinite(v):
                raise NonFiniteValue(f"cell {_cell_text(key)} is {v}")
            cube[position] = v
        self._init(axes, cube)

    @classmethod
    def from_array(cls, algorithms, functions, dimensions, measures,
                   array) -> "PerformanceDataset":
        """Dataset over a (k, l, m, n) array in which NaN marks a missing
        cell; the array is copied."""
        axes = (tuple(dimensions), tuple(measures), tuple(algorithms),
                tuple(functions))
        dataset = cls.__new__(cls)
        object.__setattr__(dataset, "_index", _axis_index(axes))
        dataset._init(axes, np.array(array, dtype=float))
        return dataset

    def _init(self, axes, cube: np.ndarray) -> None:
        if cube.shape != tuple(map(len, axes)):
            raise ShapeMismatch(f"value array has shape {cube.shape}, the "
                                f"axes need {tuple(map(len, axes))}")
        for name, axis in zip(AXIS_NAMES, axes):
            object.__setattr__(self, name, axis)
        infinite = np.isinf(cube)
        if infinite.any():
            raise NonFiniteValue(f"cell {_cell_text(self._cells(infinite)[0])}"
                                 f" is {float(cube[infinite][0])}")
        cube.flags.writeable = False
        object.__setattr__(self, "array", cube)
        _check_statistic_ordering(self)

    def __eq__(self, other):
        if not isinstance(other, PerformanceDataset):
            return NotImplemented
        return (self.dimensions, self.measures, self.algorithms,
                self.functions) == (other.dimensions, other.measures,
                                    other.algorithms, other.functions) \
            and np.array_equal(self.array, other.array, equal_nan=True)

    @property
    def values(self) -> CellValues:
        return CellValues(self)

    def _position(self, key: Cell) -> tuple[int, int, int, int]:
        """Array index of a (d, p, a, f) key; KeyError outside the axes."""
        d, p, a, f = key
        d_index, p_index, a_index, f_index = self._index
        return d_index[d], p_index[p], a_index[a], f_index[f]

    def _cells(self, mask: np.ndarray, dimensions=None,
               measures=None) -> list[Cell]:
        """(d, p, a, f) labels of the True entries of a (k, l, m, n) mask,
        in axis order; dimensions/measures default to the dataset's."""
        dimensions = self.dimensions if dimensions is None else dimensions
        measures = self.measures if measures is None else measures
        return [(dimensions[i], measures[j], self.algorithms[a],
                 self.functions[f])
                for i, j, a, f in np.argwhere(mask).tolist()]

    def block(self, dimensions, measures) -> np.ndarray:
        """Complete (k', l', m, n) copy of the given dimensions and measures.

        Raises MissingCell listing every absent cell in axis order; a label
        outside the dataset's axes lacks all of its cells.
        """
        dimensions, measures = tuple(dimensions), tuple(measures)
        d_index, p_index = self._index[:2]
        block = np.full((len(dimensions), len(measures))
                        + self.array.shape[2:], np.nan)
        for i, d in enumerate(dimensions):
            for j, p in enumerate(measures):
                if d in d_index and p in p_index:
                    block[i, j] = self.array[d_index[d], p_index[p]]
        missing = np.isnan(block)
        if missing.any():
            raise MissingCell(self._cells(missing, dimensions, measures))
        return block

    def missing_cells(self) -> list[Cell]:
        """All (d, p, a, f) tuples without a value, in axis order."""
        return self._cells(np.isnan(self.array))

    @property
    def is_complete(self) -> bool:
        return not np.isnan(self.array).any()

    def cell(self, dimension, measure, algorithm, function) -> float:
        key = (dimension, measure, algorithm, function)
        try:
            return self.values[key]
        except KeyError:
            raise MissingCell([key]) from None

    def matrix(self, dimension, measure) -> DecisionMatrix:
        """Algorithms x functions decision matrix for one (d, p) leaf."""
        return DecisionMatrix(self.block((dimension,), (measure,))[0, 0],
                              self.algorithms, self.functions)


def _cell_text(key) -> str:
    return "(" + ", ".join(map(str, key)) + ")"


@dataclass(frozen=True)
class RawRuns:
    """Per-run error values keyed by (dimension, algorithm, function)."""

    runs: Mapping[tuple, tuple[float, ...]]

    def __post_init__(self):
        runs = {key: tuple(float(v) for v in values)
                for key, values in dict(self.runs).items()}
        for key, values in runs.items():
            if len(values) == 0:
                raise EmptyRuns(f"no runs recorded for {key}")
            for v in values:
                if not math.isfinite(v):
                    raise NonFiniteValue(f"run value {v} for {key}")
                if v < 0.0:
                    raise ParseError(f"negative error value {v} for {key}")
        object.__setattr__(self, "runs", runs)

    def dimensions(self) -> list:
        return sorted({k[0] for k in self.runs}, key=_axis_sort_key)

    def algorithms(self) -> list:
        return sorted({k[1] for k in self.runs})

    def functions(self) -> list:
        return sorted({k[2] for k in self.runs}, key=_axis_sort_key)


def _axis_sort_key(value):
    return (0, value, "") if isinstance(value, (int, float)) else (1, 0, str(value))


def dataset_from_runs(raw: RawRuns,
                      population_std: bool = False) -> PerformanceDataset:
    """Summarize raw runs into the five standard measures."""
    dimensions, algorithms, functions = (raw.dimensions(), raw.algorithms(),
                                         raw.functions())
    d_index, a_index, f_index = ({label: i for i, label in enumerate(axis)}
                                 for axis in (dimensions, algorithms,
                                              functions))
    cube = np.full((len(dimensions), len(STAT_MEASURES), len(algorithms),
                    len(functions)), np.nan)
    for (d, a, f), runs in raw.runs.items():
        cube[d_index[d], :, a_index[a], f_index[f]] = compute_statistics(
            runs, population_std=population_std)
    return PerformanceDataset.from_array(
        algorithms=algorithms, functions=functions, dimensions=dimensions,
        measures=STAT_MEASURES, array=cube)


# -- CSV input --------------------------------------------------------------

def _parse_dimension(text: str):
    """The int whose canonical decimal form is the stripped text, else the
    stripped text: '10' is 10, while '010' and '+10' stay labels."""
    text = text.strip()
    try:
        number = int(text)
    except ValueError:
        return text
    return number if str(number) == text else text


def _not_utf8(source, exc: UnicodeDecodeError) -> ParseError:
    return ParseError(f"{source}: not UTF-8 text: cannot decode "
                      f"{exc.object[exc.start:exc.end]!r}")


_LINE_BREAK = re.compile(r"\r\n|\r|\n")


class _Records:
    """(number, row) of every CSV record of a UTF-8 file, unstripped.

    A record is a comment when it is blank or its raw text starts, after
    blanks, with '#'; a quoted first field such as "#top" is data. A parsed
    row no longer shows its quotes, so is_comment reads the raw line from a
    second handle, and only for a row whose first field starts with '#':
    the row loop itself stays a bare csv.reader.
    """

    def __init__(self, path: Path):
        self.path = path
        self._reader = None
        self._raw = None  # second handle, opened on first need
        self._raw_lines = 0  # lines read from it so far

    def _open(self):
        try:
            return open(self.path, "r", encoding="utf-8", newline="")
        except OSError as exc:
            raise IoError(f"cannot read {self.path}: {exc}") from exc

    def __iter__(self):
        handle = self._open()
        self._reader = csv.reader(handle)
        try:
            yield from enumerate(self._reader, start=1)
        except UnicodeDecodeError as exc:
            raise _not_utf8(self.path, exc) from None
        finally:
            handle.close()
            if self._raw is not None:
                self._raw.close()

    def is_comment(self, row: list[str]) -> bool:
        """Whether the record just read is blank or a '#' comment."""
        if not row:
            return True
        if not row[0].lstrip().startswith("#"):
            return False
        # csv keeps the line breaks of quoted fields, so they tell how many
        # physical lines before the current one the record started
        start = self._reader.line_num - sum(len(_LINE_BREAK.findall(cell))
                                            for cell in row)
        if self._raw is None:
            self._raw = self._open()
        try:
            line = next(itertools.islice(
                self._raw, start - self._raw_lines - 1, None))
        except UnicodeDecodeError as exc:
            raise _not_utf8(self.path, exc) from None
        self._raw_lines = start
        return line.lstrip().startswith("#")


def _data_rows(path: Path):
    """Yield (line_number, row) skipping blank and '#' comment lines."""
    records = _Records(path)
    for number, row in records:
        if not records.is_comment(row):
            yield number, [cell.strip() for cell in row]


def _write_rows(handle, rows: Iterable[Sequence]) -> None:
    """csv.writer rows, quoting a first field that starts, after blanks,
    with '#' so that it reloads as data rather than as a comment."""
    writerow = csv.writer(handle, lineterminator="\n").writerow
    first = csv.writer(handle, lineterminator=",", quoting=csv.QUOTE_ALL)
    for row in rows:
        head = row[0]
        if isinstance(head, str) and head.lstrip()[:1] == "#":
            first.writerow(row[:1])
            row = row[1:]
        writerow(row)


def _first_repeat(flat: np.ndarray) -> int | None:
    """Position of the first entry equal to an earlier one, if any."""
    order = np.argsort(flat, kind="stable")
    repeats = order[1:][flat[order[1:]] == flat[order[:-1]]]
    return int(repeats.min()) if repeats.size else None


def load_long_csv(path) -> PerformanceDataset:
    """Load a long-format dataset; the result may be partial.

    Axes keep the order in which their labels first appear. Rows fill the
    (k, l, m, n) array directly; the first malformed row in file order
    raises, whichever check it fails.
    """
    path = Path(path)
    records = _Records(path)
    rows = iter(records)
    header = next((row for _, row in rows if not records.is_comment(row)),
                  None)
    if header is None:
        raise ParseError(f"{path}: file has no header row")
    header = [cell.strip() for cell in header]
    if tuple(h.lower() for h in header) != LONG_CSV_HEADER:
        raise ParseError(f"{path}: expected header "
                         f"{','.join(LONG_CSV_HEADER)}, got {','.join(header)}")
    # label -> position per axis (dimension, measure, algorithm, function),
    # and the same keyed by the unstripped field text, which repeats
    axes = ({}, {}, {}, {})
    d_seen, p_seen, a_seen, f_seen = seen = ({}, {}, {}, {})
    # typed columns: no Python object per row stays alive
    positions = d_at, p_at, a_at, f_at = tuple(array.array("q")
                                              for _ in range(4))
    numbers, values = array.array("q"), array.array("d")
    isfinite = math.isfinite
    error = None
    for number, row in rows:
        try:
            d_text, p, f, a, v_text = row
            di, pi, ai, fi = d_seen[d_text], p_seen[p], a_seen[a], f_seen[f]
        except (ValueError, KeyError):
            if records.is_comment(row):
                continue
            if len(row) != 5:
                error = ParseError(
                    f"{path}:{number}: expected 5 fields, got {len(row)}")
                break
            di, pi, ai, fi = _register(row, axes, seen)
        try:
            v = float(v_text)
        except ValueError:
            error = ParseError(f"{path}:{number}: value column is not a "
                               f"number: {v_text.strip()!r}")
            break
        if not isfinite(v):
            error = NonFiniteValue(
                f"{path}:{number}: non-finite value {v_text.strip()!r}")
            break
        d_at.append(di)
        p_at.append(pi)
        a_at.append(ai)
        f_at.append(fi)
        numbers.append(number)
        values.append(v)
    if values:
        shape = tuple(map(len, axes))
        positions = tuple(np.frombuffer(axis, dtype=np.int64)
                          for axis in positions)
        repeat = _first_repeat(np.ravel_multi_index(positions, shape))
        if repeat is not None:
            key = tuple(list(axis)[position[repeat]]
                        for axis, position in zip(axes, positions))
            raise DuplicateTuple(
                f"{path}:{numbers[repeat]}: duplicate cell {key}")
    if error is not None:
        raise error
    if not values:
        raise ParseError(f"{path}: no data rows")
    cube = np.full(shape, np.nan)
    cube[positions] = np.frombuffer(values)
    return PerformanceDataset.from_array(
        algorithms=tuple(axes[2]), functions=tuple(axes[3]),
        dimensions=tuple(axes[0]), measures=tuple(axes[1]), array=cube)


def _register(row: list[str], axes, seen) -> tuple[int, int, int, int]:
    """Positions of a long-CSV row whose field texts are not all seen yet,
    adding new labels to the axes."""
    d_text, p, f, a, _ = row
    labels = (_parse_dimension(d_text), p.strip(), a.strip(), f.strip())
    position = []
    for axis, by_text, text, label in zip(axes, seen, (d_text, p, a, f),
                                          labels):
        by_text[text] = axis.setdefault(label, len(axis))
        position.append(by_text[text])
    if d_text.lstrip().startswith("#"):
        # a comment line can carry the same first field unquoted, so each
        # such row goes through is_comment
        del seen[0][d_text]
    return tuple(position)


def save_long_csv(dataset: PerformanceDataset, path) -> Path:
    """Write a dataset in long format, in axis order; skips missing cells."""
    path = Path(path)
    ordered = dataset.array.transpose(0, 1, 3, 2)  # rows run d, p, f, a
    present = ~np.isnan(ordered)
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            _write_rows(handle, itertools.chain(
                [LONG_CSV_HEADER],
                ([dataset.dimensions[i], dataset.measures[j],
                  dataset.functions[f], dataset.algorithms[a],
                  format_number(v)]
                 for (i, j, f, a), v in zip(np.argwhere(present).tolist(),
                                            ordered[present].tolist()))))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    return path


def load_rank_matrix_csv(path) -> DecisionMatrix:
    """Load an algorithm,criteria... table; labels keep file order."""
    path = Path(path)
    rows = _data_rows(path)
    try:
        _, header = next(rows)
    except StopIteration:
        raise EmptyMatrix(f"{path}: file is empty") from None
    if len(header) < 2:
        raise EmptyMatrix(f"{path}: header has no criterion columns")
    criteria = tuple(header[1:])
    labels: list[str] = []
    data: list[list[float]] = []
    for number, row in rows:
        if len(row) != len(header):
            raise ParseError(f"{path}:{number}: expected {len(header)} fields, "
                             f"got {len(row)}")
        if row[0] in labels:
            raise ParseError(f"{path}:{number}: duplicate alternative {row[0]!r}")
        labels.append(row[0])
        parsed = []
        for name, cell in zip(criteria, row[1:]):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise ParseError(f"{path}:{number}: column {name!r} is not "
                                 f"a number: {cell!r}") from None
        data.append(parsed)
    if not data:
        raise EmptyMatrix(f"{path}: no data rows")
    return DecisionMatrix(np.array(data), tuple(labels), criteria)


def save_rank_matrix_csv(matrix: DecisionMatrix, path) -> Path:
    path = Path(path)
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            _write_rows(handle, itertools.chain(
                [("algorithm",) + matrix.criterion_labels],
                ([label] + [format_number(v) for v in row]
                 for label, row in zip(matrix.alternative_labels,
                                       matrix.values))))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    return path


# -- report rendering -------------------------------------------------------

def _render_table(header: Sequence[str], rows: Iterable[Sequence[str]],
                  fmt: str) -> str:
    if fmt == "csv":
        buffer = io.StringIO()
        _write_rows(buffer, itertools.chain([header], rows))
        return buffer.getvalue()
    if fmt == "markdown":
        def line(cells):
            return "| " + " | ".join(c.replace("|", "\\|")
                                     for c in cells) + " |"

        lines = [line(header), "|" + "|".join(" --- " for _ in header) + "|"]
        lines += [line(row) for row in rows]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def emit_report(report: "HraReport", fmt: str = "csv",
                destination="report") -> list[Path]:
    """Write one file per aggregation level; byte-deterministic.

    Files: leaf_ranks, dimension_<d> (one per dimension, matrix plus its
    rank column), final_matrix, and final_ranking with header
    algorithm,score,hra_rank.
    """
    if fmt not in ("csv", "markdown"):
        raise ValueError(f"unknown report format {fmt!r}")
    ext = "csv" if fmt == "csv" else "md"
    destination = Path(destination)
    try:
        destination.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {destination}: {exc}") from exc
    algorithms = report.algorithms
    written: list[Path] = []

    def write(name: str, header, rows):
        path = destination / f"{name}.{ext}"
        try:
            path.write_text(_render_table(header, rows, fmt), encoding="utf-8")
        except OSError as exc:
            raise IoError(f"cannot write {path}: {exc}") from exc
        written.append(path)

    write("leaf_ranks", ("dimension", "measure", "algorithm", "rank"),
          [[str(d), str(p), a, format_number(r)]
           for (d, p), ranks in report.leaf_ranks.items()
           for a, r in zip(algorithms, ranks)])
    for d, matrix in report.dimension_matrices.items():
        write(f"dimension_{d}",
              ("algorithm",) + matrix.criterion_labels + ("rank",),
              [[a] + [format_number(v) for v in row] + [format_number(r)]
               for a, row, r in zip(algorithms, matrix.values,
                                    report.dimension_ranks[d])])
    write("final_matrix", ("algorithm",) + report.final_matrix.criterion_labels,
          [[a] + [format_number(v) for v in row]
           for a, row in zip(algorithms, report.final_matrix.values)])
    write("final_ranking", ("algorithm", "score", "hra_rank"),
          [[a, format_number(s), format_number(r)]
           for a, s, r in zip(algorithms, report.final_scores,
                              report.final_ranks)])
    return written
