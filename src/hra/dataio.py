"""Dataset container, run statistics, and all file input/output.

Long CSV schema (one row per cell):
    dimension,measure,function,algorithm,value
Rank-matrix CSV schema (one row per alternative):
    algorithm,<criterion1>,<criterion2>,...
In both formats a line whose raw text starts, after blanks, with '#' is a
comment where a record would start; a quoted first field such as "#top" is
data, and the writers quote such a field. Numbers are written with 17
significant digits so a save/load round trip is exact.
"""

from __future__ import annotations

import array
import codecs
import csv
import io
import itertools
import math
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
    This is the one-row case of _statistics.
    """
    runs = np.asarray(runs, dtype=float).reshape(1, -1)
    if runs.size == 0:
        raise EmptyRuns("cannot summarize an empty run list")
    if not np.isfinite(runs).all():
        raise NonFiniteValue("run values must be finite")
    return RunStatistics(*_statistics(runs, population_std)[0].tolist())


def _statistics(runs: np.ndarray, population_std: bool) -> np.ndarray:
    """(cells, 5) statistics in RunStatistics order of a C-contiguous
    (cells, R) array of finite runs, R >= 1.

    Every statistic reduces along the contiguous last axis, so a row's
    result is bit for bit that of its 1-D computation.
    """
    stats = np.empty((runs.shape[0], 5))
    stats[:, 0] = runs.min(axis=1)
    stats[:, 1] = runs.max(axis=1)
    stats[:, 2] = np.median(runs, axis=1)
    stats[:, 3] = runs.mean(axis=1)
    stats[:, 4] = 0.0 if runs.shape[1] == 1 else \
        runs.std(axis=1, ddof=0 if population_std else 1)
    return stats


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
    by_count: dict[int, list] = {}  # one batch per distinct run count
    for key, runs in raw.runs.items():
        by_count.setdefault(len(runs), []).append((key, runs))
    for cells in by_count.values():
        keys, runs = zip(*cells)
        i, j, k = np.array([(d_index[d], a_index[a], f_index[f])
                            for d, a, f in keys]).T
        cube[i, :, j, k] = _statistics(np.array(runs), population_std)
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


def _records(path: Path):
    """Yield (line, row) for every CSV record of a UTF-8 file, unstripped;
    line is the physical line the record starts on. One leading
    byte-order mark is skipped.

    A line whose raw text starts, after blanks, with '#' is a comment when
    it would start a record: csv never sees it, so a quote in it opens
    nothing. A quoted first field such as "#top" is data, and so is a line
    that continues a quoted field (csv pulls lines one at a time).
    """
    try:
        handle = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    line = start = 0

    def lines():
        nonlocal line, start
        for line, text in enumerate(handle, start=1):
            if start is None:  # the reader is between records
                if "#" in text and text.lstrip().startswith("#"):
                    continue
                start = line
            yield text

    with handle:
        try:
            start = None
            for row in csv.reader(lines()):
                yield start, row
                start = None
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None
        except csv.Error as exc:  # a field over csv.field_size_limit()
            raise ParseError(f"{path}:{line}: {exc}") from None


def _data_rows(path: Path):
    """Yield (line_number, row) of the stripped non-blank records."""
    for number, row in _records(path):
        if row:
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

    Axes keep the order in which their labels first appear. A plain file
    (see _load_columns) is parsed column by column; any other file, and any
    file with an error, goes through the row reader, which gives the same
    dataset and is the source of every error.
    """
    path = Path(path)
    dataset = _load_columns(path)
    return _load_rows(path) if dataset is None else dataset


def _dataset(axes, cube: np.ndarray) -> PerformanceDataset:
    dimensions, measures, algorithms, functions = map(tuple, axes)
    return PerformanceDataset.from_array(
        algorithms=algorithms, functions=functions, dimensions=dimensions,
        measures=measures, array=cube)


def _load_rows(path: Path) -> PerformanceDataset:
    """The row reader: rows fill the (k, l, m, n) array directly; the first
    malformed row in file order raises, whichever check it fails."""
    rows = _records(path)
    header = next((row for _, row in rows if row), None)
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
            if not row:
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
    return _dataset(axes, cube)


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
    return tuple(position)


# The columnar path. Bytes that csv treats specially send a file to the
# row reader, and so do the ASCII separators \x1c-\x1f: np.loadtxt strips
# them around a value as blanks, float() does not.
_NOT_PLAIN = b'"\r\0\x1c\x1d\x1e\x1f'
_BLOCK_BYTES = 1 << 18  # whole lines parsed at once; bounds the temporaries
_MAX_LABEL_WORDS = 32  # a longer label (over 256 bytes) takes the row reader
# _BYTE_MASKS[n] keeps the first n bytes of a little-endian uint64 word
_BYTE_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)
_WORD_MIX = np.uint64(0x9E3779B97F4A7C15)


def _load_columns(path: Path) -> PerformanceDataset | None:
    """The dataset of a plain long CSV, or None for any other file.

    A plain file is UTF-8 with no _NOT_PLAIN byte after one leading
    byte-order mark, which both paths skip. Its comment lines are dropped,
    as the row reader skips them (see _drop_comments); the header is the
    first non-empty line left, and every other non-empty line holds
    exactly four commas, labels of at most 256 bytes, at most
    csv.field_size_limit() bytes in all, and a finite value that np.loadtxt
    parses (it parses what float() does, bit for bit, and rejects a few
    texts float() accepts, such as '1_0'); no cell repeats. The file is
    read in blocks of whole lines: numpy finds the newline and comma
    offsets, groups each label column by packed bytes, and each distinct
    field text is decoded once.
    """
    axes = ({}, {}, {}, {})  # label -> position, per axis
    seen = ({}, {}, {}, {})  # raw field bytes -> position, per axis
    # typed columns grow in place, so the blocks' temporaries leave no holes
    columns = tuple(array.array("i") for _ in axes) + (array.array("d"),)
    try:
        handle = open(path, "rb")
    except OSError:
        return None  # the row reader reports it
    in_body = False  # past the header
    with handle:
        if handle.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:
            handle.seek(0)  # one leading byte-order mark is skipped
        for block in _line_blocks(handle):
            if block is None or not _is_plain(block):
                return None
            block = _drop_comments(block)
            if not in_body:
                header, _, block = block.lstrip(b"\n").partition(b"\n")
                if not header:
                    continue  # blank lines before the header
                if tuple(cell.strip().lower() for cell
                         in header.decode().split(",")) != LONG_CSV_HEADER:
                    return None
                in_body = True
            if not _parse_block(block, axes, seen, columns):
                return None
    *positions, values = (np.frombuffer(column, dtype=column.typecode)
                          for column in columns)
    if not values.size:
        return None
    shape = tuple(map(len, axes))
    cube = np.full(shape, np.nan)
    cube.reshape(-1)[np.ravel_multi_index(positions, shape)] = values
    if np.count_nonzero(~np.isnan(cube)) != values.size:
        return None  # a repeated cell: its values are all finite
    return _dataset(axes, cube)


def _line_blocks(handle):
    """Pieces of a binary file of about _BLOCK_BYTES whole lines each; None
    in place of a line longer than that."""
    rest = b""
    while chunk := handle.read(_BLOCK_BYTES):
        chunk = rest + chunk
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            yield None
            return
        yield chunk[:cut]
        rest = chunk[cut:]
    if rest:
        yield rest


def _is_plain(block: bytes) -> bool:
    """UTF-8 with no _NOT_PLAIN byte."""
    if any(byte in block for byte in _NOT_PLAIN):
        return False
    if not block.isascii():
        try:
            block.decode()
        except UnicodeDecodeError:
            return False
    return True


def _drop_comments(block: bytes) -> bytes:
    """A plain block without its comment lines, those whose text starts,
    after blanks, with '#'; the rule of _records, for which every line of a
    plain file starts a record. A '#' elsewhere in a line, as in the label
    'C#', is data."""
    if b"#" not in block:
        return block
    return b"".join(line for line in block.splitlines(keepends=True)
                    if b"#" not in line
                    or not line.decode().lstrip().startswith("#"))


def _parse_block(block: bytes, axes, seen, columns) -> bool:
    """Append the axis positions and the value of each non-empty line of a
    plain block to columns, registering new labels; False if a line is not
    plain."""
    size = len(block)
    padded = block + bytes(8)
    text = np.frombuffer(padded, np.uint8, size)
    ends = np.flatnonzero(text == ord("\n"))
    if not block.endswith(b"\n"):
        ends = np.append(ends, size)
    starts = np.concatenate(([0], ends[:-1] + 1))
    starts, ends = starts[ends > starts], ends[ends > starts]
    if not starts.size:
        return True
    commas = np.flatnonzero(text == ord(","))
    if commas.size != 4 * starts.size:
        return False
    commas = commas.reshape(-1, 4)
    # with four commas per line on average, none before its line's start
    # and none after its end means exactly four in each line
    if (commas[:, 0] < starts).any() or (commas[:, 3] >= ends).any() \
            or (ends - starts).max() > csv.field_size_limit():
        return False
    try:
        values = np.loadtxt(io.BytesIO(block), delimiter=",", usecols=4,
                            quotechar=None, comments=None, encoding="utf-8",
                            ndmin=1)
    except ValueError:
        return False
    if values.size != starts.size or not np.isfinite(values).all():
        return False
    # the 8 bytes from each offset, read as one little-endian word
    words = np.ndarray((size,), "<u8", padded, 0, (1,))
    # (dimension, measure, algorithm, function); the file orders the fields
    # dimension, measure, function, algorithm
    fields = ((starts, commas[:, 0]), (commas[:, 0] + 1, commas[:, 1]),
              (commas[:, 2] + 1, commas[:, 3]),
              (commas[:, 1] + 1, commas[:, 2]))
    for number, (axis, by_text, (lo, hi)) in enumerate(zip(axes, seen,
                                                           fields)):
        groups = _group(words, lo, hi)
        if groups is None:
            return False
        first, inverse = groups
        position = np.empty(first.size, np.int32)
        for g in np.argsort(first).tolist():  # first appearance order
            i = first[g]
            raw = block[lo[i]:hi[i]]
            if raw not in by_text:
                label = raw.decode()
                label = _parse_dimension(label) if number == 0 \
                    else label.strip()
                by_text[raw] = axis.setdefault(label, len(axis))
            position[g] = by_text[raw]
        columns[number].frombytes(position[inverse].tobytes())
    columns[4].frombytes(values.tobytes())
    return True


def _group(words: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """(first, inverse) of the distinct texts in [lo, hi) byte ranges:
    the first index of each group and each range's group; None if a range
    is over _MAX_LABEL_WORDS words or two texts share a hash.

    A text is packed into 8-byte words, zero-padded (a plain file has no
    NUL, so padding never looks like text). One word is the key itself;
    longer texts are keyed by a hash of their words, and every member of a
    group is then compared word for word with the group's first.
    """
    lengths = hi - lo
    count = -(-int(lengths.max()) // 8)
    if count > _MAX_LABEL_WORDS:
        return None
    last = words.size - 1
    packed = [words[np.minimum(lo + 8 * w, last)]
              & _BYTE_MASKS[np.clip(lengths - 8 * w, 0, 8)]
              for w in range(count)]
    key = packed[0] if packed else np.zeros(lo.size, np.uint64)
    for word in packed[1:]:
        key = key * _WORD_MIX + word  # wraps modulo 2**64
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    if count > 1:
        leader = first[inverse]
        if any((word != word[leader]).any() for word in packed):
            return None
    return first, inverse


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
    seen: set[str] = set()
    data: list[list[float]] = []
    for number, row in rows:
        if len(row) != len(header):
            raise ParseError(f"{path}:{number}: expected {len(header)} fields, "
                             f"got {len(row)}")
        if row[0] in seen:
            raise ParseError(f"{path}:{number}: duplicate alternative {row[0]!r}")
        seen.add(row[0])
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


# an encoded label holds '%' only in these escapes, never as '%~'
_FILE_NAME_ESCAPES = str.maketrans({"%": "%25", "/": "%2F", "\0": "%00"})
_NAME_MAX = 255  # bytes in one file name on common file systems


def dimension_file_name(label, ext: str) -> str:
    """File name of a dimension's report table: dimension_<label>.<ext>
    with '%', '/' and NUL percent-encoded. A name over _NAME_MAX bytes is
    cut and ends in '%~' plus 16 hex digits of the label's sha256; no
    encoded label holds '%~', so labels whose texts differ keep distinct
    names (a loaded dataset never holds both 10 and '10')."""
    text = str(label)
    stem = "dimension_" + text.translate(_FILE_NAME_ESCAPES)
    if len(stem.encode()) + 1 + len(ext) <= _NAME_MAX:
        return f"{stem}.{ext}"
    import hashlib  # only an over-long label needs it; keeps `import hra` lean

    tail = f"%~{hashlib.sha256(text.encode()).hexdigest()[:16]}.{ext}"
    head = stem.encode()[:_NAME_MAX - len(tail)]
    return head.decode(errors="ignore") + tail


def emit_report(report: "HraReport", fmt: str = "csv",
                destination="report") -> list[Path]:
    """Write one file per aggregation level; byte-deterministic.

    Files: leaf_ranks, one per dimension node named by dimension_file_name
    (matrix plus its rank column), final_matrix, and final_ranking with
    header algorithm,score,hra_rank. Every table comes from report.nodes.
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
        path = destination / name
        try:
            path.write_text(_render_table(header, rows, fmt), encoding="utf-8")
        except OSError as exc:
            raise IoError(f"cannot write {path}: {exc}") from exc
        written.append(path)

    write(f"leaf_ranks.{ext}", ("dimension", "measure", "algorithm", "rank"),
          [[str(node.key[1]), str(node.key[2]), a, format_number(r)]
           for node in report.level("leaf")
           for a, r in zip(algorithms, node.result.ranks)])
    for node in report.level("dimension"):
        write(dimension_file_name(node.key[1], ext),
              ("algorithm",) + node.matrix.criterion_labels + ("rank",),
              [[a] + [format_number(v) for v in row] + [format_number(r)]
               for a, row, r in zip(algorithms, node.matrix.values,
                                    node.result.ranks)])
    overall = report.nodes[-1]
    write(f"final_matrix.{ext}",
          ("algorithm",) + overall.matrix.criterion_labels,
          [[a] + [format_number(v) for v in row]
           for a, row in zip(algorithms, overall.matrix.values)])
    write(f"final_ranking.{ext}", ("algorithm", "score", "hra_rank"),
          [[a, format_number(s), format_number(r)]
           for a, s, r in zip(algorithms, overall.result.closeness,
                              overall.result.ranks)])
    return written
