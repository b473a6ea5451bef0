"""Dataset container, its loaders and the report writer.

Long CSV schema (one row per cell):
    dimension,measure,function,algorithm,value
Rank-matrix CSV schema (one row per alternative):
    algorithm,<criterion1>,<criterion2>,...
In both formats a line whose raw text starts, after blanks, with '#' is a
comment where a record would start; a quoted first field such as "#top" is
data, and the writers quote such a field. Numbers are written with 17
significant digits so a save/load round trip is exact.

The columnar path of load_long_csv parses a plain file's body as two
halves, cut at a line start, through files.parse_halves, which parses the
second half in a forked child when the file is over 1.5 MiB and the
process has one thread and may use two CPUs; the merge gives the dataset
of one pass. The rule for runs, the label rule and each axis's field
parse, the run statistics, the long CSV's rows and writer and the
all-or-nothing writer live in files, which loads no numpy;
dataset_from_runs puts files' statistics in a dataset.
"""

from __future__ import annotations

import array
import codecs
import csv
import math
import os
import stat
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property, partial
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING

from ._blas import np
from .exceptions import (
    DuplicateTuple,
    EmptyMatrix,
    InconsistentStatistics,
    IoError,
    MissingCell,
    NonFiniteValue,
    ParseError,
    ShapeMismatch,
)
from .files import (AXIS_NAMES, AXIS_PARSERS, LONG_CSV_HEADER, RawRuns,
                    _axis_index, _cell_text, _long_rows, _not_utf8,
                    _run_statistics, _write_rows, format_number, label_fault,
                    label_tuple, parse_halves, write_files)
from .topsis import DecisionMatrix, _real_values

if TYPE_CHECKING:
    from .hierarchy import HraReport

Cell = tuple  # (dimension, measure, algorithm, function)


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


@dataclass(frozen=True, init=False, eq=False)
class PerformanceDataset:
    """Raw values over (dimension, measure, algorithm, function) axes.

    The values live in one read-only float64 array of shape (k, l, m, n),
    indexed in the order of the four label tuples; NaN marks a missing
    cell, so present values are always finite. Axis tuples fix the
    presentation order everywhere downstream. A dataset may be partial;
    the aggregation entry point rejects partial data rather than imputing.
    `values` is the same data as a read-only mapping keyed by cell, built
    on first read.
    """

    algorithms: tuple[str, ...]
    functions: tuple[str, ...]
    dimensions: tuple
    measures: tuple[str, ...]
    array: np.ndarray = field(repr=False)

    def __init__(self, algorithms, functions, dimensions, measures,
                 values: Mapping[Cell, float]):
        axes = tuple(map(label_tuple, AXIS_NAMES,
                         (dimensions, measures, algorithms, functions)))
        index = _axis_index(axes)
        try:
            items = values.items()
        except AttributeError:
            raise ShapeMismatch(f"values must map cells to numbers, got "
                                f"{values!r}") from None
        cube = np.full(tuple(map(len, axes)), np.nan)
        d_index, p_index, a_index, f_index = index
        for key, v in items:
            try:
                d, p, a, f = key
            except (TypeError, ValueError):
                raise ShapeMismatch(f"cell {key!r} is not (dimension, "
                                    "measure, algorithm, function)") from None
            try:
                position = d_index[d], p_index[p], a_index[a], f_index[f]
            except KeyError:
                raise ShapeMismatch(f"cell {_cell_text(key)} is outside "
                                    "the declared axes") from None
            try:
                v = float(v)
            except (TypeError, ValueError) as exc:
                raise ParseError(f"cell {_cell_text(key)}: {exc}") from None
            if not math.isfinite(v):
                raise NonFiniteValue(f"cell {_cell_text(key)} is {v}")
            cube[position] = v
        self._init(axes, index, cube)

    @classmethod
    def from_array(cls, algorithms, functions, dimensions, measures,
                   array) -> "PerformanceDataset":
        """Dataset over a (k, l, m, n) array in which NaN marks a missing
        cell; the array is copied."""
        return _dataset((dimensions, measures, algorithms, functions),
                        _real_values("value array", array).copy())

    def _init(self, axes, index, cube: np.ndarray) -> None:
        """Take the checked axes, their label -> position index and the
        cube as the dataset's own; the cube becomes read-only."""
        if cube.shape != tuple(map(len, axes)):
            raise ShapeMismatch(f"value array has shape {cube.shape}, the "
                                f"axes need {tuple(map(len, axes))}")
        object.__setattr__(self, "_index", index)
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

    @cached_property
    def values(self) -> Mapping[Cell, float]:
        """{(d, p, a, f): value} of the present cells, in axis order,
        read-only."""
        present = ~np.isnan(self.array)
        return MappingProxyType(dict(zip(self._cells(present),
                                         self.array[present].tolist())))

    def _cells(self, mask: np.ndarray, dimensions=None,
               measures=None) -> list[Cell]:
        """(d, p, a, f) labels of the True entries of a (k, l, m, n) mask,
        in axis order; dimensions/measures default to the dataset's."""
        dimensions = self.dimensions if dimensions is None else dimensions
        measures = self.measures if measures is None else measures
        return [(dimensions[i], measures[j], self.algorithms[a],
                 self.functions[f])
                for i, j, a, f in np.argwhere(mask).tolist()]

    def missing_cells(self, dimensions=None, measures=None) -> list[Cell]:
        """(d, p, a, f) tuples without a value, in axis order, over the given
        dimensions and measures (all of an axis when None); a label outside
        the dataset's axes lacks all of its cells."""
        dimensions = self.dimensions if dimensions is None else tuple(dimensions)
        measures = self.measures if measures is None else tuple(measures)
        d_index, p_index = self._index[:2]
        missing = np.ones((len(dimensions), len(measures))
                          + self.array.shape[2:], dtype=bool)
        for i, d in enumerate(dimensions):
            for j, p in enumerate(measures):
                if d in d_index and p in p_index:
                    missing[i, j] = np.isnan(self.array[d_index[d], p_index[p]])
        return self._cells(missing, dimensions, measures)

    def matrix(self, dimension, measure) -> DecisionMatrix:
        """Algorithms x functions decision matrix for one (d, p) leaf;
        MissingCell lists the leaf's absent cells in axis order."""
        missing = self.missing_cells((dimension,), (measure,))
        if missing:
            raise MissingCell(missing)
        d_index, p_index = self._index[:2]
        return DecisionMatrix(self.array[d_index[dimension], p_index[measure]],
                              self.algorithms, self.functions)


def dataset_from_runs(raw: RawRuns,
                      population_std: bool = False) -> PerformanceDataset:
    """Summarize raw runs into the five standard measures (see
    files._statistics)."""
    axes, cells = _run_statistics(raw, population_std)  # at least one cell
    cube = np.full(tuple(map(len, axes)), np.nan)
    i, a, f = np.array(list(cells)).T
    cube[i, :, a, f] = list(cells.values())
    return _dataset(axes, cube)


# -- CSV input --------------------------------------------------------------

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
    """The dataset over (dimensions, measures, algorithms, functions) axes
    and a (k, l, m, n) float array, which it keeps without a copy and makes
    read-only: only for a cube that no caller goes on writing."""
    axes = tuple(map(label_tuple, AXIS_NAMES, axes))
    dataset = PerformanceDataset.__new__(PerformanceDataset)
    dataset._init(axes, _axis_index(axes), cube)
    return dataset


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
    position = []
    for axis, by_text, parse, text in zip(axes, seen, AXIS_PARSERS,
                                          (d_text, p, a, f)):
        by_text[text] = axis.setdefault(parse(text), len(axis))
        position.append(by_text[text])
    return tuple(position)


# The columnar path. Bytes that csv treats specially send a file to the
# row reader; NUL also because numpy drops a fixed-width text's trailing NULs.
_NOT_PLAIN = b'"\r\0'
_BLOCK_BYTES = 1 << 18  # whole lines parsed at once; bounds the temporaries
_MAX_FIELD_WORDS = 32  # a longer field (over 256 bytes) takes the row reader
# _BYTE_MASKS[n] keeps the first n bytes of a little-endian uint64 word
_BYTE_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)


def _load_columns(path: Path, cut: int | None = None) \
        -> PerformanceDataset | None:
    """The dataset of a plain long CSV, or None for any other file.

    Only a regular file is read here: a pipe cannot seek, and the row
    reader must be the one that opens it. A plain file is UTF-8 with no
    _NOT_PLAIN byte after one leading byte-order mark, which both paths
    skip. Its comment lines are dropped, as the row reader skips them
    (see _drop_comments); the header is the first non-empty line left,
    and every other non-empty line holds exactly four commas, fields of
    at most 256 bytes, at most csv.field_size_limit() bytes in all, and a
    value that float() parses as a finite number; no cell repeats. The
    file is read in blocks of whole lines: numpy finds the newline and
    comma offsets, cuts each field's texts into one fixed-width bytes
    array, groups each label column exactly, and casts the values, which
    parses them as float() does; each distinct label text is decoded once
    per block.

    The body after the header is parsed in two halves by
    files.parse_halves, cut at the first line start at or past its middle
    (or at cut, for tests). The second half's new labels join each axis
    after the first half's, in their order of first appearance, so the
    dataset is that of one pass over the file.
    """
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None
        handle = open(path, "rb")
    except OSError:
        return None  # the row reader reports it
    with handle:
        if not _read_header(handle):
            return None
        fd, body = handle.fileno(), handle.tell()
        end = os.fstat(fd).st_size
        cut = _line_start(fd, (body + end) // 2, end) if cut is None \
            else min(max(cut, body), end)
        try:
            # no name holds the halves, so their columns go before _dataset
            halves = (body, cut), (cut, end)
            merged = _merge(*parse_halves(
                lambda half: _parse_lines(fd, *halves[half]),
                (cut - body, end - cut)))
        except _NotPlain:
            return None
    return None if merged is None else _dataset(*merged)


class _NotPlain(Exception):
    """A line of a long CSV's body that the columnar path leaves to the
    row reader."""


def _merge(head, tail):
    """(axes, cube) of the two halves of a plain file that _parse_lines
    gives, the second half's new labels after the first half's on each
    axis, and each half's values assigned straight into the cube; None if
    there is no value or a cell repeats."""
    axes, tail_axes = head[0], tail[0]
    count = head[5].size + tail[5].size
    if not count:
        return None
    # each second-half position, mapped to its label's place on the axis
    remaps = [np.array([axis.setdefault(label, len(axis)) for label in labels],
                       np.int32) for axis, labels in zip(axes, tail_axes)]
    shape = tuple(map(len, axes))
    cube = np.full(shape, np.nan)
    for half, maps in ((head, None), (tail, remaps)):
        # each line's flat cube index, built one axis at a time so that one
        # mapped column at most is alive beside it
        index = np.zeros(half[5].size, np.int64)
        for axis, size in enumerate(shape):
            index *= size
            index += half[1 + axis] if maps is None \
                else maps[axis][half[1 + axis]]
        cube.reshape(-1)[index] = half[5]
    if np.count_nonzero(~np.isnan(cube)) != count:
        return None  # a repeated cell: its values are all finite
    return axes, cube


def _read_header(handle) -> bool:
    """Read a binary file past one leading byte-order mark, its blank and
    comment lines and its header; True if those lines are plain and the
    header's stripped fields are LONG_CSV_HEADER in any case."""
    if handle.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:
        handle.seek(0)
    for line in iter(partial(handle.readline, _BLOCK_BYTES), b""):
        if len(line) == _BLOCK_BYTES or not _is_plain(line):
            return False  # a line longer than a block takes the row reader
        header = _drop_comments(line).rstrip(b"\n")
        if header:
            return tuple(cell.strip().lower() for cell in
                         header.decode().split(",")) == LONG_CSV_HEADER
    return False


def _line_start(fd: int, offset: int, end: int) -> int:
    """The first position at or past offset, before end, at which a line of
    the file starts (after a newline); end if there is none."""
    position = offset - 1  # offset starts a line if this byte is a newline
    while position < end:
        chunk = os.pread(fd, _BLOCK_BYTES, position)
        if b"\n" in chunk:
            return min(position + chunk.index(b"\n") + 1, end)
        if not chunk:
            break  # the file is shorter than it was
        position += len(chunk)
    return end


def _parse_lines(fd: int, start: int, end: int):
    """(axes, dimension, measure, algorithm and function positions, values)
    of the lines in bytes [start, end) of a plain file's body, each axis a
    label -> position dict in order of first appearance; raises _NotPlain
    at the first block with a line that is not plain."""
    axes = ({}, {}, {}, {})
    # typed columns grow in place, so the blocks' temporaries leave no holes
    columns = tuple(array.array("i") for _ in axes) + (array.array("d"),)
    for block in _line_blocks(fd, start, end):
        if block is None or not _is_plain(block) \
                or not _parse_block(_drop_comments(block), axes, columns):
            raise _NotPlain
    return (axes, *(np.frombuffer(column, dtype=column.typecode)
                    for column in columns))


def _line_blocks(fd: int, start: int, end: int):
    """Pieces of about _BLOCK_BYTES whole lines each of bytes [start, end)
    of a file, read with pread so that no file offset is shared; None in
    place of a line longer than that."""
    rest = b""
    while start < end:
        data = os.pread(fd, min(_BLOCK_BYTES, end - start), start)
        if not data:
            break  # the file is shorter than it was
        start += len(data)
        chunk = rest + data
        # the range ends at a line's end, or at the end of the file
        cut = chunk.rfind(b"\n") + 1 if start < end else len(chunk)
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


def _parse_block(block: bytes, axes, columns) -> bool:
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
    # the 8 bytes from each offset, read as one little-endian word
    words = np.ndarray((size,), "<u8", padded, 0, (1,))
    # (dimension, measure, algorithm, function, value); the file orders the
    # fields dimension, measure, function, algorithm, value
    texts = [_texts(words, lo, hi) for lo, hi in (
        (starts, commas[:, 0]), (commas[:, 0] + 1, commas[:, 1]),
        (commas[:, 2] + 1, commas[:, 3]), (commas[:, 1] + 1, commas[:, 2]),
        (commas[:, 3] + 1, ends))]
    if any(field is None for field in texts):
        return False
    *labels, values = texts
    try:
        values = values.astype(float)  # float() of each text
    except ValueError:
        return False
    if not np.isfinite(values).all():
        return False
    for number, (axis, field) in enumerate(zip(axes, labels)):
        # texts of one word group fastest as the integers they pack into
        keys = field.view("<u8") if field.itemsize == 8 else field
        distinct, first, inverse = np.unique(keys, return_index=True,
                                             return_inverse=True)
        distinct = distinct.view(field.dtype).tolist()
        position = np.empty(first.size, np.int32)
        for g in np.argsort(first).tolist():  # first appearance order
            label = AXIS_PARSERS[number](distinct[g].decode())
            position[g] = axis.setdefault(label, len(axis))
        columns[number].frombytes(position[inverse].tobytes())
    columns[4].frombytes(values.tobytes())
    return True


def _texts(words: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """The texts of the [lo, hi) byte ranges as one fixed-width bytes array;
    None if a range is over _MAX_FIELD_WORDS words.

    Each text is packed into little-endian 8-byte words, zero-padded; numpy
    drops the trailing NULs, and a plain file has none, so each item is its
    text exactly.
    """
    lengths = hi - lo
    count = max(1, -(-int(lengths.max()) // 8))
    if count > _MAX_FIELD_WORDS:
        return None
    last = words.size - 1
    packed = np.empty((lo.size, count), "<u8")
    for w in range(count):
        packed[:, w] = words[np.minimum(lo + 8 * w, last)] \
            & _BYTE_MASKS[np.clip(lengths - 8 * w, 0, 8)]
    return packed.view(f"S{8 * count}")[:, 0]


def save_long_csv(dataset: PerformanceDataset, path) -> Path:
    """Write a dataset in long format, in axis order; skips missing cells."""
    ordered = dataset.array.transpose(0, 1, 3, 2)  # rows run d, p, f, a
    present = ~np.isnan(ordered)
    cells = zip(np.argwhere(present).tolist(), ordered[present].tolist())
    axes = (dataset.dimensions, dataset.measures, dataset.algorithms,
            dataset.functions)
    return write_files({Path(path): partial(
        _write_rows, rows=_long_rows(axes, cells))})[0]


def load_rank_matrix_csv(path) -> DecisionMatrix:
    """Load an algorithm,criteria... table; labels keep file order."""
    path = Path(path)
    rows = _data_rows(path)
    try:
        header_line, header = next(rows)
    except StopIteration:
        raise EmptyMatrix(f"{path}: file is empty") from None
    if len(header) < 2:
        raise EmptyMatrix(f"{path}: header has no criterion columns")
    criteria = tuple(header[1:])
    fault = label_fault("criterion", criteria)
    if fault is not None:
        raise ParseError(f"{path}:{header_line}: {fault[1]}")
    labels: list[str] = []
    numbers: list[int] = []
    data: list[list[float]] = []
    for number, row in rows:
        if len(row) != len(header):
            raise ParseError(f"{path}:{number}: expected {len(header)} fields, "
                             f"got {len(row)}")
        labels.append(row[0])
        numbers.append(number)
        parsed = []
        for name, cell in zip(criteria, row[1:]):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(f"{path}:{number}: column {name!r} is not "
                                 f"a number: {cell!r}") from None
            if not math.isfinite(value):
                raise NonFiniteValue(f"{path}:{number}: column {name!r} is "
                                     f"not finite: {cell!r}")
            parsed.append(value)
        data.append(parsed)
    if not data:
        raise EmptyMatrix(f"{path}: no data rows")
    fault = label_fault("alternative", labels)
    if fault is not None:
        raise ParseError(f"{path}:{numbers[fault[0]]}: {fault[1]}")
    return DecisionMatrix(np.array(data), tuple(labels), criteria)


# -- report rendering -------------------------------------------------------

_ONE_LINE = str.maketrans({"\r": "\\r", "\n": "\\n"})


def one_line(text: str) -> str:
    """text with each CR and LF shown as the two characters '\\r' or '\\n',
    so a label keeps to one line of a table; other text keeps its bytes."""
    return text.translate(_ONE_LINE)


# one pass: a cell's own '\' is doubled, so no '|' escape can be undone
_MARKDOWN_CELL = {**_ONE_LINE, ord("\\"): "\\\\", ord("|"): "\\|"}


def _write_markdown(handle, rows: Iterable[Sequence[str]]) -> None:
    """Rows, the header first, as a markdown table with '\\' and '|'
    escaped and CR and LF shown by one_line."""
    for number, cells in enumerate(rows):
        handle.write("| " + " | ".join(c.translate(_MARKDOWN_CELL)
                                       for c in cells) + " |\n")
        if number == 0:
            handle.write("|" + "|".join(" --- " for _ in cells) + "|\n")


# an encoded label holds '%' only in these escapes, never as '%~'
_FILE_NAME_ESCAPES = str.maketrans({"%": "%25", "/": "%2F", "\0": "%00"})
_NAME_MAX = 255  # bytes in one file name on common file systems


def dimension_file_name(label, ext: str) -> str:
    """File name of a dimension's report table: dimension_<label>.<ext>
    with '%', '/' and NUL percent-encoded. A name over _NAME_MAX bytes is
    cut and ends in '%~' plus 16 hex digits of the label's sha256; no
    encoded label holds '%~', so labels whose texts differ keep distinct
    names (no dataset holds both 10 and '10')."""
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
    """Write one file per aggregation level, all or nothing (write_files);
    byte-deterministic. Files: leaf_ranks, one per dimension node named by
    dimension_file_name (matrix plus its rank column), final_matrix, and
    final_ranking (algorithm,score,hra_rank), all from report.nodes."""
    if fmt not in ("csv", "markdown"):
        raise ShapeMismatch(f"unknown report format {fmt!r}")
    write, ext = ((_write_rows, "csv") if fmt == "csv"
                  else (_write_markdown, "md"))
    destination = Path(destination)
    algorithms, overall = report.algorithms, report.nodes[-1]
    tables = {f"leaf_ranks.{ext}": [
        ("dimension", "measure", "algorithm", "rank"),
        *([str(node.key[1]), str(node.key[2]), a, format_number(r)]
          for node in report.level("leaf")
          for a, r in zip(algorithms, node.result.ranks))]}
    for node in report.level("dimension"):
        tables[dimension_file_name(node.key[1], ext)] = [
            ("algorithm",) + node.matrix.criterion_labels + ("rank",),
            *([a] + [format_number(v) for v in row] + [format_number(r)]
              for a, row, r in zip(algorithms, node.matrix.values,
                                   node.result.ranks))]
    tables[f"final_matrix.{ext}"] = [
        ("algorithm",) + overall.matrix.criterion_labels,
        *([a] + [format_number(v) for v in row]
          for a, row in zip(algorithms, overall.matrix.values))]
    tables[f"final_ranking.{ext}"] = [("algorithm", "score", "hra_rank")] + [
        [a, format_number(s), format_number(r)]
        for a, s, r in zip(algorithms, overall.result.closeness,
                           overall.result.ranks)]
    return write_files({destination / name: partial(write, rows=rows)
                        for name, rows in tables.items()})
