"""Raw result retrieval and parsing.

A source is any URL prefix (http(s) or file) that serves an inventory file
listing `relative-path,byte-count,sha256-hex` per line. fetch_raw mirrors
those files into a destination directory, verifies each against the
inventory, skips files that already verify, and writes the same lines back
out as `manifest.csv`. A path is percent-encoded, '/' kept, in the URL it
is fetched from; the local file and the manifest keep its text.

Run files are named `<algorithm>_<function>_<dimension>.txt` (the algorithm
part may itself contain underscores) anywhere under the directory. Two
layouts are recognized:

* a flat list of numbers: one final error value per run;
* a rectangular matrix with at least two rows: convergence checkpoints per
  row, one column per run, of which only the last row (final errors) is
  kept.

Anything else raises UnknownLayout instead of guessing.

A plain run file (see _plain_runs) is checked token by token without
converting the rows it discards; any other file goes through the text loop,
which gives the same values and is the source of every error.
load_raw_runs lists the run files in one pass, takes every key from the
file names, and parses the files in two halves through files.parse_halves,
cut at the first file at or past the middle byte. This module loads no
numpy, so when the files are large enough the process, which has one
thread, forks, and its child parses the second half while it parses the
first. The halves joined keep the keys, values and errors of one pass.
"""

from __future__ import annotations

import bisect
import itertools
import os
import re
import stat
from dataclasses import dataclass
from pathlib import Path, PurePosixPath
from urllib.parse import quote

from .exceptions import (
    ChecksumMismatch,
    IoError,
    NetworkError,
    ParseError,
    UnknownLayout,
)
from .files import (RawRuns, _checked_runs, _crlf_only, _not_utf8,
                    _parse_dimension, check_runs, parse_halves, write_files)

MANIFEST_NAME = "manifest.csv"
INVENTORY_NAME = "inventory.txt"
URL_TIMEOUT_S = 60.0  # per urlopen call; a stalled source fails, not hangs
_SHA256 = re.compile(r"[0-9a-fA-F]{64}")


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    size: int
    sha256: str

    def line(self) -> str:
        return f"{self.path},{self.size},{self.sha256}"


@dataclass(frozen=True)
class FetchResult:
    manifest_path: Path
    downloaded: tuple[str, ...]
    skipped: tuple[str, ...]


def _sha256(path: Path) -> str:
    import hashlib  # only `hra fetch` needs it; keeps `import hra` lean

    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _read_url(url: str) -> bytes:
    """The body at url; any failure to get all of it is a NetworkError,
    such as a malformed URL (ValueError) or a body cut short
    (http.client.IncompleteRead)."""
    import http.client
    import urllib.error
    import urllib.request  # loads http.client, ssl, email: only on fetch

    try:
        with urllib.request.urlopen(url, timeout=URL_TIMEOUT_S) as response:
            return response.read()
    except (urllib.error.URLError, OSError, ValueError,
            http.client.HTTPException) as exc:
        raise NetworkError(f"cannot fetch {url}: {exc}") from exc


def parse_inventory(text: str, origin: str) -> list[ManifestEntry]:
    """Entries of an inventory; every path must stay inside the mirror, so
    an absolute or empty path or a '..' component is a ParseError, and so
    is a path that names the manifest or repeats an earlier line's path,
    compared as normalised paths ('./a//b' is 'a/b'). The byte count must
    be ASCII digits and the sha256 exactly 64 hex digits, both after
    stripping blanks."""
    entries, first_line = [], {}
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(f"{origin}:{number}: expected "
                             f"'path,bytes,sha256', got {line!r}")
        path, size_text, sha = (part.strip() for part in parts)
        if not (size_text.isascii() and size_text.isdigit()):
            raise ParseError(f"{origin}:{number}: byte count is not a "
                             f"decimal integer: {size_text!r}")
        if not _SHA256.fullmatch(sha):
            raise ParseError(f"{origin}:{number}: sha256 is not 64 hex "
                             f"digits: {sha!r}")
        normalised = PurePosixPath(path)
        parts = normalised.parts
        if not parts or path.startswith("/") or ".." in parts:
            raise ParseError(f"{origin}:{number}: path must be relative and "
                             f"stay inside the destination, got {path!r}")
        if normalised == PurePosixPath(MANIFEST_NAME):
            raise ParseError(f"{origin}:{number}: path {path!r} is where "
                             f"the manifest is written")
        if normalised in first_line:
            raise ParseError(f"{origin}:{number}: path {path!r} repeats "
                             f"line {first_line[normalised]}")
        first_line[normalised] = number
        entries.append(ManifestEntry(path=path, size=int(size_text),
                                     sha256=sha.lower()))
    if not entries:
        raise ParseError(f"{origin}: inventory lists no files")
    return entries


def write_manifest(entries, path: Path) -> Path:
    return write_files({path: lambda handle: handle.writelines(
        e.line() + "\n" for e in entries)})[0]


def fetch_raw(source_url: str, destination) -> FetchResult:
    """Mirror a source's inventory into destination; idempotent.

    A file already present with the inventoried checksum is skipped; a
    download whose bytes do not match raises ChecksumMismatch naming the
    file and nothing is recorded for it.
    """
    import hashlib

    destination = Path(destination)
    source_url = source_url.rstrip("/")
    inventory_url = f"{source_url}/{INVENTORY_NAME}"
    try:
        inventory = _read_url(inventory_url).decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise _not_utf8(inventory_url, exc) from None
    entries = parse_inventory(inventory, inventory_url)
    downloaded, skipped = [], []
    for entry in entries:
        local = destination / entry.path
        if local.exists() and local.stat().st_size == entry.size \
                and _sha256(local) == entry.sha256:
            skipped.append(entry.path)
            continue
        payload = _read_url(f"{source_url}/{quote(entry.path)}")
        actual = hashlib.sha256(payload).hexdigest()
        if len(payload) != entry.size or actual != entry.sha256:
            raise ChecksumMismatch(
                f"{entry.path}: got {len(payload)} bytes / sha256 {actual}, "
                f"inventory says {entry.size} bytes / {entry.sha256}")
        write_files({local: lambda handle: handle.buffer.write(payload)})
        downloaded.append(entry.path)
    manifest = write_manifest(entries, destination / MANIFEST_NAME)
    return FetchResult(manifest_path=manifest, downloaded=tuple(downloaded),
                       skipped=tuple(skipped))


# -- run-file parsing -------------------------------------------------------

# A plain run file holds only ASCII digits, '.eE+-', space, tab, '\r' and
# '\n', each '\r' the first byte of a CRLF (files._crlf_only), and every
# token has this float-literal shape, a strict subset of what float()
# accepts. Tokens are checked as shapes: _SHAPE_TABLE maps each digit to
# '0' and any other byte outside that set to 'x', which no shape holds, so
# the shapes alone decide whether a file is plain.
_FLOAT_SHAPE = re.compile(rb"[+-]?(?:0+\.?0*|\.0+)(?:[eE][+-]?0+)?")
_SHAPE_TABLE = bytes(ord("0") if b in b"0123456789"
                     else b if b in b".eE+- \t\r\n" else ord("x")
                     for b in range(256))


def _parse_run_file(path, known: set[bytes]) -> tuple[float, ...]:
    """A run file's kept values: the plain path when the file is plain,
    otherwise the text loop. known is as for _plain_runs."""
    try:  # unbuffered: half the time of Path.read_bytes
        with open(path, "rb", buffering=0) as handle:
            data = handle.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    values = _plain_runs(data, known)
    return _parse_run_text(path, data) if values is None else values


def _plain_runs(data: bytes, known: set[bytes]) -> tuple[float, ...] | None:
    """The kept values of a plain run file that is one row, one value per
    line or a rectangular matrix; None for any other file.

    Every token is validated by its shape, but float() runs only on the
    values that are kept. known holds shapes already matched, and the
    shapes this file matches are added to it; files of one directory share
    a few dozen shapes. A CRLF reads as LF: split() drops its CR as a
    blank.
    """
    if not _crlf_only(data):
        return None
    widths, shapes = set(), set()
    for line in data.translate(_SHAPE_TABLE).split(b"\n"):
        tokens = line.split()
        if tokens:
            widths.add(len(tokens))
            shapes.update(tokens)
    if len(widths) != 1:  # empty or ragged: the text loop says which
        return None
    unknown = shapes - known
    if not all(map(_FLOAT_SHAPE.fullmatch, unknown)):
        return None
    known.update(unknown)
    if widths == {1}:  # one number per line (or a single number)
        return tuple(map(float, data.split()))
    # one row, or a checkpoint matrix whose last row is the final errors
    return tuple(map(float, data.rstrip().rpartition(b"\n")[2].split()))


def _parse_run_text(path, data: bytes) -> tuple[float, ...]:
    """The reference text loop over the bytes of the run file at path; the
    source of every run-file error. One leading byte-order mark is
    skipped."""
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([float(tok) for tok in line.split()])
        except ValueError:
            raise UnknownLayout(f"{path}: non-numeric content") from None
    if not rows:
        raise UnknownLayout(f"{path}: file holds no numbers")
    widths = {len(r) for r in rows}
    if len(rows) == 1:
        return tuple(rows[0])
    if widths == {1}:  # one number per line: a flat run list
        return tuple(r[0] for r in rows)
    if len(widths) == 1:  # checkpoint matrix: last row = final errors
        return tuple(rows[-1])
    raise UnknownLayout(f"{path}: ragged rows (widths {sorted(widths)}); "
                        "expected a flat list or a rectangular matrix")


def load_raw_runs(directory) -> RawRuns:
    """Parse every `<algorithm>_<function>_<dimension>.txt` under directory;
    each file's values pass check_runs once, so its errors name the file."""
    return _load_runs(Path(directory))


def _load_runs(directory: Path, cut: int | None = None) -> RawRuns:
    """load_raw_runs, the files it parses cut in two halves at the first
    file at or past their middle byte (or before file cut, for tests). A
    file whose key repeats an earlier file's raises the duplicate error,
    found from the names before any file is read, after the errors of the
    files before it, which alone are parsed. So keys, values and errors
    are those of one pass."""
    if not directory.is_dir():
        raise IoError(f"not a directory: {directory}")
    files, sizes = _run_files(directory)
    keys = list(map(_key, files))
    first = {}
    repeat = next((i for i, key in enumerate(keys)
                   if first.setdefault(key, i) != i), len(keys))
    starts = list(itertools.accumulate(sizes[:repeat], initial=0))
    cut = bisect.bisect_left(starts, starts[-1] // 2) if cut is None \
        else min(cut, repeat)
    halves = files[:cut], files[cut:repeat]
    known: set[bytes] = set()  # token shapes matched so far, per process

    def parse(half: int) -> list[tuple[float, ...]]:
        return [check_runs(path, _parse_run_file(path, known))
                for path in halves[half]]

    values = parse_halves(parse, (starts[cut], starts[-1] - starts[cut]))
    if repeat < len(files):
        raise ParseError(f"{files[repeat]}: duplicate run file for "
                         f"{keys[repeat]}")
    if not files:
        raise ParseError(f"{directory}: no run files found "
                         "(expected <algorithm>_<function>_<dimension>.txt)")
    return _checked_runs(
        dict(zip(keys, itertools.chain.from_iterable(values))))


def _run_files(directory: Path) -> tuple[list[str], list[int]]:
    """The run files under directory and their sizes, sorted by their path
    parts, so `a/b.txt` comes before `a-b.txt`: each regular file, or
    symlink to one, named `.txt` with a stem in three parts, as
    directory.rglob("*.txt") finds them. Subdirectories are walked with
    names sorted, and symlinks to directories are not followed; one stat
    per candidate file gives its type and size. Each path reads as the
    Path that rglob gives would print."""
    files, sizes = [], []

    def walk(folder: str) -> None:
        try:
            with os.scandir(folder or ".") as scan:
                entries = sorted(scan, key=lambda entry: entry.name)
        except PermissionError:  # as rglob, which skips such a directory
            return
        for entry in entries:
            path = os.path.join(folder, entry.name)
            if entry.is_dir(follow_symlinks=False):
                walk(path)
            elif entry.name.endswith(".txt") \
                    and len(entry.name[:-4].rsplit("_", 2)) == 3:
                try:
                    status = entry.stat()
                except OSError:  # a dangling symlink: no file
                    continue
                if stat.S_ISREG(status.st_mode):
                    files.append(path)
                    sizes.append(status.st_size)

    walk("" if str(directory) == "." else str(directory))
    return files, sizes


def _key(path: str) -> tuple:
    """The (dimension, algorithm, function) key of a run file's name."""
    algorithm, function, dim_text = \
        os.path.basename(path)[:-4].rsplit("_", 2)
    return _parse_dimension(dim_text), algorithm, function
