"""Raw result retrieval and parsing.

A source is any URL prefix (http(s) or file) that serves an inventory file
listing `relative-path,byte-count,sha256-hex` per line. fetch_raw mirrors
those files into a destination directory, verifies each against the
inventory, skips files that already verify, and writes the same lines back
out as `manifest.csv`.

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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path, PurePosixPath

from .dataio import RawRuns, _parse_dimension, _not_utf8
from .exceptions import (
    ChecksumMismatch,
    IoError,
    NetworkError,
    ParseError,
    UnknownLayout,
)

MANIFEST_NAME = "manifest.csv"
INVENTORY_NAME = "inventory.txt"
URL_TIMEOUT_S = 60.0  # per urlopen call; a stalled source fails, not hangs


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
    entries: tuple[ManifestEntry, ...]
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
    import urllib.error
    import urllib.request  # loads http.client, ssl, email: only on fetch

    try:
        with urllib.request.urlopen(url, timeout=URL_TIMEOUT_S) as response:
            return response.read()
    except (urllib.error.URLError, OSError) as exc:
        raise NetworkError(f"cannot fetch {url}: {exc}") from exc


def parse_inventory(text: str, origin: str) -> list[ManifestEntry]:
    """Entries of an inventory; every path must stay inside the mirror, so
    an absolute or empty path or a '..' component is a ParseError."""
    entries = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(f"{origin}:{number}: expected "
                             f"'path,bytes,sha256', got {line!r}")
        path, size_text, sha = parts
        try:
            size = int(size_text)
        except ValueError:
            raise ParseError(f"{origin}:{number}: byte count is not an "
                             f"integer: {size_text!r}") from None
        path = path.strip()
        parts = PurePosixPath(path).parts
        if not parts or path.startswith("/") or ".." in parts:
            raise ParseError(f"{origin}:{number}: path must be relative and "
                             f"stay inside the destination, got {path!r}")
        entries.append(ManifestEntry(path=path, size=size,
                                     sha256=sha.strip().lower()))
    if not entries:
        raise ParseError(f"{origin}: inventory lists no files")
    return entries


def write_manifest(entries, path: Path) -> Path:
    path.write_text("".join(e.line() + "\n" for e in entries),
                    encoding="utf-8")
    return path


def fetch_raw(source_url: str, destination) -> FetchResult:
    """Mirror a source's inventory into destination; idempotent.

    A file already present with the inventoried checksum is skipped; a
    download whose bytes do not match raises ChecksumMismatch naming the
    file and nothing is recorded for it.
    """
    import hashlib

    destination = Path(destination)
    try:
        destination.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {destination}: {exc}") from exc
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
        payload = _read_url(f"{source_url}/{entry.path}")
        actual = hashlib.sha256(payload).hexdigest()
        if len(payload) != entry.size or actual != entry.sha256:
            raise ChecksumMismatch(
                f"{entry.path}: got {len(payload)} bytes / sha256 {actual}, "
                f"inventory says {entry.size} bytes / {entry.sha256}")
        try:
            local.parent.mkdir(parents=True, exist_ok=True)
            local.write_bytes(payload)
        except OSError as exc:
            raise IoError(f"cannot write {local}: {exc}") from exc
        downloaded.append(entry.path)
    manifest = write_manifest(entries, destination / MANIFEST_NAME)
    return FetchResult(manifest_path=manifest, entries=tuple(entries),
                       downloaded=tuple(downloaded), skipped=tuple(skipped))


# -- run-file parsing -------------------------------------------------------

# A plain run file holds only ASCII digits, '.eE+-', space, tab and '\n',
# and every token has this float-literal shape, a strict subset of what
# float() accepts. Tokens are checked as shapes: _SHAPE_TABLE maps each
# digit to '0' and any other byte outside that set to 'x', which no shape
# holds, so the shapes alone decide whether a file is plain.
_FLOAT_SHAPE = re.compile(rb"[+-]?(?:0+\.?0*|\.0+)(?:[eE][+-]?0+)?")
_SHAPE_TABLE = bytes(ord("0") if b in b"0123456789"
                     else b if b in b".eE+- \t\n" else ord("x")
                     for b in range(256))


def _parse_run_file(path: Path, known: set[bytes]) -> tuple[float, ...]:
    """A run file's kept values: the plain path when the file is plain,
    otherwise the text loop. known is as for _plain_runs."""
    values = _plain_runs(path.read_bytes(), known)
    return _parse_run_text(path) if values is None else values


def _plain_runs(data: bytes, known: set[bytes]) -> tuple[float, ...] | None:
    """The kept values of a plain run file that is one row, one value per
    line or a rectangular matrix; None for any other file.

    Every token is validated by its shape, but float() runs only on the
    values that are kept. known holds shapes already matched, and the
    shapes this file matches are added to it; files of one directory share
    a few dozen shapes.
    """
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


def _parse_run_text(path: Path) -> tuple[float, ...]:
    """The reference text loop; the source of every run-file error. One
    leading byte-order mark is skipped."""
    try:
        text = path.read_text(encoding="utf-8-sig")
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


def load_raw_runs(directory, expected_runs: int | None = None) -> RawRuns:
    """Parse every `<algorithm>_<function>_<dimension>.txt` under directory.

    expected_runs, when given, enforces the per-cell run count (51 for
    CEC'17).
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise IoError(f"not a directory: {directory}")
    runs: dict[tuple, tuple[float, ...]] = {}
    known: set[bytes] = set()  # token shapes matched so far
    for path in sorted(directory.rglob("*.txt")):
        parts = path.stem.rsplit("_", 2)
        if len(parts) != 3 or not parts[0]:
            continue  # not a run file (readme etc.)
        algorithm, function, dim_text = parts
        key = (_parse_dimension(dim_text), algorithm, function)
        if key in runs:
            raise ParseError(f"{path}: duplicate run file for {key}")
        values = _parse_run_file(path, known)
        if expected_runs is not None and len(values) != expected_runs:
            raise ParseError(f"{path}: {len(values)} runs, "
                             f"expected {expected_runs}")
        runs[key] = values
    if not runs:
        raise ParseError(f"{directory}: no run files found "
                         "(expected <algorithm>_<function>_<dimension>.txt)")
    return RawRuns(runs)
