"""What hra's file input and output need without numpy.

The rule for a cell's runs (check_runs, RawRuns, and _checked_runs for
lists that already passed it), the dimension label parse, the error for a
file that is not UTF-8, the all-or-nothing writer (write_files) and the
chunk queue that spreads a parse over two CPUs (parse_chunks). dataio
imports what it needs of them back. `hra stats` parses its run files with
only this module, fetch and exceptions loaded, so it can fork while it has
one thread and no numpy, and load numpy while its child parses.
"""

from __future__ import annotations

import contextlib
import math
import os
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

from .exceptions import EmptyRuns, IoError, NonFiniteValue, ParseError


def check_runs(name, values) -> tuple[float, ...]:
    """The rule for one cell's runs, with name first in any error: at least
    one run, each finite and not negative; the first bad value raises."""
    runs = tuple(map(float, values))
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
        object.__setattr__(self, "runs", {
            key: check_runs(key, values) for key, values in self.runs.items()})


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


def _not_utf8(source, exc: UnicodeDecodeError) -> ParseError:
    return ParseError(f"{source}: not UTF-8 text: cannot decode "
                      f"{exc.object[exc.start:exc.end]!r}")


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
# parse_chunks). Forking costs about 2 ms and wins from about 1.25 MiB on a
# 2-vCPU host, for a long CSV and for a run directory alike.
_FORK_BYTES = 3 << 19  # 1.5 MiB
# The queue holds one 4-byte id per chunk, written at once before the fork:
# 4096 bytes at most is one atomic write that fits any Linux pipe.
MAX_CHUNKS = 1024


def _forks(size: int, count: int) -> bool:
    """Whether parse_chunks forks: the input is over _FORK_BYTES in 2 to
    MAX_CHUNKS chunks, the process may run on at least 2 CPUs, and it has
    exactly one thread, so fork() copies no lock that another thread
    holds."""
    if size <= _FORK_BYTES or not 1 < count <= MAX_CHUNKS \
            or not hasattr(os, "fork"):
        return False
    try:
        return len(os.sched_getaffinity(0)) >= 2 \
            and len(os.listdir("/proc/self/task")) == 1
    except (AttributeError, OSError):  # no affinity call or no /proc
        return False


def parse_chunks(parse: Callable[[int], object], count: int, size: int,
                 prepare: Callable[[], object] | None = None,
                 order: Sequence[int] | None = None) -> list:
    """[parse(0), ..., parse(count - 1)] for the chunks of a size-byte
    input, or the error of the first chunk, in that order, that raises.

    When _forks(size, count), a child from os.fork() and this process take
    chunk ids from one queue (see _Child). The child starts at once; this
    process runs prepare() first and then takes chunks too, so the split
    balances itself however long prepare() takes. A chunk whose result did
    not arrive, because the child raised, failed or was killed, is parsed
    here, so the result never depends on the child. If a chunk taken here
    raises, the child is killed and the earlier chunks it took are parsed
    here, so that an earlier error is raised first. The child is always
    reaped.

    Otherwise every chunk is parsed here after prepare(), in order or in
    the order given (for tests).
    """
    child = None
    if order is None and _forks(size, count):
        with contextlib.suppress(OSError):  # no process: all chunks run here
            child = _Child(parse, count)
    done: dict[int, object] = {}
    failed = None
    try:
        if prepare is not None:
            prepare()
        for index in _taken(child.queue) if child else order or range(count):
            try:
                done[index] = parse(index)
            except Exception as exc:
                failed = index, exc
                break
        if child and failed is None:
            done.update(child.results())
    finally:
        if child:
            child.end()
    if failed is not None:
        index, exc = failed
        for earlier in range(index):
            if earlier not in done:
                parse(earlier)
        raise exc
    return [done[index] if index in done else parse(index)
            for index in range(count)]


def _taken(queue: int):
    """The chunk ids this process takes from the queue, until it is empty."""
    while len(data := os.read(queue, 4)) == 4:
        yield int.from_bytes(data, "little")


class _Child:
    """A child from os.fork() that parses the chunks it takes from a queue.

    The queue is a pipe that holds the ids 0..count-1, written before the
    fork in one write and closed, so a read finds it empty at the end. A
    4-byte read from a pipe is atomic, so each id is taken by one process.
    The child stops when the queue is empty or at its first chunk that
    raises, and sends {id: result} of the chunks it parsed through a second
    pipe as one pickle, which the parent loads from the pipe; the unpickler
    reads a numpy array's data straight into place. It ends with os._exit.
    """

    def __init__(self, parse: Callable[[int], object], count: int):
        fds = []
        try:
            fds += os.pipe()  # the queue: read end, write end
            fds += os.pipe()  # the child's results: read end, write end
            os.write(fds[1], b"".join(index.to_bytes(4, "little")
                                      for index in range(count)))
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        queue, fill, results, send = fds
        os.close(fill)  # in both processes: an empty queue reads as its end
        if pid == 0:
            os.close(results)
            _child(queue, send, parse)
        os.close(send)
        self.queue, self.pipe, self.pid = queue, results, pid
        self.whole = False  # whether the child's whole result arrived

    def results(self) -> dict:
        """{id: result} of the chunks the child parsed; {} if its whole
        result does not arrive."""
        import pickle

        with open(self.pipe, "rb", closefd=False) as pipe:
            try:
                done = pickle.load(pipe)
            except Exception:  # the child's output is never trusted whole
                return {}
        self.whole = True
        return done

    def end(self) -> None:
        """Close the pipes, kill the child unless its whole result arrived,
        and reap it; a caller that ignores SIGCHLD may have no child left."""
        import signal

        os.close(self.queue)
        os.close(self.pipe)
        if not self.whole:
            with contextlib.suppress(ProcessLookupError):
                os.kill(self.pid, signal.SIGKILL)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(self.pid, 0)


def _child(queue: int, send: int, parse: Callable[[int], object]) -> None:
    """The forked child: parse the chunks taken from the queue until it is
    empty or one raises, send {id: result} of those parsed as one pickle,
    and exit with status 0; any failure exits with status 1. Never
    returns."""
    status = 1
    try:
        import pickle

        done = {}
        # a chunk that raises is parsed again by the parent, which raises
        with contextlib.suppress(Exception):
            for index in _taken(queue):
                done[index] = parse(index)
        with open(send, "wb") as pipe:
            pickle.dump(done, pipe, 5)
        status = 0
    finally:
        os._exit(status)
