"""Exception hierarchy for the hra package.

Everything raised on purpose derives from HraError so callers can catch one
type. Each concrete error belongs to one of three families, which fix the
command-line exit code and the stderr prefix of its diagnostic:
ParseFailure (2), ValidationFailure (3) and IoFailure (4).
"""


class HraError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 3
    prefix = "error"


class ParseFailure(HraError):
    """An input file or text is malformed; exit code 2."""

    exit_code = 2
    prefix = "parse error"


class ValidationFailure(HraError):
    """Well-formed input violates a model rule; exit code 3."""

    exit_code = 3
    prefix = "validation error"


class IoFailure(HraError):
    """A filesystem, network or raw-layout problem; exit code 4."""

    exit_code = 4
    prefix = "i/o error"


# -- validation -------------------------------------------------------------

class ShapeMismatch(ValidationFailure):
    """Array/label/weight lengths do not agree."""


class DomainViolation(ValidationFailure):
    """A matrix value falls outside its criterion's fixed domain."""


class DegenerateDomain(ValidationFailure):
    """Criterion domain has d1 >= d2."""


class ZeroUpperBound(ValidationFailure):
    """Criterion domain upper bound d2 <= 0; max normalization's x/d2 needs
    d2 > 0."""


class DegenerateIdeals(ValidationFailure):
    """S+ + S- is zero for some alternative, so closeness is undefined."""


class InvalidWeights(ValidationFailure):
    """Weights are not all positive or do not sum to 1 within tolerance."""


class MissingCell(ValidationFailure):
    """A dataset lacks values for one or more (dimension, measure,
    algorithm, function) tuples."""

    def __init__(self, missing):
        self.missing = list(missing)
        preview = ", ".join(map(str, self.missing[:5]))
        more = "" if len(self.missing) <= 5 else f" and {len(self.missing) - 5} more"
        super().__init__(f"dataset is missing {len(self.missing)} cell(s): {preview}{more}")


class EmptyRuns(ValidationFailure):
    """A run list is empty; statistics are undefined."""


class InconsistentStatistics(ValidationFailure):
    """Statistic values violate best <= median/mean <= worst, best <= worst
    or std >= 0."""


# -- parsing ----------------------------------------------------------------

class ParseError(ParseFailure):
    """Malformed input file; message carries row/column diagnostics."""


class DuplicateTuple(ParseFailure):
    """The same dataset cell appears twice in one file."""


class EmptyMatrix(ParseFailure):
    """A matrix file contains no data rows or no criterion columns."""


class NonFiniteValue(ParseFailure):
    """A NaN or infinity appeared where a finite number is required."""


# -- I/O and network --------------------------------------------------------

class IoError(IoFailure):
    """Filesystem operation failed."""


class NetworkError(IoFailure):
    """Download failed."""


class ChecksumMismatch(IoFailure):
    """Fetched file does not match its inventory checksum."""


class UnknownLayout(IoFailure):
    """Raw run file does not match any supported layout."""
