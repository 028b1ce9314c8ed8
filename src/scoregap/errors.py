"""Exception types raised across the package.

Every error that callers are expected to branch on gets its own class;
all inherit from ScoregapError so a CLI can catch the whole family.
Only `opening` and `naming` turn a caught error into one about outside input.
"""

from __future__ import annotations

from contextlib import contextmanager


class ScoregapError(Exception):
    """Base class for all package-specific errors."""


def captured(fn, *args):
    """fn(*args), or the ScoregapError it raised, kept for the entry that raises it later."""
    try:
        return fn(*args)
    except ScoregapError as exc:
        return exc


# ---------------------------------------------------------------------------
# linear algebra primitives


class NonFiniteError(ScoregapError):
    """An array contains NaN or Inf entries."""


class EmptyDataError(ScoregapError):
    """A data matrix has zero rows."""


class RankTooLargeError(ScoregapError):
    """Requested projection rank exceeds min(n_rows, dim)."""


class ShapeMismatchError(ScoregapError):
    """Two arrays that must agree in shape do not."""


class DimensionMismatchError(ScoregapError):
    """Operands live in spaces of different dimension."""


class NotPositiveDefiniteError(ScoregapError):
    """A matrix required to be symmetric positive definite is not."""


# ---------------------------------------------------------------------------
# agents / principal / metrics


class EmptyPeerSetError(ScoregapError):
    """A peer dataset holds no observations."""


class DegenerateObjectiveError(ScoregapError):
    """The welfare objective is identically zero for this population."""


class ZeroProjectedRuleError(ScoregapError):
    """The rule projects to (numerically) zero in the group subspace, so
    per-unit quantities are undefined."""


class EpsilonOutOfRangeError(ScoregapError):
    """The disparity-example parameter must lie strictly inside (0, 1)."""


# ---------------------------------------------------------------------------
# ingest


class IngestError(ScoregapError):
    """Base class for dataset-loading problems."""


class CsvParseError(IngestError):
    """A cell failed to parse; carries 1-based row and the column name."""

    def __init__(self, row: int, column: str, message: str):
        super().__init__(f"row {row}, column {column!r}: {message}")
        self.row = row
        self.column = column


class UnmappedCategoryError(IngestError):
    """An ordinal column saw a category absent from its mapping."""

    def __init__(self, column: str, value: str):
        super().__init__(f"column {column!r}: unmapped category {value!r}")
        self.column = column
        self.value = value


class MissingColumnError(IngestError):
    """A referenced column is not present in the file."""


class EmptyGroupError(IngestError):
    """A grouping predicate assigned zero rows to one side."""


# ---------------------------------------------------------------------------
# configuration / model files


class ConfigError(ScoregapError):
    """An experiment config or model file is invalid; message carries the
    offending field path."""


@contextmanager
def opening(path: str, what: str = "", error: type = ConfigError):
    """Wraps the reads of the input file at `path`: an OSError or a UnicodeDecodeError there becomes `error`."""
    try:
        yield
    except OSError as exc:
        raise error(f"cannot open {what}{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: byte 0x{exc.object[exc.start]:02x} cannot be decoded") from None


@contextmanager
def naming(field: str | None = None, catch: type | tuple = ScoregapError):
    """Wraps the checks of an outside value: a `catch` error there becomes a ConfigError, prefixed `field: `."""
    try:
        yield
    except catch as exc:
        raise ConfigError(f"{field}: {exc}" if field else str(exc)) from None
