"""CSV loading, categorical encoding, and subgroup splitting.

The experiment pipeline consumes plain CSV files with a header row. An
encoding manifest says, per column, whether values pass through as
numbers or map through an explicit ordinal scale. Grouping specs are
declarative predicates on raw column values, so the same split is
reproducible from the config file alone.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import operator
import re
import warnings
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    CsvParseError,
    IngestError,
    MissingColumnError,
    ShapeMismatchError,
    UnmappedCategoryError,
    opening,
)
from .linalg import as_matrix, frozen

# Cell values treated as missing; rows containing one in any used column
# are dropped (and counted) rather than imputed.
MISSING_TOKENS = frozenset({"", "?", "NA", "N/A", "nan", "NaN"})

PASSTHROUGH = "passthrough"

# name -> PASSTHROUGH, ordered category list (mapped to 1..n), or explicit
# category -> number mapping
ManifestSpec = Mapping[str, Union[str, Sequence[str], Mapping[str, float]]]

# mapped column -> (texts, codes); see Dataset
RawColumns = Dict[str, Tuple[Tuple[str, ...], np.ndarray]]


def normalize_manifest(manifest: Optional[ManifestSpec]) -> Dict[str, Optional[Dict[str, float]]]:
    """Resolve manifest shorthand to {column: None | category->value dict}.

    None means passthrough. An ordered list [a, b, c] becomes a->1, b->2,
    c->3, preserving the stated ordering. IngestError names what is not a
    mapping, a spec or a finite number, and a category (as text) given twice.
    """
    manifest = {} if manifest is None else manifest
    if not isinstance(manifest, Mapping):
        raise IngestError(f"bad encoding manifest: expected a mapping of column names to specs, got {manifest!r}")
    out: Dict[str, Optional[Dict[str, float]]] = {}
    for name, spec in manifest.items():
        if spec == PASSTHROUGH or spec is None:
            out[name] = None
        elif isinstance(spec, (Mapping, list, tuple)):
            codes = out[name] = {}
            for cat, code in spec.items() if isinstance(spec, Mapping) else zip(spec, itertools.count(1)):
                number = _number(code)
                if number is None or not abs(number) < np.inf:  # false for nan
                    raise IngestError(f"bad encoding spec for column {name!r}: {cat!r} maps to {code!r}, not a finite number")
                if str(cat) in codes:
                    raise IngestError(f"bad encoding spec for column {name!r}: category {str(cat)!r} is given twice")
                codes[str(cat)] = number
        else:
            raise IngestError(f"bad encoding spec for column {name!r}: {spec!r}")
    return out


def _number(value: object) -> Optional[float]:
    """float(value), or None where float() refuses it (an int past the float range matches no number)."""
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError, OverflowError):
        return None


def _encode_category(raw: str, mapping: Dict[str, float]) -> Optional[float]:
    """The number a categorical cell maps to, or None when it maps to nothing."""
    if raw in mapping:
        return mapping[raw]
    # Already-encoded values pass through, so applying a manifest twice is
    # a no-op.
    num = _number(raw)
    return num if num in mapping.values() else None


@dataclass(frozen=True, eq=False)
class Dataset:
    """Encoded table plus what grouping predicates test.

    `raw_columns` holds each mapped column as (texts, codes): kept row i's
    stripped text is texts[codes[i]]. Every other column is passthrough:
    its values are float() of its text, and predicates on it compare numbers.
    """

    column_names: Tuple[str, ...]
    rows: np.ndarray
    raw_columns: RawColumns
    n_dropped: int = 0

    def __post_init__(self):
        object.__setattr__(self, "rows", frozen(as_matrix(self.rows, "rows")))
        if self.rows.shape[1] != len(self.column_names):
            raise ShapeMismatchError(
                f"{self.rows.shape[1]} columns of data for {len(self.column_names)} names"
            )

    @property
    def size(self) -> int:
        return self.rows.shape[0]

    def column_index(self, name: str) -> int:
        try:
            return self.column_names.index(name)
        except ValueError:
            raise MissingColumnError(f"no column named {name!r}") from None

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.column_index(name)]

    def raw_column(self, name: str) -> Tuple[str, ...]:
        """Stripped text of a mapped column's kept cells.

        Raises MissingColumnError for a column the table lacks, and
        IngestError for a passthrough column, which keeps numbers only.
        """
        self.column_index(name)
        if name not in self.raw_columns:
            raise IngestError(f"column {name!r} has no text; a passthrough column keeps numbers only")
        texts, codes = self.raw_columns[name]
        return tuple(map(texts.__getitem__, codes.tolist()))

    def feature_names(self, drop: Sequence[str] = ()) -> Tuple[str, ...]:
        for name in drop:
            self.column_index(name)
        dropped = set(drop)
        return tuple(n for n in self.column_names if n not in dropped)

    def feature_matrix(self, drop: Sequence[str] = ()) -> np.ndarray:
        """All columns except `drop`, in file order."""
        keep = [self.column_index(n) for n in self.feature_names(drop)]
        return self.rows[:, keep]


def _read_rows(reader: Iterable[Sequence[str]], names: Tuple[str, ...],
               mappings: Sequence[Optional[Dict[str, float]]]) -> Tuple[np.ndarray, RawColumns, int]:
    """Read csv records one at a time: (kept rows, (texts, codes) per mapped column, rows read).

    A record is checked for its length, stripped, dropped if a cell is a
    missing token, and else encoded cell by cell, so the first ragged row
    or bad cell in file order is the error raised.
    """
    values, row = array("d"), 1  # the header is row 1
    seen = {j: (defaultdict(itertools.count().__next__), array("q")) for j, m in enumerate(mappings) if m is not None}
    for row, record in enumerate(reader, start=2):
        if len(record) != len(names):
            raise CsvParseError(row, "<row>", f"expected {len(names)} cells, got {len(record)}")
        cells = [cell.strip() for cell in record]
        if not MISSING_TOKENS.isdisjoint(cells):
            continue
        for raw, name, mapping in zip(cells, names, mappings):
            try:
                value = float(raw) if mapping is None else _encode_category(raw, mapping)
            except ValueError:
                value = None
            if value is None:
                raise (CsvParseError(row, name, f"not numeric: {raw!r}") if mapping is None
                       else UnmappedCategoryError(name, raw))
            values.append(value)
        for j, (ids, codes) in seen.items():
            codes.append(ids[cells[j]])
    rows = np.frombuffer(values, dtype=float).reshape(-1, len(names))
    return rows, {names[j]: (tuple(ids), np.array(codes, dtype=np.min_scalar_type(len(ids))))
                  for j, (ids, codes) in seen.items()}, row - 1


def _loadtxt_table(body: str, names: Tuple[str, ...], mappings: Sequence[Optional[Dict[str, float]]]
                   ) -> Optional[Tuple[np.ndarray, RawColumns, int]]:
    """np.loadtxt's reading of the body: (kept rows, (texts, codes) per mapped column, rows read), or None.

    A body with no '.' and no "-0" (which int64 reads as 0; `re` finds it
    faster than `in`) is read as int64 and cast, faster than the float parse
    and to the same values. `encoding=None` gives the converters text on
    numpy 1.x too. A mapped cell reads as the
    index (its code) of its raw text among its column's distinct texts, each
    then stripped, tested for a missing token and encoded once (nan if it
    maps to nothing). None, for the row reader, unless the body has no '"'
    and the table has one row per line, one column per name and finite kept rows.
    """
    if '"' in body or not body.strip():  # quoting is csv's job; loadtxt warns on a blank body
        return None
    lines = body.split("\n")
    seen = {j: defaultdict(itertools.count().__next__) for j, m in enumerate(mappings) if m is not None}
    parse = functools.partial(np.loadtxt, lines, delimiter=",", comments=None, ndmin=2, encoding=None,
                              converters={j: ids.__getitem__ for j, ids in seen.items()})
    try:
        with warnings.catch_warnings():  # numpy 1.x parses "1e-5" as an int through a float, warning
            warnings.simplefilter("error", DeprecationWarning)
            rows = None if "." in body or re.search("-0", body) else parse(dtype=np.int64)
    except (ValueError, OverflowError, DeprecationWarning):
        rows = None
    try:
        rows = parse(dtype=float) if rows is None else rows.astype(float)
    except ValueError:
        return None
    n_read = len(lines) - (not lines[-1])
    if rows.shape != (n_read, len(names)):
        return None
    keep, text = np.ones(n_read, dtype=bool), {}
    for j, ids in seen.items():
        stripped = tuple(raw.strip() for raw in ids)
        values = np.array([_encode_category(t, mappings[j]) for t in stripped], dtype=float)
        codes = rows[:, j].astype(np.min_scalar_type(len(ids)))
        keep &= ~np.fromiter(map(MISSING_TOKENS.__contains__, stripped), dtype=bool, count=len(ids))[codes]
        rows[:, j] = np.take(values, codes)
        text[names[j]] = (stripped, codes)
    if not keep.all():
        rows = rows[keep]
        text = {name: (stripped, codes[keep]) for name, (stripped, codes) in text.items()}
    return (rows, text, n_read) if np.isfinite(rows).all() else None


def load_csv(path: str, manifest: Optional[ManifestSpec] = None) -> Dataset:
    """Load a header-row CSV, encoding columns per the manifest.

    Unlisted columns pass through as numbers. Rows with a missing cell in
    any column are dropped and counted in n_dropped. Row numbers in errors
    count CSV records, the header being row 1; they are file line numbers
    unless a quoted cell spans lines. A file with several bad cells or
    ragged rows raises the error of the first in file order. A leading
    UTF-8 byte-order mark is skipped.

    numpy's C `loadtxt` reads the body first (`_loadtxt_table`), as int64 if
    it can. A body it cannot take whole is read one csv record at a time
    (`_read_rows`, which raises every parse error) from a UTF-8 bytes copy of the
    body, since an `io.StringIO` takes 4 bytes a character.
    Every mapped column keeps its text as codes (`Dataset.raw_columns`).
    """
    norm = normalize_manifest(manifest)
    with opening(path, error=IngestError), open(path, newline="", encoding="utf-8-sig") as handle:
        header = next(csv.reader(handle), None)
        if header is None:
            raise IngestError(f"{path} is empty; a header row is required")
        names = tuple(h.strip() for h in header)
        if not names:
            raise IngestError(f"{path} has a blank header row")
        if len(set(names)) != len(names):
            raise IngestError(f"{path} has duplicate column names")
        for name in norm:
            if name not in names:
                raise MissingColumnError(f"manifest names column {name!r} not present in {path}")

        mappings = [norm.get(n) for n in names]
        body = handle.read()

    table = _loadtxt_table(body, names, mappings)
    if table is None:
        reader = csv.reader(io.TextIOWrapper(io.BytesIO(body.encode()), "utf-8", newline=""))
        del body
        table = _read_rows(reader, names, mappings)
    rows, raw_columns, n_read = table
    if not len(rows):
        raise IngestError(f"{path} contains no usable data rows")
    if not np.isfinite(rows).all():  # inf, 1e400 or NAN, after every parse error; "nan" is a missing token
        column = names[np.argwhere(~np.isfinite(rows))[0, 1]]
        raise IngestError(f"{path}: column {column!r} holds a non-finite value")
    return Dataset(names, rows, raw_columns, n_dropped=n_read - len(rows))


@dataclass(frozen=True)
class GroupPredicate:
    """Declarative row test on one raw column.

    Comparators le/lt/ge/gt parse the raw value as a number; eq/ne/in
    compare text, accepting a numeric match as equal so "1" and "1.0"
    agree. Construction checks `value`: le/lt/ge/gt need one that float()
    accepts and that is not a bool, and in needs a list.
    """

    column: str
    op: str
    value: object

    _NUMERIC_OPS = ("le", "lt", "ge", "gt")
    _SET_OPS = ("eq", "ne", "in")

    def __post_init__(self):
        if self.op not in self._NUMERIC_OPS + self._SET_OPS:
            raise IngestError(f"unknown comparator {self.op!r}")
        if self.op == "in" and not isinstance(self.value, (list, tuple, set, frozenset)):
            raise IngestError(f"'in' comparator needs a value list, got {self.value!r}")
        if self.op in self._NUMERIC_OPS and (isinstance(self.value, bool) or _number(self.value) is None):
            raise IngestError(f"comparator {self.op!r} needs a numeric value, got {self.value!r}")

    def matches(self, raw: str) -> bool:
        x = _number(raw)
        if self.op in self._NUMERIC_OPS:
            if x is None:
                raise IngestError(
                    f"comparator {self.op!r} on column {self.column!r} needs numeric "
                    f"values, got cell {raw!r} vs {self.value!r}"
                )
            return getattr(operator, self.op)(x, float(self.value))  # type: ignore[arg-type]
        values = self.value if self.op == "in" else (self.value,)
        hit = any(raw == str(v) or (x is not None and x == _number(v)) for v in values)
        return not hit if self.op == "ne" else hit


@dataclass(frozen=True)
class GroupingSpec:
    """Assigns each row to group 1, group 2, or neither.

    group2 = None means "everything group 1 does not match", so no row is
    excluded. With two explicit predicates, rows matching neither are
    excluded and rows matching both are an error.
    """

    name: str
    group1: GroupPredicate
    group2: Optional[GroupPredicate] = None


def _predicate_mask(pred: GroupPredicate, ds: Dataset) -> np.ndarray:
    """pred.matches over a column.

    A passthrough column compares numbers, as `matches` does the repr of a
    finite float: le/lt/ge/gt with float(value), eq/ne/in by np.isin with each
    value float() accepts, but nan. Mapped text is tested once per code in
    the kept rows, in first-occurrence order: a numeric comparator fails on
    the first non-numeric kept cell in row order, and never on dropped text.
    """
    if pred.column not in ds.raw_columns:  # a passthrough column, or one the table lacks
        if pred.op in pred._NUMERIC_OPS:
            return getattr(operator, pred.op)(ds.column(pred.column), float(pred.value))  # type: ignore[arg-type]
        values = pred.value if pred.op == "in" else (pred.value,)
        numbers = [x for x in map(_number, values) if x is not None and x == x]
        return np.isin(ds.column(pred.column), numbers, invert=pred.op == "ne")
    texts, codes = ds.raw_columns[pred.column]
    answers = np.zeros(len(texts), dtype=bool)
    for code in codes[np.sort(np.unique(codes, return_index=True)[1])].tolist():  # in first-kept-row order
        answers[code] = pred.matches(texts[code])
    return answers[codes]


def split_masks(ds: Dataset, spec: GroupingSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Row masks for the two groups, disjoint or an error; passthrough columns are tested as numbers."""
    mask1 = _predicate_mask(spec.group1, ds)
    if spec.group2 is None:
        mask2 = ~mask1
    else:
        mask2 = _predicate_mask(spec.group2, ds)
        overlap = int(np.sum(mask1 & mask2))
        if overlap:
            raise IngestError(
                f"grouping {spec.name!r}: predicates overlap on {overlap} rows"
            )
    return mask1, mask2


def standardize_columns(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Center each column and scale unit variance; constant columns stay centered.

    Returns (standardized, means, stds) with stds as used (zeros replaced
    by one).
    """
    x = as_matrix(matrix, "matrix")
    means = x.mean(axis=0)
    stds = x.std(axis=0)
    stds = np.where(stds > 0, stds, 1.0)
    return (x - means) / stds, means, stds
