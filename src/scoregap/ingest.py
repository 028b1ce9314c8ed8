"""CSV loading, categorical encoding, and subgroup splitting.

The experiment pipeline consumes plain CSV files with a header row. An
encoding manifest says, per column, whether values pass through as
numbers or map through an explicit ordinal scale. Grouping specs are
declarative predicates on raw column values, so the same split is
reproducible from the config file alone.
"""

from __future__ import annotations

import csv
import itertools
import operator
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    CsvParseError,
    IngestError,
    MissingColumnError,
    ShapeMismatchError,
    UnmappedCategoryError,
)
from .linalg import as_matrix, as_vector, frozen, min_norm_least_squares

# Cell values treated as missing; rows containing one in any used column
# are dropped (and counted) rather than imputed.
MISSING_TOKENS = frozenset({"", "?", "NA", "N/A", "nan", "NaN"})

PASSTHROUGH = "passthrough"

# name -> PASSTHROUGH, ordered category list (mapped to 1..n), or explicit
# category -> number mapping
ManifestSpec = Mapping[str, Union[str, Sequence[str], Mapping[str, float]]]


def normalize_manifest(manifest: Optional[ManifestSpec]) -> Dict[str, Optional[Dict[str, float]]]:
    """Resolve manifest shorthand to {column: None | category->value dict}.

    None means passthrough. An ordered list [a, b, c] becomes a->1, b->2,
    c->3, preserving the stated ordering.
    """
    out: Dict[str, Optional[Dict[str, float]]] = {}
    for name, spec in (manifest or {}).items():
        if spec == PASSTHROUGH or spec is None:
            out[name] = None
        elif isinstance(spec, Mapping):
            out[name] = {str(k): float(v) for k, v in spec.items()}
        elif isinstance(spec, (list, tuple)):
            out[name] = {str(cat): float(i) for i, cat in enumerate(spec, start=1)}
        else:
            raise IngestError(f"bad encoding spec for column {name!r}: {spec!r}")
    return out


def _encode_category(raw: str, mapping: Dict[str, float]) -> Optional[float]:
    """The number a categorical cell maps to, or None when it maps to nothing."""
    if raw in mapping:
        return mapping[raw]
    # Already-encoded values pass through, so applying a manifest twice is
    # a no-op.
    try:
        num = float(raw)
    except ValueError:
        return None
    return num if num in mapping.values() else None


def _cell_error(raw: str, mapping: Optional[Dict[str, float]], row: int, column: str) -> IngestError:
    if mapping is None:
        return CsvParseError(row, column, f"not numeric: {raw!r}")
    return UnmappedCategoryError(column, raw)


def _encode_column(cells: Tuple[str, ...], mapping: Optional[Dict[str, float]]
                   ) -> Tuple[Optional[np.ndarray], Optional[int]]:
    """Encode one column of kept cells: (values, None), or (None, index of its first bad cell).

    Passthrough cells go through float() as one pass over the column.
    Categorical cells map through a table built once per distinct value;
    distinct values come in first-occurrence order, so the first one that
    maps to nothing is also the column's first bad cell.
    """
    if mapping is None:
        rest = iter(cells)
        try:
            return np.fromiter(map(float, rest), dtype=float, count=len(cells)), None
        except ValueError:
            # the cell float() rejected is the last one taken from `rest`
            return None, len(cells) - operator.length_hint(rest) - 1
    table = {}
    for raw in dict.fromkeys(cells):
        value = _encode_category(raw, mapping)
        if value is None:
            return None, cells.index(raw)
        table[raw] = value
    return np.fromiter(map(table.__getitem__, cells), dtype=float, count=len(cells)), None


@dataclass(frozen=True, eq=False)
class Dataset:
    """Encoded table plus the raw text that grouping predicates test."""

    column_names: Tuple[str, ...]
    rows: np.ndarray
    raw_columns: Dict[str, Tuple[str, ...]]
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
        self.column_index(name)
        return self.raw_columns[name]

    def feature_names(self, drop: Sequence[str] = ()) -> Tuple[str, ...]:
        for name in drop:
            self.column_index(name)
        dropped = set(drop)
        return tuple(n for n in self.column_names if n not in dropped)

    def feature_matrix(self, drop: Sequence[str] = ()) -> np.ndarray:
        """All columns except `drop`, in file order."""
        keep = [self.column_index(n) for n in self.feature_names(drop)]
        return self.rows[:, keep]


def load_csv(path: str, manifest: Optional[ManifestSpec] = None) -> Dataset:
    """Load a header-row CSV, encoding columns per the manifest.

    Unlisted columns pass through as numbers. Rows with a missing cell in
    any column are dropped and counted in n_dropped. Row numbers in errors
    count CSV records, the header being row 1; they are file line numbers
    unless a quoted cell spans lines. A file with several bad cells or
    ragged rows raises the error of the first in file order.
    """
    norm = normalize_manifest(manifest)
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise IngestError(f"cannot open {path}: {exc}") from None
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path} is empty; a header row is required") from None
        names = tuple(h.strip() for h in header)
        if len(set(names)) != len(names):
            raise IngestError(f"{path} has duplicate column names")
        for name in norm:
            if name not in names:
                raise MissingColumnError(f"manifest names column {name!r} not present in {path}")

        records = list(reader)

    # Nothing after the first ragged row is read: its error wins unless a
    # bad cell comes before it.
    lengths = np.fromiter(map(len, records), dtype=np.intp, count=len(records))
    ragged = np.flatnonzero(lengths != len(names))
    stop = int(ragged[0]) if ragged.size else len(records)
    columns = list(zip(*records[:stop]))
    del records
    for j, cells in enumerate(columns):
        # in place, so each column's unstripped text is freed as we go
        columns[j] = tuple(map(str.strip, cells))

    keep = np.ones(stop, dtype=bool)
    for cells in columns:
        if not MISSING_TOKENS.isdisjoint(cells):
            keep &= ~np.fromiter(map(MISSING_TOKENS.__contains__, cells), dtype=bool, count=stop)
    if not keep.all():
        columns = [tuple(itertools.compress(cells, keep)) for cells in columns]
    row_numbers = np.flatnonzero(keep) + 2  # file rows; the header is row 1

    encoded = [_encode_column(cells, norm.get(n)) for n, cells in zip(names, columns)]
    bad = [(first, j) for j, (_, first) in enumerate(encoded) if first is not None]
    if bad:
        i, j = min(bad)  # row-major: earliest row, then leftmost column
        raise _cell_error(columns[j][i], norm.get(names[j]), int(row_numbers[i]), names[j])
    if ragged.size:
        raise CsvParseError(stop + 2, "<row>", f"expected {len(names)} cells, got {lengths[stop]}")
    if not row_numbers.size:
        raise IngestError(f"{path} contains no usable data rows")
    return Dataset(
        column_names=names,
        rows=np.column_stack([values for values, _ in encoded]),
        raw_columns=dict(zip(names, columns)),
        n_dropped=stop - int(row_numbers.size),
    )


@dataclass(frozen=True)
class GroupPredicate:
    """Declarative row test on one raw column.

    Comparators le/lt/ge/gt parse the raw value as a number; eq/ne/in
    compare text, accepting a numeric match as equal so "1" and "1.0"
    agree.
    """

    column: str
    op: str
    value: object

    _NUMERIC_OPS = ("le", "lt", "ge", "gt")
    _SET_OPS = ("eq", "ne", "in")

    def __post_init__(self):
        if self.op not in self._NUMERIC_OPS + self._SET_OPS:
            raise IngestError(f"unknown comparator {self.op!r}")

    def _values(self) -> Tuple[object, ...]:
        if self.op == "in":
            if not isinstance(self.value, (list, tuple, set, frozenset)):
                raise IngestError(f"'in' comparator needs a value list, got {self.value!r}")
            return tuple(self.value)
        return (self.value,)

    def matches(self, raw: str) -> bool:
        if self.op in self._NUMERIC_OPS:
            try:
                x = float(raw)
                threshold = float(self.value)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                raise IngestError(
                    f"comparator {self.op!r} on column {self.column!r} needs numeric "
                    f"values, got cell {raw!r} vs {self.value!r}"
                ) from None
            return {"le": x <= threshold, "lt": x < threshold, "ge": x >= threshold, "gt": x > threshold}[self.op]
        hit = any(_text_equal(raw, v) for v in self._values())
        return not hit if self.op == "ne" else hit


def _text_equal(raw: str, value: object) -> bool:
    if raw == str(value):
        return True
    try:
        return float(raw) == float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return False


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


def _predicate_mask(pred: GroupPredicate, raw: Sequence[str]) -> np.ndarray:
    """pred.matches over a raw column, called once per distinct value.

    Distinct values are visited in first-occurrence order, so a numeric
    comparator still fails on the first non-numeric cell in row order.
    """
    answers = {value: pred.matches(value) for value in dict.fromkeys(raw)}
    return np.fromiter(map(answers.__getitem__, raw), dtype=bool, count=len(raw))


def split_masks(ds: Dataset, spec: GroupingSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Boolean row masks for the two groups; disjoint by construction or error."""
    mask1 = _predicate_mask(spec.group1, ds.raw_column(spec.group1.column))
    if spec.group2 is None:
        mask2 = ~mask1
    else:
        mask2 = _predicate_mask(spec.group2, ds.raw_column(spec.group2.column))
        overlap = int(np.sum(mask1 & mask2))
        if overlap:
            raise IngestError(
                f"grouping {spec.name!r}: predicates overlap on {overlap} rows"
            )
    return mask1, mask2


def fit_ground_truth(x_mat, y) -> np.ndarray:
    """Fit a true-quality rule from observed outcomes by min-norm least squares."""
    x = as_matrix(x_mat, "X")
    yv = as_vector(y, "y")
    return min_norm_least_squares(x, yv)


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
