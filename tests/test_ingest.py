import csv
import os
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from scoregap import (
    CsvParseError,
    EmptyGroupError,
    ExperimentConfig,
    GroupPredicate,
    GroupingSpec,
    IngestError,
    MissingColumnError,
    ShapeMismatchError,
    UnmappedCategoryError,
    load_csv,
    run_analysis,
    split_masks,
    standardize_columns,
)
from scoregap import ingest
from scoregap.ingest import MISSING_TOKENS, Dataset, normalize_manifest
from scoregap.linalg import min_norm_least_squares


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


NUMERIC_CSV = "age,income,score\n30,50000,1.5\n25,42000,-0.5\n41,61000,2.0\n"

MIXED_CSV = (
    "age,grade,label\n"
    "30,good,1\n"
    "25,bad,0\n"
    "41,great,1\n"
    "33,good,0\n"
)


class TestLoadCsv:
    def test_numeric_passthrough(self, tmp_path):
        ds = load_csv(write_csv(tmp_path, NUMERIC_CSV))
        assert ds.column_names == ("age", "income", "score")
        assert ds.size == 3
        np.testing.assert_array_equal(ds.column("age"), [30, 25, 41])
        np.testing.assert_array_equal(ds.column("score"), [1.5, -0.5, 2.0])
        assert ds.n_dropped == 0

    def test_ordinal_list_encoding(self, tmp_path):
        ds = load_csv(write_csv(tmp_path, MIXED_CSV),
                      manifest={"grade": ["bad", "good", "great"]})
        np.testing.assert_array_equal(ds.column("grade"), [2, 1, 3, 2])

    def test_explicit_mapping(self, tmp_path):
        ds = load_csv(write_csv(tmp_path, MIXED_CSV),
                      manifest={"grade": {"bad": -1, "good": 0, "great": 5}})
        np.testing.assert_array_equal(ds.column("grade"), [0, -1, 5, 0])

    def test_unmapped_category(self, tmp_path):
        with pytest.raises(UnmappedCategoryError) as info:
            load_csv(write_csv(tmp_path, MIXED_CSV), manifest={"grade": ["bad", "good"]})
        assert info.value.column == "grade"
        assert info.value.value == "great"

    def test_manifest_names_absent_column(self, tmp_path):
        with pytest.raises(MissingColumnError):
            load_csv(write_csv(tmp_path, NUMERIC_CSV), manifest={"nope": ["a"]})

    def test_non_numeric_cell_reports_position(self, tmp_path):
        text = "a,b\n1,2\n3,oops\n"
        with pytest.raises(CsvParseError) as info:
            load_csv(write_csv(tmp_path, text))
        assert info.value.row == 3  # header is file line 1
        assert info.value.column == "b"

    def test_ragged_row(self, tmp_path):
        text = "a,b\n1,2\n3\n"
        with pytest.raises(CsvParseError) as info:
            load_csv(write_csv(tmp_path, text))
        assert info.value.row == 3

    def test_missing_tokens_drop_rows(self, tmp_path):
        text = "a,b\n1,2\n?,3\n4,NA\n5,6\n7,\n8,nan\n"
        ds = load_csv(write_csv(tmp_path, text))
        assert ds.size == 2
        assert ds.n_dropped == 4
        np.testing.assert_array_equal(ds.column("a"), [1, 5])

    def test_all_rows_missing(self, tmp_path):
        with pytest.raises(IngestError):
            load_csv(write_csv(tmp_path, "a,b\n?,1\n2,NA\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(IngestError):
            load_csv(write_csv(tmp_path, ""))

    def test_blank_header_row(self, tmp_path):
        with pytest.raises(IngestError, match="blank header row"):
            load_csv(write_csv(tmp_path, "\n1\n\n"))

    def test_duplicate_header(self, tmp_path):
        with pytest.raises(IngestError):
            load_csv(write_csv(tmp_path, "a,a\n1,2\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError):
            load_csv(str(tmp_path / "absent.csv"))

    @pytest.mark.parametrize("text", [
        pytest.param("a,b\n1,\xff\n", id="data-cell"),
        pytest.param("a,\xff\n1,2\n", id="header"),
        # past the text layer's first read of the file
        pytest.param("a,b\n" + "1,2\n" * 5000 + "3,\xff\n", id="later-block"),
    ])
    def test_non_utf8_byte_names_the_file(self, tmp_path, text):
        path = tmp_path / "latin1.csv"
        path.write_bytes(text.encode("latin-1"))  # one byte per character, so \xff is not UTF-8
        with pytest.raises(IngestError) as info:
            load_csv(str(path))
        assert str(info.value) == f"{path} is not UTF-8 text: byte 0xff cannot be decoded"

    @pytest.mark.parametrize("quote", ["", '"'], ids=["loadtxt", "row-reader"])
    def test_a_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path, quote):
        text = MIXED_CSV.replace("30,", f"{quote}30{quote},")
        manifest = {"grade": ["bad", "good", "great"]}
        plain = _outcome(load_csv, write_csv(tmp_path, text), manifest)
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert _outcome(load_csv, str(path), manifest) == plain
        assert plain[-1] == ("age", "grade", "label")

    def test_encoding_is_idempotent(self, tmp_path):
        # a file whose cells already hold the encoded values loads unchanged
        manifest = {"grade": ["bad", "good", "great"]}
        ds = load_csv(write_csv(tmp_path, MIXED_CSV), manifest=manifest)
        encoded_text = "age,grade,label\n" + "\n".join(
            ",".join(f"{v:g}" for v in row) for row in ds.rows
        ) + "\n"
        again = load_csv(write_csv(tmp_path, encoded_text, name="again.csv"),
                         manifest=manifest)
        np.testing.assert_array_equal(again.rows, ds.rows)

    def test_deterministic_load(self, tmp_path):
        path = write_csv(tmp_path, MIXED_CSV)
        manifest = {"grade": ["bad", "good", "great"]}
        a = load_csv(path, manifest=manifest)
        b = load_csv(path, manifest=manifest)
        np.testing.assert_array_equal(a.rows, b.rows)
        assert a.column_names == b.column_names

    def test_rows_are_read_only(self, tmp_path):
        ds = load_csv(write_csv(tmp_path, NUMERIC_CSV))
        with pytest.raises(ValueError):
            ds.rows[0, 0] = 99.0


class TestErrorPrecedence:
    """Which error a file with several faults raises: the first in row-major file order."""

    def test_bad_cells_in_different_rows(self, tmp_path):
        with pytest.raises(CsvParseError) as info:
            load_csv(write_csv(tmp_path, "a,b\n1,x\ny,2\n"))
        assert (info.value.row, info.value.column) == (2, "b")

    def test_bad_cells_in_one_row(self, tmp_path):
        with pytest.raises(CsvParseError) as info:
            load_csv(write_csv(tmp_path, "a,b\nx,y\n"))
        assert (info.value.row, info.value.column) == (2, "a")

    def test_bad_cell_before_ragged_row(self, tmp_path):
        with pytest.raises(CsvParseError) as info:
            load_csv(write_csv(tmp_path, "a,b\n1,x\n3\n"))
        assert (info.value.row, info.value.column) == (2, "b")
        assert "not numeric" in str(info.value)

    def test_ragged_row_before_bad_cell(self, tmp_path):
        with pytest.raises(CsvParseError) as info:
            load_csv(write_csv(tmp_path, "a,b\n1\n3,x\n"))
        assert (info.value.row, info.value.column) == (2, "<row>")
        assert "expected 2 cells" in str(info.value)

    def test_ragged_row_with_missing_token_still_raises(self, tmp_path):
        with pytest.raises(CsvParseError) as info:
            load_csv(write_csv(tmp_path, "a,b\n1,2\n?\n"))
        assert (info.value.row, info.value.column) == (3, "<row>")

    def test_blank_line_is_a_ragged_row(self, tmp_path):
        with pytest.raises(CsvParseError) as info:
            load_csv(write_csv(tmp_path, "a,b\n1,2\n\n3,4\n"))
        assert (info.value.row, info.value.column) == (3, "<row>")

    def test_passthrough_error_before_later_unmapped_category(self, tmp_path):
        manifest = {"g": ["good", "bad"]}
        with pytest.raises(CsvParseError) as info:
            load_csv(write_csv(tmp_path, "a,g\n1,good\nx,zzz\n"), manifest=manifest)
        assert (info.value.row, info.value.column) == (3, "a")

    def test_unmapped_category_before_later_passthrough_error(self, tmp_path):
        manifest = {"g": ["good", "bad"]}
        with pytest.raises(UnmappedCategoryError) as info:
            load_csv(write_csv(tmp_path, "a,g\n1,zzz\nx,good\n"), manifest=manifest)
        assert (info.value.column, info.value.value) == ("g", "zzz")

    def test_bad_cell_in_dropped_row_is_not_an_error(self, tmp_path):
        ds = load_csv(write_csv(tmp_path, "a,b,g\nx,?,zzz\n1,2,good\n"),
                      manifest={"g": ["good"]})
        assert ds.size == 1 and ds.n_dropped == 1
        np.testing.assert_array_equal(ds.rows, [[1.0, 2.0, 1.0]])

    @pytest.mark.parametrize("cell", ["NAN", "inf", "-Infinity"])
    def test_non_finite_cells(self, tmp_path, cell):
        path = write_csv(tmp_path, f"a,b\n1,2\n3,{cell}\n")
        with pytest.raises(IngestError) as info:
            load_csv(path)
        assert type(info.value) is IngestError  # exit 3, as every other fault of the file
        assert str(info.value) == f"{path}: column 'b' holds a non-finite value"

    def test_parse_error_wins_over_later_non_finite_cell(self, tmp_path):
        with pytest.raises(CsvParseError) as info:
            load_csv(write_csv(tmp_path, "a,b\n1,inf\n2,x\n"))
        assert (info.value.row, info.value.column) == (3, "b")

    def test_quoted_cells_and_padded_categories(self, tmp_path):
        text = 'a,grade,c\n"1", good ,"2"\n" 3 ","bad"," 4.5"\n"5,0",good,6\n'
        with pytest.raises(CsvParseError) as info:
            load_csv(write_csv(tmp_path, text), manifest={"grade": ["bad", "good"]})
        assert (info.value.row, info.value.column) == (4, "a")
        ds = load_csv(write_csv(tmp_path, text.rsplit('"5,0"', 1)[0]), manifest={"grade": ["bad", "good"]})
        np.testing.assert_array_equal(ds.rows, [[1.0, 2.0, 2.0], [3.0, 1.0, 4.5]])
        # only the mapped column keeps its text; passthrough "a" is read as numbers
        assert (set(ds.raw_columns), ds.raw_column("grade")) == ({"grade"}, ("good", "bad"))

    def test_quoted_cell_spanning_lines_counts_as_one_row(self, tmp_path):
        # the bad cell sits on physical line 4 but in the third record
        with pytest.raises(CsvParseError) as info:
            load_csv(write_csv(tmp_path, 'a,b\n1,"2\n"\n3,x\n'))
        assert (info.value.row, info.value.column) == (3, "b")

    @pytest.mark.parametrize("form", ["1_000", "١", " 2 ", "infinity", "0x10", "1,0", "", "1e3", "-.5"])
    def test_passthrough_accepts_exactly_what_float_accepts(self, tmp_path, form):
        path = write_csv(tmp_path, f'a,b\n1,"{form}"\n2,3\n')
        stripped = form.strip()
        if stripped in MISSING_TOKENS:
            assert load_csv(path).n_dropped == 1
            return
        try:
            expected = float(stripped)
        except ValueError:
            with pytest.raises(CsvParseError):
                load_csv(path)
            return
        if not np.isfinite(expected):
            with pytest.raises(IngestError, match="holds a non-finite value$"):
                load_csv(path)
            return
        assert load_csv(path).rows[0, 1] == expected


def _reference_cell(raw, mapping, row, column):
    if mapping is None:
        try:
            return float(raw)
        except ValueError:
            raise CsvParseError(row, column, f"not numeric: {raw!r}") from None
    if raw in mapping:
        return mapping[raw]
    try:
        num = float(raw)
    except ValueError:
        raise UnmappedCategoryError(column, raw) from None
    if num in mapping.values():
        return num
    raise UnmappedCategoryError(column, raw)


def _coded(column, extra=()):
    """(texts, codes) of a column of kept cells: texts sorted, with the `extra` texts no kept cell holds."""
    texts = tuple(sorted(set(column).union(extra)))
    return texts, np.array([texts.index(c) for c in column], dtype=np.min_scalar_type(len(texts)))


def _reference_load(path, manifest):
    """Row-at-a-time loader, the reference load_csv must agree with."""
    norm = normalize_manifest(manifest)
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        names = tuple(h.strip() for h in next(reader))
        encoded, raw_rows, dropped = [], [], 0
        for line_no, record in enumerate(reader, start=2):
            if len(record) != len(names):
                raise CsvParseError(line_no, "<row>", f"expected {len(names)} cells, got {len(record)}")
            cells = [c.strip() for c in record]
            if any(c in MISSING_TOKENS for c in cells):
                dropped += 1
                continue
            encoded.append([_reference_cell(c, norm.get(n), line_no, n) for n, c in zip(names, cells)])
            raw_rows.append(cells)
    if not encoded:
        raise IngestError(f"{path} contains no usable data rows")
    infinite = [n for r in encoded for n, v in zip(names, r) if not np.isfinite(v)]
    if infinite:
        raise IngestError(f"{path}: column {infinite[0]!r} holds a non-finite value")
    return Dataset(column_names=names, rows=np.array(encoded, dtype=float),
                   raw_columns={n: _coded([r[j] for r in raw_rows]) for j, n in enumerate(names)
                                if norm.get(n) is not None},
                   n_dropped=dropped)


def _outcome(load, path, manifest):
    try:
        ds = load(path, manifest)
    except IngestError as exc:
        return type(exc).__name__, str(exc)
    return (ds.rows.tobytes(), ds.rows.shape, {n: ds.raw_column(n) for n in ds.raw_columns}, ds.n_dropped,
            ds.column_names)


# Cell text as it appears in the file: numbers, padding, quoting, missing
# tokens, categories of column g, non-numeric and non-finite values.
_NUMBER_CELLS = st.sampled_from(["1", " 2 ", "-3.5", "1e3", "-0", '"7"', '" 8"', "2.0"])
_CATEGORY_CELLS = st.sampled_from(["lo", " hi ", "1", "2.0"])
_ODD_CELLS = st.sampled_from(['"4,5"', "x", "?", "NA", "", " nan", "inf", "NAN", "3"])
_VALID_ROWS = st.tuples(_NUMBER_CELLS, _NUMBER_CELLS, _CATEGORY_CELLS).map(list)
_FILE_ROWS = st.one_of(
    _VALID_ROWS,
    st.tuples(_VALID_ROWS, st.integers(0, 2), _ODD_CELLS).map(
        lambda t: t[0][:t[1]] + [t[2]] + t[0][t[1] + 1:]),
    st.lists(st.one_of(_NUMBER_CELLS, _CATEGORY_CELLS, _ODD_CELLS), min_size=2, max_size=4),
)


def _assert_text_matches_reference(text, manifest):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        assert _outcome(load_csv, path, manifest) == _outcome(_reference_load, path, manifest)


class TestLoadCsvMatchesRowByRow:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(_FILE_ROWS, max_size=8))
    def test_same_result_or_same_error(self, rows):
        text = "a,b,g\n" + "".join(",".join(cells) + "\n" for cells in rows)
        _assert_text_matches_reference(text, {"g": ["lo", "hi"]})


# Cells and line ends for an all-passthrough file, which load_csv first
# hands to np.loadtxt: numbers, plus every form the C parser reads
# differently from float() or the row reader.
_NUMERIC_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["1", " 2 ", "-3.5", "1e3", "-0", "+7", ".5", "2.", "1E-3", "007", "1e400"]),
)
_HOSTILE_CELLS = st.sampled_from([
    "", "?", "NA", "N/A", "nan", "NaN", "NAN", " nan", "inf", "-Infinity", "1_000", "١",
    '"7"', '"4,5"', "#1", "# note", "2#3", "0x10", "x", "\ufeff1", "1 2", "\r",
])
_LINE_ENDS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])
_NUMERIC_ROWS = st.one_of(
    st.lists(_NUMERIC_CELLS, min_size=3, max_size=3),
    st.lists(_NUMERIC_CELLS, min_size=3, max_size=3).flatmap(
        lambda row: st.tuples(st.integers(0, 2), _HOSTILE_CELLS).map(
            lambda t: row[:t[0]] + [t[1]] + row[t[0] + 1:])),
    st.lists(st.one_of(_NUMERIC_CELLS, _HOSTILE_CELLS), max_size=4),  # blank, ragged, trailing comma
)


@st.composite
def _numeric_files(draw):
    """A header-row CSV text whose manifest maps no column."""
    header = draw(st.sampled_from(["a,b,c", "\ufeffa,b,c", "a, b ,c"]))
    lines = [header] + [",".join(cells) for cells in draw(st.lists(_NUMERIC_ROWS, max_size=8))]
    text = "".join(line + draw(_LINE_ENDS) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final newline
    return text


class TestNumericFastPath:
    """With no mapped column np.loadtxt parses the body, and load_csv gives
    what the row-by-row reference gives: the same values, names, dropped
    count and kept text, or the same error."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(text=_numeric_files())
    # a comment, a NaN and a blank line, which loadtxt alone would read,
    # and a CRLF file without a final newline, which both read
    @example(text="a,b,c\n1,2,2#3\n")
    @example(text="a,b,c\n1,2,nan\n4,5,6\n")
    @example(text="a,b,c\n1,2,3\n\n")
    @example(text="a,b,c\r\n1,2,3\r\n4,5,6")
    def test_same_result_or_same_error(self, text):
        _assert_text_matches_reference(text, {})

    def test_numeric_body_takes_the_fast_path(self, tmp_path):
        with mock.patch.object(ingest, "_read_rows", side_effect=AssertionError("row reader")):
            ds = load_csv(write_csv(tmp_path, NUMERIC_CSV))
        np.testing.assert_array_equal(ds.column("income"), [50000, 42000, 61000])
        assert ds.raw_columns == {}

    def test_a_mapped_body_takes_loadtxt(self, tmp_path):
        with mock.patch.object(ingest, "_read_rows", side_effect=AssertionError("row reader")), \
                mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as parser:
            ds = load_csv(write_csv(tmp_path, MIXED_CSV), {"grade": ["bad", "good", "great"]})
        assert parser.call_count == 1
        np.testing.assert_array_equal(ds.column("grade"), [2, 1, 3, 2])
        assert ds.raw_column("grade") == ("good", "bad", "great", "good")
        with pytest.raises(UnmappedCategoryError):  # an empty mapping still maps its column
            load_csv(write_csv(tmp_path, NUMERIC_CSV, name="numeric.csv"), {"score": {}})


# Files whose mapped columns g and h (h last) np.loadtxt reads as
# distinct-text indices. Most rows are ones loadtxt takes: keys of the
# manifest, padded with whitespace that str.strip removes, missing tokens,
# numeric text, and characters (NUL, '#', a BOM, '"', U+001C) that csv,
# str.strip and loadtxt might each read differently. At most one row is
# one that loadtxt cannot take: ragged, blank, whitespace only, quoted, or
# with a missing token in the passthrough column.
_MANIFESTS = st.sampled_from([
    {"g": ["lo", "hi", "mid", "top", 'q"t'], "h": {"x": 1, "y": 1, "z": 2.5}},  # h: two keys, one number
    {"g": {"lo": 2, "hi": 2, "#": 3, "lo#": 4, '"hi"': 5}, "h": ["z", "y", "x", "\x00"]},  # csv reads "hi" as hi
    {"h": {"x": 1.0, "z": 1_000.0, "lo": -1.0}},  # g passthrough
])
_PADDING = st.sampled_from(["{}", " {} ", "{}\x0b", "\x0c{}", "\x85{}", "\xa0{}", "{}\u2003", "\x1c{}\t"])
_MISSING_CELLS = st.sampled_from(["", " ", "?", " NA\t", "nan", "\x1c"])
_ODD_MAPPED_CELLS = st.sampled_from(["zz", "\ufefflo", "\x00", "#", "lo#", "1", "2.0", "1_000", "2.5"])
_HOSTILE_ROWS = st.one_of(
    st.lists(st.one_of(_NUMERIC_CELLS, _MISSING_CELLS, _ODD_MAPPED_CELLS), max_size=4),  # blank, ragged
    st.tuples(st.sampled_from(["?", "NA", "nan", "", "x", "inf", '"1"']), st.just("lo"), st.just("x")).map(list),
)


def _mapped_cells(mapping):
    if mapping is None:
        return _NUMERIC_CELLS
    keys = st.sampled_from(list(mapping)).flatmap(lambda key: _PADDING.map(lambda pad: pad.format(key)))
    return st.one_of(*[keys] * 12, _MISSING_CELLS, _ODD_MAPPED_CELLS)


@st.composite
def _mapped_files(draw):
    """(text, manifest): a header-row CSV for the columns a, g and h, and a manifest mapping h."""
    manifest = draw(_MANIFESTS)
    row = st.tuples(_NUMERIC_CELLS, _mapped_cells(manifest.get("g")), _mapped_cells(manifest["h"]))
    rows = [list(cells) for cells in draw(st.lists(row, max_size=8))]
    if draw(st.integers(0, 3)) == 0:
        rows.insert(draw(st.integers(0, len(rows))), draw(_HOSTILE_ROWS))
    end = draw(st.sampled_from(["\n"] * 4 + ["\r\n"] * 2 + ["\r"]))
    text = "".join(line + end for line in ["a,g,h"] + [",".join(cells) for cells in rows])
    return (text.rstrip("\r\n") if draw(st.booleans()) else text), manifest  # maybe no final newline


class TestMappedFastPath:
    """With mapped columns np.loadtxt parses the body into distinct-text
    indices, and load_csv still gives what the row-by-row reference gives."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(file=_mapped_files())
    # CRLF and a lone CR with a mapped last column; an empty mapped cell; a
    # missing token in a passthrough column; numeric keys that swap two
    # numbers; a key holding '"'; a quoted cell and lone CRs, which only the
    # row reader takes
    @example(file=("a,g,h\r\n1,lo,x\r\n2, hi ,y", {"g": ["lo", "hi"], "h": ["x", "y"]}))
    @example(file=("a,g,h\r1,lo,x\r2,hi,y\r", {"g": ["lo", "hi"], "h": ["x", "y"]}))
    @example(file=("a,g,h\n1,lo,\n2,hi,y\n", {"g": ["lo", "hi"], "h": ["x", "y"]}))
    @example(file=("a,g,h\n?,lo,x\n2,hi,y\n", {"g": ["lo", "hi"], "h": ["x", "y"]}))
    @example(file=("a,g,h\n1,1,x\n2,2,y\n", {"g": {"1": 2, "2": 1}, "h": ["x", "y"]}))
    @example(file=('a,g,h\n1,q"t,x\n2,lo,y\n', {"g": ["lo", 'q"t'], "h": ["x", "y"]}))
    @example(file=('a,g,h\r1,"lo",x\r2,hi,y', {"g": ["lo", "hi"], "h": ["x", "y"]}))
    def test_same_result_or_same_error(self, file):
        _assert_text_matches_reference(*file)

    def test_indices_give_each_row_its_code_and_text(self, tmp_path):
        # "x" and "y" map to one number, so the kept text is not rebuilt from the codes;
        # "2.5" is already encoded, and the row with "?" is dropped, so its unmapped "zz"
        # is never encoded, as in the row reader
        text = "a,g,h\n1,lo, x\n2,hi,y \n3,zz,?\n4,lo,2.5\n5,hi,x\n"
        manifest = {"g": ["lo", "hi"], "h": {"x": 1, "y": 1, "z": 2.5}}
        with mock.patch.object(ingest, "_read_rows", side_effect=AssertionError("row reader")):
            ds = load_csv(write_csv(tmp_path, text), manifest)
        np.testing.assert_array_equal(ds.rows, [[1, 1, 1], [2, 2, 1], [4, 1, 2.5], [5, 2, 1]])
        assert (ds.raw_column("h"), ds.raw_column("g"), ds.n_dropped) == (("x", "y", "2.5", "x"),
                                                                         ("lo", "hi", "lo", "hi"), 1)
        # the code is the index among the distinct raw texts, " x" and "x" apart
        texts, codes = ds.raw_columns["h"]
        assert (texts, codes.dtype, codes.tolist()) == (("x", "y", "?", "2.5", "x"), np.uint8, [0, 1, 3, 4])

    def test_converters_get_text_where_loadtxt_defaults_to_bytes(self, tmp_path):
        # numpy < 2 defaults loadtxt to encoding="bytes" and hands converters bytes,
        # which match no key and go through float(): this mapping would read 1 as 1.0
        path = write_csv(tmp_path, "a,g\n1,1\n2, 2\n3,?\n4,1\n")
        manifest = {"g": {"1": 2, "2": 1}}
        loadtxt = np.loadtxt

        def bytes_by_default(*args, **kwargs):
            return loadtxt(*args, **{"encoding": "bytes", **kwargs})

        with mock.patch.object(ingest, "_read_rows", side_effect=AssertionError("row reader")), \
                mock.patch.object(np, "loadtxt", bytes_by_default):
            ds = load_csv(path, manifest)
        np.testing.assert_array_equal(ds.column("g"), [2, 1, 2])
        assert (ds.raw_column("g"), ds.n_dropped) == (("1", "2", "1"), 1)
        assert _outcome(load_csv, path, manifest) == _outcome(_reference_load, path, manifest)

    @pytest.mark.parametrize("text", ['a,g\n1,"lo"\n', "a,g\n1,lo\n2,mid\n", "a,g\n1,lo\n2,hi,\n",
                                      "a,g\nx,lo\n", "a,g\nnan,lo\n", "a,g\n1,lo\n\n2,hi\n"])
    def test_what_loadtxt_cannot_take_goes_to_the_block_reader(self, tmp_path, text):
        path = write_csv(tmp_path, text)
        with mock.patch.object(ingest, "_read_rows", wraps=ingest._read_rows) as reader:
            outcome = _outcome(load_csv, path, {"g": ["lo", "hi"]})
        assert reader.called
        assert outcome == _outcome(_reference_load, path, {"g": ["lo", "hi"]})


# Cells of a body with no '.', which loadtxt first reads as int64: integers
# inside and past the int64 range, signed and padded zeros, and exponents,
# which the int parse refuses; mapped texts holding '-' beside them.
_INT_CELLS = st.one_of(
    st.integers(-2 ** 64, 2 ** 64).map(str),
    st.integers(-9, 9).map(str),
    st.sampled_from(["0", "-0", "-000", "+0", " 7 ", "007", "-07", "\t-12", "+3", "1e3", "1e-5", "?",
                     str(2 ** 53 + 1), str(-2 ** 53 - 1), str(2 ** 63), str(-2 ** 63), str(10 ** 19)]),
)
_DASH_MANIFEST = {"g": {"Self-emp": 1, "Never-married": -1, "-": 2, "x": 3}}
_DASH_TEXTS = st.sampled_from(["Self-emp", " Self-emp ", "-", "Never-married", "x", "-1", "3", "?"])


@st.composite
def _int_files(draw):
    """A CSV for the columns a, g and b, g mapped by _DASH_MANIFEST, maybe with a '1.5' or '1e-5' last row."""
    rows = draw(st.lists(st.tuples(_INT_CELLS, _DASH_TEXTS, _INT_CELLS).map(list), min_size=1, max_size=8))
    last = draw(st.sampled_from([None, None, "1.5", "1e-5"]))
    if last is not None:
        rows[-1][draw(st.sampled_from([0, 2]))] = last
    text = "a,g,b\n" + "".join(",".join(cells) + "\n" for cells in rows)
    return text.rstrip("\n") if draw(st.booleans()) else text


_LOADTXT = np.loadtxt


def _loadtxt_without_the_int_attempt(*args, **kwargs):
    if kwargs.get("dtype") is np.int64:
        raise ValueError("int64 attempt patched out")
    return _LOADTXT(*args, **kwargs)


class TestIntFastPath:
    """A body with no '.' or "-0" is read as int64 first, and gives what the float parse gives:
    the same bytes (so the sign of a zero counts), kept text and dropped count, or the same error."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(text=_int_files())
    @example(text="a,g,b\n-0,x,1\n-000,x,+0\n 7 ,x,007\n")
    @example(text=f"a,g,b\n{2 ** 53 + 1},x,{-2 ** 53 - 1}\n{2 ** 53 - 1},x,{1 - 2 ** 53}\n")
    @example(text=f"a,g,b\n{2 ** 63 - 1},x,{-2 ** 63}\n{2 ** 63},x,1\n")
    @example(text=f"a,g,b\n{-2 ** 63 - 1},x,1\n{10 ** 19 + 7},x,2\n")
    @example(text="a,g,b\n1,x,2\n3,x,4\n5,x,1e-5\n")
    @example(text="a,g,b\n1,x,2\n3,x,4\n1.5,x,6\n")
    @example(text="a,g,b\n-3,Self-emp,-4\n-0,Never-married,5\n")
    @example(text="a,g,b\n-3,Self-emp,-4\n0,Never-married,-1\n7,-,-8\n")
    def test_same_result_or_same_error_as_the_float_parse(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            with mock.patch.object(np, "loadtxt", _loadtxt_without_the_int_attempt):
                want = _outcome(load_csv, path, _DASH_MANIFEST)
            assert _outcome(load_csv, path, _DASH_MANIFEST) == want

    def test_an_integer_body_takes_the_int_parse_once(self, tmp_path):
        path = write_csv(tmp_path, "a,g,b\n-3,Self-emp,4\n0,-,-5\n")
        with mock.patch.object(ingest, "_read_rows", side_effect=AssertionError("row reader")), \
                mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as parser:
            ds = load_csv(path, _DASH_MANIFEST)
        assert [call.kwargs["dtype"] for call in parser.call_args_list] == [np.int64]
        np.testing.assert_array_equal(ds.rows, [[-3, 1, 4], [0, 2, -5]])

    def test_a_deprecation_warning_fails_the_int_parse(self, tmp_path):
        # numpy 1.23-1.26 parse "1e-5" into an int column through a float, with only a
        # DeprecationWarning, and truncate it to 0; this stands in for that parser
        def int_through_float(*args, **kwargs):
            if kwargs.get("dtype") is np.int64:
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
                return np.zeros((2, 3), dtype=np.int64)
            return _LOADTXT(*args, **kwargs)

        with mock.patch.object(np, "loadtxt", int_through_float):
            ds = load_csv(write_csv(tmp_path, "a,g,b\n1,x,2\n3,x,1e-5\n"), _DASH_MANIFEST)
        assert ds.rows.tobytes() == np.array([[1, 3, 2], [3, 3, 1e-5]]).tobytes()

    @pytest.mark.parametrize("text, dtypes, last", [
        ("a,g,b\n1,x,2\n-0,x,4\n", [float], [-0.0, 3, 4]),  # a "-0" skips the int parse
        ("a,g,b\n1,x,2\n3,x,1e-5\n", [np.int64, float], [3, 3, 1e-5]),  # not an integer
        ("a,g,b\n1,x,2\n3,x,4.0\n", [float], [3, 3, 4]),  # a '.' skips the int parse
    ])
    def test_other_bodies_take_the_float_parse(self, tmp_path, text, dtypes, last):
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as parser:
            ds = load_csv(write_csv(tmp_path, text), _DASH_MANIFEST)
        assert [call.kwargs["dtype"] for call in parser.call_args_list] == dtypes
        assert ds.rows.tobytes() == np.array([[1, 3, 2], last], dtype=float).tobytes()


class TestRowReader:
    """Bodies loadtxt cannot take: faults after good rows name their own CSV record number."""

    def test_bad_cell_after_good_rows(self, tmp_path):
        with pytest.raises(CsvParseError) as info:
            load_csv(write_csv(tmp_path, "a,b\n1,2\n3,4\n5,6\n7,x\n"))
        assert (info.value.row, info.value.column) == (5, "b")

    def test_ragged_row_after_good_rows(self, tmp_path):
        with pytest.raises(CsvParseError) as info:
            load_csv(write_csv(tmp_path, "a,b\n1,2\n3,4\n5,6\n7\n8,x\n"))
        assert (info.value.row, info.value.column) == (5, "<row>")

    def test_missing_rows_between_kept_rows(self, tmp_path):
        text = "a,b\n1,2\n3,4\n?,6\n7,NA\n9,10\n"
        # a mapped "a" keeps its text, which skips the dropped rows too
        codes = {"1": 1, "3": 3, "7": 7, "9": 9}
        ds = load_csv(write_csv(tmp_path, text), manifest={"a": codes})
        assert (ds.size, ds.n_dropped) == (3, 2)
        np.testing.assert_array_equal(ds.rows, [[1, 2], [3, 4], [9, 10]])
        assert ds.raw_column("a") == ("1", "3", "9")
        with pytest.raises(CsvParseError) as info:
            load_csv(write_csv(tmp_path, text + "x,12\n", name="bad.csv"))
        assert (info.value.row, info.value.column) == (7, "a")

    def test_only_missing_rows(self, tmp_path):
        with pytest.raises(IngestError, match="no usable data rows"):
            load_csv(write_csv(tmp_path, "a,b\n?,2\n3,NA\n,6\n"))


def test_load_csv_peak_memory_is_a_small_multiple_of_the_table(tmp_path):
    # 30,000 x 25 numbers in the shape of the credit data, with four code
    # columns like those the credit config's predicates read. Left
    # passthrough they keep no text; mapped to themselves they keep it as
    # codes, which loadtxt reads as distinct-text indices. One more row with
    # a missing cell sends the numeric file to the row reader only
    # after loadtxt has parsed the rest.
    rng = np.random.default_rng(7)
    n = 30_000
    columns = [np.arange(1, n + 1), rng.integers(1, 100, n) * 10_000, rng.integers(1, 3, n),
               rng.integers(0, 7, n), rng.integers(0, 4, n), rng.integers(21, 80, n)]
    columns += [rng.integers(-2, 9, n) for _ in range(6)]
    columns += [rng.lognormal(mu, 1.5, n).astype(int) for mu in (9.5, 7.5) for _ in range(6)]
    columns.append(rng.integers(0, 2, n))
    names = [f"c{j}" for j in range(len(columns))]
    path = tmp_path / "wide.csv"
    np.savetxt(path, np.column_stack(columns), fmt="%d", delimiter=",",
               header=",".join(names), comments="")
    missing = tmp_path / "missing.csv"
    missing.write_text(path.read_text() + "?" + ",0" * 24 + "\n")
    codes = {str(v): v for v in range(80)}
    for source, manifest in ((path, None), (path, {name: codes for name in names[2:6]}),
                             (missing, None)):
        tracemalloc.start()
        try:
            ds = load_csv(str(source), manifest)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.rows.shape == (n, 25)
        assert len(ds.raw_columns) == (0 if manifest is None else 4)
        assert peak < 5 * ds.rows.nbytes, (source.name, manifest is None, peak / ds.rows.nbytes)


class TestManifest:
    def test_list_maps_from_one(self):
        norm = normalize_manifest({"c": ["x", "y", "z"]})
        assert norm == {"c": {"x": 1.0, "y": 2.0, "z": 3.0}}

    def test_passthrough_and_none(self):
        norm = normalize_manifest({"a": "passthrough", "b": None})
        assert norm == {"a": None, "b": None}

    def test_bad_spec(self):
        with pytest.raises(IngestError):
            normalize_manifest({"a": 7})

    @pytest.mark.parametrize("manifest, message", [
        ([1, 2], "bad encoding manifest: expected a mapping of column names to specs, got [1, 2]"),
        # None alone means no manifest; a falsy value of another kind is not one
        *[(v, f"bad encoding manifest: expected a mapping of column names to specs, got {v!r}") for v in (0, [], "", False)],
        ({"age": {"x": "abc"}}, "bad encoding spec for column 'age': 'x' maps to 'abc', not a finite number"),
        ({"age": {"x": 1, "y": None}}, "bad encoding spec for column 'age': 'y' maps to None, not a finite number"),
        ({"age": {"x": np.inf}}, "bad encoding spec for column 'age': 'x' maps to inf, not a finite number"),
        ({"age": {"x": np.nan}}, "bad encoding spec for column 'age': 'x' maps to nan, not a finite number"),
        ({"age": {"x": "-inf"}}, "bad encoding spec for column 'age': 'x' maps to '-inf', not a finite number"),
        # categories are compared as the text a cell holds
        ({"age": ["a", "a", "b"]}, "bad encoding spec for column 'age': category 'a' is given twice"),
        ({"age": {1: 1, "1": 2}}, "bad encoding spec for column 'age': category '1' is given twice"),
    ])
    def test_a_malformed_manifest_is_an_ingest_error(self, tmp_path, manifest, message):
        # the library's own error type, naming the column, not float()'s or dict's
        path = write_csv(tmp_path, NUMERIC_CSV)
        for load in (normalize_manifest, lambda m: load_csv(path, m)):
            with pytest.raises(IngestError) as info:
                load(manifest)
            assert type(info.value) is IngestError and str(info.value) == message


class TestDatasetAccess:
    def test_feature_matrix_drops_named(self, tmp_path):
        ds = load_csv(write_csv(tmp_path, NUMERIC_CSV))
        feats = ds.feature_matrix(drop=["income"])
        assert ds.feature_names(drop=["income"]) == ("age", "score")
        np.testing.assert_array_equal(feats[:, 0], ds.column("age"))
        np.testing.assert_array_equal(feats[:, 1], ds.column("score"))

    def test_drop_unknown_column(self, tmp_path):
        ds = load_csv(write_csv(tmp_path, NUMERIC_CSV))
        with pytest.raises(MissingColumnError):
            ds.feature_matrix(drop=["absent"])

    def test_column_unknown(self, tmp_path):
        ds = load_csv(write_csv(tmp_path, NUMERIC_CSV))
        with pytest.raises(MissingColumnError):
            ds.column("absent")

    def test_rows_must_have_one_column_per_name(self):
        with pytest.raises(ShapeMismatchError, match="^3 columns of data for 2 names$"):
            Dataset(column_names=("a", "b"), rows=np.zeros((1, 3)), raw_columns={})

    @pytest.mark.parametrize("quote", ["", '"'], ids=["loadtxt", "row-reader"])
    def test_every_mapped_column_keeps_its_text_as_codes(self, tmp_path, quote):
        text = MIXED_CSV.replace("30,", f"{quote}30{quote},")
        ds = load_csv(write_csv(tmp_path, text), manifest={"grade": ["bad", "good", "great"]})
        assert ds.raw_column("grade") == ("good", "bad", "great", "good")
        texts, codes = ds.raw_columns["grade"]
        assert (texts, codes.dtype, codes.tolist()) == (("good", "bad", "great"), np.uint8, [0, 1, 2, 0])
        # passthrough "age" keeps no text: predicates read its numbers
        with pytest.raises(IngestError, match="^column 'age' has no text; a passthrough column") as info:
            ds.raw_column("age")
        assert type(info.value) is IngestError
        with pytest.raises(MissingColumnError):
            ds.raw_column("absent")


class TestPredicates:
    def test_numeric_comparators(self):
        le = GroupPredicate("age", "le", 25)
        assert le.matches("25") and le.matches("24.5") and not le.matches("26")
        gt = GroupPredicate("age", "gt", 25)
        assert gt.matches("26") and not gt.matches("25")
        lt = GroupPredicate("age", "lt", 25)
        ge = GroupPredicate("age", "ge", 25)
        assert not lt.matches("25") and ge.matches("25")

    def test_text_equality_tolerates_numeric_forms(self):
        eq = GroupPredicate("sex", "eq", 1)
        assert eq.matches("1") and eq.matches("1.0") and not eq.matches("2")
        ne = GroupPredicate("sex", "ne", "1")
        assert not ne.matches("1.0") and ne.matches("2")

    def test_in_comparator(self):
        member = GroupPredicate("edu", "in", [1, 2])
        assert member.matches("1") and member.matches("2.0") and not member.matches("3")
        words = GroupPredicate("country", "in", ["US", "UK"])
        assert words.matches("US") and not words.matches("DE")

    def test_in_requires_a_list(self):
        with pytest.raises(IngestError):
            GroupPredicate("edu", "in", 3).matches("3")

    def test_numeric_comparator_on_text(self):
        with pytest.raises(IngestError):
            GroupPredicate("grade", "le", 2).matches("good")

    def test_unknown_comparator(self):
        with pytest.raises(IngestError):
            GroupPredicate("a", "between", 1)

    @pytest.mark.parametrize("op", ["le", "lt", "ge", "gt"])
    def test_threshold_past_the_float_range_is_rejected(self, op):
        with pytest.raises(IngestError, match=f"comparator '{op}' needs a numeric value"):
            GroupPredicate("a", op, 10 ** 400)

    def test_value_past_the_float_range_matches_no_number(self):
        huge = 10 ** 400
        eq = GroupPredicate("a", "eq", huge)
        assert eq.matches(str(huge)) and not eq.matches("1e400") and not eq.matches("inf")
        assert GroupPredicate("a", "ne", huge).matches("inf")
        member = GroupPredicate("a", "in", [huge, 2])
        assert member.matches("2.0") and not member.matches("1e400")


def _sizes(mask1, mask2):
    """(n1, n2, n_excluded) as the pipeline reports them."""
    n1, n2 = int(mask1.sum()), int(mask2.sum())
    return n1, n2, mask1.shape[0] - n1 - n2


class TestSplit:
    def test_threshold_with_complement(self, tmp_path):
        ds = load_csv(write_csv(tmp_path, NUMERIC_CSV))
        assert ds.raw_columns == {}  # passthrough predicates read the numbers
        spec = GroupingSpec(name="age", group1=GroupPredicate("age", "le", 25))
        mask1, mask2 = split_masks(ds, spec)
        assert _sizes(mask1, mask2) == (1, 2, 0)
        np.testing.assert_array_equal(mask1, [False, True, False])
        np.testing.assert_array_equal(ds.feature_matrix()[mask1], ds.rows[1:2])

    def test_two_predicates_can_exclude(self, tmp_path):
        text = "edu,x\n1,10\n2,20\n3,30\n4,40\n"
        ds = load_csv(write_csv(tmp_path, text))
        spec = GroupingSpec(
            name="edu",
            group1=GroupPredicate("edu", "in", [1, 2]),
            group2=GroupPredicate("edu", "eq", 3),
        )
        n1, n2, n_excluded = _sizes(*split_masks(ds, spec))
        assert (n1, n2, n_excluded) == (2, 1, 1)
        assert n1 + n2 + n_excluded == ds.size

    def test_overlapping_predicates(self, tmp_path):
        ds = load_csv(write_csv(tmp_path, NUMERIC_CSV))
        spec = GroupingSpec(
            name="bad",
            group1=GroupPredicate("age", "le", 30),
            group2=GroupPredicate("age", "ge", 30),
        )
        with pytest.raises(IngestError, match="predicates overlap on 1 rows"):
            split_masks(ds, spec)

    def test_empty_group(self, tmp_path):
        config = ExperimentConfig(
            dataset=write_csv(tmp_path, NUMERIC_CSV),
            groupings=(
                GroupingSpec(name="none", group1=GroupPredicate("age", "gt", 100)),
                GroupingSpec(name="age", group1=GroupPredicate("age", "le", 30)),
            ),
            rank=1,
        )
        analysed, failed = run_analysis(config)["groupings"]
        assert failed == {"name": "none", "error": {
            "type": EmptyGroupError.__name__,
            "message": "grouping 'none': group 1 received zero rows"}}
        assert analysed["name"] == "age" and "error" not in analysed
        assert analysed["group_sizes"] == [2, 1]

    def test_split_respects_drop(self, tmp_path):
        ds = load_csv(write_csv(tmp_path, NUMERIC_CSV))
        spec = GroupingSpec(name="age", group1=GroupPredicate("age", "le", 30))
        mask1, _ = split_masks(ds, spec)
        assert ds.feature_matrix(drop=["score"])[mask1].shape == (2, 2)

    def test_grouping_on_text_column(self, tmp_path):
        ds = load_csv(write_csv(tmp_path, MIXED_CSV), manifest={"grade": ["bad", "good", "great"]})
        spec = GroupingSpec(name="grade", group1=GroupPredicate("grade", "eq", "good"))
        assert _sizes(*split_masks(ds, spec)) == (2, 2, 0)

    @pytest.mark.parametrize("value, n1", [("good", 2), (1, 0)], ids=["good", "1"])
    def test_mapped_column_is_tested_on_its_text_not_its_codes(self, tmp_path, value, n1):
        # "bad" is encoded as 1, yet eq 1 matches no "grade" text
        ds = load_csv(write_csv(tmp_path, MIXED_CSV), manifest={"grade": ["bad", "good", "great"]})
        spec = GroupingSpec(name="grade", group1=GroupPredicate("grade", "eq", value))
        assert _sizes(*split_masks(ds, spec)) == (n1, 4 - n1, 0)

    @pytest.mark.parametrize("quote", ["", '"'], ids=["loadtxt", "row-reader"])
    def test_a_text_only_dropped_rows_hold_is_never_tested(self, tmp_path, quote):
        # "x" is g's only non-numeric text, and its one row is dropped for its "?"
        text = f"a,g\n{quote}1{quote},1\n2,2\n?,x\n3,1\n"
        manifest = {"g": {"1": 1, "2": 2, "x": 3}}
        spec = GroupingSpec(name="g", group1=GroupPredicate("g", "le", 1))
        mask, _ = split_masks(load_csv(write_csv(tmp_path, text), manifest), spec)
        np.testing.assert_array_equal(mask, [True, False, True])
        kept = load_csv(write_csv(tmp_path, text.replace("?", "4"), name="kept.csv"), manifest)
        with pytest.raises(IngestError, match="needs numeric values, got cell 'x'"):
            split_masks(kept, spec)


_RAW_CELLS = st.one_of(
    st.integers(-4, 4).map(str),
    st.integers(-4, 4).map(lambda i: f"{i}.0"),
    st.integers(-4, 4).map(lambda i: f" {i} "),
    st.sampled_from(["good", "bad", " good", "1e0", "x"]),
)
_SCALARS = st.one_of(st.integers(-4, 4), st.sampled_from(["1", "2.0", "good", " good"]))


def _predicates(column):
    numeric = st.builds(GroupPredicate, st.just(column),
                        st.sampled_from(["le", "lt", "ge", "gt"]), st.integers(-4, 4))
    text = st.builds(GroupPredicate, st.just(column), st.sampled_from(["eq", "ne"]), _SCALARS)
    member = st.builds(GroupPredicate, st.just(column), st.just("in"),
                       st.lists(_SCALARS, max_size=3))
    return st.one_of(numeric, text, member)


def _row_by_row(pred, raw):
    """The reference: one `matches` call per row, in row order."""
    try:
        return np.array([pred.matches(v) for v in raw], dtype=bool), None
    except IngestError as exc:
        return None, str(exc)


class TestSplitProperty:
    @settings(derandomize=True, max_examples=150)
    @given(st.lists(st.tuples(_RAW_CELLS, _RAW_CELLS), min_size=1, max_size=30),
           _predicates("a"), st.one_of(st.none(), _predicates("b")), st.lists(_RAW_CELLS, max_size=3))
    def test_masks_equal_row_by_row_predicates(self, cells, pred1, pred2, dropped):
        # texts sorted, not in row order, with `dropped` texts that no kept row holds
        raw = {"a": tuple(c[0] for c in cells), "b": tuple(c[1] for c in cells)}
        ds = Dataset(column_names=("a", "b"), rows=np.zeros((len(cells), 2)),
                     raw_columns={name: _coded(column, dropped) for name, column in raw.items()})
        spec = GroupingSpec(name="g", group1=pred1, group2=pred2)
        want1, err1 = _row_by_row(pred1, raw["a"])
        if err1 is None and pred2 is not None:
            want2, err2 = _row_by_row(pred2, raw["b"])
        else:
            want2, err2 = (None if err1 else ~want1), None
        overlap = pred2 is not None and not (err1 or err2) and bool(np.any(want1 & want2))
        if err1 or err2 or overlap:
            with pytest.raises(IngestError) as info:
                split_masks(ds, spec)
            if err1 or err2:
                # numeric comparators name the first non-numeric cell in row order
                assert str(info.value) == (err1 or err2)
            return
        mask1, mask2 = split_masks(ds, spec)
        np.testing.assert_array_equal(mask1, want1)
        np.testing.assert_array_equal(mask2, want2)


# Finite cells float() accepts, in the forms a file may write them.
_FINITE_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e3, 1e3).map(lambda x: f"{x:.3g}"),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["-0", "0", "01", "2.5e1", "1_000", "0.10000000000000001", "0.1", "+3",
                     "1e3", "1000", "-.5", "2.", "١", "1E-3", "25", "25.0", "1"]),
)
# Near the values _predicates draws, so that masks have both answers.
_SMALL_NUMBER_CELLS = st.one_of(
    st.integers(-4, 4).map(str),
    st.integers(-4, 4).map(lambda i: f" {i}.0 "),
    st.sampled_from(["-0", "0.0", "1e0", "2.5", "-4e0"]),
)
_PREDICATE_VALUES = st.one_of(
    st.integers(-30, 30), st.floats(allow_nan=False), st.booleans(),
    st.sampled_from(["1", "1.0", "25", "2.5e1", "-0", "0.0", "1_000", "1000", "0.1",
                     "good", "", " 1", "True", "nan"]),
)


# Predicate values float() reads unlike text, refuses, or cannot hold.
_HOSTILE_VALUES = st.one_of(
    _PREDICATE_VALUES, st.floats(),
    st.sampled_from([True, False, "nan", "-nan", "inf", "1_000", " 2 ", "-0", 10 ** 400, -10 ** 400,
                     2 ** 53 + 1, "abc", None, "1e308", "1e309"]),
)


class TestPredicatesReadNumbers:
    """On a passthrough column every kept cell is float() of its text, and
    each predicate answers repr(float(cell)) as it answers the text itself;
    split_masks answers it with numpy comparisons on the numbers."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(raw=_FINITE_CELLS, op=st.sampled_from(["le", "lt", "ge", "gt", "eq", "ne", "in"]),
           value=st.one_of(_PREDICATE_VALUES, st.lists(_PREDICATE_VALUES, max_size=3)))
    def test_text_and_number_give_the_same_answer(self, raw, op, value):
        try:
            pred = GroupPredicate("a", op, value)
        except IngestError:
            assume(False)
        assert pred.matches(raw) == pred.matches(repr(float(raw)))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(column=st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                     st.sampled_from([0.0, -0.0, 1.0, 2.0, -1.0, 1000.0, 1e308, 2.0 ** 53])),
                           min_size=1, max_size=20),
           op=st.sampled_from(["le", "lt", "ge", "gt", "eq", "ne", "in"]),
           value=st.one_of(_HOSTILE_VALUES, st.lists(_HOSTILE_VALUES, max_size=4)))
    @example(column=[1.0, 0.0, 2.0], op="eq", value=True)
    @example(column=[1.0, 0.0, 1000.0], op="in", value=[False, "1_000", None, "nan"])
    @example(column=[2.0, 1e308], op="ne", value=[" 2 ", 10 ** 400, "abc"])
    @example(column=[-0.0, 0.0, 1.0], op="le", value="-0")
    def test_numpy_mask_equals_matches_per_distinct_value(self, column, op, value):
        try:
            pred = GroupPredicate("a", op, value)
        except IngestError:
            assume(False)
        ds = Dataset(column_names=("a",), rows=np.array(column)[:, None], raw_columns={})
        values, inverse = np.unique(ds.column("a"), return_inverse=True)
        want = np.array([pred.matches(repr(v)) for v in values.tolist()], dtype=bool)[inverse]
        mask, _ = split_masks(ds, GroupingSpec(name="g", group1=pred))
        assert mask.dtype == bool
        np.testing.assert_array_equal(mask, want)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(cells=st.lists(st.one_of(_FINITE_CELLS, _SMALL_NUMBER_CELLS), min_size=1, max_size=20),
           pred=_predicates("a"))
    def test_split_masks_equals_matches_on_the_file_text(self, cells, pred):
        text = "a,b\n" + "".join(f"{c},{i}\n" for i, c in enumerate(cells))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            ds = load_csv(path)
        assert ds.raw_columns == {}
        mask, _ = split_masks(ds, GroupingSpec(name="g", group1=pred))
        np.testing.assert_array_equal(mask, [pred.matches(c.strip()) for c in cells])


class TestGroundTruth:
    def test_exact_recovery(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((40, 6))
        w = rng.standard_normal(6)
        fitted = min_norm_least_squares(x, x @ w)
        np.testing.assert_allclose(fitted, w, atol=1e-9)

    def test_rank_deficient_matches_pseudoinverse(self):
        rng = np.random.default_rng(21)
        basis = rng.standard_normal((3, 6))
        x = rng.standard_normal((40, 3)) @ basis
        y = rng.standard_normal(40)
        fitted = min_norm_least_squares(x, y)
        np.testing.assert_allclose(fitted, np.linalg.pinv(x) @ y, atol=1e-9)


class TestStandardize:
    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((50, 4)) * [1, 10, 100, 0.01] + [5, -3, 0, 2]
        z, means, stds = standardize_columns(x)
        np.testing.assert_allclose(z.mean(axis=0), 0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0), 1, atol=1e-12)
        np.testing.assert_allclose(z * stds + means, x, atol=1e-9)

    def test_constant_column_stays_centered(self):
        x = np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]])
        z, means, stds = standardize_columns(x)
        np.testing.assert_allclose(z[:, 1], 0.0, atol=0)
        assert stds[1] == 1.0
        assert means[1] == 7.0
