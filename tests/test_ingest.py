import csv
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scoregap import (
    CsvParseError,
    EmptyGroupError,
    ExperimentConfig,
    GroupPredicate,
    GroupingSpec,
    IngestError,
    MissingColumnError,
    NonFiniteError,
    UnmappedCategoryError,
    fit_ground_truth,
    load_csv,
    prepare,
    split_masks,
    standardize_columns,
)
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

    def test_duplicate_header(self, tmp_path):
        with pytest.raises(IngestError):
            load_csv(write_csv(tmp_path, "a,a\n1,2\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError):
            load_csv(str(tmp_path / "absent.csv"))

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
        with pytest.raises(NonFiniteError):
            load_csv(write_csv(tmp_path, f"a,b\n1,2\n3,{cell}\n"))

    def test_parse_error_wins_over_later_non_finite_cell(self, tmp_path):
        with pytest.raises(CsvParseError) as info:
            load_csv(write_csv(tmp_path, "a,b\n1,inf\n2,x\n"))
        assert (info.value.row, info.value.column) == (3, "b")

    def test_quoted_cells_and_padded_categories(self, tmp_path):
        text = 'a,grade,c\n"1", good ,"2"\n" 3 ","bad"," 4.5"\n"5,0",good,6\n'
        with pytest.raises(CsvParseError) as info:
            load_csv(write_csv(tmp_path, text), manifest={"grade": ["bad", "good"]})
        assert (info.value.row, info.value.column) == (4, "a")
        ds = load_csv(write_csv(tmp_path, text.rsplit('"5,0"', 1)[0]),
                      manifest={"grade": ["bad", "good"]})
        np.testing.assert_array_equal(ds.rows, [[1.0, 2.0, 2.0], [3.0, 1.0, 4.5]])
        assert ds.raw_column("grade") == ("good", "bad")
        assert ds.raw_column("a") == ("1", "3")

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
            with pytest.raises(NonFiniteError):
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


def _reference_load(path, manifest):
    """Row-at-a-time loader, the reference load_csv must agree with."""
    norm = normalize_manifest(manifest)
    with open(path, newline="", encoding="utf-8") as handle:
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
    return Dataset(column_names=names, rows=np.array(encoded, dtype=float),
                   raw_columns={n: tuple(r[j] for r in raw_rows) for j, n in enumerate(names)},
                   n_dropped=dropped)


def _outcome(load, path, manifest):
    try:
        ds = load(path, manifest)
    except IngestError as exc:
        return type(exc).__name__, str(exc)
    except NonFiniteError as exc:
        return type(exc).__name__, str(exc)
    return ds.rows.tobytes(), ds.rows.shape, ds.raw_columns, ds.n_dropped, ds.column_names


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


class TestLoadCsvMatchesRowByRow:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(_FILE_ROWS, max_size=8))
    def test_same_result_or_same_error(self, rows):
        text = "a,b,g\n" + "".join(",".join(cells) + "\n" for cells in rows)
        manifest = {"g": ["lo", "hi"]}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            assert _outcome(load_csv, path, manifest) == _outcome(_reference_load, path, manifest)


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


def _sizes(mask1, mask2):
    """(n1, n2, n_excluded) as the pipeline reports them."""
    n1, n2 = int(mask1.sum()), int(mask2.sum())
    return n1, n2, mask1.shape[0] - n1 - n2


class TestSplit:
    def test_threshold_with_complement(self, tmp_path):
        ds = load_csv(write_csv(tmp_path, NUMERIC_CSV))
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
        with pytest.raises(IngestError):
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
        _, populations = prepare(config)
        (name, accounting, error), (_, _, model) = populations
        assert (name, accounting) == ("none", {})
        assert isinstance(error, EmptyGroupError)
        assert str(error) == "grouping 'none': group 1 received zero rows"
        assert model.group1.name == "age:1"

    def test_split_respects_drop(self, tmp_path):
        ds = load_csv(write_csv(tmp_path, NUMERIC_CSV))
        spec = GroupingSpec(name="age", group1=GroupPredicate("age", "le", 30))
        mask1, _ = split_masks(ds, spec)
        assert ds.feature_matrix(drop=["score"])[mask1].shape == (2, 2)

    def test_grouping_on_text_column(self, tmp_path):
        ds = load_csv(write_csv(tmp_path, MIXED_CSV),
                      manifest={"grade": ["bad", "good", "great"]})
        spec = GroupingSpec(name="grade", group1=GroupPredicate("grade", "eq", "good"))
        assert _sizes(*split_masks(ds, spec)) == (2, 2, 0)


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
           _predicates("a"), st.one_of(st.none(), _predicates("b")))
    def test_masks_equal_row_by_row_predicates(self, cells, pred1, pred2):
        raw = {"a": tuple(c[0] for c in cells), "b": tuple(c[1] for c in cells)}
        ds = Dataset(column_names=("a", "b"), rows=np.zeros((len(cells), 2)),
                     raw_columns=raw)
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


class TestGroundTruth:
    def test_exact_recovery(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((40, 6))
        w = rng.standard_normal(6)
        fitted = fit_ground_truth(x, x @ w)
        np.testing.assert_allclose(fitted, w, atol=1e-9)

    def test_rank_deficient_matches_pseudoinverse(self):
        rng = np.random.default_rng(21)
        basis = rng.standard_normal((3, 6))
        x = rng.standard_normal((40, 3)) @ basis
        y = rng.standard_normal(40)
        fitted = fit_ground_truth(x, y)
        np.testing.assert_allclose(fitted, np.linalg.pinv(x) @ y, atol=1e-9)

    def test_agrees_with_shared_solver(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((15, 4))
        y = rng.standard_normal(15)
        np.testing.assert_allclose(
            fit_ground_truth(x, y), min_norm_least_squares(x, y), atol=0
        )


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
