import csv
import io
import json
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scoregap import (
    ConfigError,
    CostMatrix,
    ExperimentConfig,
    MissingColumnError,
    ModelEntry,
    PopulationModel,
    ProjectionMatrix,
    RankTooLargeError,
    Subgroup,
    load_config,
    subspace_projection,
)
from scoregap.cli import EXIT_OK, main
from scoregap.experiment import (
    CSV_COLUMNS,
    CSV_FIELDS,
    RESULT_SCHEMA_VERSION,
    _cell_stacker,
    _leaves,
    render_csv,
    render_json,
    run_analysis,
)
from scoregap.ingest import GroupPredicate, GroupingSpec
from scoregap.linalg import unit_exponent

from conftest import model_to_dict


def models_config(**kwargs) -> ExperimentConfig:
    defaults = dict(
        models=(ModelEntry(name="eps01", epsilon=0.1),),
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def write_toy_csv(tmp_path):
    rng = np.random.default_rng(40)
    lines = ["age,skill,effort,label"]
    for _ in range(30):
        age = int(rng.integers(20, 60))
        skill = rng.standard_normal()
        effort = rng.standard_normal()
        label = 2.0 * skill + 0.5 * effort + 0.1 * rng.standard_normal()
        lines.append(f"{age},{skill:.6f},{effort:.6f},{label:.6f}")
    path = tmp_path / "toy.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def write_random_model(tmp_path) -> str:
    """A d = 4 model file built from random rows."""
    rng = np.random.default_rng(6)
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "w_star": rng.standard_normal(4).tolist(),
        "data1": rng.standard_normal((6, 4)).tolist(),
        "data2": rng.standard_normal((5, 4)).tolist(),
        "rank": 2,
    }))
    return str(path)


def dataset_config(tmp_path, **kwargs) -> ExperimentConfig:
    defaults = dict(
        dataset=write_toy_csv(tmp_path),
        drop_columns=("label",),
        groupings=(
            GroupingSpec(name="age", group1=GroupPredicate("age", "le", 35)),
        ),
        rank=2,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestModelMode:
    def test_two_axis_entry_values(self):
        result = run_analysis(models_config())
        assert result["schema_version"] == 7
        assert result["n_failed"] == 0
        assert result["dataset"] is None
        (entry,) = result["groupings"]
        assert entry["name"] == "eps01"
        assert entry["source"] == {"epsilon": 0.1}
        assert entry["group_sizes"] is None
        assert entry["effective_ranks"] == [1, 1]
        assert entry["alignment"] == 0.0
        m = entry["metrics"]
        assert m["I1"] == pytest.approx(0.01, abs=1e-12)
        assert m["I2"] == pytest.approx(0.99, abs=1e-12)
        assert m["uI1"] == pytest.approx(0.1, abs=1e-12)
        assert m["uI1_star"] == pytest.approx(0.1, abs=1e-12)
        assert m["uI2_star"] == pytest.approx(np.sqrt(0.99), abs=1e-12)
        assert m["welfare"] == pytest.approx(1.0, abs=1e-12)
        assert m["difference"] == pytest.approx(-0.98, abs=1e-12)
        conditions = entry["conditions"]
        assert conditions["fast_path"] == "orthogonal_subspaces"
        assert conditions["do_no_harm"]["group1"]["verdict"] is True
        assert conditions["equal_improvement"]["verdict"] is False

    def test_entries_sorted_by_name(self):
        cfg = models_config(models=(
            ModelEntry(name="zeta", epsilon=0.3),
            ModelEntry(name="alpha", epsilon=0.5),
            ModelEntry(name="mid", epsilon=0.7),
        ))
        result = run_analysis(cfg)
        assert [e["name"] for e in result["groupings"]] == ["alpha", "mid", "zeta"]

    def test_model_file_entry(self, tmp_path):
        model = PopulationModel(
            group1=Subgroup(name="a", cost=CostMatrix.identity(2),
                            projection=ProjectionMatrix.identity(2)),
            group2=Subgroup(name="b", cost=CostMatrix(2.0 * np.eye(2)),
                            projection=ProjectionMatrix.identity(2)),
            w_star=np.array([1.0, 0.0]),
        )
        path = str(tmp_path / "m.json")
        Path(path).write_text(render_json(model_to_dict(model)), encoding="utf-8")
        result = run_analysis(models_config(models=(ModelEntry(name="file", path=path),)))
        (entry,) = result["groupings"]
        assert entry["source"] == {"path": path}
        assert entry["metrics"]["welfare"] == pytest.approx(1.5, abs=1e-9)

    def test_failing_entry_is_isolated(self, tmp_path):
        cfg = models_config(models=(
            ModelEntry(name="good", epsilon=0.5),
            ModelEntry(name="broken", path=str(tmp_path / "absent.json")),
        ))
        result = run_analysis(cfg)
        assert result["n_failed"] == 1
        broken, good = result["groupings"]
        assert broken["name"] == "broken"
        assert broken["error"]["type"] == "ConfigError"
        assert "metrics" in good


class TestDatasetMode:
    def test_meta_and_entry_shape(self, tmp_path):
        result = run_analysis(dataset_config(tmp_path))
        assert result["n_rows"] == 30
        assert result["n_dropped"] == 0
        assert result["feature_names"] == ["age", "skill", "effort"]
        (entry,) = result["groupings"]
        n1, n2 = entry["group_sizes"]
        assert n1 > 0 and n2 > 0 and n1 + n2 == 30
        assert entry["n_excluded"] == 0
        assert entry["effective_ranks"] == [2, 2]
        assert entry["metrics"]["welfare"] > 0

    def test_excluded_rows_counted(self, tmp_path):
        cfg = dataset_config(tmp_path, groupings=(
            GroupingSpec(
                name="band",
                group1=GroupPredicate("age", "le", 30),
                group2=GroupPredicate("age", "ge", 50),
            ),
        ))
        (entry,) = run_analysis(cfg)["groupings"]
        assert entry["n_excluded"] > 0
        assert entry["group_sizes"][0] + entry["group_sizes"][1] + entry["n_excluded"] == 30

    def test_fit_wstar_excludes_outcome_column(self, tmp_path):
        cfg = dataset_config(tmp_path, drop_columns=(), wstar="fit:label")
        result = run_analysis(cfg)
        assert result["feature_names"] == ["age", "skill", "effort"]
        assert result["n_failed"] == 0

    def test_a_missing_fit_column_is_named_before_a_missing_drop_column(self, tmp_path):
        cfg = dataset_config(tmp_path, drop_columns=("gone",), wstar="fit:absent")
        with pytest.raises(MissingColumnError, match="^no column named 'absent'$"):
            run_analysis(cfg)

    @pytest.mark.parametrize("settings", [
        dict(drop_columns=("age", "skill", "effort", "label")),
        dict(drop_columns=("age", "skill", "effort"), wstar="fit:label"),  # fit drops the last one
    ])
    def test_dropping_every_column_is_a_config_error(self, tmp_path, settings):
        with pytest.raises(ConfigError, match="^drop_columns: dropping .* leaves no feature column$"):
            run_analysis(dataset_config(tmp_path, **settings))

    def test_vector_wstar(self, tmp_path):
        wpath = tmp_path / "w.txt"
        wpath.write_text("0.0 1.0 0.5\n")
        cfg = dataset_config(tmp_path, wstar=f"vector:{wpath}")
        result = run_analysis(cfg)
        assert result["n_failed"] == 0
        assert result["wstar"] == f"vector:{wpath}"

    @pytest.mark.parametrize("text, message", [
        ('["x", 1, 2]', "expected a list of numbers"),
        ('{"a": 1}', "expected a list of numbers"),
        ("[1, 2]", "expected 3 values"),
        ("[1e999, 1, 2]", "non-finite"),
    ])
    def test_bad_vector_wstar_is_a_config_error(self, tmp_path, text, message):
        wpath = tmp_path / "w.json"
        wpath.write_text(text)
        cfg = dataset_config(tmp_path, wstar=f"vector:{wpath}")
        with pytest.raises(ConfigError, match=message) as info:
            run_analysis(cfg)
        assert str(wpath) in str(info.value)

    def test_standardize_changes_geometry(self, tmp_path):
        plain = run_analysis(dataset_config(tmp_path))
        scaled = run_analysis(dataset_config(tmp_path, standardize=True))
        a = plain["groupings"][0]["metrics"]["welfare"]
        b = scaled["groupings"][0]["metrics"]["welfare"]
        assert a != pytest.approx(b, rel=1e-6)

    def test_scaled_identity_costs_shrink_improvement(self, tmp_path):
        # quadrupled movement costs quarter every pull direction, hence welfare
        cheap = run_analysis(dataset_config(tmp_path))
        costly = run_analysis(dataset_config(tmp_path, cost1=4.0, cost2=4.0))
        ratio = (
            costly["groupings"][0]["metrics"]["welfare"]
            / cheap["groupings"][0]["metrics"]["welfare"]
        )
        assert ratio == pytest.approx(0.25, abs=1e-9)

    def test_bad_cost_dimension_is_run_error(self, tmp_path):
        # the costs are the population's, so a cost that does not fit poisons every grouping
        cfg = dataset_config(tmp_path, cost1=np.eye(7))
        with pytest.raises(ConfigError, match=r"^costs\.group1: dimension 7 does not match feature count 3$"):
            run_analysis(cfg)

    def test_each_cost_is_built_once_per_run(self, tmp_path):
        groupings = tuple(GroupingSpec(name=f"age{cut}", group1=GroupPredicate("age", "le", cut))
                          for cut in (30, 35, 40))
        cfg = dataset_config(tmp_path, groupings=groupings, cost1=2.0, cost2=np.diag([1.0, 2.0, 3.0]))
        with mock.patch.object(CostMatrix, "from_spec", wraps=CostMatrix.from_spec) as from_spec:
            result = run_analysis(cfg)
        assert result["n_failed"] == 0
        assert [call.args[2] for call in from_spec.call_args_list] == ["costs.group1", "costs.group2"]

    def test_empty_group_is_entry_error(self, tmp_path):
        cfg = dataset_config(tmp_path, groupings=(
            GroupingSpec(name="none", group1=GroupPredicate("age", "gt", 100)),
        ))
        (entry,) = run_analysis(cfg)["groupings"]
        assert entry["error"]["type"] == "EmptyGroupError"


def _projection_or_message(rows: np.ndarray, k: int):
    try:
        return subspace_projection(rows, k)
    except RankTooLargeError as exc:
        return str(exc)


class TestCellStacker:
    """Each mask's stack gives the subspace of the mask's own rows, up to roundoff."""

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 80), d=st.integers(1, 6),
           kinds=st.integers(1, 10), n_masks=st.integers(1, 8), noisy=st.integers(0, 2),
           repeats=st.sampled_from([0, 70]))
    @example(seed=1, n=60, d=3, kinds=3, n_masks=3, noisy=0, repeats=70)
    def test_stacks_match_the_rows(self, seed, n, d, kinds, n_masks, noisy, repeats):
        # rows of one kind share every mask but the `noisy` row-wise random
        # ones, so cells run from single rows to most of the table; the first
        # mask is one kind, so with noisy = 0 it is a group inside one cell,
        # and `repeats` uniform masks after it push its bit past 62 places
        rng = np.random.default_rng(seed)
        features = rng.standard_normal((n, d)) * np.exp(rng.uniform(-3, 3, d))
        kind = rng.integers(0, kinds, n)
        masks = [kind == 0] + [np.ones(n, dtype=bool)] * repeats
        masks += [np.isin(kind, rng.choice(kinds, rng.integers(0, kinds + 1), replace=False))
                  for _ in range(n_masks)]
        masks += [rng.random(n) < 0.5 for _ in range(noisy)]
        with mock.patch.object(np.linalg, "qr", wraps=np.linalg.qr) as qr:
            stack = _cell_stacker(features, masks)
        assert qr.call_count <= n // d  # only cells of at least d rows are factored
        for mask in {m.tobytes(): m for m in masks if m.any()}.values():
            rows = stack(mask)
            assert rows.shape[0] <= mask.sum() and min(rows.shape[0], d) == min(mask.sum(), d)
            for k in range(1, d + 2):
                got, want = _projection_or_message(rows, k), _projection_or_message(features[mask], k)
                if isinstance(want, str):
                    assert got == want
                else:
                    assert (got.rank, got.tie_warning) == (want.rank, want.tie_warning)
                    assert np.max(np.abs(got.matrix - want.matrix), initial=0.0) <= 1e-10


    def test_large_cells_are_stacked_in_the_order_of_their_mask_bits(self):
        # the row order of a stack fixes the last bits of the document's floats
        features = np.random.default_rng(5).standard_normal((8, 2))
        split = np.arange(8) >= 4  # two cells of 4 rows, the one with bit 0 first
        everyone = np.ones(8, dtype=bool)
        scaled = np.ldexp(features, -unit_exponent(features))
        want = np.vstack([np.linalg.qr(scaled[~split], mode="r"), np.linalg.qr(scaled[split], mode="r")])
        np.testing.assert_array_equal(_cell_stacker(features, [everyone, split])(everyone), want)


class TestRendering:
    def test_json_deterministic(self):
        cfg = models_config(models=(
            ModelEntry(name="a", epsilon=0.2),
            ModelEntry(name="b", epsilon=0.8),
        ))
        text1 = render_json(run_analysis(cfg))
        text2 = render_json(run_analysis(cfg))
        assert text1 == text2
        assert text1.endswith("\n")
        doc = json.loads(text1)
        assert doc["schema_version"] == 7

    def test_json_rejects_non_finite(self):
        with pytest.raises(ValueError):
            render_json({"groupings": [], "x": float("nan")})

    def test_csv_layout(self):
        cfg = models_config(models=(
            ModelEntry(name="a", epsilon=0.1),
            ModelEntry(name="b", epsilon=0.5),
        ))
        text = render_csv(run_analysis(cfg))
        rows = list(csv.reader(io.StringIO(text)))
        assert tuple(rows[0]) == CSV_COLUMNS == (
            "name", "error", "n1", "n2", "n_excluded", "rank1", "rank2", "alignment",
            "I1", "I2", "uI1", "uI2", "uI1_star", "uI2_star", "welfare", "difference",
            "do_no_harm1", "do_no_harm2", "equal_improvement",
            "per_unit_optimal1", "per_unit_optimal2", "fast_path",
        )
        assert len(rows) == 3
        row = dict(zip(rows[0], rows[1]))
        assert row["name"] == "a"
        assert row["error"] == ""
        assert row["n1"] == ""  # model entries have no rows behind them
        assert float(row["I1"]) == pytest.approx(0.01, abs=1e-12)
        assert row["do_no_harm1"] == "true"
        assert row["equal_improvement"] == "false"
        assert row["fast_path"] == "orthogonal_subspaces"
        assert "tolerance" not in row  # each check carries its own tolerance

    def test_csv_float_cells_round_trip(self):
        text = render_csv(run_analysis(models_config()))
        rows = list(csv.reader(io.StringIO(text)))
        row = dict(zip(rows[0], rows[1]))
        assert float(row["uI2_star"]) == np.sqrt(0.99)

    def test_csv_error_entry(self, tmp_path):
        cfg = models_config(models=(
            ModelEntry(name="bad", path=str(tmp_path / "absent.json")),
        ))
        text = render_csv(run_analysis(cfg))
        rows = list(csv.reader(io.StringIO(text)))
        row = dict(zip(rows[0], rows[1]))
        assert row["name"] == "bad"
        assert row["error"].startswith("ConfigError")
        assert row["I1"] == "" and row["welfare"] == ""

    def test_dataset_csv_has_sizes(self, tmp_path):
        text = render_csv(run_analysis(dataset_config(tmp_path)))
        rows = list(csv.reader(io.StringIO(text)))
        row = dict(zip(rows[0], rows[1]))
        assert int(row["n1"]) + int(row["n2"]) == 30
        assert row["n_excluded"] == "0"
        assert row["rank1"] == "2"


# The key paths of every document the program writes, each list index as `*`.
# Any change to these sets changes the documents, so it bumps RESULT_SCHEMA_VERSION
# (and adds its keys to README's "Result document" section).
PAYLOAD = {
    "alignment", "welfare_rule.*", "effective_ranks.*", "tie_warnings.*",
    "metrics.I1", "metrics.I2", "metrics.uI1", "metrics.uI2", "metrics.uI1_star", "metrics.uI2_star",
    "metrics.welfare", "metrics.difference",
    "conditions.do_no_harm.group1.verdict", "conditions.do_no_harm.group1.value",
    "conditions.do_no_harm.group1.tolerance", "conditions.do_no_harm.group1.boundary",
    "conditions.do_no_harm.group2.verdict", "conditions.do_no_harm.group2.value",
    "conditions.do_no_harm.group2.tolerance", "conditions.do_no_harm.group2.boundary",
    "conditions.equal_improvement.verdict", "conditions.equal_improvement.value",
    "conditions.equal_improvement.tolerance", "conditions.equal_improvement.boundary",
    "conditions.per_unit_optimal.group1.verdict", "conditions.per_unit_optimal.group1.value",
    "conditions.per_unit_optimal.group1.tolerance", "conditions.per_unit_optimal.group1.boundary",
    "conditions.per_unit_optimal.group2.verdict", "conditions.per_unit_optimal.group2.value",
    "conditions.per_unit_optimal.group2.tolerance", "conditions.per_unit_optimal.group2.boundary",
    "conditions.fast_path", "conditions.sufficient_c.group1", "conditions.sufficient_c.group2",
}
ANALYZE_TOP = {"schema_version", "rank", "wstar", "standardize", "dataset", "n_rows", "n_dropped", "n_failed"}
DATASET_TOP = ANALYZE_TOP | {"feature_names.*"}
DATASET_ENTRY = PAYLOAD | {"name", "group_sizes.*", "n_excluded"}
MODEL_FILE_ENTRY = PAYLOAD | {"name", "group_sizes", "n_excluded", "source.path"}
EPSILON_ENTRY = PAYLOAD | {"name", "group_sizes", "n_excluded", "source.epsilon"}
ERROR_ENTRY = {"name", "error.type", "error.message"}
CHECK_DOCUMENT = PAYLOAD | {"schema_version", "model"}


def in_groupings(entry_paths: set) -> set:
    return {f"groupings.*.{path}" for path in entry_paths}


# Every key path a document can hold, for the README check.
RESULT_PATHS = (DATASET_TOP | in_groupings(DATASET_ENTRY | MODEL_FILE_ENTRY | EPSILON_ENTRY | ERROR_ENTRY)
                | CHECK_DOCUMENT)


def starred(path: str) -> str:
    """`path` with each list index as `*`."""
    return re.sub(r"\.\d+(?=\.|$)", ".*", path)


def key_paths(doc) -> set:
    return {starred(path) for path, _ in _leaves(doc)}


class TestResultSchema:
    def test_version(self):
        assert RESULT_SCHEMA_VERSION == 7  # any change to the sets above bumps it

    def test_dataset_document(self, tmp_path):
        doc = run_analysis(dataset_config(tmp_path, groupings=(
            GroupingSpec(name="age", group1=GroupPredicate("age", "le", 35)),
            GroupingSpec(name="none", group1=GroupPredicate("age", "gt", 99)),
        )))
        entries = {e["name"]: key_paths(e) for e in doc["groupings"]}
        assert entries == {"age": DATASET_ENTRY, "none": ERROR_ENTRY}
        assert len(DATASET_ENTRY) == 38
        assert key_paths(doc) == DATASET_TOP | in_groupings(DATASET_ENTRY | ERROR_ENTRY)

    def test_models_document(self, tmp_path):
        doc = run_analysis(models_config(models=(
            ModelEntry(name="file", path=write_random_model(tmp_path)),
            ModelEntry(name="eps", epsilon=0.3),
            ModelEntry(name="bad", path=str(tmp_path / "absent.json")),
        )))
        entries = {e["name"]: key_paths(e) for e in doc["groupings"]}
        assert entries == {"file": MODEL_FILE_ENTRY, "eps": EPSILON_ENTRY, "bad": ERROR_ENTRY}
        assert len(MODEL_FILE_ENTRY) == len(EPSILON_ENTRY) == 39
        assert key_paths(doc) == ANALYZE_TOP | in_groupings(MODEL_FILE_ENTRY | EPSILON_ENTRY | ERROR_ENTRY)

    def test_check_document(self, tmp_path, capsys):
        assert main(["check", write_random_model(tmp_path)]) == EXIT_OK
        assert key_paths(json.loads(capsys.readouterr().out)) == CHECK_DOCUMENT

    def test_every_csv_path_is_pinned(self):
        # a mistyped path would read as an always-empty column; the `error`
        # cell alone is formatted from an error entry's `error` object
        assert {starred(path) for _, path in CSV_FIELDS} - DATASET_ENTRY == {"error"}


BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


class TestBenchmarkTrace:
    def test_traced_run_equals_untraced(self, tmp_path, monkeypatch):
        # benchmarks/run.py --trace 1 replaces names that experiment and
        # modelio import with timed wrappers; the pipeline must still reach
        # them and give the same document
        monkeypatch.syspath_prepend(str(BENCHMARKS))
        import run
        from tracer import Tracer
        from scoregap import experiment, modelio

        config = models_config(models=(
            ModelEntry(name="eps01", epsilon=0.1),
            ModelEntry(name="eps06", epsilon=0.6),
            ModelEntry(name="file", path=write_random_model(tmp_path)),
        ))
        plain = render_json(run_analysis(config))
        tracer = Tracer()
        run._install(tracer, experiment, modelio)
        try:
            traced = render_json(experiment.run_analysis(config))
        finally:
            tracer.remove()
        assert traced == plain
        assert json.loads(plain)["n_failed"] == 0
        # alignment is exact and computed with each PopulationModel, so the
        # sampler counters read zero: nothing is drawn
        assert tracer.counts["linalg.alignment_samples"] == 0
        assert tracer.counts["linalg.alignment_flops"] == 0
        assert tracer.counts["linalg.subspace_projection_calls"] > 0


    def test_traced_dataset_run_reaches_the_wrapped_names(self, tmp_path, monkeypatch):
        # the cell factoring still splits and projects through the names
        # experiment imports, once per grouping and once per group
        monkeypatch.syspath_prepend(str(BENCHMARKS))
        import run
        from tracer import Tracer
        from scoregap import experiment, modelio

        config = dataset_config(tmp_path, groupings=(
            GroupingSpec(name="age", group1=GroupPredicate("age", "le", 35)),
            GroupingSpec(name="skill", group1=GroupPredicate("skill", "le", 0.0)),
            GroupingSpec(name="none", group1=GroupPredicate("age", "gt", 100)),
        ))
        plain = render_json(run_analysis(config))
        tracer = Tracer()
        run._install(tracer, experiment, modelio)
        try:
            traced = render_json(experiment.run_analysis(config))
        finally:
            tracer.remove()
        assert traced == plain
        assert json.loads(plain)["n_failed"] == 1
        assert tracer.counts["ingest.split_masks_calls"] == 3
        assert tracer.counts["linalg.subspace_projection_calls"] == 4


class TestBenchmarkWorkloads:
    @pytest.mark.parametrize("name", ["models", "credit", "adult"])
    def test_seed_one_inputs_pass_the_benchmark_check(self, tmp_path, monkeypatch, name):
        # the benchmark's own generator and checker, on its seed-1 inputs:
        # its configs still load and every document passes its checks
        monkeypatch.syspath_prepend(str(BENCHMARKS))
        import workloads
        from check import alignment_errors, problems

        wl = workloads.generate(name, BENCHMARKS.parent, tmp_path, seed=1)
        doc = run_analysis(load_config(str(wl.config)))
        assert problems(doc, wl) == []
        assert max(alignment_errors(doc, wl)) <= 1e-12
