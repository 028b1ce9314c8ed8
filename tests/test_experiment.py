import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

from scoregap import (
    ConfigError,
    CostMatrix,
    ExperimentConfig,
    ModelEntry,
    PopulationModel,
    ProjectionMatrix,
    Subgroup,
    load_config,
    model_to_dict,
)
from scoregap.experiment import (
    CSV_COLUMNS,
    classify_failures,
    render_csv,
    render_json,
    run_analysis,
)
from scoregap.ingest import GroupPredicate, GroupingSpec


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
        assert result["schema_version"] == 4
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
            group2=Subgroup(name="b", cost=CostMatrix.scaled_identity(2, 2.0),
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

    def test_bad_cost_dimension_is_entry_error(self, tmp_path):
        cfg = dataset_config(tmp_path, cost1=np.eye(7))
        result = run_analysis(cfg)
        (entry,) = result["groupings"]
        assert entry["error"]["type"] == "ConfigError"
        assert "costs.group1" in entry["error"]["message"]

    def test_empty_group_is_entry_error(self, tmp_path):
        cfg = dataset_config(tmp_path, groupings=(
            GroupingSpec(name="none", group1=GroupPredicate("age", "gt", 100)),
        ))
        (entry,) = run_analysis(cfg)["groupings"]
        assert entry["error"]["type"] == "EmptyGroupError"


class TestClassifyFailures:
    def test_clean_run(self):
        assert classify_failures(run_analysis(models_config())) is None

    def test_mixed_run_is_partial(self, tmp_path):
        cfg = models_config(models=(
            ModelEntry(name="good", epsilon=0.5),
            ModelEntry(name="bad", path=str(tmp_path / "absent.json")),
        ))
        assert classify_failures(run_analysis(cfg)) == "partial"

    def test_all_failed_non_degenerate_is_partial(self, tmp_path):
        cfg = models_config(models=(
            ModelEntry(name="bad1", path=str(tmp_path / "a.json")),
            ModelEntry(name="bad2", path=str(tmp_path / "b.json")),
        ))
        assert classify_failures(run_analysis(cfg)) == "partial"

    def test_all_degenerate(self, tmp_path):
        p = ProjectionMatrix(np.array([[1.0], [0.0]]))
        model = PopulationModel(
            group1=Subgroup(name="a", cost=CostMatrix.identity(2), projection=p),
            group2=Subgroup(name="b", cost=CostMatrix.identity(2), projection=p),
            w_star=np.array([0.0, 1.0]),
        )
        path = str(tmp_path / "degenerate.json")
        Path(path).write_text(render_json(model_to_dict(model)), encoding="utf-8")
        result = run_analysis(models_config(models=(ModelEntry(name="flat", path=path),)))
        assert result["groupings"][0]["error"]["type"] == "DegenerateObjectiveError"
        assert classify_failures(result) == "degenerate"

    def test_mixed_degenerate_and_success_is_partial(self, tmp_path):
        p = ProjectionMatrix(np.array([[1.0], [0.0]]))
        model = PopulationModel(
            group1=Subgroup(name="a", cost=CostMatrix.identity(2), projection=p),
            group2=Subgroup(name="b", cost=CostMatrix.identity(2), projection=p),
            w_star=np.array([0.0, 1.0]),
        )
        path = str(tmp_path / "degenerate.json")
        Path(path).write_text(render_json(model_to_dict(model)), encoding="utf-8")
        cfg = models_config(models=(
            ModelEntry(name="flat", path=path),
            ModelEntry(name="fine", epsilon=0.5),
        ))
        assert classify_failures(run_analysis(cfg)) == "partial"


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
        assert doc["schema_version"] == 4

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
        assert tuple(rows[0]) == CSV_COLUMNS
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
