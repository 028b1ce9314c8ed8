import numpy as np
import pytest

from scoregap import (
    ConfigError,
    ExperimentConfig,
    ModelEntry,
    load_config,
)
from scoregap.config import (
    DEFAULT_RANK,
    config_from_dict,
)

FULL_YAML = """
dataset: data/credit.csv
encoding:
  grade: [bad, good, great]
  status: {single: 1, married: 2}
drop_columns: [id, label]
groupings:
  - name: age
    group1: {column: age, op: le, value: 25}
  - name: education
    group1: {column: edu, op: in, value: [1, 2]}
    group2: {column: edu, op: eq, value: 3}
rank: 4
costs:
  group1: identity
  group2: 2.5
wstar: "fit:label"
standardize: true
out: results.json
format: json
"""

MODELS_YAML = """
models:
  - name: synthetic
    epsilon: 0.1
  - name: stored
    path: some/model.json
"""


def write_yaml(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadConfig:
    def test_full_dataset_config(self, tmp_path):
        cfg = load_config(write_yaml(tmp_path, FULL_YAML))
        assert cfg.dataset == "data/credit.csv"
        assert cfg.encoding["grade"] == ["bad", "good", "great"]
        assert cfg.drop_columns == ("id", "label")
        assert len(cfg.groupings) == 2
        assert cfg.groupings[0].name == "age"
        assert cfg.groupings[0].group1.op == "le"
        assert cfg.groupings[0].group2 is None
        assert cfg.groupings[1].group2.value == 3
        assert cfg.rank == 4
        assert cfg.cost1 is None
        assert cfg.cost2 == 2.5
        assert cfg.wstar == "fit:label"
        assert cfg.standardize is True
        assert cfg.out == "results.json"

    def test_models_config_defaults(self, tmp_path):
        cfg = load_config(write_yaml(tmp_path, MODELS_YAML))
        assert cfg.dataset is None
        assert len(cfg.models) == 2
        assert cfg.models[0] == ModelEntry(name="synthetic", epsilon=0.1)
        assert cfg.models[1] == ModelEntry(name="stored", path="some/model.json")
        assert cfg.rank == DEFAULT_RANK
        assert cfg.wstar == "ones"
        assert cfg.standardize is False
        assert cfg.format == "json"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot open"):
            load_config(str(tmp_path / "absent.yaml"))

    def test_invalid_yaml(self, tmp_path):
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_config(write_yaml(tmp_path, "a: [unclosed"))

    def test_matrix_cost(self, tmp_path):
        text = (
            "dataset: x.csv\n"
            "groupings:\n  - name: g\n    group1: {column: a, op: le, value: 1}\n"
            "costs:\n  group1: [[2.0, 0.0], [0.0, 3.0]]\n"
        )
        cfg = load_config(write_yaml(tmp_path, text))
        np.testing.assert_array_equal(cfg.cost1, [[2, 0], [0, 3]])
        assert cfg.cost2 is None


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict({"models": [{"name": "a", "epsilon": 0.5}], "renk": 3})

    def test_dataset_and_models_both_set(self):
        with pytest.raises(ConfigError, match="exactly one"):
            config_from_dict({
                "dataset": "x.csv",
                "groupings": [{"name": "g", "group1": {"column": "a", "op": "le", "value": 1}}],
                "models": [{"name": "m", "epsilon": 0.5}],
            })

    def test_neither_dataset_nor_models(self):
        with pytest.raises(ConfigError, match="exactly one"):
            config_from_dict({})

    def test_dataset_requires_groupings(self):
        with pytest.raises(ConfigError, match="grouping"):
            config_from_dict({"dataset": "x.csv"})

    def test_duplicate_names(self):
        with pytest.raises(ConfigError, match="unique"):
            config_from_dict({"models": [
                {"name": "twin", "epsilon": 0.5},
                {"name": "twin", "epsilon": 0.6},
            ]})

    def test_model_entry_needs_exactly_one_source(self):
        with pytest.raises(ConfigError, match="exactly one"):
            config_from_dict({"models": [{"name": "m"}]})
        with pytest.raises(ConfigError, match="exactly one"):
            config_from_dict({"models": [
                {"name": "m", "path": "p.json", "epsilon": 0.5},
            ]})

    def test_predicate_errors_name_their_location(self):
        base = {"dataset": "x.csv"}
        with pytest.raises(ConfigError, match=r"groupings\[0\].group1"):
            config_from_dict(dict(base, groupings=[
                {"name": "g", "group1": {"column": "a", "op": "between", "value": 1}},
            ]))
        with pytest.raises(ConfigError, match=r"groupings\[0\].group1: missing op, value"):
            config_from_dict(dict(base, groupings=[
                {"name": "g", "group1": {"column": "a"}},
            ]))
        with pytest.raises(ConfigError, match=r"groupings\[1\]"):
            config_from_dict(dict(base, groupings=[
                {"name": "g", "group1": {"column": "a", "op": "le", "value": 1}},
                {"name": "h", "group1": {"column": "a", "op": "le", "value": 1},
                 "surprise": True},
            ]))

    def test_bad_costs(self):
        models = [{"name": "m", "epsilon": 0.5}]
        with pytest.raises(ConfigError, match="costs.group1"):
            config_from_dict({"models": models, "costs": {"group1": -2}})
        with pytest.raises(ConfigError, match="costs.group2"):
            config_from_dict({"models": models, "costs": {"group2": [[1, 0, 0], [0, 1, 0]]}})
        with pytest.raises(ConfigError, match="costs"):
            config_from_dict({"models": models, "costs": {"group3": 1}})

    def test_bad_rank_and_samples(self):
        models = [{"name": "m", "epsilon": 0.5}]
        for key, value in [
            ("rank", 0), ("seed", -2),
            # only a YAML integer is accepted: no truncation, no bools, no strings
            ("rank", 2.7), ("rank", True), ("rank", "3"), ("rank", None),
            ("seed", 1.9), ("seed", False), ("seed", "7"),
            # and only a YAML bool for standardize
            ("standardize", "false"), ("standardize", "no"), ("standardize", 1),
            ("standardize", None),
        ]:
            with pytest.raises(ConfigError, match=key):
                config_from_dict({"models": models, key: value})
        # alignment is exact, so the sample count is no longer a key
        for value in (0, 5000, 2.5, True):
            with pytest.raises(ConfigError) as info:
                config_from_dict({"models": models, "alignment_samples": value})
            assert str(info.value) == "unknown config keys: ['alignment_samples']"

    @pytest.mark.parametrize("seed", [0, 7])
    def test_seed_is_read_and_dropped(self, seed):
        models = [{"name": "m", "epsilon": 0.5}]
        assert config_from_dict({"models": models, "seed": seed}) == config_from_dict({"models": models})

    @pytest.mark.parametrize("key, value", [
        ("dataset", ["a", "b"]), ("dataset", 7), ("out", 7), ("out", True),
        ("wstar", 1), ("wstar", None), ("format", None), ("format", ["json"]),
    ])
    def test_string_keys_are_not_coerced(self, key, value):
        doc = {"models": [{"name": "m", "epsilon": 0.5}], key: value}
        with pytest.raises(ConfigError) as info:
            config_from_dict(doc)
        assert str(info.value) == f"{key}: expected a string, got {value!r}"

    @pytest.mark.parametrize("doc, message", [
        ({"dataset": "x.csv", "groupings": [
            {"name": None, "group1": {"column": "a", "op": "le", "value": 1}}]},
         "groupings[0].name: expected a string, got None"),
        ({"models": [{"name": ["a", "b"], "epsilon": 0.5}]},
         "models[0].name: expected a string, got ['a', 'b']"),
        ({"models": [{"name": "m", "epsilon": 0.5}, {"name": None, "epsilon": 0.6}]},
         "models[1].name: expected a string, got None"),
        ({"models": [{"name": "m", "path": 7}]}, "models[0].path: expected a string, got 7"),
    ])
    def test_entry_names_and_paths_are_not_coerced(self, doc, message):
        with pytest.raises(ConfigError) as info:
            config_from_dict(doc)
        assert str(info.value) == message

    def test_null_dataset_and_out_mean_absent(self):
        config = config_from_dict({"models": [{"name": "m", "epsilon": 0.5}],
                                   "dataset": None, "out": None})
        assert config.dataset is None and config.out is None

    @pytest.mark.parametrize("value", ["0.5", True, [0.5]])
    def test_epsilon_must_be_a_number(self, value):
        with pytest.raises(ConfigError, match=r"models\[0\].epsilon"):
            config_from_dict({"models": [{"name": "m", "epsilon": value}]})

    def test_bad_wstar(self):
        with pytest.raises(ConfigError, match="wstar"):
            config_from_dict({"models": [{"name": "m", "epsilon": 0.5}], "wstar": "zeros"})

    def test_bad_format(self):
        with pytest.raises(ConfigError, match="format"):
            config_from_dict({"models": [{"name": "m", "epsilon": 0.5}], "format": "xml"})

    def test_bad_encoding(self):
        with pytest.raises(ConfigError, match="encoding"):
            config_from_dict({
                "models": [{"name": "m", "epsilon": 0.5}],
                "encoding": {"col": 12},
            })

    def test_drop_columns_must_be_list(self):
        with pytest.raises(ConfigError, match="drop_columns"):
            config_from_dict({
                "models": [{"name": "m", "epsilon": 0.5}],
                "drop_columns": "id",
            })


class TestOverride:
    def test_non_none_values_win(self):
        cfg = ExperimentConfig(models=(ModelEntry(name="m", epsilon=0.5),), format="csv")
        out = cfg.override(format="json", rank=None, out="o.json")
        assert out.format == "json"
        assert out.rank == cfg.rank
        assert out.out == "o.json"

    def test_no_overrides_is_identity(self):
        cfg = ExperimentConfig(models=(ModelEntry(name="m", epsilon=0.5),))
        assert cfg.override(format=None, out=None) is cfg

    def test_override_still_validates(self):
        cfg = ExperimentConfig(models=(ModelEntry(name="m", epsilon=0.5),))
        with pytest.raises(ConfigError, match="rank"):
            cfg.override(rank=0)
