import copy
import dataclasses
import sys

import numpy as np
import pytest
import yaml

from scoregap import (
    ConfigError,
    ExperimentConfig,
    GroupingSpec,
    GroupPredicate,
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
"""

MODELS_YAML = """
models:
  - name: synthetic
    epsilon: 0.1
  - name: stored
    path: some/model.json
"""


MODES = {
    "dataset": {"dataset": "x.csv", "groupings": [{"name": "g", "group1": {"column": "a", "op": "le", "value": 1}}]},
    "models": {"models": [{"name": "m", "epsilon": 0.5}, {"name": "n", "path": "p.json"}]},
}


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

    def test_models_config_defaults(self, tmp_path):
        cfg = load_config(write_yaml(tmp_path, MODELS_YAML))
        assert cfg.dataset is None
        assert len(cfg.models) == 2
        assert cfg.models[0] == ModelEntry(name="synthetic", epsilon=0.1)
        assert cfg.models[1] == ModelEntry(name="stored", path="some/model.json")
        assert cfg.rank == DEFAULT_RANK
        assert cfg.wstar == "ones"
        assert cfg.standardize is False

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot open"):
            load_config(str(tmp_path / "absent.yaml"))

    def test_invalid_yaml(self, tmp_path):
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_config(write_yaml(tmp_path, "a: [unclosed"))

    def test_a_merged_key_may_be_overridden(self, tmp_path):
        # the second entry's own `name` replaces the one its `<<` merge brings in; neither is repeated
        text = "models:\n  - &first {name: synthetic, epsilon: 0.1}\n  - <<: *first\n    name: again\n"
        cfg = load_config(write_yaml(tmp_path, text))
        assert cfg.models == (ModelEntry(name="synthetic", epsilon=0.1), ModelEntry(name="again", epsilon=0.1))

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

    @pytest.mark.parametrize("extra", [
        {"stray": 1},
        # a group2 block indented one level too deep, which would turn the grouping into a complement split
        {"group2": {"column": "a", "op": "gt", "value": 0}},
    ])
    def test_a_predicate_rejects_unknown_keys(self, extra):
        predicate = {"column": "a", "op": "le", "value": 0, **extra}
        with pytest.raises(ConfigError) as info:
            config_from_dict({"dataset": "x.csv", "groupings": [{"name": "g", "group1": predicate}]})
        assert str(info.value) == f"groupings[0].group1: unknown keys {list(extra)}"

    @pytest.mark.parametrize("doc, message", [
        ({"dataset": "x.csv", 1: "a", "zz": "b", None: "c"}, "unknown config keys: [1, None, 'zz']"),
        ({"models": [{"name": "m", "epsilon": 0.5, 2: "x", "b": "y"}]}, "models[0]: unknown keys [2, 'b']"),
        ({"models": [{"name": "m", "epsilon": 0.5}], "costs": {True: 1, "g": 2}}, "costs: unknown keys [True, 'g']"),
    ])
    def test_unknown_keys_of_mixed_types_are_named(self, doc, message):
        # YAML keys need not be strings; they are listed in the order of their text
        with pytest.raises(ConfigError) as info:
            config_from_dict(doc)
        assert str(info.value) == message

    def test_bad_costs(self):
        models = [{"name": "m", "epsilon": 0.5}]
        with pytest.raises(ConfigError, match="costs.group1"):
            config_from_dict({"models": models, "costs": {"group1": -2}})
        with pytest.raises(ConfigError, match="costs.group2"):
            config_from_dict({"models": models, "costs": {"group2": [[1, 0, 0], [0, 1, 0]]}})
        with pytest.raises(ConfigError, match="costs"):
            config_from_dict({"models": models, "costs": {"group3": 1}})

    @pytest.mark.parametrize("key, value, message", [
        ("rank", 0, "rank must be >= 1, got 0"),
        ("wstar", "bogus", "wstar must be 'ones', 'fit:COLUMN', or 'vector:FILE', got 'bogus'"),
        ("costs", {"group1": {"a": 1}}, "costs.group1: expected a matrix, 'identity', or a positive number"),
    ])
    def test_a_bad_dataset_setting_is_named(self, key, value, message):
        # in models mode the dataset-only check names rank and wstar before their own checks run
        with pytest.raises(ConfigError) as info:
            config_from_dict({**MODES["dataset"], key: value})
        assert str(info.value) == message

    @pytest.mark.parametrize("scale", [0, -0.0])
    def test_a_zero_cost_scale_is_rejected(self, scale):
        with pytest.raises(ConfigError) as info:
            config_from_dict({**MODES["dataset"], "costs": {"group1": scale}})
        assert str(info.value) == f"costs.group1: scale must be a positive finite number, got {scale}"

    @pytest.mark.parametrize("scale", [5e-324, sys.float_info.max])
    def test_a_cost_scale_may_be_any_positive_finite_number(self, scale):
        # the range's two edges are in it
        config = config_from_dict({**MODES["dataset"], "costs": {"group1": scale, "group2": scale}})
        assert config.cost1 == config.cost2 == scale

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

    def test_a_replaced_field_is_validated(self):
        # a dataset config, so that the range check itself runs, not the models-mode dataset-only check
        cfg = ExperimentConfig(dataset="d.csv", groupings=(GroupingSpec(name="g", group1=GroupPredicate("x", "le", 1)),))
        with pytest.raises(ConfigError) as info:
            dataclasses.replace(cfg, rank=0)
        assert str(info.value) == "rank must be >= 1, got 0"

    @pytest.mark.parametrize("key, value", [
        ("out", 7), ("out", True), ("out", None), ("out", "results.json"),
        ("format", None), ("format", ["json"]), ("format", "csv"),
    ])
    def test_output_settings_are_unknown_keys(self, key, value):
        # where the document goes is the command line's (--out, --format), never the config's
        with pytest.raises(ConfigError) as info:
            config_from_dict({"models": [{"name": "m", "epsilon": 0.5}], key: value})
        assert str(info.value) == f"unknown config keys: ['{key}']"

    @pytest.mark.parametrize("key, value", [
        ("dataset", ["a", "b"]), ("dataset", 7), ("wstar", 1), ("wstar", None),
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

    def test_null_dataset_means_absent(self):
        config = config_from_dict({"models": [{"name": "m", "epsilon": 0.5}], "dataset": None})
        assert config.dataset is None

    @pytest.mark.parametrize("value", ["0.5", True, [0.5]])
    def test_epsilon_must_be_a_number(self, value):
        with pytest.raises(ConfigError, match=r"models\[0\].epsilon"):
            config_from_dict({"models": [{"name": "m", "epsilon": value}]})

    @pytest.mark.parametrize("value", [sys.float_info.max, -sys.float_info.max])
    def test_epsilon_may_be_any_finite_number(self, value):
        # the largest float is finite
        assert config_from_dict({"models": [{"name": "m", "epsilon": value}]}).models[0].epsilon == value

    def test_bad_wstar(self):
        with pytest.raises(ConfigError, match="wstar"):
            config_from_dict({"models": [{"name": "m", "epsilon": 0.5}], "wstar": "zeros"})

    def test_bad_format(self):
        with pytest.raises(ConfigError) as info:
            config_from_dict({"models": [{"name": "m", "epsilon": 0.5}], "format": "xml"})
        assert str(info.value) == "unknown config keys: ['format']"

    def test_bad_encoding(self):
        with pytest.raises(ConfigError, match="encoding"):
            config_from_dict({
                "models": [{"name": "m", "epsilon": 0.5}],
                "encoding": {"col": 12},
            })

    @pytest.mark.parametrize("text, message", [
        ("encoding: [1, 2]", "encoding: bad encoding manifest: expected a mapping of column names to specs, got [1, 2]"),
        # a falsy value of the wrong kind is no more absent than any other
        ("encoding: 0", "encoding: bad encoding manifest: expected a mapping of column names to specs, got 0"),
        ("encoding: []", "encoding: bad encoding manifest: expected a mapping of column names to specs, got []"),
        ("encoding: ''", "encoding: bad encoding manifest: expected a mapping of column names to specs, got ''"),
        ("encoding: false", "encoding: bad encoding manifest: expected a mapping of column names to specs, got False"),
        ("encoding: {a: {x: abc}}", "encoding: bad encoding spec for column 'a': 'x' maps to 'abc', not a finite number"),
        ("encoding: {grade: {a: .inf}}", "encoding: bad encoding spec for column 'grade': 'a' maps to inf, not a finite number"),
        ("encoding: {grade: {a: .nan}}", "encoding: bad encoding spec for column 'grade': 'a' maps to nan, not a finite number"),
        ("encoding: {grade: {a: inf}}", "encoding: bad encoding spec for column 'grade': 'a' maps to 'inf', not a finite number"),
        ("encoding: {grade: [a, a, b]}", "encoding: bad encoding spec for column 'grade': category 'a' is given twice"),
        ("encoding: {grade: [1, '1']}", "encoding: bad encoding spec for column 'grade': category '1' is given twice"),
    ])
    def test_malformed_encoding_names_the_column(self, text, message):
        doc = {"models": [{"name": "m", "epsilon": 0.5}], **yaml.safe_load(text)}
        with pytest.raises(ConfigError) as info:
            config_from_dict(doc)
        assert str(info.value) == message

    @pytest.mark.parametrize("mode", ["dataset", "models"])
    @pytest.mark.parametrize("key, value, message", [
        *[("costs", v, "costs: expected a mapping with group1/group2") for v in (0, False, "", [])],
        *[("drop_columns", v, "drop_columns: expected a list of column names") for v in (0, {}, "")],
        *[("groupings", v, "groupings: expected a list of groupings") for v in (0, {})],
        *[("models", v, "models: expected a list of model entries") for v in (0, {})],
    ])
    def test_a_falsy_value_of_the_wrong_kind_is_named(self, mode, key, value, message):
        doc = {**MODES[mode], key: value}
        with pytest.raises(ConfigError) as info:
            config_from_dict(doc)
        assert str(info.value) == message

    @pytest.mark.parametrize("mode, path", [
        ("dataset", ("encoding",)), ("dataset", ("drop_columns",)), ("dataset", ("models",)),
        ("dataset", ("costs",)), ("dataset", ("costs", "group1")), ("dataset", ("costs", "group2")),
        ("dataset", ("groupings", 0, "group2")), ("models", ("dataset",)), ("models", ("groupings",)),
        ("models", ("models", 0, "path")), ("models", ("models", 1, "epsilon")),
    ])
    def test_null_means_absent(self, mode, path):
        doc = copy.deepcopy({**MODES[mode], "costs": {}})  # so that costs.group1/2 have a mapping to sit in
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = None
        assert config_from_dict(doc) == config_from_dict(MODES[mode])

    def test_drop_columns_must_be_list(self):
        with pytest.raises(ConfigError, match="drop_columns"):
            config_from_dict({
                "models": [{"name": "m", "epsilon": 0.5}],
                "drop_columns": "id",
            })

