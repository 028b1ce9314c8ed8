import json
from pathlib import Path

import numpy as np
import pytest

from scoregap import (
    ConfigError,
    disparity_example,
    load_model,
    model_from_dict,
    render_json,
)

from conftest import model_to_dict, random_population


def base_doc():
    return {
        "w_star": [1.0, 2.0],
        "projection1": [[1.0, 0.0], [0.0, 0.0]],
        "projection2": [[0.0, 0.0], [0.0, 1.0]],
    }


class TestRoundTrip:
    def test_save_load_preserves_model(self, tmp_path):
        rng = np.random.default_rng(30)
        model = random_population(rng, d=5)
        path = str(tmp_path / "model.json")
        Path(path).write_text(render_json(model_to_dict(model)), encoding="utf-8")
        loaded = load_model(path)
        np.testing.assert_allclose(loaded.w_star, model.w_star, atol=0)
        np.testing.assert_allclose(
            loaded.group1.cost.matrix, model.group1.cost.matrix, atol=0
        )
        np.testing.assert_allclose(
            loaded.group2.projection.matrix, model.group2.projection.matrix, atol=1e-12
        )
        assert loaded.group1.name == model.group1.name
        np.testing.assert_allclose(
            loaded.pull_direction(1), model.pull_direction(1), atol=1e-9
        )

    def test_dict_round_trip_of_synthetic(self):
        model = disparity_example(0.25)
        again = model_from_dict(model_to_dict(model))
        np.testing.assert_allclose(again.w_star, model.w_star, atol=0)
        np.testing.assert_allclose(
            again.gain_direction, model.gain_direction, atol=1e-12
        )

    def test_saved_file_is_deterministic(self, tmp_path):
        model = disparity_example(0.4)
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        Path(p1).write_text(render_json(model_to_dict(model)), encoding="utf-8")
        Path(p2).write_text(render_json(model_to_dict(model)), encoding="utf-8")
        assert Path(p1).read_bytes() == Path(p2).read_bytes()


class TestDefaults:
    def test_costs_default_to_identity(self):
        model = model_from_dict(base_doc())
        np.testing.assert_array_equal(model.group1.cost.matrix, np.eye(2))
        np.testing.assert_array_equal(model.group2.cost.matrix, np.eye(2))

    def test_names_default(self):
        model = model_from_dict(base_doc())
        assert (model.group1.name, model.group2.name) == ("group1", "group2")

    def test_explicit_names(self):
        doc = dict(base_doc(), names=["young", "old"])
        model = model_from_dict(doc)
        assert (model.group1.name, model.group2.name) == ("young", "old")


class TestDataDerivedProjections:
    def test_samples_become_row_space_projection(self):
        rng = np.random.default_rng(31)
        basis = rng.standard_normal((2, 5))
        doc = {
            "w_star": rng.standard_normal(5).tolist(),
            "data1": (rng.standard_normal((30, 2)) @ basis).tolist(),
            "projection2": np.eye(5).tolist(),
        }
        model = model_from_dict(doc)
        assert model.group1.projection.rank == 2
        expected = np.linalg.pinv(basis) @ basis
        np.testing.assert_allclose(
            model.group1.projection.matrix, expected, atol=1e-9
        )

    def test_rank_limits_data_projection(self):
        rng = np.random.default_rng(32)
        doc = {
            "w_star": rng.standard_normal(6).tolist(),
            "data1": rng.standard_normal((40, 6)).tolist(),
            "data2": rng.standard_normal((40, 6)).tolist(),
            "rank": 3,
        }
        model = model_from_dict(doc)
        assert model.group1.projection.rank == 3
        assert model.group2.projection.rank == 3

    @pytest.mark.parametrize("rank", [0, True, 2.5])
    def test_bad_rank(self, rank):
        doc = dict(base_doc(), rank=rank)
        with pytest.raises(ConfigError, match="rank: must be a positive integer"):
            model_from_dict(doc)


class TestValidationMessages:
    def test_missing_w_star(self):
        doc = base_doc()
        del doc["w_star"]
        with pytest.raises(ConfigError, match="w_star"):
            model_from_dict(doc)

    def test_missing_projection(self):
        doc = base_doc()
        del doc["projection2"]
        with pytest.raises(ConfigError, match="projection2"):
            model_from_dict(doc)

    def test_non_idempotent_projection(self):
        doc = dict(base_doc(), projection1=[[0.5, 0.0], [0.0, 0.0]])
        with pytest.raises(ConfigError, match="projection1"):
            model_from_dict(doc)

    def test_cost_not_positive_definite(self):
        doc = dict(base_doc(), cost1=[[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(ConfigError, match="cost1"):
            model_from_dict(doc)

    def test_cost_dimension_mismatch(self):
        doc = dict(base_doc(), cost2=np.eye(3).tolist())
        with pytest.raises(ConfigError, match="cost2"):
            model_from_dict(doc)

    def test_projection_dimension_mismatch(self):
        doc = dict(base_doc(), projection1=np.zeros((3, 3)).tolist())
        doc["projection1"][0][0] = 1.0
        with pytest.raises(ConfigError, match="projection1"):
            model_from_dict(doc)

    def test_non_numeric_field(self):
        doc = dict(base_doc(), w_star=["a", "b"])
        with pytest.raises(ConfigError, match="w_star"):
            model_from_dict(doc)

    def test_non_finite_field(self):
        doc = dict(base_doc(), w_star=[1.0, float("inf")])
        with pytest.raises(ConfigError, match="w_star"):
            model_from_dict(doc)

    def test_bad_names(self):
        doc = dict(base_doc(), names=["only-one"])
        with pytest.raises(ConfigError, match="names"):
            model_from_dict(doc)

    def test_not_an_object(self):
        with pytest.raises(ConfigError):
            model_from_dict([1, 2, 3])


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot open"):
            load_model(str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_model(str(path))

    def test_load_from_plain_json(self, tmp_path):
        path = tmp_path / "hand.json"
        path.write_text(json.dumps(base_doc()))
        model = load_model(str(path))
        assert model.group1.projection.rank == 1
