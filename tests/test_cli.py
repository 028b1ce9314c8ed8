import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scoregap
from scoregap import model_to_dict, render_json
from scoregap.cli import (
    EXIT_CONFIG,
    EXIT_DEGENERATE,
    EXIT_INGEST,
    EXIT_OK,
    EXIT_PARTIAL,
    main,
)

from conftest import random_population

TOY_CSV = """age,skill,effort,label
22,0.5,1.2,1.9
24,-0.3,0.8,0.1
28,1.1,-0.2,2.0
31,0.2,0.4,0.6
35,-0.9,1.5,-1.0
41,0.7,-1.1,0.9
44,1.4,0.3,3.0
52,-0.5,-0.6,-1.3
57,0.9,0.9,2.3
60,-1.2,0.1,-2.2
"""

TOY_CONFIG = """
dataset: {csv}
drop_columns: [label]
groupings:
  - name: age
    group1: {{column: age, op: le, value: 35}}
rank: 2
alignment_samples: 2000
seed: 3
"""

FIT_CONFIG = """
dataset: {csv}
groupings:
  - name: age
    group1: {{column: age, op: le, value: 35}}
  - name: skill
    group1: {{column: skill, op: gt, value: 0}}
rank: 2
wstar: fit:label
standardize: true
alignment_samples: 2000
seed: 3
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def toy_config(tmp_path, extra=""):
    csv_path = write(tmp_path, "toy.csv", TOY_CSV)
    return write(tmp_path, "config.yaml", TOY_CONFIG.format(csv=csv_path) + extra)


def models_yaml(tmp_path, body):
    return write(tmp_path, "models.yaml", body)


class TestSynthetic:
    def test_writes_model_to_stdout(self, capsys):
        assert main(["synthetic", "0.3"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["w_star"] == [0.3, pytest.approx(np.sqrt(1 - 0.09))]
        assert doc["projection1"] == [[1.0, 0.0], [0.0, 0.0]]

    def test_out_of_range_epsilon(self, capsys):
        assert main(["synthetic", "1.5"]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_round_trip_through_check(self, tmp_path, capsys):
        model_path = str(tmp_path / "model.json")
        assert main(["synthetic", "0.1", "--out", model_path]) == EXIT_OK
        assert main(["check", model_path]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["model"] == model_path
        assert doc["fast_path"] == "orthogonal_subspaces"
        assert doc["do_no_harm"]["group1"]["verdict"] is True
        assert doc["do_no_harm"]["group2"]["verdict"] is True
        assert doc["equal_improvement"]["verdict"] is False
        assert doc["equal_improvement"]["value"] == pytest.approx(-0.98, abs=1e-12)
        assert doc["per_unit_optimal"]["group1"]["verdict"] is True


class TestCheck:
    def test_missing_model_file(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "absent.json")]) == EXIT_CONFIG
        assert "cannot open" in capsys.readouterr().err

    def test_degenerate_model(self, tmp_path, capsys):
        doc = {
            "w_star": [0.0, 1.0],
            "projection1": [[1.0, 0.0], [0.0, 0.0]],
            "projection2": [[1.0, 0.0], [0.0, 0.0]],
        }
        path = write(tmp_path, "flat.json", json.dumps(doc))
        assert main(["check", path]) == EXIT_DEGENERATE
        assert "error:" in capsys.readouterr().err

    def test_out_file(self, tmp_path, capsys):
        model_path = str(tmp_path / "m.json")
        main(["synthetic", "0.5", "--out", model_path])
        out_path = str(tmp_path / "report.json")
        assert main(["check", model_path, "--out", out_path]) == EXIT_OK
        assert capsys.readouterr().out == ""
        doc = json.loads(Path(out_path).read_text())
        assert doc["schema_version"] == 2


    def test_same_conditions_as_analyze(self, tmp_path, capsys):
        # one model file, two subcommands: the guarantee reports must agree
        model_path = str(tmp_path / "m.json")
        model = random_population(np.random.default_rng(21), d=5)
        Path(model_path).write_text(render_json(model_to_dict(model)), encoding="utf-8")
        cfg = models_yaml(tmp_path, f"models:\n  - name: m\n    path: {model_path}\n")
        assert main(["check", model_path]) == EXIT_OK
        checked = json.loads(capsys.readouterr().out)
        assert main(["analyze", "--config", cfg]) == EXIT_OK
        (entry,) = json.loads(capsys.readouterr().out)["groupings"]
        assert {k: v for k, v in checked.items() if k not in ("schema_version", "model")} \
            == entry["conditions"]


class TestUnwritableOut:
    @pytest.mark.parametrize("command", [
        ["synthetic", "0.3"],
        ["check", "{model}"],
        ["alignment", "--model", "{model}", "--samples", "100"],
        ["analyze", "--config", "{config}"],
        ["analyze", "--config", "{config}", "--format", "csv"],
    ])
    def test_missing_directory_is_a_usage_error(self, tmp_path, capsys, command):
        model_path = str(tmp_path / "m.json")
        main(["synthetic", "0.4", "--out", model_path])
        args = [a.format(model=model_path, config=toy_config(tmp_path)) for a in command]
        out = str(tmp_path / "absent" / "out.json")
        assert main([*args, "--out", out]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {out}: No such file or directory\n"

    def test_csv_and_side_json_are_written_all_or_nothing(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        Path(f"{out}.json").mkdir()
        assert main(["analyze", "--config", toy_config(tmp_path), "--format", "csv",
                     "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: cannot write {out}.json: Is a directory\n"
        assert not out.exists()

    def test_directory_is_a_usage_error(self, tmp_path, capsys):
        model_path = str(tmp_path / "m.json")
        main(["synthetic", "0.4", "--out", model_path])
        assert main(["check", model_path, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: cannot write {tmp_path}: Is a directory\n"


class TestAnalyze:
    def test_dataset_run_to_stdout(self, tmp_path, capsys):
        assert main(["analyze", "--config", toy_config(tmp_path)]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_rows"] == 10
        (entry,) = doc["groupings"]
        assert entry["name"] == "age"
        assert entry["group_sizes"] == [5, 5]
        assert entry["metrics"]["welfare"] > 0

    def test_model_config_values(self, tmp_path, capsys):
        cfg = models_yaml(tmp_path, (
            "models:\n  - name: eps01\n    epsilon: 0.1\n"
            "alignment_samples: 1000\n"
        ))
        assert main(["analyze", "--config", cfg]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        metrics = doc["groupings"][0]["metrics"]
        assert metrics["I1"] == pytest.approx(0.01, abs=1e-12)
        assert metrics["I2"] == pytest.approx(0.99, abs=1e-12)
        assert metrics["difference"] == pytest.approx(-0.98, abs=1e-12)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = toy_config(tmp_path)
        out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert main(["analyze", "--config", cfg, "--out", out1]) == EXIT_OK
        assert main(["analyze", "--config", cfg, "--out", out2]) == EXIT_OK
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_csv_format_writes_sibling_json(self, tmp_path):
        cfg = toy_config(tmp_path)
        out = str(tmp_path / "table.csv")
        assert main(["analyze", "--config", cfg, "--format", "csv", "--out", out]) == EXIT_OK
        header = Path(out).read_text().splitlines()[0].split(",")
        assert header[0] == "name"
        sibling = json.loads(Path(out + ".json").read_text())
        assert sibling["schema_version"] == 2

    def test_csv_format_stdout_only(self, tmp_path, capsys):
        cfg = toy_config(tmp_path)
        assert main(["analyze", "--config", cfg, "--format", "csv"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("name,")

    def test_flag_overrides_change_result(self, tmp_path, capsys):
        cfg = toy_config(tmp_path)
        assert main(["analyze", "--config", cfg, "--rank", "1"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["rank"] == 1
        assert doc["groupings"][0]["effective_ranks"] == [1, 1]

    def test_standardize_flag(self, tmp_path, capsys):
        cfg = toy_config(tmp_path)
        assert main(["analyze", "--config", cfg, "--standardize"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["standardize"] is True

    def test_missing_config(self, tmp_path, capsys):
        assert main(["analyze", "--config", str(tmp_path / "no.yaml")]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_bad_config_value(self, tmp_path, capsys):
        cfg = models_yaml(tmp_path, "models:\n  - name: m\n    epsilon: 0.5\nrank: 0\n")
        assert main(["analyze", "--config", cfg]) == EXIT_CONFIG

    def test_missing_dataset_file(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.yaml", TOY_CONFIG.format(csv=str(tmp_path / "gone.csv")))
        assert main(["analyze", "--config", cfg]) == EXIT_INGEST
        assert "error:" in capsys.readouterr().err

    def test_partial_failure_exit(self, tmp_path, capsys):
        cfg = models_yaml(tmp_path, (
            "models:\n"
            "  - name: fine\n    epsilon: 0.5\n"
            f"  - name: broken\n    path: {tmp_path / 'absent.json'}\n"
            "alignment_samples: 1000\n"
        ))
        assert main(["analyze", "--config", cfg]) == EXIT_PARTIAL
        captured = capsys.readouterr()
        assert "broken" in captured.err
        doc = json.loads(captured.out)
        assert doc["n_failed"] == 1

    def test_all_degenerate_exit(self, tmp_path, capsys):
        doc = {
            "w_star": [0.0, 1.0],
            "projection1": [[1.0, 0.0], [0.0, 0.0]],
            "projection2": [[1.0, 0.0], [0.0, 0.0]],
        }
        model_path = write(tmp_path, "flat.json", json.dumps(doc))
        cfg = models_yaml(tmp_path, (
            f"models:\n  - name: flat\n    path: {model_path}\n"
            "alignment_samples: 1000\n"
        ))
        assert main(["analyze", "--config", cfg]) == EXIT_DEGENERATE
        assert "DegenerateObjectiveError" in capsys.readouterr().err


class TestAlignment:
    def test_orthogonal_model_is_zero(self, tmp_path, capsys):
        model_path = str(tmp_path / "m.json")
        main(["synthetic", "0.4", "--out", model_path])
        assert main(["alignment", "--model", model_path, "--samples", "500"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["entries"]["model"] == 0.0
        assert doc["n_samples"] == 500

    def test_identical_subspaces_are_one(self, tmp_path, capsys):
        doc = {
            "w_star": [1.0, 1.0],
            "projection1": [[1.0, 0.0], [0.0, 1.0]],
            "projection2": [[1.0, 0.0], [0.0, 1.0]],
        }
        path = write(tmp_path, "full.json", json.dumps(doc))
        assert main(["alignment", "--model", path, "--samples", "500"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["entries"]["model"] == pytest.approx(1.0, abs=1e-12)

    def test_config_mode_lists_groupings(self, tmp_path, capsys):
        cfg = toy_config(tmp_path)
        assert main(["alignment", "--config", cfg, "--samples", "400"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["entries"]) == {"age"}
        assert 0.0 <= doc["entries"]["age"] <= 1.0
        assert doc["seed"] == 3  # config seed wins when flag absent

    def test_seed_changes_estimate(self, tmp_path, capsys):
        cfg = toy_config(tmp_path)
        values = []
        for seed in ("1", "2"):
            main(["alignment", "--config", cfg, "--samples", "400", "--seed", seed])
            values.append(json.loads(capsys.readouterr().out)["entries"]["age"])
        assert values[0] != values[1]

    def test_missing_model(self, tmp_path, capsys):
        assert main(["alignment", "--model", str(tmp_path / "no.json")]) == EXIT_CONFIG

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_samples_below_one_is_a_usage_error(self, tmp_path, capsys, samples):
        model_path = str(tmp_path / "m.json")
        main(["synthetic", "0.4", "--out", model_path])
        for source in (["--model", model_path], ["--config", toy_config(tmp_path)]):
            assert main(["alignment", *source, "--samples", samples]) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: --samples must be >= 1, got {samples}\n"

    def test_rank_in_model_mode_is_a_usage_error(self, tmp_path, capsys):
        # the model file is never read: the flag is rejected first
        absent = str(tmp_path / "absent.json")
        assert main(["alignment", "--model", absent, "--rank", "2"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --rank applies only with --config\n"

    def test_config_mode_equals_analyze(self, tmp_path, capsys):
        # standardize and the fit: outcome column both shape the features
        # analyze projects; the alignment subcommand must project the same ones
        csv_path = write(tmp_path, "toy.csv", TOY_CSV)
        cfg = write(tmp_path, "fit.yaml", FIT_CONFIG.format(csv=csv_path))
        assert main(["alignment", "--config", cfg]) == EXIT_OK
        entries = json.loads(capsys.readouterr().out)["entries"]
        assert main(["analyze", "--config", cfg]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["feature_names"] == ["age", "skill", "effort"]
        assert entries == {e["name"]: e["alignment"] for e in doc["groupings"]}

    def test_config_mode_empty_group_is_an_ingest_error(self, tmp_path, capsys):
        cfg = toy_config(tmp_path)
        write(tmp_path, "config.yaml", Path(cfg).read_text().replace("value: 35", "value: 99"))
        assert main(["alignment", "--config", cfg]) == EXIT_PARTIAL
        captured = capsys.readouterr()
        assert "group 2 received zero rows" in captured.err
        error = json.loads(captured.out)["entries"]["age"]["error"]
        assert error["type"] == "EmptyGroupError"

    def test_config_mode_failed_grouping_is_an_error_entry(self, tmp_path, capsys):
        # one grouping too small for the rank fails; the other is still reported,
        # and the failure is the same error object analyze writes
        cfg = toy_config(tmp_path)
        write(tmp_path, "config.yaml", Path(cfg).read_text().replace(
            "rank: 2", "  - name: old\n    group1: {column: age, op: ge, value: 60}\nrank: 2"))
        assert main(["analyze", "--config", cfg]) == EXIT_PARTIAL
        doc = json.loads(capsys.readouterr().out)
        analyzed = {e["name"]: e for e in doc["groupings"]}
        assert main(["alignment", "--config", cfg]) == EXIT_PARTIAL
        captured = capsys.readouterr()
        entries = json.loads(captured.out)["entries"]
        assert entries["age"] == analyzed["age"]["alignment"]
        assert entries["old"] == {"error": analyzed["old"]["error"]}
        assert entries["old"]["error"]["type"] == "RankTooLargeError"
        assert captured.err.startswith("grouping old: RankTooLargeError: ")


class TestImports:
    def test_cli_imports_no_package_but_numpy_and_yaml(self):
        # a fresh interpreter, so modules other tests loaded do not count
        src = str(Path(scoregap.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = (
            "import sys, importlib.metadata as md\n"
            "before = {m.split('.')[0] for m in sys.modules}\n"
            "import scoregap.cli\n"
            "new = {m.split('.')[0] for m in sys.modules} - before\n"
            "owners = md.packages_distributions()\n"
            "print(' '.join(sorted({d for m in new for d in owners.get(m, ())})))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert set(out.split()) <= {"numpy", "PyYAML", "scoregap"}


class TestParser:
    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["analyze"])  # --config is required
        assert info.value.code == 2

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2
