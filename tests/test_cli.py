import importlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import scoregap
import scoregap.cli
from scoregap import (
    ConfigError, condition_report, disparity_example, improvement_report, load_config, render_json, run_analysis,
)
from scoregap.cli import (
    EXIT_CONFIG,
    EXIT_DEGENERATE,
    EXIT_INGEST,
    EXIT_OK,
    EXIT_PARTIAL,
    main,
)
from scoregap.experiment import RESULT_SCHEMA_VERSION, _leaves, population_payload
from scoregap.modelio import model_from_dict

from conftest import EXACT_ZERO_PULL_MODELS, model_to_dict, random_population

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


def two_axis_model(tmp_path, epsilon, name="m.json"):
    """The two-axis disparity construction written as a model file."""
    return write(tmp_path, name, render_json(model_to_dict(disparity_example(epsilon))))


def runs_with_and_without_bom(capsys, path, data, argv):
    """(exit code, captured streams) of `main(argv)` with `data` at `path`, then with a UTF-8 BOM before it."""
    runs = []
    for bom in (b"", b"\xef\xbb\xbf"):
        Path(path).write_bytes(bom + data)
        runs.append((main(argv), capsys.readouterr()))
    return runs


class TestCheck:
    def test_round_trip_through_check(self, tmp_path, capsys):
        model_path = two_axis_model(tmp_path, 0.1)
        assert main(["check", model_path]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["model"] == model_path
        conditions = doc["conditions"]
        assert conditions["fast_path"] == "orthogonal_subspaces"
        assert conditions["do_no_harm"]["group1"]["verdict"] is True
        assert conditions["do_no_harm"]["group2"]["verdict"] is True
        assert conditions["equal_improvement"]["verdict"] is False
        assert conditions["equal_improvement"]["value"] == pytest.approx(-0.98, abs=1e-12)
        assert conditions["per_unit_optimal"]["group1"]["verdict"] is True

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
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        # analyze writes the same failure as the entry's error object
        cfg = models_yaml(tmp_path, f"models:\n  - name: flat\n    path: {path}\n")
        assert main(["analyze", "--config", cfg]) == EXIT_DEGENERATE
        (entry,) = json.loads(capsys.readouterr().out)["groupings"]
        assert entry["error"]["type"] == "DegenerateObjectiveError"
        assert captured.err == f"error: {entry['error']['message']}\n"

    @pytest.mark.parametrize("name", sorted(EXACT_ZERO_PULL_MODELS))
    def test_exactly_zero_pulls_are_degenerate(self, tmp_path, capsys, name):
        # each pull is P_g z for a solve z that P_g annihilates, so only roundoff is left of it
        path = write(tmp_path, f"{name}.json", json.dumps(EXACT_ZERO_PULL_MODELS[name]))
        message = "welfare gain is zero for every rule; no maximizer exists"
        assert main(["check", path]) == EXIT_DEGENERATE
        assert capsys.readouterr() == ("", f"error: {message}\n")
        cfg = models_yaml(tmp_path, f"models:\n  - name: {name}\n    path: {path}\n")
        assert main(["analyze", "--config", cfg]) == EXIT_DEGENERATE
        captured = capsys.readouterr()
        (entry,) = json.loads(captured.out)["groupings"]
        assert entry["error"] == {"type": "DegenerateObjectiveError", "message": message}
        assert captured.err == f"grouping {name}: DegenerateObjectiveError: {message}\n"

    def test_a_byte_order_mark_is_skipped(self, tmp_path, capsys):
        path = two_axis_model(tmp_path, 0.1)
        plain, bom = runs_with_and_without_bom(capsys, path, Path(path).read_bytes(), ["check", path])
        assert plain == bom
        assert plain[0] == EXIT_OK

    def test_out_file(self, tmp_path, capsys):
        model_path = two_axis_model(tmp_path, 0.5)
        out_path = str(tmp_path / "report.json")
        assert main(["check", model_path, "--out", out_path]) == EXIT_OK
        assert capsys.readouterr().out == ""
        doc = json.loads(Path(out_path).read_text())
        assert doc["schema_version"] == 7

    def test_same_conditions_as_analyze(self, tmp_path, capsys):
        # one model file, two subcommands: check writes exactly the analyze entry's payload
        rng = np.random.default_rng(21)
        random_model = str(tmp_path / "random.json")
        Path(random_model).write_text(
            render_json(model_to_dict(random_population(rng, d=5))), encoding="utf-8")
        two_axis = two_axis_model(tmp_path, 0.3, "two_axis.json")
        rank_cut = write(tmp_path, "rank_cut.json", json.dumps({
            "w_star": rng.standard_normal(6).tolist(),
            "data1": rng.standard_normal((40, 6)).tolist(),
            "data2": rng.standard_normal((30, 6)).tolist(),
            "rank": 3,
        }))
        paths = {"random": random_model, "two_axis": two_axis, "rank_cut": rank_cut}
        cfg = models_yaml(tmp_path, "models:\n" + "".join(
            f"  - name: {name}\n    path: {path}\n" for name, path in paths.items()))
        assert main(["analyze", "--config", cfg]) == EXIT_OK
        entries = {e["name"]: e for e in json.loads(capsys.readouterr().out)["groupings"]}
        assert entries["rank_cut"]["effective_ranks"] == [3, 3]
        for name, path in paths.items():
            assert main(["check", path]) == EXIT_OK
            checked = json.loads(capsys.readouterr().out)
            assert checked.pop("schema_version") == 7
            assert checked.pop("model") == path
            skipped = ("name", "source", "group_sizes", "n_excluded")
            assert checked == {k: v for k, v in entries[name].items() if k not in skipped}

    def test_orthogonal_model_alignment_is_zero(self, tmp_path, capsys):
        model_path = two_axis_model(tmp_path, 0.4)
        assert main(["check", model_path]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["alignment"] == 0.0

    def test_identical_subspaces_alignment_is_one(self, tmp_path, capsys):
        doc = {
            "w_star": [1.0, 1.0],
            "projection1": [[1.0, 0.0], [0.0, 1.0]],
            "projection2": [[1.0, 0.0], [0.0, 1.0]],
        }
        path = write(tmp_path, "full.json", json.dumps(doc))
        assert main(["check", path]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["alignment"] == pytest.approx(1.0, abs=1e-12)


class TestUnwritableOut:
    """An unwritable --out is reported before `analyze` runs anything, and nothing is written."""

    @pytest.fixture(autouse=True)
    def runs(self):
        with mock.patch.object(scoregap.cli, "run_analysis", wraps=scoregap.cli.run_analysis) as runs:
            yield runs

    @pytest.fixture(autouse=True)
    def loads(self):
        with mock.patch.object(scoregap.cli, "read_model_files", wraps=scoregap.cli.read_model_files) as loads:
            yield loads

    @pytest.mark.parametrize("command", [
        ["analyze", "--config", "{models}"],
        ["check", "{model}"],
        ["analyze", "--config", "{config}"],
        ["analyze", "--config", "{config}", "--format", "csv"],
    ])
    def test_missing_directory_is_a_usage_error(self, tmp_path, capsys, runs, loads, command):
        model_path = two_axis_model(tmp_path, 0.4)
        models = models_yaml(tmp_path, "models:\n  - name: m\n    epsilon: 0.3\n")
        args = [a.format(model=model_path, config=toy_config(tmp_path), models=models)
                for a in command]
        out = str(tmp_path / "absent" / "out.json")
        assert main([*args, "--out", out]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {out}: No such file or directory\n"
        assert not runs.called and not loads.called

    def test_csv_and_side_json_are_written_all_or_nothing(self, tmp_path, capsys, runs):
        out = tmp_path / "table.csv"
        Path(f"{out}.json").mkdir()
        assert main(["analyze", "--config", toy_config(tmp_path), "--format", "csv",
                     "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: cannot write {out}.json: Is a directory\n"
        assert not out.exists()
        assert not runs.called

    def test_write_files_removes_the_files_it_opened_when_a_later_open_fails(self, tmp_path):
        # the pre-check stops these cases in `analyze`; an open or write it does
        # not foresee (permission denied, a full disk) fails the same way, and
        # the file that was at --out before keeps its old text
        first = tmp_path / "table.csv"
        first.write_text("old", encoding="utf-8")
        (tmp_path / "table.csv.json").mkdir()
        for second, error in (("table.csv.json", "Is a directory"),
                              ("absent/table.csv.json", "No such file or directory")):
            with pytest.raises(ConfigError) as info:
                scoregap.cli._write_files({str(first): "a,b\n", str(tmp_path / second): "{}"})
            assert str(info.value) == f"cannot write {tmp_path / second}: {error}"
            assert first.read_text(encoding="utf-8") == "old"
            assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv", "table.csv.json"]
            assert list((tmp_path / "table.csv.json").iterdir()) == []

    def test_write_files_keeps_modes_and_writes_through_symlinks(self, tmp_path):
        kept, fresh, target, link = (tmp_path / name for name in ("kept", "fresh", "target", "link"))
        kept.write_text("old", encoding="utf-8")
        kept.chmod(0o640)
        target.write_text("old", encoding="utf-8")
        link.symlink_to(target)
        umask = os.umask(0o027)
        try:
            scoregap.cli._write_files({str(kept): "a", str(fresh): "b", str(link): "c"})
        finally:
            os.umask(umask)
        assert [p.read_text(encoding="utf-8") for p in (kept, fresh, target)] == ["a", "b", "c"]
        assert (kept.stat().st_mode & 0o777, fresh.stat().st_mode & 0o777) == (0o640, 0o640)
        assert link.is_symlink()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh", "kept", "link", "target"]

    def test_directory_is_a_usage_error(self, tmp_path, capsys, runs, loads):
        model_path = two_axis_model(tmp_path, 0.4)
        assert main(["check", model_path, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: cannot write {tmp_path}: Is a directory\n"
        assert not loads.called
        assert main(["analyze", "--config", toy_config(tmp_path), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: cannot write {tmp_path}: Is a directory\n"
        assert not runs.called

    def test_a_file_in_place_of_a_directory_gets_the_error_open_gives(self, tmp_path, capsys, runs):
        (tmp_path / "file").write_text("", encoding="utf-8")
        out = str(tmp_path / "file" / "out.json")
        assert main(["analyze", "--config", toy_config(tmp_path), "--out", out]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: cannot write {out}: Not a directory\n"
        assert not runs.called

    def test_an_existing_file_is_checked_without_truncating_it(self, tmp_path, capsys, runs):
        out = tmp_path / "table.csv"
        out.write_text("old", encoding="utf-8")
        Path(f"{out}.json").mkdir()
        assert main(["analyze", "--config", toy_config(tmp_path), "--format", "csv",
                     "--out", str(out)]) == EXIT_CONFIG
        assert out.read_text(encoding="utf-8") == "old"
        assert not runs.called
        Path(f"{out}.json").rmdir()
        assert main(["analyze", "--config", toy_config(tmp_path), "--format", "csv",
                     "--out", str(out)]) == EXIT_OK
        assert runs.call_count == 1 and out.read_text(encoding="utf-8").startswith("name,")


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
        assert sibling["schema_version"] == 7

    def test_csv_format_stdout_only(self, tmp_path, capsys):
        cfg = toy_config(tmp_path)
        assert main(["analyze", "--config", cfg, "--format", "csv"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("name,")

    def test_config_settings_change_result(self, tmp_path, capsys):
        text = TOY_CONFIG.format(csv=write(tmp_path, "toy.csv", TOY_CSV)).replace("rank: 2", "rank: 1")
        cfg = write(tmp_path, "config.yaml", text + "standardize: true\n")
        assert main(["analyze", "--config", cfg]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert (doc["rank"], doc["standardize"]) == (1, True)
        assert doc["groupings"][0]["effective_ranks"] == [1, 1]

    @pytest.mark.parametrize("flags", [["--rank", "3"], ["--wstar", "fit:label"], ["--standardize"]])
    def test_result_settings_are_not_flags(self, tmp_path, capsys, flags):
        # the config alone fixes the document; the command line picks only --out and --format
        with pytest.raises(SystemExit) as info:
            main(["analyze", "--config", toy_config(tmp_path), *flags])
        assert info.value.code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: unrecognized arguments: {' '.join(flags)}" in captured.err

    @pytest.mark.parametrize("line, key", [
        ("out: results.json", "out"), ("out: 7", "out"), ("format: csv", "format"), ("format: null", "format"),
    ])
    def test_output_settings_in_a_config_are_unknown_keys(self, tmp_path, capsys, monkeypatch, line, key):
        monkeypatch.chdir(tmp_path)
        cfg = toy_config(tmp_path, line + "\n")
        assert main(["analyze", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: unknown config keys: ['{key}']\n")
        assert sorted(os.listdir(tmp_path)) == ["config.yaml", "toy.csv"]

    @pytest.mark.parametrize("line, key", [
        pytest.param("encoding:\n  grade: [bad, good]", "encoding", id="encoding"),
        pytest.param("drop_columns: [id]", "drop_columns", id="drop_columns"),
        pytest.param("costs:\n  group1: 2.0", "costs.group1", id="costs.group1"),
        pytest.param("costs:\n  group2: [[1.0, 0.0], [0.0, 1.0]]", "costs.group2", id="costs.group2"),
        pytest.param('wstar: "fit:x"', "wstar", id="wstar"),
        pytest.param("standardize: true", "standardize", id="standardize"),
        pytest.param("rank: 3", "rank", id="rank"),
    ])
    def test_dataset_only_setting_in_model_mode_is_a_usage_error(self, tmp_path, capsys, line, key):
        # a model file fixes its own features, projections and costs
        cfg = models_yaml(tmp_path, f"models:\n  - name: m\n    epsilon: 0.5\n{line}\n")
        assert main(["analyze", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {key}: applies only to a dataset config, not to models\n"

    @pytest.mark.parametrize("costs, message", [
        pytest.param("{group1: [[1.0, 0.0], [0.0, 1.0]]}", "costs.group1: dimension 2 does not match feature count 3",
                     id="wrong-dimension"),
        pytest.param("{group2: [[1, 0, 0], [0, -1, 0], [0, 0, 1]]}",
                     "costs.group2: Cholesky failed; cost matrix is not positive definite", id="not-spd"),
    ])
    def test_a_cost_that_does_not_fit_stops_the_run(self, tmp_path, capsys, costs, message):
        # the costs are run-wide, so two groupings still give one error line and no document
        second = "  - name: skill\n    group1: {column: skill, op: le, value: 0}\nrank: 2"
        text = TOY_CONFIG.format(csv=write(tmp_path, "toy.csv", TOY_CSV)).replace("rank: 2", second)
        cfg = write(tmp_path, "config.yaml", f"{text}costs: {costs}\n")
        out = tmp_path / "out.json"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_out_of_range_epsilon(self, tmp_path, capsys):
        cfg = models_yaml(tmp_path, "models:\n  - name: wide\n    epsilon: 1.5\n")
        assert main(["analyze", "--config", cfg]) == EXIT_PARTIAL
        captured = capsys.readouterr()
        (entry,) = json.loads(captured.out)["groupings"]
        assert entry["error"]["type"] == "EpsilonOutOfRangeError"
        assert captured.err.startswith("grouping wide: EpsilonOutOfRangeError: ")

    @pytest.mark.parametrize("old, new", [
        pytest.param("22,0.5,", "22,0\xff5,", id="data-cell"),
        pytest.param("skill", "sk\xffill", id="header"),
    ])
    def test_non_utf8_csv_is_an_ingest_error(self, tmp_path, capsys, old, new):
        cfg = toy_config(tmp_path)
        csv_path = tmp_path / "toy.csv"
        csv_path.write_bytes(TOY_CSV.replace(old, new).encode("latin-1"))
        assert main(["analyze", "--config", cfg]) == EXIT_INGEST
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {csv_path} is not UTF-8 text: byte 0xff cannot be decoded\n"

    def test_non_finite_csv_cell_is_an_ingest_error(self, tmp_path, capsys):
        cfg = toy_config(tmp_path)
        csv_path = tmp_path / "toy.csv"
        csv_path.write_text(TOY_CSV.replace("28,1.1,", "28,inf,"))
        assert main(["analyze", "--config", cfg]) == EXIT_INGEST
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {csv_path}: column 'skill' holds a non-finite value\n"

    def test_missing_config(self, tmp_path, capsys):
        assert main(["analyze", "--config", str(tmp_path / "no.yaml")]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_bad_config_value(self, tmp_path, capsys):
        cfg = models_yaml(tmp_path, "models:\n  - name: m\n    epsilon: 0.5\nrank: 0\n")
        assert main(["analyze", "--config", cfg]) == EXIT_CONFIG

    @pytest.mark.parametrize("line, message", [
        ("dataset: [a, b]", "dataset: expected a string, got ['a', 'b']"),
    ])
    def test_non_string_value_is_a_config_error(self, tmp_path, capsys, line, message):
        cfg = models_yaml(tmp_path, f"models:\n  - name: m\n    epsilon: 0.5\n{line}\n")
        assert main(["analyze", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    @pytest.mark.parametrize("spec, message", [
        ("{a: .inf}", "'a' maps to inf, not a finite number"),
        ("[a, a, b]", "category 'a' is given twice"),
    ])
    def test_bad_encoding_is_a_config_error(self, tmp_path, capsys, spec, message):
        # reported before the CSV is read, as the config's fault
        cfg = toy_config(tmp_path, f"encoding:\n  age: {spec}\n")
        assert main(["analyze", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: encoding: bad encoding spec for column 'age': {message}\n")

    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys):
        # a config's `seed` is still read and checked; the --seed flag is gone
        cfg = toy_config(tmp_path)
        negative = write(tmp_path, "negative.yaml", Path(cfg).read_text() + "seed: -2\n")
        assert main(["analyze", "--config", negative]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: seed must be >= 0, got -2\n")
        with pytest.raises(SystemExit) as info:
            main(["analyze", "--config", cfg, "--seed", "1"])
        assert info.value.code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: unrecognized arguments: --seed 1" in captured.err

    def test_missing_dataset_file(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.yaml", TOY_CONFIG.format(csv=str(tmp_path / "gone.csv")))
        assert main(["analyze", "--config", cfg]) == EXIT_INGEST
        assert "error:" in capsys.readouterr().err

    def test_partial_failure_exit(self, tmp_path, capsys):
        cfg = models_yaml(tmp_path, (
            "models:\n"
            "  - name: fine\n    epsilon: 0.5\n"
            f"  - name: broken\n    path: {tmp_path / 'absent.json'}\n"
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
        ))
        assert main(["analyze", "--config", cfg]) == EXIT_DEGENERATE
        assert "DegenerateObjectiveError" in capsys.readouterr().err

    def test_empty_group_is_an_error_entry(self, tmp_path, capsys):
        cfg = toy_config(tmp_path)
        write(tmp_path, "config.yaml", Path(cfg).read_text().replace("value: 35", "value: 99"))
        assert main(["analyze", "--config", cfg]) == EXIT_PARTIAL
        captured = capsys.readouterr()
        assert "group 2 received zero rows" in captured.err
        (entry,) = json.loads(captured.out)["groupings"]
        assert entry["error"]["type"] == "EmptyGroupError"

    def test_failed_grouping_is_an_error_entry(self, tmp_path, capsys):
        # one grouping too small for the rank fails; the other is still reported
        cfg = toy_config(tmp_path)
        write(tmp_path, "config.yaml", Path(cfg).read_text().replace(
            "rank: 2", "  - name: old\n    group1: {column: age, op: ge, value: 60}\nrank: 2"))
        assert main(["analyze", "--config", cfg]) == EXIT_PARTIAL
        captured = capsys.readouterr()
        entries = {e["name"]: e for e in json.loads(captured.out)["groupings"]}
        assert 0.0 <= entries["age"]["alignment"] <= 1.0
        assert entries["old"] == {"name": "old", "error": entries["old"]["error"]}
        assert entries["old"]["error"]["type"] == "RankTooLargeError"
        assert captured.err.startswith("grouping old: RankTooLargeError: ")


class TestExitStatus:
    """`analyze`'s exit code from its entries: 0 when none failed, 4 when every
    entry failed on a degeneracy, 5 otherwise; each failed entry is one stderr line."""

    FLAT = {"w_star": [0.0, 1.0], "projection1": [[1.0, 0.0], [0.0, 0.0]],
            "projection2": [[1.0, 0.0], [0.0, 0.0]]}  # no rule moves w*'s axis
    DEGENERATE = "DegenerateObjectiveError: welfare gain is zero for every rule; no maximizer exists"

    @staticmethod
    def analyze(tmp_path, capsys, entries):
        body = "".join(f"  - name: {name}\n    {key}: {value}\n" for name, key, value in entries)
        code = main(["analyze", "--config", models_yaml(tmp_path, "models:\n" + body)])
        captured = capsys.readouterr()
        assert json.loads(captured.out)["n_failed"] == len(captured.err.splitlines())
        return code, captured.err.splitlines()

    @staticmethod
    def absent(tmp_path, name):
        path = tmp_path / f"{name}.json"
        return (f"grouping {name}: ConfigError: cannot open model file {path}: "
                f"[Errno 2] No such file or directory: '{path}'")

    def test_clean_run(self, tmp_path, capsys):
        assert self.analyze(tmp_path, capsys, [("eps01", "epsilon", 0.1)]) == (EXIT_OK, [])

    def test_mixed_run_is_partial(self, tmp_path, capsys):
        entries = [("good", "epsilon", 0.5), ("bad", "path", tmp_path / "bad.json")]
        assert self.analyze(tmp_path, capsys, entries) == (EXIT_PARTIAL, [self.absent(tmp_path, "bad")])

    def test_all_failed_non_degenerate_is_partial(self, tmp_path, capsys):
        entries = [("bad1", "path", tmp_path / "bad1.json"), ("bad2", "path", tmp_path / "bad2.json")]
        want = [self.absent(tmp_path, "bad1"), self.absent(tmp_path, "bad2")]
        assert self.analyze(tmp_path, capsys, entries) == (EXIT_PARTIAL, want)

    def test_all_degenerate(self, tmp_path, capsys):
        flat = write(tmp_path, "flat.json", json.dumps(self.FLAT))
        entries = [("flat", "path", flat), ("flat2", "path", flat)]
        want = [f"grouping flat: {self.DEGENERATE}", f"grouping flat2: {self.DEGENERATE}"]
        assert self.analyze(tmp_path, capsys, entries) == (EXIT_DEGENERATE, want)

    def test_mixed_degenerate_and_success_is_partial(self, tmp_path, capsys):
        flat = write(tmp_path, "flat.json", json.dumps(self.FLAT))
        entries = [("flat", "path", flat), ("fine", "epsilon", 0.5)]
        assert self.analyze(tmp_path, capsys, entries) == (EXIT_PARTIAL, [f"grouping flat: {self.DEGENERATE}"])


# The dataset is absent, so a config that got past loading would exit 3, not 2.
REJECTED_CONFIG = """dataset: absent.csv
drop_columns: [label]
groupings:
  - name: age
    group1: {column: age, op: le, value: 35}
"""
REJECTED_MODEL = {"w_star": [1.0, 0.0], "projection1": [[1.0, 0.0], [0.0, 0.0]],
                  "projection2": [[0.0, 0.0], [0.0, 1.0]]}


def _config_with(old, new):
    return "config.yaml", REJECTED_CONFIG.replace(old, new)


def _model_with(**fields):
    return "model.json", json.dumps(dict(REJECTED_MODEL, **fields))


class TestRejectedValues:
    @pytest.mark.parametrize("source, message", [
        pytest.param(_config_with("column: age", "column: null"),
                     "groupings[0].group1.column: expected a string, got None", id="null-column"),
        pytest.param(_config_with("op: le", "op: [le]"),
                     "groupings[0].group1.op: expected a string, got ['le']", id="list-op"),
        pytest.param(_config_with("[label]", "[null]"),
                     "drop_columns[0]: expected a string, got None", id="null-drop-column"),
        pytest.param(("config.yaml", "dataset: absent.csv\ngroupings: 5\n"),
                     "groupings: expected a list of groupings", id="scalar-groupings"),
        pytest.param(("config.yaml", "models: 7\n"),
                     "models: expected a list of model entries", id="scalar-models"),
        pytest.param(("config.yaml", "models: true\n"),
                     "models: expected a list of model entries", id="bool-models"),
        pytest.param(_config_with("value: 35", "value: abc"),
                     "groupings[0].group1: comparator 'le' needs a numeric value, got 'abc'",
                     id="text-threshold"),
        pytest.param(_config_with("value: 35", "value: true"),
                     "groupings[0].group1: comparator 'le' needs a numeric value, got True",
                     id="bool-threshold"),
        pytest.param(_config_with("op: le, value: 35", "op: in, value: 30"),
                     "groupings[0].group1: 'in' comparator needs a value list, got 30", id="in-scalar"),
        pytest.param(_config_with("[label]\n", "[label]\ncosts: {group1: .inf}\n"),
                     "costs.group1: scale must be a positive finite number, got inf", id="inf-scale"),
        pytest.param(_config_with("[label]\n", "[label]\ncosts: {group2: .nan}\n"),
                     "costs.group2: scale must be a positive finite number, got nan", id="nan-scale"),
        pytest.param(_config_with("[label]\n", f"[label]\ncosts: {{group1: {10 ** 400}}}\n"),
                     f"costs.group1: scale must be a positive finite number, got {10 ** 400}",
                     id="huge-int-scale"),
        pytest.param(_config_with("[label]\n", "[label]\ncosts: {group1: [[1, 0], [0, .nan]]}\n"),
                     "costs.group1: contains non-finite values", id="nan-cost-matrix"),
        pytest.param(("config.yaml", f"models:\n  - name: m\n    epsilon: {10 ** 400}\n"),
                     f"models[0].epsilon: expected a finite number, got {10 ** 400}",
                     id="huge-int-epsilon"),
        pytest.param(("config.yaml", "models:\n  - name: m\n    epsilon: .inf\n"),
                     "models[0].epsilon: expected a finite number, got inf", id="inf-epsilon"),
        pytest.param(_model_with(data1=[[1.0, 0.0]]),
                     "data1: set alongside projection1; give only one", id="data-and-projection"),
        pytest.param(_model_with(rank=1),
                     "rank: applies only to data1/data2, and neither is given", id="rank-without-data"),
        pytest.param(_model_with(names=[None, 7]),
                     "names: expected two strings, got [None, 7]", id="non-string-names"),
        pytest.param(_model_with(w_star=[10 ** 400, 0]),
                     "w_star: contains non-finite values", id="huge-int-w_star"),
        pytest.param(_model_with(projection1=None, data1=[[1.0, 0.0]], rank=2),
                     "data1: rank k=2 exceeds min(n, d)=1", id="rank-above-data1"),
    ])
    def test_is_a_usage_error_naming_the_field(self, tmp_path, capsys, monkeypatch, source, message):
        monkeypatch.chdir(tmp_path)
        name, text = source
        path = write(tmp_path, name, text)
        argv = ["analyze", "--config", path] if name.endswith(".yaml") else ["check", path]
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


def _two_axis_doc(**changes):
    """The epsilon = 0.3 model file's document with `changes` applied (None deletes a key)."""
    doc = model_to_dict(disparity_example(0.3))
    for key, value in changes.items():
        if value is None:
            del doc[key]
        else:
            doc[key] = value
    return doc


def _benchmark_doc():
    """A small model file with the key set the benchmark's model workload writes."""
    rng = np.random.default_rng(16)
    return {"schema_version": 1, "names": ["a", "b"], "rank": 2,
            "w_star": rng.standard_normal(4).tolist(),
            "cost1": (np.eye(4) * 2.0).tolist(), "cost2": np.eye(4).tolist(),
            "data1": rng.standard_normal((9, 4)).tolist(),
            "data2": rng.standard_normal((7, 4)).tolist()}


class TestModelKeys:
    """The model-file reader takes only MODEL_KEYS and only schema_version 1,
    and check and an analyze entry report a file the same way."""

    @staticmethod
    def check_and_analyze(tmp_path, capsys, doc):
        """(check's exit code, its output, analyze's exit code, its one entry) for `doc`."""
        path = write(tmp_path, "model.json", json.dumps(doc))
        checked = main(["check", path]), capsys.readouterr()
        cfg = models_yaml(tmp_path, f"models:\n  - name: m\n    path: {path}\n")
        analyzed = main(["analyze", "--config", cfg])
        (entry,) = json.loads(capsys.readouterr().out)["groupings"]
        return (*checked, analyzed, entry)

    @pytest.mark.parametrize("doc, message", [
        pytest.param(_two_axis_doc(cost1=None, cots1=np.eye(2).tolist()),
                     "unknown model keys: ['cots1']", id="misspelled-cost1"),
        pytest.param({"zeta": 1, "alpha": 2}, "unknown model keys: ['alpha', 'zeta']",
                     id="checked-before-fields"),
        pytest.param(_two_axis_doc(schema_version=2), "schema_version: expected 1, got 2",
                     id="version-2"),
        pytest.param(_two_axis_doc(schema_version=True), "schema_version: expected 1, got True",
                     id="version-true"),
        pytest.param(_two_axis_doc(schema_version="1"), "schema_version: expected 1, got '1'",
                     id="version-string"),
        pytest.param(_two_axis_doc(schema_version=1.0), "schema_version: expected 1, got 1.0",
                     id="version-float"),
    ])
    def test_rejected_with_one_message(self, tmp_path, capsys, doc, message):
        code, checked, analyzed, entry = self.check_and_analyze(tmp_path, capsys, doc)
        assert code == EXIT_CONFIG
        assert (checked.out, checked.err) == ("", f"error: {message}\n")
        assert analyzed == EXIT_PARTIAL
        assert entry["error"] == {"type": "ConfigError", "message": message}

    @pytest.mark.parametrize("doc", [
        pytest.param(_two_axis_doc(schema_version=None), id="no-version"),
        pytest.param(_benchmark_doc(), id="benchmark-keys"),
    ])
    def test_accepted_with_one_payload(self, tmp_path, capsys, doc):
        code, checked, analyzed, entry = self.check_and_analyze(tmp_path, capsys, doc)
        assert (code, checked.err, analyzed) == (EXIT_OK, "", EXIT_OK)
        payload = json.loads(checked.out)
        del payload["schema_version"], payload["model"]
        skipped = ("name", "source", "group_sizes", "n_excluded")
        assert payload == {k: v for k, v in entry.items() if k not in skipped}


# An integer literal longer than Python's int-conversion limit (4,300
# digits by default). Where the reader's own error text follows, it varies
# by Python version, so only the message prefix is pinned.
HUGE_INT = "1" * 5000


class TestWstarFile:
    @pytest.mark.parametrize("text, message", [
        pytest.param(None, "cannot open w* file {path}: ", id="unreadable"),
        pytest.param("1.0 \xff 2.0\n", "{path} is not UTF-8 text: byte 0xff cannot be decoded\n", id="not-utf-8"),
        pytest.param("1.0 two 3.0\n", "{path}: neither JSON nor whitespace-separated numbers\n",
                     id="not-numbers"),
        pytest.param(f"[{HUGE_INT}, 0, 0]", "{path}: neither JSON nor whitespace-separated numbers\n",
                     id="huge-int"),
        pytest.param("[" * 100_000, "{path}: neither JSON nor whitespace-separated numbers\n",
                     id="deep-nesting"),
    ])
    def test_is_a_usage_error_naming_the_file(self, tmp_path, capsys, text, message):
        path = tmp_path / "wstar.txt"
        if text is not None:
            path.write_bytes(text.encode("latin-1"))  # one byte per character, so \xff is not UTF-8
        cfg = toy_config(tmp_path, f"wstar: vector:{path}\n")
        assert main(["analyze", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: " + message.format(path=path))


    @pytest.mark.parametrize("text", ["1 1 1\n", "[1, 1, 1]"], ids=["numbers", "json"])
    def test_a_byte_order_mark_is_skipped(self, tmp_path, capsys, text):
        path = tmp_path / "wstar.txt"
        argv = ["analyze", "--config", toy_config(tmp_path, f"wstar: vector:{path}\n")]
        plain, bom = runs_with_and_without_bom(capsys, path, text.encode(), argv)
        assert plain == bom
        assert plain[0] == EXIT_OK


class TestPayloadOverflow:
    """A finite model whose payload overflows: no inf is written, and the key is named."""

    MODEL = {"schema_version": 1, "rank": 1, "w_star": [5e-324, 1e155, 1e155],
             "data1": [[1e154, 5e-324, 1e154]], "data2": [[0.0, 9.44, 5e-324]]}
    MESSAGE = "conditions.do_no_harm.group1.value: overflows to a non-finite value"

    def test_check_is_a_usage_error(self, tmp_path, capsys):
        model = write(tmp_path, "model.json", json.dumps(self.MODEL))
        out = tmp_path / "report.json"
        assert main(["check", model, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {self.MESSAGE}\n"
        assert not out.exists()

    def test_analyze_records_an_error_entry(self, tmp_path, capsys):
        model = write(tmp_path, "model.json", json.dumps(self.MODEL))
        cfg = models_yaml(tmp_path, f"models:\n  - name: big\n    path: {model}\n"
                                    "  - name: fine\n    epsilon: 0.5\n")
        assert main(["analyze", "--config", cfg]) == EXIT_PARTIAL
        captured = capsys.readouterr()
        doc = json.loads(captured.out, parse_constant=lambda token: pytest.fail(f"{token} written"))
        entries = {e["name"]: e for e in doc["groupings"]}
        assert entries["big"] == {"name": "big", "error": {"type": "NonFiniteError", "message": self.MESSAGE}}
        assert "error" not in entries["fine"]
        assert captured.err == f"grouping big: NonFiniteError: {self.MESSAGE}\n"


# A finite model whose data2 QR overflows unless it is factored at a power-of-two scale.
NEAR_LIMIT_MODEL = {"schema_version": 1, "rank": 1, "w_star": [1.0, 1.0, 1.0], "data1": [[1.0, 0.0, 0.0]],
                    "data2": [[1.0, 1.0, -1e308], [0.5, 2.0, 2.0], [0.5, 0.5, 0.5]]}

# Model files whose pulls are solved near the float limit: each name maps to
# (its fields, check's exit code, the error line after "error: "). A "twin"
# is the same file with w* scaled down far enough that no solve overflows.
_TOLERANCE = "conditions.do_no_harm.group1.tolerance: overflows to a non-finite value"
_PULL_OVERFLOW = "group1: pull direction overflows to a non-finite value"
_TINY_COST = {"cost1": [[1e-300, 0.0], [0.0, 1e-310]], "data1": [[1.0, 1.0]], "data2": [[1.0, 0.0], [0.0, 1.0]]}
FLOAT_LIMIT_MODELS = {
    # unscaled, A_1^{-1} w* = (2e308, 1) would overflow before P_1 projects that axis away; t_1 is judged
    # zero, and it is the do-no-harm tolerance, in units of w*^2, that leaves the float range
    "a": ({"w_star": [1e308, 1.0], "cost1": [[0.5, 0.0], [0.0, 1.0]], "data1": [[0.0, 1.0]],
           "data2": [[0.0, 1.0], [1.0, 1.0]]}, EXIT_CONFIG, _TOLERANCE),
    "a_twin": ({"w_star": [1e300, 1.0], "cost1": [[0.5, 0.0], [0.0, 1.0]], "data1": [[0.0, 1.0]],
                "data2": [[0.0, 1.0], [1.0, 1.0]]}, EXIT_CONFIG, _TOLERANCE),
    # t_1 + t_2 overflows, and so does ||s||^2 in the do-no-harm tolerance
    "sum": ({"w_star": [1e200, 1e308], "data1": [[1.0, 0.0], [0.0, 1.0]], "data2": [[1.0, 0.0], [0.0, 1.0]]},
            EXIT_CONFIG, _TOLERANCE),
    "inf_solve": ({"w_star": [1e308, 1e308], "cost1": [[0.5, 0.0], [0.0, 1.0]], "data1": [[0.0, 1.0]],
                   "data2": [[1.0, 1.0]]}, EXIT_CONFIG, _TOLERANCE),
    "inf_solve_twin": ({"w_star": [1e300, 1e300], "cost1": [[0.5, 0.0], [0.0, 1.0]], "data1": [[0.0, 1.0]],
                        "data2": [[1.0, 1.0]]}, EXIT_CONFIG, _TOLERANCE),
    # t_1 = 5e309 (1, 1) leaves the float range; with w* = 1e-300 it is finite and dwarfs t_2
    "tiny_cost": ({"w_star": [1.0, 1.0], **_TINY_COST}, EXIT_CONFIG, _PULL_OVERFLOW),
    "tiny_cost_tiny_w": ({"w_star": [1e-300, 1e-300], **_TINY_COST}, 0, None),
    # the zero pull of a rank-0 projection takes no part in choosing the exponent
    "zero_vote": ({"w_star": [1.0, 1.0], "cost1": [[1e159, 0.0], [0.0, 1e159]], "data1": [[1.0, 0.0]],
                   "projection2": [[0.0, 0.0], [0.0, 0.0]]}, 0, None),
    # A_1 has condition 1e320, so t_1 itself leaves the float range
    "cond_overflow": ({"w_star": [1.0, 1.0], "cost1": [[1.0, 0.0], [0.0, 1e-320]], "data1": [[1.0, 1.0]],
                       "data2": [[1.0, 0.0], [0.0, 1.0]]},
                      EXIT_CONFIG, _PULL_OVERFLOW),
    # A_g's diagonal spans 1e310, yet t_g = (1e-300, 1e10) is finite: the solve balances rows and columns
    "cond_finite": ({"w_star": [1.0, 1.0], "cost1": [[1e300, 0.0], [0.0, 1e-10]], "cost2": [[1e300, 0.0], [0.0, 1e-10]],
                     "data1": [[1.0, 0.0], [0.0, 1.0]], "data2": [[1.0, 0.0], [0.0, 1.0]]}, 0, None),
    # tr A_2 / tr A_1 = 1e350, the proportional-cost test's c, is taken at a power-of-two scale of each cost
    "wide_cost_ratio": ({"w_star": [1.0, 1.0], "cost1": [[1e-150, 0.0], [0.0, 1e-100]],
                         "cost2": [[1e250, 0.0], [0.0, 1e-150]], "projection1": [[1.0, 0.0], [0.0, 1.0]],
                         "projection2": [[1.0, 0.0], [0.0, 1.0]]}, 0, None),
    # t_1 = 1e600 (1, 1) leaves the float range through the scales of w* and A_1 alone
    "shift_overflow": ({"w_star": [1e300, 1e300], "cost1": [[1e-300, 0.0], [0.0, 1e-300]],
                        "data1": [[1.0, 0.0], [0.0, 1.0]], "data2": [[1.0, 0.0], [0.0, 1.0]]},
                       EXIT_CONFIG, _PULL_OVERFLOW),
}


class TestNearFloatLimit:
    """Finite inputs with entries near the float limit factor without overflow."""

    def test_check(self, tmp_path, capsys):
        model = write(tmp_path, "model.json", json.dumps(NEAR_LIMIT_MODEL))
        assert main(["check", model]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["effective_ranks"] == [1, 1]
        assert doc["alignment"] == pytest.approx(0.0, abs=1e-12)  # data2's top direction is nearly e3

    def test_analyze_on_a_models_config(self, tmp_path, capsys):
        model = write(tmp_path, "model.json", json.dumps(NEAR_LIMIT_MODEL))
        cfg = models_yaml(tmp_path, f"models:\n  - name: near\n    path: {model}\n"
                                    f"  - name: again\n    path: {model}\n")
        assert main(["analyze", "--config", cfg]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["n_failed"] == 0

    @pytest.mark.parametrize("group1, group2", [
        pytest.param(["1.0,1e308,2.0", "0.5,1e308,1.0"], ["1.0,2.0,3.0", "0.5,1.5,-2.0", "2.0,0.1,0.3"],
                     id="group-of-fewer-than-d-rows"),
        pytest.param(["1.0,2.0,3.0", "0.5,1.5,-2.0"], ["1e308,1.0,2.0", "1e308,0.5,1.0", "-1e308,2.0,3.0"],
                     id="cell-of-d-rows"),
    ])
    def test_analyze_on_a_csv(self, tmp_path, capsys, group1, group2):
        rows = [row + ",0" for row in group1] + [row + ",1" for row in group2]
        csv_path = write(tmp_path, "near.csv", "x,y,z,g\n" + "\n".join(rows) + "\n")
        cfg = write(tmp_path, "config.yaml", f"dataset: {csv_path}\ndrop_columns: [g]\ngroupings:\n"
                                             "  - name: g\n    group1: {column: g, op: le, value: 0}\nrank: 1\n")
        assert main(["analyze", "--config", cfg]) == EXIT_OK
        (entry,) = json.loads(capsys.readouterr().out)["groupings"]
        assert entry["effective_ranks"] == [1, 1]

    @staticmethod
    def scaled_check(tmp_path, capsys, w):
        """`check`'s exit code and output for a fixed population whose w* is (w, w)."""
        model = write(tmp_path, f"w{w}.json", json.dumps(
            {"schema_version": 1, "w_star": [w, w], "data1": [[1.0, 0.5]], "data2": [[0.3, 1.0]]}))
        return main(["check", model]), capsys.readouterr()

    @pytest.mark.parametrize("w", [1e-160, 1e-200])
    def test_a_tiny_w_star_keeps_the_verdicts(self, tmp_path, capsys, w):
        # every square of a pull underflows at this size, unless taken at a power-of-two scale
        docs = []
        for value in (1.0, w):
            code, captured = self.scaled_check(tmp_path, capsys, value)
            assert (code, captured.err) == (EXIT_OK, "")
            docs.append(json.loads(captured.out))
        verdicts = [{path: leaf for path, leaf in _leaves(doc["conditions"]) if not isinstance(leaf, float)}
                    for doc in docs]
        assert verdicts[0] == verdicts[1]
        assert verdicts[0]["equal_improvement.verdict"] is False
        assert docs[0]["metrics"]["welfare"] == pytest.approx(2.3749456777949)
        assert docs[1]["metrics"]["welfare"] == pytest.approx(2.3749456777949 * w)

    @pytest.mark.parametrize("name", sorted(FLOAT_LIMIT_MODELS))
    def test_pulls_solved_near_the_float_limit(self, tmp_path, capsys, name):
        fields, code, message = FLOAT_LIMIT_MODELS[name]
        model = write(tmp_path, f"{name}.json", json.dumps({"schema_version": 1, **fields}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["check", model]) == code
        assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
        out, err = capsys.readouterr()
        if code:
            assert (out, err) == ("", f"error: {message}\n")
        else:
            assert err == "" and all(math.isfinite(x) for _, x in _leaves(json.loads(out)) if isinstance(x, float))

    def test_a_pull_judged_zero_improves_nothing(self):
        fields, _, _ = FLOAT_LIMIT_MODELS["tiny_cost_tiny_w"]
        model = model_from_dict({"schema_version": 1, **fields})
        assert model.zero_pulls == (False, True)
        report = improvement_report(model)
        assert report["I2"] == report["uI2"] == 0.0
        conditions = condition_report(model)  # so subgroup 2 gets its per-unit optimum, 0, from every rule
        assert conditions["per_unit_optimal"]["group2"] == {"verdict": True, "value": 0.0, "tolerance": 0.0,
                                                           "boundary": False}
        assert conditions["sufficient_c"]["group2"] is None

    def test_a_huge_w_star_names_the_value_past_the_float_range(self, tmp_path, capsys):
        code, captured = self.scaled_check(tmp_path, capsys, 1e155)
        assert (code, captured.out) == (EXIT_CONFIG, "")
        assert captured.err == "error: conditions.do_no_harm.group1.value: overflows to a non-finite value\n"


def _entry_part(doc):
    return {k: v for k, v in doc.items() if k not in ("name", "source", "group_sizes", "n_excluded")}


class TestCheckMatchesAnalyze:
    """`check MODEL` reports what the `analyze` entry for MODEL reports."""

    def test_documents_agree(self, tmp_path, capsys):
        rng = np.random.default_rng(22)
        docs = {"two_axis": model_to_dict(disparity_example(0.1)),
                "random": model_to_dict(random_population(rng, d=5)),
                "benchmark": _benchmark_doc(),
                "near_limit": NEAR_LIMIT_MODEL,
                "flat": {"w_star": [0.0, 1.0], "projection1": [[1.0, 0.0], [0.0, 0.0]],
                         "projection2": [[1.0, 0.0], [0.0, 0.0]]},
                "bad_array": dict(REJECTED_MODEL, projection2=[[0.0, "x"], [0.0, 1.0]])}
        paths = {name: write(tmp_path, f"{name}.json", json.dumps(doc)) for name, doc in docs.items()}
        cfg = models_yaml(tmp_path, "models:\n" + "".join(
            f"  - name: {name}\n    path: {path}\n" for name, path in paths.items()))
        assert main(["analyze", "--config", cfg]) == EXIT_PARTIAL
        entries = {e["name"]: e for e in json.loads(capsys.readouterr().out)["groupings"]}
        codes = {}
        for name, path in paths.items():
            codes[name] = main(["check", path])
            captured = capsys.readouterr()
            if "error" in entries[name]:
                err = entries[name]["error"]
                assert (captured.out, captured.err) == ("", f"error: {err['message']}\n")
            else:
                check = json.loads(captured.out)
                assert check.pop("model") == path
                assert check.pop("schema_version") == RESULT_SCHEMA_VERSION
                assert check == _entry_part(entries[name])
        assert codes == {"two_axis": EXIT_OK, "random": EXIT_OK, "benchmark": EXIT_OK,
                         "near_limit": EXIT_OK, "flat": EXIT_DEGENERATE, "bad_array": EXIT_CONFIG}
        assert entries["bad_array"]["error"]["message"] == "projection2: expected a list of numbers"


# Subgroup 1 perceives the welfare rule, yet its pull t_1 = P_1 w* is zero (identity costs).
ZERO_PULL_MODEL = {"w_star": [1, -1], "projection1": [[0.5, 0.5], [0.5, 0.5]], "projection2": [[1, 0], [0, 0]]}
# Subgroup 1 sees e_1 and e_2 while w* = e_3, so it perceives none of the welfare rule: n_1 = 0.
BLIND_MODEL = {"w_star": [0, 0, 1], "projection1": [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
               "projection2": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}


class TestZeroPerUnit:
    """A zero pull, or a zero view of the welfare rule, is a per-unit verdict and keeps the entry."""

    @staticmethod
    def check_and_analyze(tmp_path, capsys, doc):
        """`check`'s document for `doc` written as a model file, once `analyze` is seen to keep the same entry."""
        path = write(tmp_path, "model.json", json.dumps(doc))
        cfg = models_yaml(tmp_path, f"models:\n  - name: m\n    path: {path}\n")
        assert main(["analyze", "--config", cfg]) == EXIT_OK
        (entry,) = json.loads(capsys.readouterr().out)["groupings"]
        assert main(["check", path]) == EXIT_OK
        checked = json.loads(capsys.readouterr().out)
        assert {k: v for k, v in checked.items() if k not in ("model", "schema_version")} == _entry_part(entry)
        return checked

    def test_a_zero_pull_meets_its_optimum(self, tmp_path, capsys):
        doc = self.check_and_analyze(tmp_path, capsys, ZERO_PULL_MODEL)
        assert doc["metrics"]["uI1"] == doc["metrics"]["uI1_star"] == 0.0
        conditions = doc["conditions"]
        assert conditions["per_unit_optimal"]["group1"] == {"verdict": True, "value": 0.0, "tolerance": 0.0,
                                                           "boundary": False}
        assert conditions["sufficient_c"]["group1"] is None
        assert conditions["fast_path"] != "sufficient_cg"

    def test_a_blind_subgroup_gets_a_null_verdict(self, tmp_path, capsys):
        doc = self.check_and_analyze(tmp_path, capsys, BLIND_MODEL)
        assert doc["metrics"]["uI1"] is None
        check = doc["conditions"]["per_unit_optimal"]["group1"]
        assert (check["verdict"], check["value"]) == (None, None)
        assert doc["conditions"]["sufficient_c"]["group1"] is None
        assert doc["conditions"]["per_unit_optimal"]["group2"]["verdict"] is True


class TestDatasetMatchesModelFile:
    """One config, one answer: an `analyze` grouping reports what a model file built from its rows does."""

    COSTS = {
        "identity": (None, None),
        "scaled": (2.0, 0.5),
        "diagonal": (np.diag([1.0, 2.0, 3.0, 4.0]), np.diag([4.0, 1.0, 0.5, 2.0])),
    }

    @pytest.mark.parametrize("costs", sorted(COSTS))
    @pytest.mark.parametrize("rank", [2, 3])
    def test_entries_agree(self, tmp_path, capsys, rank, costs):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((60, 4)) @ rng.standard_normal((4, 4))
        g = rng.integers(0, 3, 60)  # rows with g == 2 are in neither group
        lines = ["x0,x1,x2,x3,g"] + [",".join(map(repr, row)) + f",{label}" for row, label in zip(x.tolist(), g)]
        cost_specs = [c if c is None or isinstance(c, float) else c.tolist() for c in self.COSTS[costs]]
        config = {"dataset": write(tmp_path, "d.csv", "\n".join(lines) + "\n"), "drop_columns": ["g"],
                  "groupings": [{"name": "split", "group1": {"column": "g", "op": "eq", "value": 0},
                                 "group2": {"column": "g", "op": "eq", "value": 1}}],
                  "rank": rank, "costs": {"group1": cost_specs[0], "group2": cost_specs[1]}}
        assert main(["analyze", "--config", write(tmp_path, "c.yaml", json.dumps(config))]) == EXIT_OK
        (entry,) = json.loads(capsys.readouterr().out)["groupings"]
        assert entry["n_excluded"] == int((g == 2).sum())

        model = {"w_star": [1.0] * 4, "data1": x[g == 0].tolist(), "data2": x[g == 1].tolist(), "rank": rank}
        for side, cost in enumerate(cost_specs, start=1):
            if cost is not None:
                model[f"cost{side}"] = (cost * np.eye(4)).tolist() if isinstance(cost, float) else cost
        payload = json.loads(render_json(population_payload(model_from_dict(model))))

        expected = dict(_leaves(payload))
        got = dict(_leaves(_entry_part(entry)))
        assert got.keys() == expected.keys()
        for key, value in expected.items():
            if key.startswith("conditions.per_unit_optimal.") and key.endswith(".value"):
                # a difference of near-equal numbers: it agrees to its check's own scale
                assert abs(got[key] - value) <= got[key[:-len("value")] + "tolerance"], key
            elif isinstance(value, float):
                assert abs(got[key] - value) <= 1e-9 * max(1.0, abs(value)), key
            else:  # verdicts, boundary flags, fast_path, effective_ranks, tie_warnings
                assert got[key] == value, key


class TestDeepNesting:
    def test_config(self, tmp_path, capsys):
        cfg = models_yaml(tmp_path, "a: " + "[" * 5000 + "\n")
        assert main(["analyze", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {cfg} is not valid YAML")


class TestRepeatedKeys:
    """A key given twice is rejected where the parser would keep only the last value."""

    @pytest.mark.parametrize("old, new, key", [
        pytest.param("rank: 2\n", "rank: 2\nrank: 1\n", "rank", id="top-level"),
        pytest.param("rank: 2\n", "rank: 2\nencoding: {g: {lo: 1, hi: 2, lo: 3}}\n", "lo", id="nested"),
        pytest.param("op: le, value: 35", "op: le, value: 35, op: gt", "op", id="predicate"),
    ])
    def test_config(self, tmp_path, capsys, old, new, key):
        cfg = toy_config(tmp_path)
        Path(cfg).write_text(Path(cfg).read_text().replace(old, new))
        assert main(["analyze", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {cfg} is not valid YAML: found duplicate key {key!r}\n")

    def test_model_file(self, tmp_path, capsys):
        text = json.dumps(REJECTED_MODEL)
        model = write(tmp_path, "model.json", text[:-1] + ', "w_star": [0.0, 1.0]}')
        assert main(["check", model]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"error: {model} is not valid JSON: duplicate key 'w_star'\n")

    def test_model_file_names_the_repeated_key_not_the_first(self, tmp_path, capsys):
        text = json.dumps({**REJECTED_MODEL, "names": ["a", "b"]})
        model = write(tmp_path, "model.json", text[:-1] + ', "names": ["c", "d"]}')
        assert main(["check", model]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"error: {model} is not valid JSON: duplicate key 'names'\n")


class TestEntryShape:
    """An entry that lacks a required key, or is not a mapping, is one usage error that names the entry."""

    @pytest.mark.parametrize("entry, message", [
        ("{name: a}", "missing group1"), ("{group1: {column: age, op: le, value: 35}}", "missing name"),
    ], ids=["no-group1", "no-name"])
    def test_grouping(self, tmp_path, capsys, entry, message):
        cfg = toy_config(tmp_path)
        Path(cfg).write_text(Path(cfg).read_text().replace(
            "  - name: age\n    group1: {column: age, op: le, value: 35}\n", f"  - {entry}\n"))
        assert main(["analyze", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"error: groupings[0]: {message}\n")

    @pytest.mark.parametrize("entry, message", [
        ("{path: m.json}", "missing name"), ("5", "expected a mapping with name/path/epsilon"),
    ], ids=["no-name", "not-a-mapping"])
    def test_model_entry(self, tmp_path, capsys, entry, message):
        cfg = models_yaml(tmp_path, f"models:\n  - {entry}\n")
        assert main(["analyze", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"error: models[0]: {message}\n")


class TestNotUtf8:
    """Each reader words a file that is not UTF-8 text alike, naming the first byte it cannot decode."""

    @pytest.mark.parametrize("command", [["analyze", "--config"], ["check"]], ids=["config", "model-file"])
    def test_is_a_usage_error_naming_the_byte(self, tmp_path, capsys, command):
        path = tmp_path / "input"
        path.write_bytes(b"rank: 2\n# \xff\n")
        assert main([*command, str(path)]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"error: {path} is not UTF-8 text: byte 0xff cannot be decoded\n")


class TestHugeIntegers:
    def test_config(self, tmp_path, capsys):
        cfg = models_yaml(tmp_path, f"models:\n  - name: m\n    epsilon: 0.5\nrank: {HUGE_INT}\n")
        assert main(["analyze", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {cfg} is not valid YAML")

    def test_threshold_past_the_float_range(self, tmp_path, capsys):
        csv_path = write(tmp_path, "toy.csv", TOY_CSV)
        huge = str(10 ** 400)  # a YAML int that float() cannot convert
        text = TOY_CONFIG.format(csv=csv_path).replace("value: 35", f"value: {huge}")
        assert main(["analyze", "--config", write(tmp_path, "config.yaml", text)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: groupings[0].group1: comparator 'le' needs a numeric value, got {huge}\n")

    def test_model_file(self, tmp_path, capsys):
        model = write(tmp_path, "model.json", json.dumps(REJECTED_MODEL).replace("1.0", HUGE_INT, 1))
        assert main(["check", model]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {model} is not valid JSON")


class TestAlignment:
    """The alignment figure, now reported by analyze entries and by check."""

    def test_missing_model(self, tmp_path, capsys):
        absent = str(tmp_path / "no.json")
        assert main(["check", absent]) == EXIT_CONFIG
        assert capsys.readouterr().out == ""
        # in a models config the missing file is an error entry with no alignment
        cfg = models_yaml(tmp_path, f"models:\n  - name: gone\n    path: {absent}\n")
        assert main(["analyze", "--config", cfg]) == EXIT_PARTIAL
        (entry,) = json.loads(capsys.readouterr().out)["groupings"]
        assert set(entry) == {"name", "error"}
        assert entry["error"]["type"] == "ConfigError"

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_samples_below_one_is_a_usage_error(self, tmp_path, capsys, samples):
        # alignment_samples is no longer a key: rejected for either source,
        # before the dataset or model file is read
        absent = str(tmp_path / "absent")
        for source in (f"dataset: {absent}\ngroupings:\n  - name: g\n"
                       "    group1: {column: a, op: le, value: 1}\n",
                       f"models:\n  - name: m\n    path: {absent}\n"):
            cfg = write(tmp_path, "c.yaml", f"{source}alignment_samples: {samples}\n")
            assert main(["analyze", "--config", cfg]) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: unknown config keys: ['alignment_samples']\n"

    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys):
        # a models config is rejected before its model file is read
        absent = str(tmp_path / "absent.json")
        cfg = models_yaml(tmp_path, f"models:\n  - name: m\n    path: {absent}\n")
        negative = write(tmp_path, "negative.yaml", Path(cfg).read_text() + "seed: -2\n")
        assert main(["analyze", "--config", negative]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: seed must be >= 0, got -2\n")
        with pytest.raises(SystemExit) as info:
            main(["analyze", "--config", cfg, "--seed", "-1"])
        assert info.value.code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: unrecognized arguments: --seed -1" in captured.err


def src_env(**changes):
    """os.environ with this checkout's src/ first on PYTHONPATH; a None value removes the variable."""
    src = str(Path(scoregap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.update(changes)
    return {key: value for key, value in env.items() if value is not None}


class TestProcessEntry:
    """`python -m scoregap` goes through `cli.run`, which leaves with os._exit after flushing."""

    @staticmethod
    def scoregap(*args, prefix=(), stdout=subprocess.PIPE, unbuffered=None):
        """Run `python -m scoregap ARGS`, buffered unless `unbuffered` sets PYTHONUNBUFFERED."""
        return subprocess.run([*prefix, sys.executable, "-m", "scoregap", *args],
                              env=src_env(PYTHONUNBUFFERED=unbuffered), stdin=subprocess.DEVNULL,
                              stdout=stdout, stderr=subprocess.PIPE, text=True)

    def test_stdout_is_flushed_before_exit(self, tmp_path):
        cfg = toy_config(tmp_path)
        proc = self.scoregap("analyze", "--config", cfg)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert proc.stdout == render_json(run_analysis(load_config(cfg)))

    def test_partial_failure_reports_on_stderr(self, tmp_path):
        absent = str(tmp_path / "absent.json")
        cfg = models_yaml(tmp_path, f"models:\n  - name: gone\n    path: {absent}\n"
                                    "  - name: fine\n    epsilon: 0.5\n")
        proc = self.scoregap("analyze", "--config", cfg)
        assert proc.returncode == EXIT_PARTIAL
        assert proc.stderr.startswith(f"grouping gone: ConfigError: cannot open model file {absent}")
        assert json.loads(proc.stdout)["n_failed"] == 1

    def test_missing_config(self, tmp_path):
        proc = self.scoregap("analyze", "--config", str(tmp_path / "absent.yaml"))
        assert (proc.returncode, proc.stdout) == (EXIT_CONFIG, "")
        assert proc.stderr.startswith(f"error: cannot open config {tmp_path / 'absent.yaml'}")

    def test_out_to_a_non_regular_file_writes_through_it(self, tmp_path):
        # /dev/stdout is the pipe, so it is opened in place, not replaced by a moved file
        model = two_axis_model(tmp_path, 0.3)
        proc = self.scoregap("check", model, "--out", "/dev/stdout")
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert proc.stdout == self.scoregap("check", model).stdout

    def test_argparse_usage_error(self):
        proc = self.scoregap("analyze")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "the following arguments are required: --config" in proc.stderr

    def test_closed_stdout(self, tmp_path):
        # the shell closes fd 1 before it runs Python, so sys.stdout is None
        model = two_axis_model(tmp_path, 0.3)
        out = tmp_path / "report.json"
        closing = ("sh", "-c", 'exec "$@" >&-', "sh")
        proc = self.scoregap("check", model, "--out", str(out), prefix=closing)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert json.loads(out.read_text())["model"] == model
        proc = self.scoregap("check", model, prefix=closing)
        assert (proc.returncode, proc.stderr) == (EXIT_CONFIG, "error: cannot write standard output: Bad file descriptor\n")

    @pytest.mark.parametrize("unbuffered", ["1", None])
    def test_closed_pipe_is_a_usage_error(self, tmp_path, unbuffered):
        model = two_axis_model(tmp_path, 0.3)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self.scoregap("check", model, stdout=write_end, unbuffered=unbuffered)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (EXIT_CONFIG, "error: cannot write standard output: Broken pipe\n")

    @pytest.mark.parametrize("code, leaves_with", [(EXIT_OK, EXIT_CONFIG), (EXIT_PARTIAL, EXIT_PARTIAL)])
    def test_a_stream_that_cannot_be_flushed_fails_only_a_success(self, code, leaves_with):
        unflushable = mock.Mock(flush=mock.Mock(side_effect=BrokenPipeError))
        with mock.patch.object(scoregap.cli, "main", return_value=code), mock.patch.object(sys, "stdout", unflushable), \
                mock.patch.object(scoregap.cli.os, "_exit", side_effect=SystemExit) as leave:
            with pytest.raises(SystemExit):
                scoregap.cli.run()
        leave.assert_called_once_with(leaves_with)

    def test_console_script_is_run(self):
        pyproject = Path(scoregap.__file__).resolve().parents[2] / "pyproject.toml"
        (target,) = re.findall(r'^scoregap\s*=\s*"([^"]+)"', pyproject.read_text(), re.MULTILINE)
        assert target == "scoregap.cli:run"
        module, _, name = target.partition(":")
        assert callable(getattr(importlib.import_module(module), name))


class TestImports:
    def test_cli_imports_no_package_but_numpy_and_yaml(self):
        # a fresh interpreter, so modules other tests loaded do not count
        env = src_env()
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

    def test_synthetic_is_an_unknown_command(self, capsys):
        # a one-entry models config with `epsilon: E` analyses the same population
        with pytest.raises(SystemExit) as info:
            main(["synthetic", "0.3"])
        assert info.value.code == 2
        assert "invalid choice: 'synthetic'" in capsys.readouterr().err
