import json
import os
import signal
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scoregap import (
    ConfigError,
    ExperimentConfig,
    ModelEntry,
    disparity_example,
    load_model,
    model_from_dict,
    render_json,
    run_analysis,
)
from scoregap import modelio

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

    def test_nesting_past_the_recursion_limit(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_model(str(path))


# Stand-ins for a model file that is not a readable JSON file.
ABSENT, DIRECTORY = "<absent>", "<directory>"

_number = st.one_of(st.floats(-4, 4), st.integers(-3, 3))
_row = st.lists(_number, min_size=2, max_size=2)
_model_text = st.fixed_dictionaries(
    {"w_star": _row, "data1": st.lists(_row, min_size=1, max_size=3),
     "data2": st.lists(_row, min_size=1, max_size=3)},
    optional={"rank": st.integers(1, 2), "cost1": st.just([[2.0, 0.0], [0.0, 1.0]])},
).map(json.dumps)
_file = st.one_of(_model_text, st.sampled_from([ABSENT, DIRECTORY, "{not json"]))

GOOD = json.dumps({"w_star": [1, 2], "data1": [[1, 0]], "data2": [[0, 1], [1, 1]]})


def write_models(tmp_path, texts, repeat_first):
    """Model entries for `texts` with an epsilon entry in between, and the
    first path listed once more at the end when `repeat_first` is set."""
    paths = []
    for i, text in enumerate(texts):
        path = tmp_path / f"m{i}.json"
        if text == DIRECTORY:
            path.mkdir(exist_ok=True)
        elif text != ABSENT:
            path.write_text(text)
        paths.append(str(path))
    paths += paths[:1] if repeat_first else []
    entries = [ModelEntry(name=f"m{i}", path=path) for i, path in enumerate(paths)]
    entries.insert(1, ModelEntry(name="eps", epsilon=0.25))
    return ExperimentConfig(models=tuple(entries))


@contextmanager
def deadline(seconds):
    """Turn a wait longer than `seconds` into a test failure instead of a hang."""
    def expire(*_):
        pytest.fail(f"still waiting after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def analyzed(config, workers):
    with mock.patch.object(os, "sched_getaffinity", return_value=set(range(workers)), create=True), deadline(30):
        return render_json(run_analysis(config))


class TestForkedParse:
    """`read_model_files` parses in this process and one forked reader per further usable CPU; the result must not
    depend on how many readers there are."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(texts=st.lists(_file, min_size=2, max_size=4), repeat_first=st.booleans())
    @example(texts=[GOOD, GOOD.replace("[[1, 0]]", "[[1, 0], [1]]")], repeat_first=False)  # ragged
    @example(texts=[GOOD.replace("[1, 2]", '["1.5", "2"]'), GOOD], repeat_first=False)
    @example(texts=[GOOD.replace("[1, 2]", "[true, false]"), GOOD], repeat_first=False)
    @example(texts=[GOOD.replace("[1, 2]", "[1, " + "9" * 400 + "]"), GOOD], repeat_first=False)
    @example(texts=[GOOD.replace("[1, 2]", "[NaN, Infinity]"), GOOD], repeat_first=False)
    @example(texts=["[1, 2]", GOOD], repeat_first=False)
    @example(texts=[ABSENT, DIRECTORY, "{not json", GOOD], repeat_first=False)
    @example(texts=[GOOD, GOOD.replace("[1, 2]", "[3, 1]")], repeat_first=True)
    def test_forked_and_in_process_parses_agree(self, tmp_path_factory, texts, repeat_first):
        config = write_models(tmp_path_factory.mktemp("models"), texts, repeat_first)
        assert analyzed(config, 3) == analyzed(config, 2) == analyzed(config, 1)

    def test_docs_hold_float_arrays(self, tmp_path):
        config = write_models(tmp_path, [GOOD, "[1, 2]", ABSENT], repeat_first=False)
        with mock.patch.object(os, "sched_getaffinity", return_value={0, 1}, create=True), deadline(30):
            good, listed, absent = modelio.read_model_files([e.path for e in config.models if e.path])
        assert good["data2"].dtype == float and good["data2"].shape == (2, 2)
        assert listed == [1, 2]
        assert isinstance(absent, ConfigError) and "cannot open" in str(absent)
        assert_no_child_left()

    def test_no_child_outlives_a_run(self, tmp_path):
        assert_no_child_left()
        (tmp_path / "clean").mkdir()
        clean = write_models(tmp_path / "clean", [GOOD, GOOD], False)
        broken = write_models(tmp_path, [GOOD, "{not json"], False)
        assert json.loads(analyzed(clean, 2))["n_failed"] == 0
        assert_no_child_left()
        assert json.loads(analyzed(broken, 2))["n_failed"] == 1
        assert_no_child_left()

    def test_a_child_that_dies_before_it_writes_is_an_error(self, tmp_path):
        config = write_models(tmp_path, [GOOD, GOOD, GOOD], False)
        own = os.getpid()
        read = lambda path: {} if os.getpid() == own else os._exit(3)  # only the forked reader dies
        with mock.patch.object(modelio, "read_model_file", read):
            with pytest.raises(RuntimeError, match="exited before it sent its documents"):
                analyzed(config, 2)
        assert_no_child_left()

    def test_a_sibling_blocked_on_a_full_pipe_exits_when_child_0_dies(self, tmp_path):
        """The m1 reader dies, and the m2 reader's list pickles to more than a pipe holds; once this process stops
        reading, that reader must not block."""
        config = write_models(tmp_path, [GOOD, GOOD, GOOD], False)
        big = {"data1": np.zeros(1 << 14)}  # 128 KiB of floats, twice the 64 KiB pipe buffer
        read = lambda path: os._exit(3) if path.endswith("m1.json") else big
        with mock.patch.object(modelio, "read_model_file", read):
            with pytest.raises(RuntimeError, match="exited before it sent its documents"):
                analyzed(config, 3)
        assert_no_child_left()

    def test_a_failed_fork_leaves_no_child_blocked(self, tmp_path):
        config = write_models(tmp_path, [GOOD, GOOD, GOOD], False)
        real_fork, forks = os.fork, []

        def fork():
            forks.append(None)
            if len(forks) > 1:
                raise BlockingIOError("fork: resource temporarily unavailable")
            return real_fork()

        big = {"data1": np.zeros(1 << 14)}
        with mock.patch.object(modelio, "read_model_file", lambda path: big), mock.patch.object(os, "fork", fork):
            with pytest.raises(BlockingIOError):
                analyzed(config, 3)
        assert_no_child_left()

    def test_an_error_in_this_process_share_propagates_and_reaps_every_child(self, tmp_path):
        config = write_models(tmp_path, [GOOD, GOOD, GOOD], False)
        own = os.getpid()

        def read(path):
            if os.getpid() == own:
                raise KeyError(path)
            return {"data1": np.zeros(1 << 14)}  # more than a pipe holds, so the child blocks until reaped

        with mock.patch.object(modelio, "read_model_file", read):
            with pytest.raises(KeyError, match="m0.json"):
                analyzed(config, 3)
        assert_no_child_left()

    @pytest.mark.parametrize("files, workers, forks", [(0, 2, 0), (1, 2, 0), (3, 1, 0), (2, 2, 1), (3, 2, 1), (3, 3, 2), (2, 3, 1)])
    def test_one_reader_per_usable_cpu_and_this_process_is_one(self, tmp_path, files, workers, forks):
        config = write_models(tmp_path, [GOOD] * files, False)
        with mock.patch.object(os, "fork", wraps=os.fork) as fork:
            assert json.loads(analyzed(config, workers))["n_failed"] == 0
        assert fork.call_count == forks
        assert_no_child_left()

    @pytest.mark.parametrize("cpus, forks", [(3, 2), (1, 0), (None, 0)])
    def test_without_an_affinity_call_the_cpu_count_decides(self, tmp_path, monkeypatch, cpus, forks):
        """os.cpu_count() may be None, which counts as one CPU."""
        config = write_models(tmp_path, [GOOD] * 3, False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        with mock.patch.object(os, "cpu_count", return_value=cpus), mock.patch.object(os, "fork", wraps=os.fork) as fork:
            assert json.loads(render_json(run_analysis(config)))["n_failed"] == 0
        assert fork.call_count == forks
        assert_no_child_left()

    def test_a_host_without_fork_reads_in_this_process(self, tmp_path, monkeypatch):
        config = write_models(tmp_path, [GOOD, GOOD.replace("[1, 2]", "[3, 1]"), "{not json"], False)
        expected = analyzed(config, 1)
        monkeypatch.delattr(os, "fork")
        assert analyzed(config, 2) == expected
