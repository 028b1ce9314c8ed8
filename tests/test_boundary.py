"""A boundary harness: no model file, CSV or config ends a run outside the exit-code contract.

Hypothesis writes well-formed model files whose entries span the
whole finite float range (0, the smallest subnormal, up to 1.7e308), with
SPD costs scaled by 10**k for |k| <= 300 or, ill-conditioned, taken as D S D
for a diagonal D of powers of 10 up to 1e+-150, and projections given as data
rows or as dense V V^T of any rank. Whatever the file, `check` returns
0, 2, 3, 4 or 5 and raises nothing, emits no RuntimeWarning, writes a
document of finite floats when it succeeds, and never blames an internal
name such as `w:`.

It also writes CSVs of mostly well-formed rows with some hostile cells
(missing tokens, quotes, 1e400, inf, -0, padding, an unmapped category)
and LF, CRLF or lone-CR line ends, and runs `analyze` on them with
predicates on a mapped and on a passthrough column. `analyze` keeps to
the same contract, and every document it writes parses, with finite floats.

Last, it writes small valid configs, in dataset mode on a fixed CSV of
the same columns or in models mode on one model file and one `epsilon`
entry, with one leaf (sometimes two) replaced by a hostile value: a bool,
None, 0, -1, 10**400, nan, +-inf, 1e-320, 1e308, "", a list or mapping
where a scalar goes, or a `fit:`/`vector:`/model source that names an
absent column or file. `analyze` keeps to the same contract on each.
"""

import contextlib
import copy
import csv
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings, strategies as st

from scoregap.cli import main
from scoregap.experiment import _leaves

from test_cli import FLOAT_LIMIT_MODELS

EXITS = {0, 2, 3, 4, 5}
EDGES = [0.0, 5e-324, -5e-324, 1e-300, 1.0, -1.0, 1e300, 1.7e308, -1.7e308]


@st.composite
def arrays(draw, rows: int, cols: int) -> list:
    """A rows x cols list of lists: mostly entries of one size 10**k (|k| <= 300), some at EDGES or anywhere."""
    k = draw(st.integers(-300, 300) | st.just(0))
    entry = st.one_of(st.floats(-10.0, 10.0).map(lambda x: x * 10.0 ** k), st.floats(-10.0, 10.0),
                      st.sampled_from(EDGES), st.floats(-1.7e308, 1.7e308))
    return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))


@st.composite
def model_docs(draw) -> dict:
    """A schema-1 model file of dimension 1 to 4, as a JSON-ready dict."""
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    doc = {"schema_version": 1, "w_star": draw(arrays(1, d))[0]}
    cost_scale = 10.0 ** draw(st.integers(-300, 300))  # both costs share it, or one pull would dwarf the other
    with_data = False
    for gid in (1, 2):
        if draw(st.booleans()):
            m = rng.standard_normal((d, d))
            spd = m @ m.T + 0.1 * np.eye(d)
            scale = cost_scale
            if draw(st.booleans()):  # D spd D for a diagonal D of 10**j, |j| <= 150
                diagonal = 10.0 ** np.array(draw(st.lists(st.integers(-150, 150), min_size=d, max_size=d)))
                scale = np.outer(diagonal, diagonal)
            doc[f"cost{gid}"] = ((spd + spd.T) / 2.0 * scale).tolist()
        if draw(st.booleans()):
            doc[f"data{gid}"] = draw(arrays(draw(st.integers(1, d + 1)), d))
            with_data = True
        else:
            basis = np.linalg.qr(rng.standard_normal((d, d)))[0][:, :draw(st.integers(1, d) | st.just(0))]
            doc[f"projection{gid}"] = (basis @ basis.T).tolist()
    if with_data and draw(st.booleans()):
        doc["rank"] = draw(st.integers(1, d))
    return doc


def _examples(test):
    """Every file of test_cli.FLOAT_LIMIT_MODELS, as a hypothesis example."""
    for fields, _, _ in FLOAT_LIMIT_MODELS.values():
        test = example(doc={"schema_version": 1, **fields})(test)
    return test


@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=model_docs())
@_examples
def test_check_stays_inside_the_exit_contract(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["check", path])
    assert code in EXITS
    assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert not [line for line in err.getvalue().splitlines() if line.startswith("error: w:")]
    if code == 0:
        floats = [leaf for _, leaf in _leaves(json.loads(out.getvalue())) if isinstance(leaf, float)]
        assert all(math.isfinite(leaf) for leaf in floats)


# Cells of the passthrough columns a and b, and of g, mapped by CSV_ENCODING.
_NUMBER_CELLS = st.one_of(*[st.integers(-9, 9).map(str)] * 3, st.floats(-1e3, 1e3).map(lambda x: f"{x:.4g}"))
_HOSTILE_NUMBER_CELLS = st.sampled_from(["", "?", "NA", '"7"', '"4,5"', "1e400", "inf", "-0", " 3", "x"])
_CATEGORY_CELLS = st.sampled_from(["lo", "hi", "mid", " lo", "hi ", "2"])
_HOSTILE_CATEGORY_CELLS = st.sampled_from(["", "?", '"hi"', '"lo,hi"', "zz", "-0", "1e400"])
CSV_ENCODING = {"g": ["lo", "mid", "hi"]}
_MAPPED_PREDICATES = st.sampled_from([
    {"column": "g", "op": "eq", "value": "lo"},
    {"column": "g", "op": "in", "value": ["lo", "mid"]},
    {"column": "g", "op": "ne", "value": 2},
    {"column": "g", "op": "le", "value": 1},  # numeric on text: an error entry unless every kept g is a number
])
_PASSTHROUGH_PREDICATES = st.sampled_from([
    ({"column": "a", "op": "le", "value": 0}, None),
    ({"column": "a", "op": "le", "value": 0}, {"column": "a", "op": "gt", "value": 0}),
    ({"column": "b", "op": "in", "value": [1, "2", 3.0, "4.0", 5]}, {"column": "b", "op": "lt", "value": 0}),
    ({"column": "b", "op": "ge", "value": "-0"}, None),
])


@st.composite
def csv_texts(draw) -> str:
    """A body for the columns a, b and g: well-formed rows, then up to two faults (a hostile cell, a ragged row)."""
    rows = draw(st.lists(st.tuples(_NUMBER_CELLS, _NUMBER_CELLS, _CATEGORY_CELLS).map(list), min_size=6, max_size=16))
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2]))):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 3))
        if j == 3:
            rows.insert(i, draw(st.lists(_NUMBER_CELLS, max_size=4)))
        else:
            rows[i][j] = draw(_HOSTILE_CATEGORY_CELLS if j == 2 else _HOSTILE_NUMBER_CELLS)
    end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    text = "".join(line + end for line in ["a,b,g"] + [",".join(cells) for cells in rows])
    return text.rstrip("\r\n") if draw(st.booleans()) else text


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=csv_texts(), mapped=_MAPPED_PREDICATES, passthrough=_PASSTHROUGH_PREDICATES,
       rank=st.integers(1, 2), form=st.sampled_from(["json", "csv"]))
def test_analyze_stays_inside_the_exit_contract(text, mapped, passthrough, rank, form):
    with tempfile.TemporaryDirectory() as tmp:
        data, config = os.path.join(tmp, "data.csv"), os.path.join(tmp, "config.yaml")
        with open(data, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        groupings = [{"name": "mapped", "group1": mapped},
                     {"name": "passthrough", "group1": passthrough[0], "group2": passthrough[1]}]
        with open(config, "w", encoding="utf-8") as handle:  # a JSON document is YAML
            json.dump({"dataset": data, "encoding": CSV_ENCODING, "rank": rank,
                       "groupings": [{k: v for k, v in g.items() if v is not None} for g in groupings]}, handle)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["analyze", "--config", config, "--format", form])
    assert code in EXITS
    assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert not [line for line in err.getvalue().splitlines() if line.startswith("error: rows:")]
    _assert_finite_document(out.getvalue(), form)


def _assert_finite_document(text: str, form: str) -> None:
    """A written document (none when `text` is empty) parses as `form`, and each of its floats is finite."""
    if not text:
        return
    if form == "json":
        floats = [leaf for _, leaf in _leaves(json.loads(text)) if isinstance(leaf, float)]
    else:
        cells = [cell for record in csv.reader(io.StringIO(text)) for cell in record]
        floats = [float(cell) for cell in cells if _is_number(cell)]
    assert all(math.isfinite(leaf) for leaf in floats)


# A valid body for the columns a, b and g; "{tmp}" in a config string stands for the run's directory.
CONFIG_CSV = "a,b,g\n-2,1.5,lo\n3,-0.5,hi\n0,2,mid\n1,0.25,lo\n-1,-3,hi\n4,1,mid\n-3,0.5,hi\n2,-1,lo\n"
CONFIG_MODEL = {"schema_version": 1, "w_star": [1.0, 0.5], "cost1": [[1.0, 0.0], [0.0, 2.0]],
                "cost2": [[2.0, 0.5], [0.5, 1.0]], "data1": [[1.0, 0.2], [0.3, 1.0]], "data2": [[1.0, -0.4]]}
HOSTILE_LEAVES = [True, False, None, 0, -1, 10**400, math.nan, math.inf, -math.inf, 1e-320, 1e308, "",
                  [1.0, 2.0], {"k": 1}, "fit:zz", "vector:{tmp}/absent.txt", "{tmp}/absent.json"]


@st.composite
def dataset_configs(draw) -> dict:
    """A valid dataset-mode config on CONFIG_CSV (`{tmp}/data.csv`); `vector:` reads `{tmp}/w.txt`, 3 entries."""
    wstar = draw(st.sampled_from(["ones", "fit:b", "vector:{tmp}/w.txt"]))
    dim = 2 if wstar == "fit:b" else 3
    cut = draw(st.sampled_from([0, 1, -1.5]))
    grouping = {"name": "split", "group1": {"column": "a", "op": "le", "value": cut}}
    if draw(st.booleans()):
        grouping["group2"] = {"column": "a", "op": "gt", "value": cut}
    return {
        "dataset": "{tmp}/data.csv",
        "encoding": {"g": ["lo", "mid", "hi"]},
        "drop_columns": [],
        "groupings": [grouping],
        "rank": draw(st.integers(1, 2)),
        "costs": {"group1": draw(st.sampled_from(["identity", 2.0])),
                  "group2": draw(st.sampled_from(["identity", 0.5, np.diag(np.arange(1.0, dim + 1)).tolist()]))},
        "wstar": wstar,
        "standardize": draw(st.booleans()),
    }


def _models_config(epsilon=0.3) -> dict:
    """A models config on CONFIG_MODEL (`{tmp}/model.json`) and one `epsilon` entry."""
    return {"models": [{"name": "file", "path": "{tmp}/model.json"}, {"name": "eps", "epsilon": epsilon}]}


def _leaf_paths(doc, path=()) -> list:
    """The key path to every leaf of a config, an empty list or mapping being a leaf."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    paths = [p for key, value in items for p in _leaf_paths(value, path + (key,))]
    return paths or [path]


@st.composite
def hostile_configs(draw) -> dict:
    """A dataset or models config with one leaf, sometimes two, replaced by a HOSTILE_LEAVES value."""
    doc = draw(dataset_configs()) if draw(st.booleans()) else _models_config()
    paths = _leaf_paths(doc)
    pick = draw(st.randoms(use_true_random=False)).choice  # uniform, where sampled_from favours the first entries
    for _ in range(draw(st.sampled_from([1, 1, 1, 2]))):
        _replace_leaf(doc, pick(paths), pick(HOSTILE_LEAVES))
    return doc


def _replace_leaf(doc, path, value) -> None:
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


def _in_dir(doc, tmp: str):
    """The config with "{tmp}" in each string replaced by the directory `tmp`."""
    if isinstance(doc, dict):
        return {k: _in_dir(v, tmp) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_in_dir(v, tmp) for v in doc]
    return doc.replace("{tmp}", tmp) if isinstance(doc, str) else doc


def _config_examples(test):
    """Config inputs CHANGES.md records as MENDED, as hypothesis examples."""
    dataset = {"dataset": "{tmp}/data.csv", "encoding": {"g": ["lo", "mid", "hi"]},
               "groupings": [{"name": "split", "group1": {"column": "a", "op": "le", "value": 0}}]}
    null_column = {"name": "split", "group1": {"column": None, "op": "le", "value": 0}}
    for doc in (_models_config(epsilon=10**400), {**dataset, "groupings": [null_column]},
                {**dataset, "drop_columns": [None]}, {**dataset, "drop_columns": ["a", "b", "g"]}):
        test = example(doc=doc, form="json")(test)
    return test


@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=hostile_configs(), form=st.sampled_from(["json", "csv"]))
@_config_examples
def test_hostile_config_stays_inside_the_exit_contract(doc, form):
    _assert_config_inside_the_contract(doc, form)


# One dataset config in which every kind of leaf appears (`vector:` w*, a
# matrix cost), and the models config; each swap puts one HOSTILE_LEAVES
# value at one leaf, so every (leaf, value) pair is run, where the random
# draws above reach only some.
SWEEP_DATASET = {
    "dataset": "{tmp}/data.csv", "encoding": {"g": ["lo", "mid", "hi"]}, "drop_columns": [],
    "groupings": [{"name": "split", "group1": {"column": "a", "op": "le", "value": 0},
                   "group2": {"column": "a", "op": "gt", "value": 0}}],
    "rank": 2, "costs": {"group1": 2.0, "group2": np.diag([1.0, 2.0, 3.0]).tolist()},
    "wstar": "vector:{tmp}/w.txt", "standardize": True,
}
SWEEP_CONFIGS = {"dataset": SWEEP_DATASET, "models": _models_config()}


@pytest.mark.parametrize("mode, path, j", [
    pytest.param(mode, path, j, id=f"{mode}:{'.'.join(map(str, path))}={j}")
    for mode, doc in SWEEP_CONFIGS.items() for path in _leaf_paths(doc) for j in range(len(HOSTILE_LEAVES))
])
def test_every_single_leaf_swap_stays_inside_the_exit_contract(mode, path, j):
    doc = copy.deepcopy(SWEEP_CONFIGS[mode])
    _replace_leaf(doc, path, HOSTILE_LEAVES[j])
    _assert_config_inside_the_contract(doc, "json")


@pytest.mark.parametrize("form", ["json", "csv"])
@pytest.mark.parametrize("mode", sorted(SWEEP_CONFIGS))
def test_every_sweep_base_succeeds(mode, form):
    # so a swap's failure is the hostile leaf's doing, never the base config's
    assert _assert_config_inside_the_contract(copy.deepcopy(SWEEP_CONFIGS[mode]), form) == (0, "")


@pytest.mark.parametrize("mode, key, j", [
    pytest.param(mode, key, j, id=f"{mode}:{key}={j}")
    for mode in sorted(SWEEP_CONFIGS) for key in ("format", "out") for j in range(len(HOSTILE_LEAVES))
])
def test_every_output_setting_in_a_config_is_a_config_error(mode, key, j):
    # where the document goes and its format are the command line's, whatever value the config gives them
    doc = {**copy.deepcopy(SWEEP_CONFIGS[mode]), key: HOSTILE_LEAVES[j]}
    assert _assert_config_inside_the_contract(doc, "json") == (2, f"error: unknown config keys: ['{key}']\n")


def _assert_config_inside_the_contract(doc, form: str) -> tuple:
    """The exit code and stderr of `analyze --format form` on the config `doc`, with CONFIG_CSV, a 3-entry
    w* file and CONFIG_MODEL beside it, once the run has kept to the contract."""
    code, _, err = _outcome(doc, form)
    return code, err


def _outcome(doc, form: str = "json", model=CONFIG_MODEL, repeat=None) -> tuple:
    """(exit code, stdout, stderr) of `analyze --format form` on the config `doc`, or of `check` on the model
    file when `doc` is None, with CONFIG_CSV, a 3-entry w* file and `model` beside it, once the run has kept
    to the contract; "{tmp}" stands for their directory in both streams. When `repeat` is given, the key
    REPEAT is written as `repeat` in both files, which then hold a key twice."""
    def text(written: str) -> str:
        return written if repeat is None else written.replace(REPEAT, repeat)

    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "data.csv"), "w", encoding="utf-8") as handle:
            handle.write(CONFIG_CSV)
        with open(os.path.join(tmp, "w.txt"), "w", encoding="utf-8") as handle:
            handle.write("1 0.5 -2\n")
        with open(os.path.join(tmp, "model.json"), "w", encoding="utf-8") as handle:
            handle.write(text(json.dumps(model)))
        config = os.path.join(tmp, "config.yaml")
        with open(config, "w", encoding="utf-8") as handle:
            handle.write(text(yaml.safe_dump(_in_dir(doc, tmp))))
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            argv = ["check", os.path.join(tmp, "model.json")] if doc is None else ["analyze", "--config", config]
            code = main(argv + ["--format", form] * (doc is not None))
    assert code in EXITS
    assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert not [line for line in err.getvalue().splitlines() if line.startswith(("error: w:", "error: rows:"))]
    _assert_finite_document(out.getvalue(), form)
    return code, out.getvalue().replace(tmp, "{tmp}"), err.getvalue().replace(tmp, "{tmp}")


# Item 14's structural sweep: every key of the two sweep configs and of CONFIG_MODEL (run through `check`)
# deleted and repeated, every list item popped, a stray key added to every mapping, and every mapping swapped
# for the list of its values and every list for the mapping of its indices. The absence of an optional key
# means its default, so deleting it must give the run that writes the default out; every other edit either
# keeps to the contract or stops the run with exactly one `error:` line. A swap is exit 2; a repeated key is
# exit 2 naming that key; a stray key stops the run naming it: exit 2, but for `encoding`, whose keys name
# CSV columns, where the CSV lacking that column is exit 3.
STRUCTURAL_BASES = {"dataset": SWEEP_DATASET, "models": _models_config(), "model file": CONFIG_MODEL}
OPTIONAL_KEYS = {
    ("dataset", ("rank",)): 5, ("dataset", ("wstar",)): "ones", ("dataset", ("standardize",)): False,
    ("dataset", ("drop_columns",)): [], ("dataset", ("costs",)): {},
    ("dataset", ("costs", "group1")): "identity", ("dataset", ("costs", "group2")): "identity",
    ("dataset", ("groupings", 0, "group2")): None,
    ("model file", ("schema_version",)): 1, ("model file", ("cost1",)): None, ("model file", ("cost2",)): None,
}
STRAY = "stray"
REPEAT = "repeated_key_sentinel"


def _containers(doc, path=()):
    """The key path to every mapping and list of a document, the document itself first."""
    if isinstance(doc, (dict, list)):
        yield path
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _containers(value, path + (key,))


def _structural_edits(doc) -> list:
    """(edit, path) for every structural edit of `doc`: "delete" names a key or an item, "repeat" a key, the
    rest a container."""
    edits = []
    for path in _containers(doc):
        node = _at(doc, path)
        edits += [("delete", path + (key,)) for key in (node if isinstance(node, dict) else range(len(node)))]
        edits += [("repeat", path + (key,)) for key in node] * isinstance(node, dict)
        edits += [("stray", path)] * isinstance(node, dict) + [("swap", path)]
    return edits


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _edited(doc, edit: str, path):
    """A copy of `doc` with `edit` made at `path`."""
    doc = copy.deepcopy(doc)
    if edit == "delete":
        del _at(doc, path[:-1])[path[-1]]
        return doc
    if edit == "repeat":  # a copy, or the YAML would alias the value
        _at(doc, path[:-1])[REPEAT] = copy.deepcopy(_at(doc, path))
        return doc
    node = _at(doc, path)
    if edit == "stray":
        node[STRAY] = None
        return doc
    swapped = list(node.values()) if isinstance(node, dict) else {str(i): v for i, v in enumerate(node)}
    if not path:
        return swapped
    _at(doc, path[:-1])[path[-1]] = swapped
    return doc


@pytest.mark.parametrize("base, edit, path", [
    pytest.param(base, edit, path, id=f"{base}:{edit}:{'.'.join(map(str, path))}")
    for base, doc in STRUCTURAL_BASES.items() for edit, path in _structural_edits(doc)
])
def test_every_structural_edit_stays_inside_the_exit_contract(base, edit, path):
    doc = _edited(STRUCTURAL_BASES[base], edit, path)
    repeat = path[-1] if edit == "repeat" else None

    def run(doc):
        return _outcome(None, model=doc, repeat=repeat) if base == "model file" else _outcome(doc, repeat=repeat)

    code, out, err = run(doc)
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == (not out) and err.startswith("error:") == (not out), err
    if (base, path) in OPTIONAL_KEYS and edit == "delete":
        written = copy.deepcopy(STRUCTURAL_BASES[base])
        _at(written, path[:-1])[path[-1]] = OPTIONAL_KEYS[base, path]
        assert (code, out, err) == run(written)
    elif edit == "stray":
        assert code == (3 if path == ("encoding",) else 2) and out == "" and repr(STRAY) in errors[0], err
    elif edit == "repeat":
        assert code == 2 and out == "" and repr(path[-1]) in errors[0], err
    elif edit == "swap":
        assert code == 2 and out == "", err


def test_every_optional_key_is_in_a_sweep_base():
    # so each row of OPTIONAL_KEYS is checked by a deletion above
    assert all(("delete", path) in _structural_edits(STRUCTURAL_BASES[base]) for base, path in OPTIONAL_KEYS)
