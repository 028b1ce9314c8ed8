"""A boundary harness: no model file or CSV ends a run outside the exit-code contract.

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
"""

import contextlib
import csv
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
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
    if not out.getvalue():
        return
    if form == "json":
        floats = [leaf for _, leaf in _leaves(json.loads(out.getvalue())) if isinstance(leaf, float)]
    else:
        cells = [cell for record in csv.reader(io.StringIO(out.getvalue())) for cell in record]
        floats = [float(cell) for cell in cells if _is_number(cell)]
    assert all(math.isfinite(leaf) for leaf in floats)
