"""A boundary harness: no model file ends `check` outside the exit-code contract.

Hypothesis writes well-formed model files whose entries span the
whole finite float range (0, the smallest subnormal, up to 1.7e308), with
SPD costs scaled by 10**k for |k| <= 300 or, ill-conditioned, taken as D S D
for a diagonal D of powers of 10 up to 1e+-150, and projections given as data
rows or as dense V V^T of any rank. Whatever the file, `check` returns
0, 2, 3, 4 or 5 and raises nothing, emits no RuntimeWarning, writes a
document of finite floats when it succeeds, and never blames an internal
name such as `w:`.
"""

import contextlib
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
