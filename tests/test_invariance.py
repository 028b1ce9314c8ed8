"""End-to-end invariance: a result entry depends on the population, not on
how its model file or CSV writes it down.

Each relation writes a seeded model file (w*, both costs, data1/data2
and a rank cut) or CSV, transforms it, and compares the two `analyze`
entries leaf by leaf. Floats agree to within 1e-9 * max(1, |x|); verdicts
agree exactly unless either side flags the check as `boundary`.
"""

import json
import math
from unittest import mock

import numpy as np
import pytest

from scoregap import ExperimentConfig, GroupingSpec, GroupPredicate, ModelEntry, ingest, run_analysis

from conftest import random_orthonormal, random_spd

REL = 1e-9
D = 5
# generic: full-rank samples cut to rank 3; orthogonal: the groups sample
# orthogonal planes; shared: both sample one plane, with proportional costs
CASES = [(shape, seed) for shape in ("generic", "orthogonal", "shared") for seed in (0, 1)]


def seeded_doc(shape: str, seed: int, spread: float = 0.0) -> dict:
    """A d = 5 model file whose projections come from sample matrices and a rank cut.

    With `spread` set, each cost's eigenvalues are spread over 10**-spread to 10**spread."""
    rng = np.random.default_rng(seed)
    basis = random_orthonormal(rng, D, D)
    planes = {"generic": (np.eye(D), np.eye(D)),
              "orthogonal": (basis[:, :2], basis[:, 2:4]),
              "shared": (basis[:, :2], basis[:, :2])}[shape]
    spd = (lambda: random_spd(rng, D)) if not spread else lambda: spread_spd(rng, D, spread)
    cost1 = spd()
    return {
        "w_star": rng.standard_normal(D),
        "cost1": cost1,
        "cost2": 2.0 * cost1 if shape == "shared" else spd(),
        "data1": rng.standard_normal((30, planes[0].shape[1])) @ planes[0].T,
        "data2": rng.standard_normal((25, planes[1].shape[1])) @ planes[1].T,
        "rank": 3,
    }


def spread_spd(rng: np.random.Generator, d: int, spread: float) -> np.ndarray:
    """Q diag(10**x) Q^T for a random rotation Q and x uniform in [-spread, spread]."""
    q = random_orthonormal(rng, d, d)
    a = q @ np.diag(10.0 ** rng.uniform(-spread, spread, size=d)) @ q.T
    return (a + a.T) / 2.0


def entry_of(tmp_path, doc: dict, name: str) -> dict:
    """The `analyze` entry for `doc` written as a model file."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({k: v.tolist() if isinstance(v, np.ndarray) else v
                                for k, v in doc.items()}), encoding="utf-8")
    config = ExperimentConfig(models=(ModelEntry(name="m", path=str(path)),))
    (entry,) = run_analysis(config)["groupings"]
    assert "error" not in entry, entry
    del entry["source"]
    return entry


def leaves(node, path=()):
    """(path, value) for every leaf of a nested dict/list document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaves(value, path + (i,))
    else:
        yield path, node


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL * max(1.0, abs(a), abs(b))


def assert_same_verdicts(before: dict, after: dict) -> None:
    """Every non-float leaf is equal, and every verdict unless a side is at its boundary."""
    b_leaves, a_leaves = dict(leaves(before)), dict(leaves(after))
    assert b_leaves.keys() == a_leaves.keys()
    for path, old in b_leaves.items():
        new = a_leaves[path]
        if path[-1] == "boundary":
            continue
        if path[-1] == "verdict":
            at_boundary = b_leaves[path[:-1] + ("boundary",)] or a_leaves[path[:-1] + ("boundary",)]
            assert at_boundary or new == old, path
        elif not isinstance(old, float):
            assert new == old, path


def assert_floats(before: dict, after: dict, expected) -> None:
    """Each float leaf of `after` is close to expected(path, before's leaf); None skips it."""
    b_leaves = dict(leaves(before))
    for path, new in leaves(after):
        old = b_leaves[path]
        if isinstance(old, float) and path[-1] not in ("verdict", "boundary"):
            want = expected(path, old)
            if want is not None:
                assert close(new, want), (path, old, new, want)


@pytest.mark.parametrize("shape, seed", CASES)
def test_common_rotation_rotates_only_the_welfare_rule(tmp_path, shape, seed):
    doc = seeded_doc(shape, seed)
    q = random_orthonormal(np.random.default_rng(100 + seed), D, D)
    turned = dict(doc, w_star=q @ doc["w_star"],
                  cost1=q @ doc["cost1"] @ q.T, cost2=q @ doc["cost2"] @ q.T,
                  data1=doc["data1"] @ q.T, data2=doc["data2"] @ q.T)
    before, after = entry_of(tmp_path, doc, "a"), entry_of(tmp_path, turned, "b")
    rule = q @ np.array(before["welfare_rule"])
    assert all(close(x, y) for x, y in zip(after["welfare_rule"], rule)), (after["welfare_rule"], rule)
    assert_floats(before, after, lambda path, old: None if path[0] == "welfare_rule" else old)
    assert_same_verdicts(before, after)


SCALED = {"I1", "I2", "welfare", "difference", "uI1", "uI2", "uI1_star", "uI2_star"}

# The power of w*'s scale each float of an entry carries: a rule, an
# alignment and a ratio of norms carry none, an improvement one, and a
# guarantee scalar in the Gram matrix of the pulls two.
POWERS = {"welfare_rule": 0, "alignment": 0, "sufficient_c": 0, "metrics": 1, "per_unit_optimal": 1,
          "do_no_harm": 2, "equal_improvement": 2}


def power_of(path) -> int:
    (power,) = {POWERS[key] for key in path if key in POWERS}
    return power


def scaled_by(c: float):
    """assert_floats' expectation for w* scaled by c: a float of power p scales by c**p."""
    return lambda path, old: old * c ** power_of(path) if POWERS.keys() & set(path) else None


def assert_exactly_scaled(before: dict, after: dict, k: int) -> None:
    """Each float of `after` is before's times 2**(p k), p its power, bit for bit; every other leaf is equal."""
    b_leaves, a_leaves = dict(leaves(before)), dict(leaves(after))
    assert a_leaves.keys() == b_leaves.keys()
    for path, old in b_leaves.items():
        assert a_leaves[path] == (np.ldexp(old, power_of(path) * k) if isinstance(old, float) else old), path


@pytest.mark.parametrize("shape, seed", CASES)
@pytest.mark.parametrize("c", [0.03, 7.5, 2.0 ** -530, 2.0 ** -300, 2.0 ** 37, 2.0 ** 300])
def test_scaling_w_star_scales_the_improvements(tmp_path, shape, seed, c):
    doc = seeded_doc(shape, seed)
    before = entry_of(tmp_path, doc, "a")
    after = entry_of(tmp_path, dict(doc, w_star=c * doc["w_star"]), "b")
    assert set(before["metrics"]) == SCALED
    mantissa, exponent = math.frexp(c)
    if mantissa == 0.5:  # c = 2**(exponent - 1) scales every pull exactly
        assert_exactly_scaled(before, after, exponent - 1)
    else:
        assert_floats(before, after, scaled_by(c))
        assert_same_verdicts(before, after)


@pytest.mark.parametrize("shape, seed", CASES)
@pytest.mark.parametrize("k", [-900, -300, 37, 900])
def test_scaling_the_data_by_a_power_of_two_changes_no_bit(tmp_path, shape, seed, k):
    doc = seeded_doc(shape, seed)
    scaled = dict(doc, data1=np.ldexp(doc["data1"], k), data2=np.ldexp(doc["data2"], k))
    assert json.dumps(entry_of(tmp_path, scaled, "b")) == json.dumps(entry_of(tmp_path, doc, "a"))


@pytest.mark.parametrize("shape, seed", CASES)
@pytest.mark.parametrize("k", [-300, 37, 300])
def test_scaling_the_costs_by_a_power_of_two_is_exact(tmp_path, shape, seed, k):
    # A_g 2**k scales t_g = P_g A_g^{-1} w* by 2**-k, as w* 2**-k does. Costs whose eigenvalues
    # spread over 1e-6 to 1e6 pivot differently under any balancing that does not move with k as a whole.
    for doc in (seeded_doc(shape, seed), seeded_doc(shape, seed, spread=6.0)):
        scaled = dict(doc, cost1=np.ldexp(doc["cost1"], k), cost2=np.ldexp(doc["cost2"], k))
        assert_exactly_scaled(entry_of(tmp_path, doc, "a"), entry_of(tmp_path, scaled, "b"), -k)


# CSV relations, on an all-numeric file and one with categorical columns
# and dropped rows (np.loadtxt parses both, the second into distinct-text
# indices), and on the categorical file with its sex cells quoted (the
# row reader parses it). Every grouping has two predicates, so that
# swapping them is a relation too.
CATEGORICAL = ({"grade": ["lo", "mid", "hi"], "sex": ["F", "M"]},
               (("age", ("age", "le", 35), ("age", "gt", 35)),
                ("grade", ("grade", "in", ["lo", "mid"]), ("grade", "eq", "hi")),
                ("sex", ("sex", "eq", "F"), ("sex", "eq", "M"))))
CSV_KINDS = {
    "numeric": (None, (("age", ("age", "le", 35), ("age", "gt", 35)),
                       ("edu", ("edu", "in", [1, 2]), ("edu", "eq", 3)),
                       ("sex", ("sex", "eq", 1), ("sex", "eq", 2))), "loadtxt"),
    "categorical": (*CATEGORICAL, "loadtxt"),
    "quoted": (*CATEGORICAL, "row reader"),
}
FEATURES = ("x1", "x2", "x3")


def seeded_rows(kind: str, seed: int, scale=(1.0, 1.0, 1.0), shift=(0.0, 0.0, 0.0)) -> list:
    """240 CSV lines after the header: three grouping columns and the FEATURES, each x * scale + shift."""
    rng = np.random.default_rng(seed)
    n = 240
    age = rng.integers(21, 70, n)
    feats = rng.standard_normal((n, 3)) * [1.0, 30.0, 0.01] + age[:, None] * [0.05, 1.0, 0.0]
    feats = feats * scale + shift
    if kind == "numeric":
        codes = zip(rng.integers(1, 5, n), rng.integers(1, 3, n))
    else:
        codes = zip(rng.choice(["lo", " mid", "hi ", "?"], n, p=[0.3, 0.3, 0.35, 0.05]),
                    rng.choice(["F", "M"], n))
    if kind == "quoted":
        codes = ((c, f'"{s}"') for c, s in codes)
    return [f"{a},{c},{s}," + ",".join(map(repr, f.tolist()))
            for a, (c, s), f in zip(age, codes, feats)]


def header(kind: str) -> list:
    return ["age", "edu" if kind == "numeric" else "grade", "sex", *FEATURES]


def write_csv(tmp_path, kind: str, lines: list, name: str, columns: list = None) -> str:
    """The path of a CSV of `lines` under `columns` (default: header(kind))."""
    path = tmp_path / f"{name}.csv"
    path.write_text(",".join(columns or header(kind)) + "\n" + "\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def groupings_of(kind: str, swap: bool = False) -> tuple:
    return tuple(GroupingSpec(grouping, *(GroupPredicate(*p) for p in (preds[::-1] if swap else preds)))
                 for grouping, *preds in CSV_KINDS[kind][1])


def csv_doc(tmp_path, kind: str, lines: list, name: str, swap: bool = False,
            columns: list = None, **settings) -> dict:
    """The `analyze` document of a CSV of `lines` under `columns` (default: header(kind)),
    less its dataset path; `settings` are more ExperimentConfig fields."""
    manifest, _, reader = CSV_KINDS[kind]
    path = write_csv(tmp_path, kind, lines, name, columns)
    groupings = groupings_of(kind, swap)
    config = ExperimentConfig(dataset=path, encoding=manifest or {}, groupings=groupings, rank=3,
                              **settings)
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as parser, \
            mock.patch.object(ingest, "_read_rows", wraps=ingest._read_rows) as row_reader:
        doc = run_analysis(config)
    # a quoted body never reaches loadtxt, and the others never reach the row reader
    assert (parser.called, row_reader.called) == ((True, False) if reader == "loadtxt" else (False, True))
    assert doc["n_failed"] == 0, doc
    del doc["dataset"]
    return doc


def mirrored(entry: dict) -> dict:
    """The entry with its two groups' roles exchanged."""
    out = json.loads(json.dumps(entry))
    for key in ("effective_ranks", "group_sizes", "tie_warnings"):
        out[key].reverse()
    for key in ("do_no_harm", "per_unit_optimal", "sufficient_c"):
        checks = out["conditions"][key]
        checks["group1"], checks["group2"] = checks["group2"], checks["group1"]
    metrics = out["metrics"]
    for one, two in (("I1", "I2"), ("uI1", "uI2"), ("uI1_star", "uI2_star")):
        metrics[one], metrics[two] = metrics[two], metrics[one]
    metrics["difference"] = -metrics["difference"]
    out["conditions"]["equal_improvement"]["value"] *= -1
    return out


@pytest.mark.parametrize("kind", sorted(CSV_KINDS))
@pytest.mark.parametrize("seed", [0, 1])
def test_permuting_csv_rows_changes_nothing(tmp_path, kind, seed):
    lines = seeded_rows(kind, seed)
    before = csv_doc(tmp_path, kind, lines, "a")
    order = np.random.default_rng(100 + seed).permutation(len(lines))
    after = csv_doc(tmp_path, kind, [lines[i] for i in order], "b")
    assert_floats(before, after, lambda path, old: old)
    assert_same_verdicts(before, after)


@pytest.mark.parametrize("kind", sorted(CSV_KINDS))
@pytest.mark.parametrize("seed", [0, 1])
def test_swapping_a_groupings_predicates_swaps_its_groups(tmp_path, kind, seed):
    lines = seeded_rows(kind, seed)
    before = csv_doc(tmp_path, kind, lines, "a")
    after = csv_doc(tmp_path, kind, lines, "b", swap=True)
    expected = dict(before, groupings=[mirrored(entry) for entry in before["groupings"]])
    assert_floats(expected, after, lambda path, old: old)
    assert_same_verdicts(expected, after)


@pytest.mark.parametrize("kind", sorted(CSV_KINDS))
@pytest.mark.parametrize("seed", [0, 1])
def test_standardized_features_ignore_their_units(tmp_path, kind, seed):
    rng = np.random.default_rng(200 + seed)
    scale, shift = np.exp(rng.uniform(-4, 4, 3)), rng.uniform(-1e3, 1e3, 3)
    before = csv_doc(tmp_path, kind, seeded_rows(kind, seed), "a", standardize=True)
    after = csv_doc(tmp_path, kind, seeded_rows(kind, seed, scale, shift), "b", standardize=True)
    assert_floats(before, after, lambda path, old: old)
    assert_same_verdicts(before, after)


@pytest.mark.parametrize("kind", sorted(CSV_KINDS))
@pytest.mark.parametrize("seed", [0, 1])
def test_permuting_feature_columns_permutes_the_welfare_rule(tmp_path, kind, seed):
    rng = np.random.default_rng(300 + seed)
    order = rng.permutation(len(header(kind)))
    w_star = rng.uniform(0.5, 2.0, len(order))
    docs = []
    for name, perm in (("a", np.arange(len(order))), ("b", order)):
        vector = tmp_path / f"w_{name}.json"
        vector.write_text(json.dumps(w_star[perm].tolist()), encoding="utf-8")
        lines = [",".join(np.array(line.split(","))[perm]) for line in seeded_rows(kind, seed)]
        doc = csv_doc(tmp_path, kind, lines, name, columns=[header(kind)[j] for j in perm],
                      wstar=f"vector:{vector}")
        assert doc.pop("wstar") == f"vector:{vector}"
        docs.append(doc)
    before, after = docs
    expected = dict(before, feature_names=[before["feature_names"][j] for j in order],
                    groupings=[dict(entry, welfare_rule=[entry["welfare_rule"][j] for j in order])
                               for entry in before["groupings"]])
    assert_floats(expected, after, lambda path, old: old)
    assert_same_verdicts(expected, after)


@pytest.mark.parametrize("kind", sorted(CSV_KINDS))
@pytest.mark.parametrize("c", [0.03, 7.5, 2.0 ** -530])
def test_scaling_a_vector_w_star_scales_the_improvements(tmp_path, kind, c):
    w_star = np.random.default_rng(400).uniform(0.5, 2.0, len(header(kind)))
    docs = []
    for name, scale in (("a", 1.0), ("b", c)):
        vector = tmp_path / f"w_{name}.json"
        vector.write_text(json.dumps((scale * w_star).tolist()), encoding="utf-8")
        doc = csv_doc(tmp_path, kind, seeded_rows(kind, 0), name, wstar=f"vector:{vector}")
        assert doc.pop("wstar") == f"vector:{vector}"
        docs.append(doc)
    before, after = docs
    assert_floats(before, after, scaled_by(c))
    assert_same_verdicts(before, after)


def test_failing_groupings_leave_the_other_entries_alone(tmp_path):
    # every grouping is split before any group is factored, and the masks of
    # the failing "empty" grouping still cut the rows into cells, so the good
    # entries move by roundoff only
    path = write_csv(tmp_path, "numeric", seeded_rows("numeric", 0), "rows")
    bad = (GroupingSpec("overlap", GroupPredicate("age", "le", 40), GroupPredicate("age", "ge", 30)),
           GroupingSpec("empty", GroupPredicate("age", "gt", 100), GroupPredicate("x1", "gt", 0.0)))
    mixed, alone = (run_analysis(ExperimentConfig(dataset=path, groupings=groupings, rank=3))
                    for groupings in (groupings_of("numeric") + bad, groupings_of("numeric")))
    assert {e["name"]: e["error"] for e in mixed["groupings"] if "error" in e} == {
        "empty": {"type": "EmptyGroupError", "message": "grouping 'empty': group 1 received zero rows"},
        "overlap": {"type": "IngestError", "message": "grouping 'overlap': predicates overlap on 46 rows"},
    }
    kept = dict(mixed, n_failed=0, groupings=[e for e in mixed["groupings"] if "error" not in e])
    assert_floats(alone, kept, lambda path, old: old)
    assert_same_verdicts(alone, kept)
