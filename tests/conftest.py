"""Shared instance factories and the acceptance-result summary hook."""

import numpy as np

from scoregap import CostMatrix, PopulationModel, ProjectionMatrix, Subgroup
from scoregap.experiment import population_payload
from scoregap.modelio import MODEL_SCHEMA_VERSION

# populated by test_acceptance, printed at the end of the run
ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for line in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line("  " + line)


def _outer(h):
    return [[a * b / 4 for b in h] for a in h]


_BLOCK = [[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 2, 1], [0, 0, 1, 2]]

# Model files whose pulls are exactly zero: A_g^{-1} w* is a multiple of the
# all-ones vector, which both projections annihilate, so no rule moves anyone.
EXACT_ZERO_PULL_MODELS = {
    "d2": {"w_star": [1, 1], "cost1": [[2, 1], [1, 2]], "cost2": [[2, 1], [1, 2]],
           "projection1": [[0.5, -0.5], [-0.5, 0.5]], "projection2": [[0.5, -0.5], [-0.5, 0.5]]},
    "d4": {"w_star": [1, 1, 1, 1], "cost1": _BLOCK, "cost2": [[3 * x for x in row] for row in _BLOCK],
           "projection1": _outer((1, -1, 1, -1)), "projection2": _outer((1, 1, -1, -1))},
}


def random_orthonormal(rng: np.random.Generator, d: int, k: int) -> np.ndarray:
    """d x k matrix with orthonormal columns."""
    q, _ = np.linalg.qr(rng.standard_normal((d, max(k, 1))))
    return q[:, :k]


def random_projection(rng: np.random.Generator, d: int, k: int) -> ProjectionMatrix:
    return ProjectionMatrix(random_orthonormal(rng, d, k))


def random_spd(rng: np.random.Generator, d: int, lo: float = 0.3, hi: float = 3.0) -> np.ndarray:
    q = random_orthonormal(rng, d, d)
    eigs = rng.uniform(lo, hi, size=d)
    a = q @ np.diag(eigs) @ q.T
    return (a + a.T) / 2.0


def random_subgroup(rng: np.random.Generator, d: int, name: str = "g",
                    rank: int = None, identity_cost: bool = False) -> Subgroup:
    if rank is None:
        rank = int(rng.integers(1, d + 1))
    cost = CostMatrix.identity(d) if identity_cost else CostMatrix(random_spd(rng, d))
    return Subgroup(name=name, cost=cost, projection=random_projection(rng, d, rank))


def random_population(rng: np.random.Generator, d: int = None,
                      identity_cost: bool = False) -> PopulationModel:
    """Generic instance: random ranks, random SPD costs, Gaussian w*."""
    if d is None:
        d = int(rng.integers(2, 13))
    pop = PopulationModel(
        group1=random_subgroup(rng, d, "g1", identity_cost=identity_cost),
        group2=random_subgroup(rng, d, "g2", identity_cost=identity_cost),
        w_star=rng.standard_normal(d),
    )
    if pop.degenerate:
        # vanishing total pull has probability zero under this draw; a
        # degenerate sample would make downstream assertions vacuous
        raise AssertionError("random factory produced a degenerate population")
    return pop


def orthogonal_population(rng: np.random.Generator, d: int = None) -> PopulationModel:
    """Two subgroups whose perceived subspaces are mutually orthogonal."""
    if d is None:
        d = int(rng.integers(3, 13))
    r1 = int(rng.integers(1, d))
    r2 = int(rng.integers(1, d - r1 + 1))
    basis = random_orthonormal(rng, d, r1 + r2)
    return PopulationModel(
        group1=Subgroup(
            name="g1",
            cost=CostMatrix(random_spd(rng, d)),
            projection=ProjectionMatrix(basis[:, :r1]),
        ),
        group2=Subgroup(
            name="g2",
            cost=CostMatrix(random_spd(rng, d)),
            projection=ProjectionMatrix(basis[:, r1:]),
        ),
        w_star=rng.standard_normal(d),
    )


def scaled_population(rng: np.random.Generator, d: int = None,
                      scale: float = None) -> PopulationModel:
    """Identical subspaces, proportional costs: A2 = scale * A1."""
    if d is None:
        d = int(rng.integers(2, 13))
    if scale is None:
        scale = float(rng.uniform(0.1, 10.0))
    rank = int(rng.integers(1, d + 1))
    projection = random_projection(rng, d, rank)
    a1 = random_spd(rng, d)
    return PopulationModel(
        group1=Subgroup(name="g1", cost=CostMatrix(a1), projection=projection),
        group2=Subgroup(name="g2", cost=CostMatrix(scale * a1), projection=projection),
        w_star=rng.standard_normal(d),
    )


def zero_pull_population(rng: np.random.Generator, d: int = None) -> PopulationModel:
    """Group 1 sees only directions orthogonal to A_1^{-1} w*, so its pull is zero; in half the
    draws group 2 sees only the rest, so group 1 also perceives none of the welfare rule."""
    if d is None:
        d = int(rng.integers(3, 9))
    a1, w_star = random_spd(rng, d), rng.standard_normal(d)
    q, _ = np.linalg.qr(np.column_stack([np.linalg.solve(a1, w_star), rng.standard_normal((d, d - 1))]))
    r1 = int(rng.integers(1, d))
    blind = bool(rng.integers(0, 2))
    basis2 = q[:, [0] + list(range(r1 + 1, d))] if blind else random_orthonormal(rng, d, int(rng.integers(1, d + 1)))
    return PopulationModel(
        group1=Subgroup(name="g1", cost=CostMatrix(a1), projection=ProjectionMatrix(q[:, 1:r1 + 1])),
        group2=Subgroup(name="g2", cost=CostMatrix(random_spd(rng, d)), projection=ProjectionMatrix(basis2)),
        w_star=w_star,
    )


def assert_entry_agrees(model: PopulationModel) -> None:
    """Asserts that each verdict of the model's entry agrees with the metric it restates, and each fast path
    with the verdicts its condition implies.

    do_no_harm is I_g >= 0 and equal_improvement is I_1 = I_2, each judged on the metric times `welfare`
    (= ||s||), so a verdict fails only where its metric does, and a metric past twice the tolerance fails
    it. Each verdict shares its floats with its metric: do_no_harm's value has the sign of I_g, and
    equal_improvement's value is 0 exactly where `difference` is. per_unit_optimal's value is exactly
    uI_g_star - uI_g (exact while no value is subnormal), its verdict is |value| <= tolerance, it is None
    exactly where uI_g is, and it is true with value 0 and no multiplier where the pull is zero.
    """
    payload = population_payload(model)
    metrics, conditions = payload["metrics"], payload["conditions"]
    welfare, c = metrics["welfare"], conditions["sufficient_c"]
    for g in (1, 2):
        harm = conditions["do_no_harm"][f"group{g}"]
        assert harm["verdict"] or metrics[f"I{g}"] < 0, g
        assert metrics[f"I{g}"] * welfare >= -2 * harm["tolerance"] or not harm["verdict"], g
        assert np.sign(harm["value"]) == np.sign(metrics[f"I{g}"]), g
        per_unit = conditions["per_unit_optimal"][f"group{g}"]
        unit = metrics[f"uI{g}"]
        assert (per_unit["verdict"] is None) == (per_unit["value"] is None) == (unit is None), g
        if unit is not None:
            assert per_unit["value"] == metrics[f"uI{g}_star"] - unit, g
            assert per_unit["verdict"] == (abs(per_unit["value"]) <= per_unit["tolerance"]), g
            if model.zero_pulls[g - 1]:
                assert (per_unit["verdict"], per_unit["value"], c[f"group{g}"]) == (True, 0.0, None), g
    equal = conditions["equal_improvement"]
    assert equal["verdict"] or metrics["difference"] != 0
    assert (equal["value"] == 0) == (metrics["difference"] == 0)
    assert abs(metrics["difference"]) * welfare <= 2 * equal["tolerance"] or not equal["verdict"]
    fast = conditions["fast_path"]
    if fast == "orthogonal_subspaces":  # G_12 = 0, so G_gg + G_12 >= 0
        assert conditions["do_no_harm"]["group1"]["verdict"] and conditions["do_no_harm"]["group2"]["verdict"]
    if fast in ("scaled_equal", "sufficient_cg"):  # t_g = c_g P_g s with c_g > 0
        for g in (1, 2):
            assert conditions["per_unit_optimal"][f"group{g}"]["verdict"] and c[f"group{g}"] > 0, g
    if fast == "scaled_equal":  # t_2 = t_1 / c for c = tr A_2 / tr A_1, and P_g s = s
        ratio = np.trace(model.group2.cost.matrix) / np.trace(model.group1.cost.matrix)
        assert abs(c["group1"] + c["group2"] - 1.0) <= 1e-12
        assert abs(c["group1"] / c["group2"] - ratio) <= 1e-9 * ratio


def random_unit_rules(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    w = rng.standard_normal((n, d))
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def model_to_dict(model: PopulationModel) -> dict:
    """A model file's document for `model`, with dense projections."""
    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        "names": [model.group1.name, model.group2.name],
        "w_star": model.w_star.tolist(),
        "cost1": model.group1.cost.matrix.tolist(),
        "cost2": model.group2.cost.matrix.tolist(),
        "projection1": model.group1.projection.matrix.tolist(),
        "projection2": model.group2.projection.matrix.tolist(),
    }
