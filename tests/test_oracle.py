"""Each decision that rests on a zero, against its value in exact arithmetic.

The instances are exact in floats: integer w*, integer SPD costs
L L^T + c I (condition number below 1e4 for d <= 8) and projections H_c H_c^T / d,
where H_c holds columns of a row-permuted Sylvester-Hadamard matrix, so
every entry is dyadic and a model file holds it exactly. The oracle solves
them with stdlib fractions. An exact zero must give "holds" (with
`boundary` for an inequality) or the same degeneracy error, and an exact
value beyond 1e-6 of its scale must give the same verdict as its sign.
Families build exact zeros on purpose: a w* whose solve lies in the null
space of one or both projections, and group 2 as group 1 mirrored by a
coordinate swap that fixes w*, which ties the two improvements.
Ill-conditioned costs are left out: exact ties flip there from cond ~ 1e10.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from scoregap import (
    DegenerateObjectiveError, check_do_no_harm, check_equal_improvement, check_per_unit_optimality,
    check_sufficient_per_unit, improvement_report, welfare_maximizing_rule,
)
from scoregap.modelio import model_from_dict

from conftest import EXACT_ZERO_PULL_MODELS, assert_entry_agrees

BAND = 1e-6  # an exact value this far from zero, relative to its scale, has a sign no roundoff can flip
IDENTITY_TOL = 1e-9  # relative to its scale, the most roundoff an identity may show


def _hadamard(d):
    h = [[1]]
    while len(h) < d:
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return h


def _projection(h, cols):
    d = len(h)
    return [[sum(h[i][c] * h[j][c] for c in cols) / d for j in range(d)] for i in range(d)]


def _matvec(m, v):
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _solve(a, b):
    """x with a x = b, by Gaussian elimination in Fractions (a is SPD, so no pivot vanishes)."""
    n = len(b)
    m = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, b)]
    for k in range(n):
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    x = [Fraction(0)] * n
    for k in reversed(range(n)):
        x[k] = (m[k][n] - _dot(m[k][k + 1:n], x[k + 1:])) / m[k][k]
    return x


def _norm(sq):
    return math.sqrt(float(sq))


def _exact(doc):
    """G = T T^T for a model document's pulls, ||t_1|| + ||t_2||, ||s||^2 = G_11 + 2 G_12 + G_22 and each
    n_g^2 = ||P_g s||^2, exactly but for the float ||t_1|| + ||t_2||."""
    w = [Fraction(x) for x in doc["w_star"]]
    projections = [[[Fraction(x) for x in row] for row in doc[f"projection{g}"]] for g in (1, 2)]
    pulls = [_matvec(p, _solve(doc[f"cost{g}"], w)) for g, p in zip((1, 2), projections)]
    gram = [[_dot(u, v) for v in pulls] for u in pulls]
    perceived = [_dot(v, v) for v in (_matvec(p, [a + b for a, b in zip(*pulls)]) for p in projections)]
    return gram, _norm(gram[0][0]) + _norm(gram[1][1]), gram[0][0] + 2 * gram[0][1] + gram[1][1], perceived


def _spd(rng, d):
    """L L^T + c I: every eigenvalue is at least c and at most the largest row sum, 144 d^2 + c."""
    lower = [[rng.randint(-12, 12) for _ in range(d)] for _ in range(d)]
    shift = rng.randint(1, 4)
    return [[_dot(lower[i], lower[j]) + shift * (i == j) for j in range(d)] for i in range(d)]


def _instance(seed, d, family):
    """A model document of one family: free, one null pull, both null, mirrored."""
    rng = random.Random(seed)
    perm = rng.sample(range(d), d)
    h = [_hadamard(d)[i] for i in perm]
    cols = [sorted(rng.sample(range(d), rng.randint(0, d))) for _ in (1, 2)]
    cost1 = _spd(rng, d)
    if family == "mirror":  # swap coordinates 2i and 2i + 1: cost, projection and w* map group 1 to group 2
        swap = [i ^ 1 for i in range(d)]
        half = [rng.randint(-5, 5) for _ in range(d // 2)]
        return {"w_star": [half[i // 2] for i in range(d)], "cost1": cost1,
                "cost2": [[cost1[i][j] for j in swap] for i in swap],
                "projection1": _projection(h, cols[0]), "projection2": _projection([h[i] for i in swap], cols[0])}
    if family == "null_both":
        factor = rng.randint(1, 4)
        cost2 = [[factor * x for x in row] for row in cost1]
    else:
        cost2 = _spd(rng, d)
    if family == "free":
        w = [rng.randint(-5, 5) for _ in range(d)]
    else:  # A_1^{-1} w* (for null_both A_2^{-1} w* too, a multiple of it) in the span of columns no such P_g keeps
        kept = set(cols[0]) | (set(cols[1]) if family == "null_both" else set())
        x = {c: rng.randint(-3, 3) for c in range(d) if c not in kept}
        w = _matvec(cost1, [sum(h[i][c] * xc for c, xc in x.items()) for i in range(d)])
    return {"w_star": w, "cost1": cost1, "cost2": cost2,
            "projection1": _projection(h, cols[0]), "projection2": _projection(h, cols[1])}


instances = st.builds(_instance, st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 8]),
                      st.sampled_from(["free", "null", "null_both", "mirror"]))


def oracle_examples(test):
    """Runs `test` on 200 derandomized instances and on both exactly degenerate model files."""
    test = settings(derandomize=True, database=None, max_examples=200, deadline=None)(test)
    for doc in EXACT_ZERO_PULL_MODELS.values():
        test = example(doc=doc)(test)
    return given(doc=instances)(test)


@oracle_examples
def test_zero_pulls(doc):
    model = model_from_dict(doc)
    gram, pull_scale, _, _ = _exact(doc)
    for g in (0, 1):
        if gram[g][g] == 0:
            assert model.zero_pulls[g], g
        elif _norm(gram[g][g]) > BAND * pull_scale:
            assert not model.zero_pulls[g], g


@oracle_examples
def test_degeneracy(doc):
    model = model_from_dict(doc)
    _, pull_scale, gain_sq, _ = _exact(doc)
    if gain_sq == 0:
        assert model.degenerate
        with pytest.raises(DegenerateObjectiveError, match="^welfare gain is zero for every rule; no maximizer exists$"):
            welfare_maximizing_rule(model)
    elif _norm(gain_sq) > BAND * pull_scale:
        assert not model.degenerate


@oracle_examples
def test_do_no_harm(doc):
    model = model_from_dict(doc)
    gram, pull_scale, gain_sq, _ = _exact(doc)
    if gain_sq == 0:
        with pytest.raises(DegenerateObjectiveError):
            check_do_no_harm(model, 1)
        return
    for g in (1, 2):
        value = gram[g - 1][g - 1] + gram[0][1]
        check = check_do_no_harm(model, g)
        if value == 0:
            assert (check.verdict, check.boundary) == (True, True), g
        elif abs(float(value)) > BAND * pull_scale * _norm(gain_sq):
            assert (check.verdict, check.boundary) == (value > 0, False), g


@oracle_examples
def test_equal_improvement(doc):
    model = model_from_dict(doc)
    gram, _, gain_sq, _ = _exact(doc)
    if gain_sq == 0:
        with pytest.raises(DegenerateObjectiveError):
            check_equal_improvement(model)
        return
    value = gram[0][0] - gram[1][1]
    check = check_equal_improvement(model)
    if value == 0:
        assert check.verdict
    elif abs(float(value)) > BAND * float(gram[0][0] + gram[1][1]):
        assert not check.verdict


@oracle_examples
def test_per_unit_optimality(doc):
    model = model_from_dict(doc)
    gram, pull_scale, gain_sq, perceived = _exact(doc)
    if gain_sq == 0:
        with pytest.raises(DegenerateObjectiveError):
            check_per_unit_optimality(model, 1)
        return
    for g in (1, 2):
        pull_sq, inner, n_sq = gram[g - 1][g - 1], gram[g - 1][g - 1] + gram[0][1], perceived[g - 1]
        check = check_per_unit_optimality(model, g)
        if n_sq == 0:  # the subgroup perceives none of the welfare rule, so its per-unit gain has no value
            assert (check.verdict, check.value) == (None, None), g
        elif _norm(n_sq) <= BAND * _norm(gain_sq):
            continue
        elif pull_sq == 0:  # every rule gains the subgroup its per-unit optimum, 0
            assert (check.verdict, check.value, check_sufficient_per_unit(model, g)) == (True, 0.0, None), g
        elif _norm(pull_sq) > BAND * pull_scale:
            # <t_g, P_g s> = G_gg + G_12, so Cauchy-Schwarz is an equality exactly when t_g is parallel to P_g s
            optimal = inner > 0 and inner ** 2 == pull_sq * n_sq
            if optimal or inner <= 0 or 1 - math.sqrt(inner ** 2 / (pull_sq * n_sq)) > BAND:
                assert check.verdict == optimal, g


@oracle_examples
def test_an_entry_agrees_with_itself(doc):
    model = model_from_dict(doc)
    if not model.degenerate:
        assert_entry_agrees(model)


@oracle_examples
def test_improvements_of_the_welfare_rule(doc):
    model = model_from_dict(doc)
    gram, pull_scale, gain_sq, _ = _exact(doc)
    if _norm(gain_sq) <= BAND * pull_scale:
        return  # test_degeneracy judges these
    report = improvement_report(model)
    gain = _norm(gain_sq)
    for g in (1, 2):  # I_g = <t_g, s> / ||s||
        exact = float(gram[g - 1][g - 1] + gram[0][1])
        assert abs(report[f"I{g}"] * gain - exact) <= IDENTITY_TOL * pull_scale * gain, g
    assert abs(report["welfare"] ** 2 - float(gain_sq)) <= IDENTITY_TOL * float(gain_sq)  # welfare = ||s||
