"""End-to-end acceptance gate.

Each criterion below is one headline guarantee of the package, checked at
the stated tolerance and runtime budget. Every test records one visible
PASS/FAIL/SKIP line in the terminal summary (see conftest) so the whole
gate can be audited at a glance. The per-module suites cover the
fine-grained behavior; this file only asserts the contract.
"""

import dataclasses
import math
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from scoregap import (
    ExperimentConfig,
    ModelEntry,
    PeerDataset,
    best_response,
    check_do_no_harm,
    check_equal_improvement,
    check_per_unit_optimality,
    estimate_rule_empirical,
    improvement_difference,
    load_config,
    optimal_per_unit_improvement,
    per_unit_improvement,
    total_improvement,
    utility,
    welfare_gain,
    welfare_maximizing_rule,
)
from scoregap.cli import main
from scoregap.experiment import run_analysis

from conftest import (
    ACCEPTANCE_RESULTS,
    orthogonal_population,
    random_orthonormal,
    random_population,
    random_subgroup,
    random_unit_rules,
    scaled_population,
)


@contextmanager
def criterion(num, desc, limit=None):
    """Record one summary line per criterion; enforce the runtime budget."""
    start = time.perf_counter()
    try:
        yield
    except BaseException as exc:
        if exc.__class__.__name__ == "Skipped":
            ACCEPTANCE_RESULTS.append(f"[criterion {num}] SKIP - {desc} ({exc})")
        else:
            ACCEPTANCE_RESULTS.append(f"[criterion {num}] FAIL - {desc}")
        raise
    elapsed = time.perf_counter() - start
    if limit is not None and elapsed >= limit:
        ACCEPTANCE_RESULTS.append(
            f"[criterion {num}] FAIL - {desc} (ran {elapsed:.2f}s, budget {limit:.0f}s)"
        )
        raise AssertionError(
            f"criterion {num}: runtime {elapsed:.2f}s exceeds the {limit:.0f}s budget"
        )
    ACCEPTANCE_RESULTS.append(f"[criterion {num}] PASS - {desc} ({elapsed:.2f}s)")


def test_criterion_1_two_axis_exact_values():
    with criterion(1, "two-axis example reproduced exactly through the pipeline", limit=1.0):
        cfg = ExperimentConfig(models=(ModelEntry(name="eps", epsilon=0.1),))
        (entry,) = run_analysis(cfg)["groupings"]
        root = math.sqrt(1.0 - 0.01)
        m = entry["metrics"]
        assert abs(m["I1"] - 0.01) <= 1e-9
        assert abs(m["I2"] - 0.99) <= 1e-9
        assert abs(m["uI1"] - 0.1) <= 1e-9
        assert abs(m["uI2"] - root) <= 1e-9
        rule = np.asarray(entry["welfare_rule"])
        assert np.max(np.abs(rule - np.array([0.1, root]))) <= 1e-9
        conditions = entry["conditions"]
        assert conditions["per_unit_optimal"]["group1"]["verdict"] is True
        assert conditions["per_unit_optimal"]["group2"]["verdict"] is True
        assert conditions["equal_improvement"]["verdict"] is False


def test_criterion_2_estimation_equals_projected_rule():
    with criterion(
        2, "empirical min-norm estimate equals the projected rule on 500 instances",
        limit=10.0,
    ):
        rng = np.random.default_rng(2026)
        worst = 0.0
        for _ in range(500):
            d = int(rng.integers(2, 21))
            r = int(rng.integers(1, d))
            basis = random_orthonormal(rng, d, r)
            n = r + int(rng.integers(0, 4))
            peers = rng.standard_normal((n, r)) @ basis.T
            w = rng.standard_normal(d)
            estimated = estimate_rule_empirical(PeerDataset.from_rule(peers, w))
            projected = basis @ (basis.T @ w)
            worst = max(worst, float(np.max(np.abs(estimated - projected))))
        assert worst <= 1e-8, f"worst estimate deviation {worst:.3e}"


def test_criterion_3_welfare_rule_tops_random_rules():
    with criterion(
        3, "closed-form welfare rule beats 100k random unit rules on 100 instances",
        limit=60.0,
    ):
        rng = np.random.default_rng(3)
        candidates = {}
        for _ in range(100):
            pop = random_population(rng)
            d = pop.w_star.shape[0]
            if d not in candidates:
                candidates[d] = random_unit_rules(rng, 100_000, d)
            rules = candidates[d]
            achieved = welfare_gain(pop, welfare_maximizing_rule(pop))
            # batch evaluation of the same movement-based gain
            responses = [np.linalg.solve(g.cost.matrix, g.projection.matrix) for g in pop.groups]
            gains = (
                rules @ responses[0].T + rules @ responses[1].T
            ) @ pop.w_star
            shortfall = float(np.max(gains)) - achieved
            assert shortfall <= 1e-6, f"a random rule won by {shortfall:.3e}"


def test_criterion_4_structural_families_do_no_harm():
    with criterion(
        4, "do-no-harm on 200 orthogonal-span and 200 proportional-cost instances"
    ):
        rng = np.random.default_rng(4)
        for make in (orthogonal_population, scaled_population):
            for _ in range(200):
                pop = make(rng)
                assert check_do_no_harm(pop, 1).verdict
                assert check_do_no_harm(pop, 2).verdict


def test_criterion_5_checkers_match_direct_metrics():
    with criterion(
        5, "checker verdicts agree with directly computed metrics on 500 instances"
    ):
        rng = np.random.default_rng(5)
        families = (
            [lambda: random_population(rng)] * 300
            + [lambda: orthogonal_population(rng)] * 100
            + [lambda: scaled_population(rng)] * 50
            + [lambda: scaled_population(rng, scale=1.0)] * 50
        )
        compared = 0
        skipped = 0
        for make in families:
            pop = make()
            w = welfare_maximizing_rule(pop)
            # independent route to the gain direction: explicit inverses
            s_direct = sum(
                g.projection.matrix @ np.linalg.inv(g.cost.matrix) @ pop.w_star
                for g in (pop.group1, pop.group2)
            )
            s_norm = float(np.linalg.norm(s_direct))
            # each check is judged against its own tolerance; disagreement
            # is only possible within 0.01 * tol of it

            for gid in (1, 2):
                check = check_do_no_harm(pop, gid)
                tol = check.tolerance
                direct = total_improvement(pop, gid, w) * s_norm
                if abs(direct) < 2 * tol:
                    skipped += 1
                else:
                    compared += 1
                    assert check.verdict == (direct >= 0)

            check = check_equal_improvement(pop)
            tol = check.tolerance
            direct = improvement_difference(pop, w) * s_norm
            if abs(abs(direct) - tol) <= 0.01 * tol:
                skipped += 1
            else:
                compared += 1
                assert check.verdict == (abs(direct) <= tol)

            for gid in (1, 2):
                check = check_per_unit_optimality(pop, gid)
                if check.verdict is None:  # the subgroup perceives none of the welfare rule
                    skipped += 1
                    continue
                tol = check.tolerance
                direct = optimal_per_unit_improvement(pop, gid) - per_unit_improvement(
                    pop, gid, w
                )
                if abs(abs(direct) - tol) <= 0.01 * tol:
                    skipped += 1
                else:
                    compared += 1
                    assert check.verdict == (abs(direct) <= tol)
        assert compared >= 2400, f"only {compared} comparisons landed outside the band"


def test_criterion_6_best_response_optimality():
    with criterion(
        6, "closed-form best response dominates 10k perturbations on 200 triples"
    ):
        rng = np.random.default_rng(6)
        for _ in range(200):
            d = int(rng.integers(2, 13))
            group = random_subgroup(rng, d)
            w = rng.standard_normal(d)
            x = rng.standard_normal(d)
            moved = best_response(group, x, w)
            gained = utility(group, x, moved, w)

            radii = np.exp(rng.uniform(np.log(1e-4), np.log(2.0), size=(10_000, 1)))
            directions = rng.standard_normal((10_000, d))
            directions /= np.linalg.norm(directions, axis=1, keepdims=True)
            others = moved + radii * directions
            perceived = group.projection.matrix @ w
            shift = others - x
            other_utilities = others @ perceived - 0.5 * np.einsum(
                "ij,jk,ik->i", shift, group.cost.matrix, shift
            )
            assert gained > float(np.max(other_utilities))

            h = 1e-5
            gradient = np.zeros(d)
            for j in range(d):
                step = np.zeros(d)
                step[j] = h
                gradient[j] = (
                    utility(group, x, moved + step, w)
                    - utility(group, x, moved - step, w)
                ) / (2 * h)
            assert np.linalg.norm(gradient) <= 1e-6


def test_criterion_7_real_dataset_reproduction():
    root = Path(__file__).resolve().parent.parent
    data_dir = Path(os.environ.get("SCOREGAP_DATA_DIR", root / "data"))
    available = [
        name for name in ("taiwan_credit", "adult")
        if (data_dir / f"{name}.csv").exists()
    ]
    label = ", ".join(available) if available else "no files"
    with criterion(7, f"real-dataset groupings improve both groups ({label})"):
        if not available:
            pytest.skip(f"no dataset CSVs under {data_dir}")
        for name in available:
            started = time.perf_counter()
            cfg = load_config(str(root / "configs" / f"{name}.yaml"))
            cfg = dataclasses.replace(cfg, dataset=str(data_dir / f"{name}.csv"))
            result = run_analysis(cfg)
            assert result["n_failed"] == 0, f"{name}: {result['groupings']}"
            for entry in result["groupings"]:
                m = entry["metrics"]
                where = f"{name}/{entry['name']}"
                assert m["I1"] > 0, f"{where}: group 1 harmed"
                assert m["I2"] > 0, f"{where}: group 2 harmed"
                assert m["uI1"] <= m["uI1_star"] + 1e-9, where
                assert m["uI2"] <= m["uI2_star"] + 1e-9, where
            elapsed = time.perf_counter() - started
            assert elapsed < 120.0, f"{name} took {elapsed:.1f}s"


def test_criterion_8_welfare_decomposition_identity():
    with criterion(
        8, "improvements sum to the gain-direction norm on 500 instances"
    ):
        rng = np.random.default_rng(8)
        for _ in range(500):
            pop = random_population(rng)
            w = welfare_maximizing_rule(pop)
            total = total_improvement(pop, 1, w) + total_improvement(pop, 2, w)
            summed_response = sum(
                np.linalg.inv(g.cost.matrix) @ g.projection.matrix
                for g in (pop.group1, pop.group2)
            )
            norm = float(np.linalg.norm(summed_response.T @ pop.w_star))
            assert abs(total - norm) <= 1e-9


def test_criterion_9_cli_determinism(tmp_path, capsys):
    with criterion(9, "repeated analyze runs emit byte-identical documents"):
        csv_path = tmp_path / "rows.csv"
        rng = np.random.default_rng(9)
        lines = ["age,skill,effort"]
        for _ in range(40):
            lines.append(
                f"{int(rng.integers(18, 70))},"
                f"{rng.standard_normal():.6f},{rng.standard_normal():.6f}"
            )
        csv_path.write_text("\n".join(lines) + "\n")
        config_path = tmp_path / "config.yaml"
        config_path.write_text(
            f"dataset: {csv_path}\n"
            "groupings:\n"
            "  - name: age\n"
            "    group1: {column: age, op: le, value: 40}\n"
            "rank: 2\n"
        )
        out1, out2 = tmp_path / "run1.json", tmp_path / "run2.json"
        assert main(["analyze", "--config", str(config_path), "--out", str(out1)]) == 0
        assert main(["analyze", "--config", str(config_path), "--out", str(out2)]) == 0
        first, second = out1.read_bytes(), out2.read_bytes()
        assert first == second
        assert len(first) > 0
