"""Seeded inputs for the benchmark, plus the facts the output checker needs.

Each generator writes its input files and config into a work directory
and returns a `Workload`: what the program should report for rows, group
sizes and alignment, computed here from the generated arrays alone. The
CSV configs are the repository's own `configs/*.yaml` with only the
`dataset:` line rewritten, so the benchmark runs exactly the groupings a
user would.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

import numpy as np
import yaml

# Every workload leaves the sample count at the program default.
ALIGNMENT_SAMPLES = 200_000


@dataclass(frozen=True)
class Expected:
    """What one result entry must report."""

    group_sizes: Optional[Tuple[int, int]]
    n_excluded: Optional[int]
    ranks: Tuple[int, int]
    alignment: float     # exact tr(P1 P2) / d
    alignment_se: float  # standard error of the program's Monte-Carlo estimate


@dataclass
class Workload:
    name: str
    config: Path
    cli_format: str                  # "json", or "csv" to cover render_csv
    rows_written: Optional[int]      # None in model mode
    rows_missing: Optional[int]
    entries: Dict[str, Expected]


def _projection_stats(x1: np.ndarray, x2: np.ndarray, k: int) -> Tuple[Tuple[int, int], float, float]:
    """Ranks, exact tr(P1 P2)/d and the Monte-Carlo standard error.

    For x uniform on the unit sphere E[x x^T] = I/d, so the program's
    sample mean of <P1 x, P2 x> = x^T M x (M the symmetric part of P1 P2)
    has mean tr(M)/d and per-sample variance
    2 (tr(M^2) - tr(M)^2 / d) / (d (d + 2)).
    """
    bases, ranks = [], []
    for x in (x1, x2):
        _, s, vt = np.linalg.svd(x, full_matrices=False)
        r = min(k, int(np.sum(s > 1e-10 * s[0])))
        bases.append(vt[:r].T)
        ranks.append(r)
    p1, p2 = (b @ b.T for b in bases)
    d = p1.shape[0]
    m = (p1 @ p2 + p2 @ p1) / 2.0
    tr_m, tr_m2 = float(np.trace(m)), float(np.sum(m * m))
    var = max(0.0, 2.0 * (tr_m2 - tr_m * tr_m / d) / (d * (d + 2)))
    return (ranks[0], ranks[1]), tr_m / d, float(np.sqrt(var / ALIGNMENT_SAMPLES))


def _derive_config(template: Path, dataset: Path, out: Path) -> dict:
    """Copy a repository config, pointing its `dataset:` line at `dataset`."""
    text = template.read_text(encoding="utf-8")
    text, n = re.subn(r"^dataset:.*$", f"dataset: {dataset}", text, flags=re.M)
    if n != 1:
        raise ValueError(f"{template}: expected one top-level dataset line, found {n}")
    out.write_text(text, encoding="utf-8")
    return yaml.safe_load(text)


def _predicate_mask(columns: Dict[str, np.ndarray], pred: dict) -> np.ndarray:
    """Rows a grouping predicate selects, over the generator's typed values."""
    col = columns[pred["column"]]
    op, value = pred["op"], pred["value"]
    if op in ("le", "lt", "ge", "gt"):
        return {"le": col <= value, "lt": col < value, "ge": col >= value, "gt": col > value}[op]
    hit = np.isin(col, value if op == "in" else [value])
    return ~hit if op == "ne" else hit


def _dataset_entries(doc: dict, columns: Dict[str, np.ndarray], features: np.ndarray) -> Dict[str, Expected]:
    entries = {}
    for grouping in doc["groupings"]:
        mask1 = _predicate_mask(columns, grouping["group1"])
        mask2 = ~mask1 if grouping.get("group2") is None else _predicate_mask(columns, grouping["group2"])
        ranks, exact, se = _projection_stats(features[mask1], features[mask2], doc["rank"])
        n1, n2 = int(mask1.sum()), int(mask2.sum())
        entries[grouping["name"]] = Expected((n1, n2), int(mask1.size - n1 - n2), ranks, exact, se)
    return entries


CREDIT_ROWS = 30_000


def credit(root: Path, work: Path, rng: np.random.Generator) -> Workload:
    """30,000 x 25 all-numeric CSV in the shape of the credit-default data."""
    n = CREDIT_ROWS
    cols: Dict[str, np.ndarray] = {"ID": np.arange(1, n + 1)}
    cols["LIMIT_BAL"] = rng.integers(1, 100, n) * 10_000
    cols["SEX"] = rng.choice([1, 2], n, p=[0.4, 0.6])
    cols["EDUCATION"] = rng.choice([0, 1, 2, 3, 4, 5, 6], n, p=[0.01, 0.35, 0.47, 0.16, 0.005, 0.003, 0.002])
    cols["MARRIAGE"] = rng.choice([0, 1, 2, 3], n, p=[0.01, 0.45, 0.53, 0.01])
    cols["AGE"] = np.clip(21 + rng.gamma(2.5, 6.0, n).astype(int), 21, 79)
    for name in ("PAY_0", "PAY_2", "PAY_3", "PAY_4", "PAY_5", "PAY_6"):
        cols[name] = rng.choice(np.arange(-2, 9), n, p=[0.14, 0.19, 0.49, 0.12, 0.03, 0.01, 0.005, 0.005, 0.004, 0.003, 0.003])
    for i in range(1, 7):
        cols[f"BILL_AMT{i}"] = (rng.lognormal(9.5, 1.5, n) * rng.choice([-1, 1], n, p=[0.02, 0.98])).astype(int)
    for i in range(1, 7):
        cols[f"PAY_AMT{i}"] = (rng.lognormal(7.5, 1.6, n) * (rng.random(n) > 0.18)).astype(int)
    cols["default payment next month"] = (rng.random(n) < 0.22).astype(int)

    csv_path = work / "taiwan_credit.csv"
    table = np.column_stack(list(cols.values()))
    np.savetxt(csv_path, table, fmt="%d", delimiter=",", header=",".join(cols), comments="")
    config = work / "taiwan_credit.yaml"
    doc = _derive_config(root / "configs" / "taiwan_credit.yaml", csv_path, config)
    drop = set(doc["drop_columns"])
    features = np.column_stack([v for k, v in cols.items() if k not in drop]).astype(float)
    return Workload("credit", config, "json", n, 0, _dataset_entries(doc, cols, features))


ADULT_ROWS = 32_561
ADULT_MISSING_SHARE = 0.07
ADULT_COLUMNS = (
    "age", "workclass", "fnlwgt", "education", "education-num", "marital-status",
    "occupation", "relationship", "race", "sex", "capital-gain", "capital-loss",
    "hours-per-week", "native-country", "income",
)
# Columns that carry "?" in the census data.
ADULT_MISSING_COLUMNS = ("workclass", "occupation", "native-country")


def _skewed(rng: np.random.Generator, k: int, n: int, head: float) -> np.ndarray:
    """Category indices in [0, k): index 0 with probability `head`, the rest geometric."""
    tail = 0.7 ** np.arange(k - 1)
    p = np.concatenate([[head], (1.0 - head) * tail / tail.sum()])
    return rng.choice(k, n, p=p)


def adult(root: Path, work: Path, rng: np.random.Generator) -> Workload:
    """32,561 x 15 census-shaped CSV: space-padded categoricals and "?" cells."""
    n = ADULT_ROWS
    template = root / "configs" / "adult.yaml"
    categories = yaml.safe_load(template.read_text(encoding="utf-8"))["encoding"]
    numeric: Dict[str, np.ndarray] = {
        "age": np.clip(17 + rng.gamma(2.2, 9.0, n).astype(int), 17, 90),
        "fnlwgt": rng.lognormal(12.0, 0.5, n).astype(int) + 12_285,
        "capital-gain": (rng.lognormal(8.0, 1.0, n) * (rng.random(n) < 0.08)).astype(int),
        "capital-loss": (rng.lognormal(7.4, 0.3, n) * (rng.random(n) < 0.05)).astype(int),
        "hours-per-week": np.clip(rng.normal(40.0, 12.0, n).astype(int), 1, 99),
    }
    heads = {"workclass": 0.75, "marital-status": 0.46, "occupation": 0.13,
             "relationship": 0.05, "race": 0.85, "sex": 0.33, "native-country": 0.9}
    codes = {c: _skewed(rng, len(categories[c]), n, head) for c, head in heads.items()}
    codes["education"] = rng.choice(len(categories["education"]), n)
    numeric["education-num"] = codes["education"] + 1
    income = rng.random(n) < 0.24

    # ~7 % of rows get a "?" in one or more of the three columns.
    missing_row = rng.random(n) < ADULT_MISSING_SHARE
    which = rng.integers(0, len(ADULT_MISSING_COLUMNS), n)
    missing = {c: missing_row & ((which == j) | (rng.random(n) < 0.3))
               for j, c in enumerate(ADULT_MISSING_COLUMNS)}

    text: Dict[str, np.ndarray] = {}
    for c in ADULT_COLUMNS:
        if c == "income":
            text[c] = np.where(income, ">50K", "<=50K")
        elif c in codes:
            text[c] = np.asarray(categories[c], dtype=object)[codes[c]]
        else:
            text[c] = numeric[c].astype(str)
        if c in missing:
            text[c] = np.where(missing[c], "?", text[c])
    csv_path = work / "adult.csv"
    lines = [",".join(ADULT_COLUMNS)]
    # The census file separates cells with ", ", so every cell after the first is space-padded.
    lines += [", ".join(row) for row in zip(*(text[c] for c in ADULT_COLUMNS))]
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    config = work / "adult.yaml"
    doc = _derive_config(template, csv_path, config)
    keep = ~missing_row
    typed: Dict[str, np.ndarray] = {}
    encoded: Dict[str, np.ndarray] = {}
    for c in ADULT_COLUMNS:
        if c in numeric:
            typed[c] = numeric[c][keep]
            encoded[c] = typed[c].astype(float)
        elif c in codes:
            typed[c] = text[c][keep]
            encoded[c] = codes[c][keep] + 1.0  # ordinal lists map to 1..n
    features = np.column_stack([encoded[c] for c in ADULT_COLUMNS if c not in doc["drop_columns"]])
    return Workload("adult", config, "csv", n, int(missing_row.sum()),
                    _dataset_entries(doc, typed, features))


MODEL_FILES = 8
MODEL_DIM = 64
MODEL_SAMPLES = 400
MODEL_DATA_RANKS = (16, 21)
MODEL_RANK_CAP = 20
EPSILON_ENTRIES = 8


def _spd(rng: np.random.Generator, d: int) -> np.ndarray:
    m = rng.standard_normal((d, d))
    a = m @ m.T / d + np.eye(d)
    return (a + a.T) / 2.0


def models(root: Path, work: Path, rng: np.random.Generator) -> Workload:
    """Model mode: 8 stored d=64 model files plus 8 two-axis constructions."""
    d = MODEL_DIM
    entries: Dict[str, Expected] = {}
    lines = ["models:"]
    for i in range(MODEL_FILES):
        data = [rng.standard_normal((MODEL_SAMPLES, r)) @ rng.standard_normal((r, d))
                for r in MODEL_DATA_RANKS]
        doc = {
            "schema_version": 1,
            "names": ["group1", "group2"],
            "rank": MODEL_RANK_CAP,
            "w_star": rng.standard_normal(d).tolist(),
            "cost1": _spd(rng, d).tolist(),
            "cost2": _spd(rng, d).tolist(),
            "data1": data[0].tolist(),
            "data2": data[1].tolist(),
        }
        path = work / f"model_{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        name = f"file{i}"
        lines.append(f"  - {{name: {name}, path: {path}}}")
        ranks, exact, se = _projection_stats(data[0], data[1], MODEL_RANK_CAP)
        entries[name] = Expected(None, None, ranks, exact, se)
    # The two-axis construction projects the groups onto orthogonal axes,
    # so tr(P1 P2) = 0 exactly and every sample contributes exactly 0.
    for i, eps in enumerate(np.sort(rng.uniform(0.05, 0.95, EPSILON_ENTRIES))):
        name = f"eps{i}"
        lines.append(f"  - {{name: {name}, epsilon: {float(eps)!r}}}")
        entries[name] = Expected(None, None, (1, 1), 0.0, 0.0)
    lines.append("seed: 0")
    config = work / "models.yaml"
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Workload("models", config, "json", None, None, entries)


GENERATORS: Dict[str, Callable[[Path, Path, np.random.Generator], Workload]] = {
    "credit": credit,
    "adult": adult,
    "models": models,
}


def generate(name: str, root: Path, work: Path, seed: int) -> Workload:
    """Write workload `name`'s inputs under `work`; the same seed gives the same files."""
    work.mkdir(parents=True, exist_ok=True)
    return GENERATORS[name](root, work, np.random.default_rng(seed))
