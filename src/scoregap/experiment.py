"""The analyze pipeline: datasets or prebuilt models in, metric reports out.

`prepare` turns a config into populations: for each grouping it splits
the rows and builds each subgroup's perceived subspace from its own rows
(or it loads each listed model). `run_analysis` then deploys the
welfare-maximizing rule on each population and reports the six headline
quantities (total and per-unit improvements, per-unit optima for both
groups) plus subspace alignment and the full guarantee report. Entries
are isolated: one failing grouping becomes an error entry instead of
aborting the run.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .errors import (
    ConfigError,
    DegenerateObjectiveError,
    EmptyGroupError,
    ScoregapError,
    ZeroProjectedRuleError,
)
from .agents import CostMatrix, Subgroup
from .conditions import condition_report, disparity_example
from .config import ExperimentConfig, ModelEntry
from .ingest import Dataset, GroupingSpec, fit_ground_truth, load_csv, split_masks, standardize_columns
from .linalg import alignment, subspace_projection
from .metrics import improvement_report
from .modelio import load_model
from .principal import PopulationModel, welfare_maximizing_rule

RESULT_SCHEMA_VERSION = 1

# Error types that mean the instance violates the model's standing
# assumptions (no gain possible anywhere) rather than being malformed.
DEGENERATE_ERRORS = (DegenerateObjectiveError, ZeroProjectedRuleError)

CSV_COLUMNS = (
    "name", "error", "n1", "n2", "n_excluded", "rank1", "rank2", "alignment",
    "I1", "I2", "uI1", "uI2", "uI1_star", "uI2_star", "welfare", "difference",
    "do_no_harm1", "do_no_harm2", "equal_improvement",
    "per_unit_optimal1", "per_unit_optimal2", "fast_path", "tolerance",
)


def _build_cost(spec: Union[None, float, np.ndarray], dim: int, where: str) -> CostMatrix:
    if spec is None:
        return CostMatrix.identity(dim)
    if isinstance(spec, float):
        return CostMatrix.scaled_identity(dim, spec)
    try:
        cost = CostMatrix(spec)
    except ScoregapError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    if cost.dim != dim:
        raise ConfigError(f"{where}: dimension {cost.dim} does not match feature count {dim}")
    return cost


def _load_wstar_vector(path: str, dim: int) -> np.ndarray:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot open w* file {path}: {exc}") from None
    try:
        values = json.loads(text)
    except json.JSONDecodeError:
        try:
            values = [float(tok) for tok in text.split()]
        except ValueError:
            raise ConfigError(f"{path}: neither JSON nor whitespace-separated numbers") from None
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.shape[0] != dim:
        raise ConfigError(f"{path}: expected {dim} values, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{path}: contains non-finite values")
    return arr


def _resolve_wstar(config: ExperimentConfig, ds: Dataset, features: np.ndarray,
                   drop: Tuple[str, ...]) -> np.ndarray:
    dim = features.shape[1]
    if config.wstar == "ones":
        return np.ones(dim)
    if config.wstar.startswith("fit:"):
        column = config.wstar[len("fit:"):]
        if column not in drop:
            raise ConfigError(
                f"wstar fit column {column!r} must also be excluded from features "
                f"(it is the outcome, not an attribute)"
            )
        return fit_ground_truth(features, ds.column(column))
    return _load_wstar_vector(config.wstar[len("vector:"):], dim)


def population_payload(model: PopulationModel, n_samples: int, seed: int) -> dict:
    """Metrics, guarantees, and alignment for one population."""
    rule = welfare_maximizing_rule(model)
    report = improvement_report(model, rule)
    conditions = condition_report(model)
    overlap = alignment(model.group1.projection, model.group2.projection, n_samples, seed)
    metrics: Dict[str, object] = {"welfare": report.welfare, "difference": report.difference}
    for gid, group in enumerate((report.group1, report.group2), start=1):
        metrics[f"I{gid}"] = group.total
        metrics[f"uI{gid}"] = group.per_unit
        metrics[f"uI{gid}_star"] = group.optimal_per_unit
    return {
        "alignment": overlap,
        "welfare_rule": rule.tolist(),
        "effective_ranks": [g.projection.rank for g in model.groups],
        "tie_warnings": [g.projection.tie_warning for g in model.groups],
        "metrics": metrics,
        "conditions": conditions.to_dict(),
    }


def error_record(exc: Exception) -> dict:
    """The `error` object that stands in a failed entry's place."""
    return {"type": type(exc).__name__, "message": str(exc)}


def _error_entry(name: str, exc: Exception) -> dict:
    return {"name": name, "error": error_record(exc)}


def prepare_features(config: ExperimentConfig) -> Tuple[Dataset, Tuple[str, ...], np.ndarray]:
    """Load the config's dataset and build the features every subcommand projects.

    Returns (dataset, dropped column names, feature matrix). A `fit:`
    outcome column is dropped along with `drop_columns`, and
    `standardize` is applied here.
    """
    ds = load_csv(config.dataset, config.encoding)
    drop = tuple(config.drop_columns)
    if config.wstar.startswith("fit:"):
        fit_column = config.wstar[len("fit:"):]
        ds.column_index(fit_column)
        if fit_column not in drop:
            drop += (fit_column,)
    features = ds.feature_matrix(drop)
    if config.standardize:
        features, _, _ = standardize_columns(features)
    return ds, drop, features


def _grouping_model(spec: GroupingSpec, ds: Dataset, features: np.ndarray,
                    w_star: np.ndarray, config: ExperimentConfig) -> Tuple[dict, PopulationModel]:
    masks = split_masks(ds, spec)
    for side, mask in enumerate(masks, start=1):
        if not mask.any():
            raise EmptyGroupError(f"grouping {spec.name!r}: group {side} received zero rows")
    dim = features.shape[1]
    groups = [
        Subgroup(
            name=f"{spec.name}:{side}",
            cost=_build_cost(cost, dim, f"costs.group{side}"),
            projection=subspace_projection(features[mask], config.rank),
        )
        for side, (mask, cost) in enumerate(zip(masks, (config.cost1, config.cost2)), start=1)
    ]
    sizes = [int(mask.sum()) for mask in masks]
    accounting = {"group_sizes": sizes, "n_excluded": int(masks[0].shape[0] - sum(sizes))}
    return accounting, PopulationModel(group1=groups[0], group2=groups[1], w_star=w_star)


def _listed_model(entry: ModelEntry) -> Tuple[dict, PopulationModel]:
    if entry.epsilon is not None:
        model = disparity_example(entry.epsilon)
        source: Dict[str, object] = {"epsilon": entry.epsilon}
    else:
        model = load_model(entry.path)
        source = {"path": entry.path}
    return {"source": source, "group_sizes": None, "n_excluded": None}, model


Population = Tuple[str, dict, Union[PopulationModel, ScoregapError]]


def _built(name: str, build, *args) -> Population:
    try:
        accounting, model = build(*args)
    except ScoregapError as exc:
        return name, {}, exc
    return name, accounting, model


def prepare(config: ExperimentConfig) -> Tuple[dict, List[Population]]:
    """Turn a config into the run's metadata and one population per entry.

    Each population is (name, accounting, model), where accounting holds
    the entry's row counts (or its model source) and model is the
    PopulationModel, or the ScoregapError that building it raised. Errors
    that poison the whole run (unreadable dataset, bad w* source) raise.
    The list is complete before it is returned, so the dataset is freed
    before any population is analysed.
    """
    meta: Dict[str, object] = {
        "schema_version": RESULT_SCHEMA_VERSION,
        "rank": config.rank,
        "seed": config.seed,
        "alignment_samples": config.alignment_samples,
        "wstar": config.wstar,
        "standardize": config.standardize,
        "dataset": config.dataset,
        "n_rows": None,
        "n_dropped": None,
    }
    if config.dataset is not None:
        ds, drop, features = prepare_features(config)
        w_star = _resolve_wstar(config, ds, features, drop)
        meta["n_rows"] = ds.size
        meta["n_dropped"] = ds.n_dropped
        meta["feature_names"] = list(ds.feature_names(drop))
        populations = [_built(spec.name, _grouping_model, spec, ds, features, w_star, config)
                       for spec in config.groupings]
    else:
        populations = [_built(entry.name, _listed_model, entry) for entry in config.models]
    return meta, populations


def run_analysis(config: ExperimentConfig) -> dict:
    """Execute every grouping/model entry and assemble the result document.

    Dataset and config errors that poison the whole run (unreadable file,
    bad w* source) raise; errors scoped to one entry are captured inside
    that entry.
    """
    meta, populations = prepare(config)
    entries: List[dict] = []
    for name, accounting, model in populations:
        if isinstance(model, ScoregapError):
            entries.append(_error_entry(name, model))
            continue
        try:
            entry = {"name": name, **accounting}
            entry.update(population_payload(model, config.alignment_samples, config.seed))
        except ScoregapError as exc:
            entry = _error_entry(name, exc)
        entries.append(entry)

    entries.sort(key=lambda e: e["name"])
    failures = [e for e in entries if "error" in e]
    meta["groupings"] = entries
    meta["n_failed"] = len(failures)
    return meta


def classify_failures(result: dict) -> Optional[str]:
    """None when clean; "degenerate" when every entry failed and every
    failure is a model degeneracy (the run as a whole is vacuous);
    "partial" otherwise."""
    entries = result["groupings"]
    failed = [e["error"]["type"] for e in entries if "error" in e]
    if not failed:
        return None
    degenerate_names = {cls.__name__ for cls in DEGENERATE_ERRORS}
    if len(failed) == len(entries) and all(name in degenerate_names for name in failed):
        return "degenerate"
    return "partial"


def render_json(result: dict) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(result, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _flatten_entry(entry: dict) -> Dict[str, object]:
    row: Dict[str, object] = {c: None for c in CSV_COLUMNS}
    row["name"] = entry["name"]
    if "error" in entry:
        err = entry["error"]
        row["error"] = f"{err['type']}: {err['message']}"
        return row
    sizes = entry.get("group_sizes")
    if sizes is not None:
        row["n1"], row["n2"] = sizes
        row["n_excluded"] = entry.get("n_excluded")
    row["rank1"], row["rank2"] = entry["effective_ranks"]
    row["alignment"] = entry["alignment"]
    metrics = entry["metrics"]
    for key in ("I1", "I2", "uI1", "uI2", "uI1_star", "uI2_star", "welfare", "difference"):
        row[key] = metrics[key]
    conditions = entry["conditions"]
    for gid in (1, 2):
        for key in ("do_no_harm", "per_unit_optimal"):
            row[f"{key}{gid}"] = conditions[key][f"group{gid}"]["verdict"]
    row["equal_improvement"] = conditions["equal_improvement"]["verdict"]
    row["fast_path"] = conditions["fast_path"]
    row["tolerance"] = conditions["tolerance"]
    return row


def render_csv(result: dict) -> str:
    """Flat one-row-per-grouping table for plotting."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for entry in result["groupings"]:
        flat = _flatten_entry(entry)
        writer.writerow([_csv_cell(flat[c]) for c in CSV_COLUMNS])
    return buffer.getvalue()
