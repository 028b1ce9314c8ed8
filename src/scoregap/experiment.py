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
from .ingest import Dataset, GroupingSpec, load_csv, split_masks, standardize_columns
# `alignment` is imported but not called: benchmarks/run.py wraps this name
# and reads a sample count from its arguments. ROADMAP item 1 replaces that
# counter, and this import goes with it.
from .linalg import alignment, as_vector, min_norm_least_squares, subspace_projection
from .metrics import improvement_report
from .modelio import cost_from_matrix, load_model
from .principal import PopulationModel, welfare_maximizing_rule

RESULT_SCHEMA_VERSION = 4

# Error types that mean the instance violates the model's standing
# assumptions (no gain possible anywhere) rather than being malformed.
DEGENERATE_ERRORS = (DegenerateObjectiveError, ZeroProjectedRuleError)

CSV_COLUMNS = (
    "name", "error", "n1", "n2", "n_excluded", "rank1", "rank2", "alignment",
    "I1", "I2", "uI1", "uI2", "uI1_star", "uI2_star", "welfare", "difference",
    "do_no_harm1", "do_no_harm2", "equal_improvement",
    "per_unit_optimal1", "per_unit_optimal2", "fast_path",
)


def _build_cost(spec: Union[None, float, np.ndarray], dim: int, where: str) -> CostMatrix:
    if isinstance(spec, float):
        return CostMatrix.scaled_identity(dim, spec)
    return cost_from_matrix(spec, dim, where, "feature count")


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
    try:
        return as_vector(values, path, dim)
    except ScoregapError as exc:
        raise ConfigError(str(exc)) from None


def _resolve_wstar(config: ExperimentConfig, ds: Dataset, features: np.ndarray) -> np.ndarray:
    dim = features.shape[1]
    if config.wstar == "ones":
        return np.ones(dim)
    if config.wstar.startswith("fit:"):
        return min_norm_least_squares(features, ds.column(config.wstar[len("fit:"):]))
    return _load_wstar_vector(config.wstar[len("vector:"):], dim)


def population_payload(model: PopulationModel) -> dict:
    """Metrics, guarantees, and alignment for one population."""
    rule = welfare_maximizing_rule(model)
    metrics = improvement_report(model, rule)
    conditions = condition_report(model)
    return {
        "alignment": model.alignment,
        "welfare_rule": rule.tolist(),
        "effective_ranks": [g.projection.rank for g in model.groups],
        "tie_warnings": [g.projection.tie_warning for g in model.groups],
        "metrics": metrics,
        "conditions": conditions,
    }


def _error_entry(name: str, exc: Exception) -> dict:
    """A failed entry: its name and an `error` object in place of the payload."""
    return {"name": name, "error": {"type": type(exc).__name__, "message": str(exc)}}


def prepare_features(config: ExperimentConfig) -> Tuple[Dataset, Tuple[str, ...], np.ndarray]:
    """Load the config's dataset and build the features the pipeline projects.

    Returns (dataset, dropped column names, feature matrix). The dataset
    keeps the text of the columns the groupings' predicates read. A
    `fit:` outcome column is dropped along with `drop_columns`, and
    `standardize` is applied here.
    """
    predicates = [p for spec in config.groupings for p in (spec.group1, spec.group2) if p is not None]
    ds = load_csv(config.dataset, config.encoding, {p.column for p in predicates})
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
        "wstar": config.wstar,
        "standardize": config.standardize,
        "dataset": config.dataset,
        "n_rows": None,
        "n_dropped": None,
    }
    if config.dataset is not None:
        ds, drop, features = prepare_features(config)
        w_star = _resolve_wstar(config, ds, features)
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
            entry.update(population_payload(model))
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
