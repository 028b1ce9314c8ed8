"""The analyze pipeline: datasets or prebuilt models in, metric reports out.

`run_analysis` makes one pass per grouping or model entry: it builds each
subgroup's perceived subspace from its own rows (or it loads the listed
model), deploys the welfare-maximizing rule and reports the six headline
quantities (total and per-unit improvements, per-unit optima for both
groups) plus subspace alignment and the full guarantee report. Each entry
is built and analysed under one error boundary: a failing grouping
becomes an error entry instead of aborting the run.

On a dataset, every grouping's rows are split first. The rows that fall
in the same groups across all groupings form a cell, and each cell of at
least d rows takes one QR, whose d x d R stands in for its rows in every
group that holds it (`_cell_stacker`). So the rows are factored about
once in all, not once per group, and a group's subspace equals the one
taken from its own rows up to roundoff.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    ConfigError,
    DegenerateObjectiveError,
    EmptyGroupError,
    NonFiniteError,
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

RESULT_SCHEMA_VERSION = 5

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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot open w* file {path}: {exc}") from None
    try:
        values = json.loads(text)
    except ValueError:  # JSONDecodeError, or an integer too long to convert
        try:
            values = [float(tok) for tok in text.split()]
        except ValueError:
            raise ConfigError(f"{path}: neither JSON nor whitespace-separated numbers") from None
    try:
        return as_vector(values, path, dim)
    except ScoregapError as exc:
        raise ConfigError(str(exc)) from None


def _non_finite_keys(value, key: str = ""):
    """Key paths of the non-finite floats in `value`, in sorted-key order."""
    if isinstance(value, (dict, list)):
        for k, v in sorted(value.items()) if isinstance(value, dict) else enumerate(value):
            yield from _non_finite_keys(v, f"{key}.{k}" if key else k)
    elif isinstance(value, float) and not math.isfinite(value):
        yield key


def population_payload(model: PopulationModel) -> dict:
    """Metrics, guarantees, and alignment for one population; NonFiniteError
    names the first key that overflowed, since a JSON document holds no inf."""
    with np.errstate(over="ignore"):  # an overflow shows as a non-finite value, named below
        rule = welfare_maximizing_rule(model)
        metrics = improvement_report(model, rule)
        conditions = condition_report(model)
    payload = {
        "alignment": model.alignment,
        "welfare_rule": rule.tolist(),
        "effective_ranks": [g.projection.rank for g in model.groups],
        "tie_warnings": [g.projection.tie_warning for g in model.groups],
        "metrics": metrics,
        "conditions": conditions,
    }
    for key in _non_finite_keys(payload):
        raise NonFiniteError(f"{key}: overflows to a non-finite value")
    return payload


def prepare_features(config: ExperimentConfig) -> Tuple[Dataset, Tuple[str, ...], np.ndarray, np.ndarray]:
    """Load the config's dataset and build the features and w* the pipeline uses.

    Returns (dataset, dropped column names, feature matrix, w*). The
    dataset keeps the text of the columns the groupings' predicates read.
    A `fit:` outcome column is dropped along with `drop_columns` (a
    ConfigError if no column is left), and `standardize` is applied
    before w* is fitted.
    """
    predicates = [p for spec in config.groupings for p in (spec.group1, spec.group2) if p is not None]
    ds = load_csv(config.dataset, config.encoding, {p.column for p in predicates})
    drop = tuple(config.drop_columns)
    source, _, argument = config.wstar.partition(":")
    if source == "fit":
        ds.column_index(argument)
        if argument not in drop:
            drop += (argument,)
    features = ds.feature_matrix(drop)
    if not features.shape[1]:
        raise ConfigError(f"drop_columns: dropping {', '.join(drop)} leaves no feature column")
    if config.standardize:
        features, _, _ = standardize_columns(features)
    if source == "fit":
        w_star = min_norm_least_squares(features, ds.column(argument))
    elif source == "vector":
        w_star = _load_wstar_vector(argument, features.shape[1])
    else:
        w_star = np.ones(features.shape[1])
    return ds, drop, features, w_star


def _split(ds: Dataset, spec: GroupingSpec) -> Union[Tuple[np.ndarray, np.ndarray], ScoregapError]:
    """The grouping's two row masks, or the error that becomes its entry."""
    try:
        return split_masks(ds, spec)
    except ScoregapError as exc:
        return exc


def _cell_stacker(features: np.ndarray, masks: Sequence[np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """`stack(mask)`: a matrix with the singular values and right singular vectors of features[mask].

    The rows that fall in the same masks form a cell, so each mask is a
    union of cells. Each cell of n_c >= d rows that some mask holds is
    factored once, X_c = Q_c R_c, and a mask's stack is the d x d R_c of
    its large cells over the rows of its small ones. Up to row order
    X_g = diag(Q_c) S_g with diag(Q_c) orthonormal, so S_g has the same
    singular values and right singular vectors as X_g, and min(rows, d) is
    min(n_g, d) (TSQR: Demmel, Grigori, Hoemmen & Langou, SIAM J. Sci.
    Comput. 34(1), 2012). Only large cells cost a Python step, so there
    are at most n/d of them.
    """
    n, d = features.shape
    labels, span = np.zeros(n, dtype=np.int64), 1  # labels < span
    covered = np.zeros(n, dtype=bool)
    for mask in masks:
        if span > 2 ** 62:  # re-densify before 2 * labels + 1 overflows int64
            labels, span = np.unique(labels, return_inverse=True)[1], n
        labels, span = 2 * labels + mask, 2 * span
        covered |= mask
    _, cell, counts = np.unique(labels, return_inverse=True, return_counts=True)
    order = np.argsort(cell, kind="stable")
    starts = np.cumsum(counts) - counts
    firsts = order[starts]  # one row of each cell
    large = np.flatnonzero((counts >= d) & covered[firsts])
    first_rows = firsts[large]
    factors = [np.linalg.qr(features[order[start:start + size]], mode="r")
               for start, size in zip(starts[large], counts[large])]
    small_rows = (counts < d)[cell]

    def stack(mask: np.ndarray) -> np.ndarray:
        held = [factors[i] for i in np.flatnonzero(mask[first_rows])]
        return np.vstack(held + [features[mask & small_rows]])

    return stack


def _grouping_model(spec: GroupingSpec, split, stack: Callable[[np.ndarray], np.ndarray],
                    w_star: np.ndarray, config: ExperimentConfig) -> Tuple[dict, PopulationModel]:
    if isinstance(split, ScoregapError):
        raise split
    for side, mask in enumerate(split, start=1):
        if not mask.any():
            raise EmptyGroupError(f"grouping {spec.name!r}: group {side} received zero rows")
    dim = w_star.shape[0]
    groups = [
        Subgroup(
            name=f"{spec.name}:{side}",
            cost=_build_cost(cost, dim, f"costs.group{side}"),
            projection=subspace_projection(stack(mask), config.rank),
        )
        for side, (mask, cost) in enumerate(zip(split, (config.cost1, config.cost2)), start=1)
    ]
    sizes = [int(mask.sum()) for mask in split]
    accounting = {"group_sizes": sizes, "n_excluded": int(split[0].shape[0] - sum(sizes))}
    return accounting, PopulationModel(group1=groups[0], group2=groups[1], w_star=w_star)


def _listed_model(entry: ModelEntry) -> Tuple[dict, PopulationModel]:
    if entry.epsilon is not None:
        model = disparity_example(entry.epsilon)
        source: Dict[str, object] = {"epsilon": entry.epsilon}
    else:
        model = load_model(entry.path)
        source = {"path": entry.path}
    return {"source": source, "group_sizes": None, "n_excluded": None}, model


def _entry(name: str, build, *args) -> dict:
    """One result entry: the population `build(*args)` returns, analysed.

    A ScoregapError raised while building or analysing it becomes the
    entry's `error` object in place of the payload.
    """
    try:
        accounting, model = build(*args)
        return {"name": name, **accounting, **population_payload(model)}
    except ScoregapError as exc:
        return {"name": name, "error": {"type": type(exc).__name__, "message": str(exc)}}


def run_analysis(config: ExperimentConfig) -> dict:
    """Execute every grouping/model entry and assemble the result document.

    Dataset and config errors that poison the whole run (unreadable file,
    bad w* source) raise; errors scoped to one entry are captured inside
    that entry.
    """
    result: Dict[str, object] = {
        "schema_version": RESULT_SCHEMA_VERSION,
        "rank": config.rank,
        "wstar": config.wstar,
        "standardize": config.standardize,
        "dataset": config.dataset,
        "n_rows": None,
        "n_dropped": None,
    }
    if config.dataset is not None:
        ds, drop, features, w_star = prepare_features(config)
        result.update(n_rows=ds.size, n_dropped=ds.n_dropped, feature_names=list(ds.feature_names(drop)))
        splits = [_split(ds, spec) for spec in config.groupings]
        stack = _cell_stacker(features, [m for split in splits if not isinstance(split, ScoregapError)
                                         for m in split])
        entries = [_entry(spec.name, _grouping_model, spec, split, stack, w_star, config)
                   for spec, split in zip(config.groupings, splits)]
    else:
        entries = [_entry(entry.name, _listed_model, entry) for entry in config.models]
    entries.sort(key=lambda e: e["name"])
    result["groupings"] = entries
    result["n_failed"] = sum("error" in e for e in entries)
    return result


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
