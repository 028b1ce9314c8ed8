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
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from .errors import ConfigError, EmptyGroupError, NonFiniteError, ScoregapError, captured, naming, opening
from .agents import CostMatrix, Subgroup
from .conditions import condition_report, disparity_example
from .config import ExperimentConfig, ModelEntry
from .ingest import Dataset, GroupingSpec, load_csv, split_masks, standardize_columns
# benchmarks/run.py wraps `alignment` and `load_model`, unused here, until ROADMAP item 1 replaces its counters.
from .linalg import alignment, as_vector, min_norm_least_squares, subspace_projection, unit_exponent
from .metrics import improvement_report
from .modelio import load_model, model_from_dict, read_model_files
from .principal import PopulationModel, welfare_maximizing_rule

RESULT_SCHEMA_VERSION = 7

# The CSV table: one (column, key path) pair per column, each path as `_leaves` names it.
CSV_FIELDS = (
    ("name", "name"), ("error", "error"), ("n1", "group_sizes.0"), ("n2", "group_sizes.1"),
    ("n_excluded", "n_excluded"), ("rank1", "effective_ranks.0"), ("rank2", "effective_ranks.1"),
    ("alignment", "alignment"),
    *((key, f"metrics.{key}")
      for key in ("I1", "I2", "uI1", "uI2", "uI1_star", "uI2_star", "welfare", "difference")),
    ("do_no_harm1", "conditions.do_no_harm.group1.verdict"),
    ("do_no_harm2", "conditions.do_no_harm.group2.verdict"),
    ("equal_improvement", "conditions.equal_improvement.verdict"),
    ("per_unit_optimal1", "conditions.per_unit_optimal.group1.verdict"),
    ("per_unit_optimal2", "conditions.per_unit_optimal.group2.verdict"),
    ("fast_path", "conditions.fast_path"),
)
CSV_COLUMNS = tuple(column for column, _ in CSV_FIELDS)


def _load_wstar_vector(path: str, dim: int) -> np.ndarray:
    with opening(path, "w* file "), open(path, encoding="utf-8-sig") as handle:
        text = handle.read()
    try:
        values = json.loads(text)
    except (ValueError, RecursionError):  # JSONDecodeError, an integer too long to convert, deep nesting
        try:
            values = [float(tok) for tok in text.split()]
        except ValueError:
            raise ConfigError(f"{path}: neither JSON nor whitespace-separated numbers") from None
    with naming():
        return as_vector(values, path, dim)


def _leaves(value, key: str = ""):
    """(dotted key path, leaf) for every leaf of a document, in sorted-key order; list items are keyed by index."""
    if isinstance(value, (dict, list)):
        for k, v in sorted(value.items()) if isinstance(value, dict) else enumerate(value):
            yield from _leaves(v, f"{key}.{k}" if key else str(k))
    else:
        yield key, value


def population_payload(model: PopulationModel) -> dict:
    """Metrics, guarantees, and alignment for one population; NonFiniteError
    names the first key that overflowed, since a JSON document holds no inf."""
    with np.errstate(over="ignore"):  # an overflow shows as a non-finite value, named below
        rule = welfare_maximizing_rule(model)
        metrics = improvement_report(model)
        conditions = condition_report(model)
    payload = {
        "alignment": model.alignment,
        "welfare_rule": rule.tolist(),
        "effective_ranks": [g.projection.rank for g in model.groups],
        "tie_warnings": [g.projection.tie_warning for g in model.groups],
        "metrics": metrics,
        "conditions": conditions,
    }
    for key, leaf in _leaves(payload):
        if isinstance(leaf, float) and not math.isfinite(leaf):
            raise NonFiniteError(f"{key}: overflows to a non-finite value")
    return payload


def prepare_features(config: ExperimentConfig) -> Tuple[Dataset, Tuple[str, ...], np.ndarray, np.ndarray]:
    """Load the config's dataset and build the features and w* the pipeline uses.

    Returns (dataset, dropped column names, feature matrix, w*). A `fit:`
    outcome column is dropped along with `drop_columns` (a ConfigError if
    no column is left), and `standardize` is applied before w* is fitted.
    """
    ds = load_csv(config.dataset, config.encoding)
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
    e = unit_exponent(features)  # each gathered block is scaled by 2**-e in place, so that no cell's QR overflows
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
    blocks = (features[order[start:start + size]] for start, size in zip(starts[large], counts[large]))
    factors = [np.linalg.qr(np.ldexp(block, -e, out=block), mode="r") for block in blocks]
    small_rows = (counts < d)[cell]

    def stack(mask: np.ndarray) -> np.ndarray:
        held = [factors[i] for i in np.flatnonzero(mask[first_rows])]
        small = features[mask & small_rows]
        return np.vstack(held + [np.ldexp(small, -e, out=small)])

    return stack


def _grouping_model(spec: GroupingSpec, split, stack: Callable[[np.ndarray], np.ndarray],
                    costs: Sequence[CostMatrix], w_star: np.ndarray, rank: int) -> Tuple[dict, PopulationModel]:
    if isinstance(split, ScoregapError):
        raise split
    for side, mask in enumerate(split, start=1):
        if not mask.any():
            raise EmptyGroupError(f"grouping {spec.name!r}: group {side} received zero rows")
    groups = [
        Subgroup(name=f"{spec.name}:{side}", cost=cost, projection=subspace_projection(stack(mask), rank))
        for side, (mask, cost) in enumerate(zip(split, costs), start=1)
    ]
    sizes = [int(mask.sum()) for mask in split]
    accounting = {"group_sizes": sizes, "n_excluded": int(split[0].shape[0] - sum(sizes))}
    return accounting, PopulationModel(group1=groups[0], group2=groups[1], w_star=w_star)


def _listed_model(entry: ModelEntry, doc) -> Tuple[dict, PopulationModel]:
    if entry.epsilon is not None:
        model = disparity_example(entry.epsilon)
        source: Dict[str, object] = {"epsilon": entry.epsilon}
    else:
        model = model_from_dict(doc)
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
    bad w* source, a cost that does not fit the features) raise; errors
    scoped to one entry are captured inside that entry.
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
        costs = [CostMatrix.from_spec(cost, w_star.shape[0], f"costs.group{side}", "feature count")
                 for side, cost in enumerate((config.cost1, config.cost2), start=1)]
        splits = [captured(split_masks, ds, spec) for spec in config.groupings]
        stack = _cell_stacker(features, [m for split in splits if not isinstance(split, ScoregapError)
                                         for m in split])
        entries = [_entry(spec.name, _grouping_model, spec, split, stack, costs, w_star, config.rank)
                   for spec, split in zip(config.groupings, splits)]
    else:
        docs = read_model_files([entry.path for entry in config.models if entry.epsilon is None])[::-1]
        entries = [_entry(entry.name, _listed_model, entry, None if entry.epsilon is not None else docs.pop())
                   for entry in config.models]  # popped in config order, so each doc is dropped once it is built
    entries.sort(key=lambda e: e["name"])
    result["groupings"] = entries
    result["n_failed"] = sum("error" in e for e in entries)
    return result


def render_json(result: dict) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(result, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def render_csv(result: dict) -> str:
    """Flat one-row-per-grouping table for plotting; a path the entry lacks gives an empty cell."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for entry in result["groupings"]:
        leaves = dict(_leaves(entry))
        if "error" in entry:
            leaves["error"] = "{type}: {message}".format(**entry["error"])
        writer.writerow([_csv_cell(leaves.get(path)) for _, path in CSV_FIELDS])
    return buffer.getvalue()
